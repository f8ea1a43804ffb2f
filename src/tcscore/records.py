"""Line-delimited JSON ingestion of manifests and run records.

A dataset is two files. The manifests file carries one JSON manifest per
line. The records file starts with a header object declaring the
tolerance grid and penalty settings its producer used, followed by one
record per line. Loading validates every model invariant and reports
problems as ``path:line: message``.

Ingest keeps only what a command reads of each checked line: a
``SampleGroup``, a ``ScoreRow`` or a graph hash. The object model that
``load_manifests`` and ``load_records`` build lives in ``tcscore.model``;
this module serves its names on first access.
"""

from __future__ import annotations

import errno
import json
import math
import os
import sys
from collections import namedtuple
from contextlib import contextmanager
from enum import Enum, IntEnum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .graphhash import _check_topology, _refuse_surrogates, graph_digest, normalize_source

if TYPE_CHECKING:
    from .model import RunRecord, SampleManifest

# The object model's names: ``tcscore.model`` defines them and this module serves them
# on first access, so a caller that builds no model object never loads it.
MODEL_NAMES = (
    "CompileFailure", "Completed", "RunOutcome", "RunRecord", "RuntimeCrash", "SampleManifest",
    "TensorComparison", "load_manifests", "load_records", "manifest_to_dict", "record_to_dict",
    "score_row", "write_manifests", "write_records",
)
__all__ = [
    "ErrorCode", "IngestError", "RecordsHeader", "SampleGroup", "ScoreRow", "TaskCategory", "file_writer",
    "load_sample_groups", "load_score_rows", "read_manifest_lines", *MODEL_NAMES,
]


def __getattr__(name: str) -> Any:
    if name in MODEL_NAMES:
        from . import model

        return getattr(model, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class IngestError(ValueError):
    """An input file violates the serialized data model."""


class TaskCategory(Enum):
    CV = "CV"
    NLP = "NLP"
    AUDIO = "Audio"
    MULTIMODAL = "Multimodal"
    SCIENTIFIC = "Scientific"
    OTHER = "Other"

    @classmethod
    def from_name(cls, name: str) -> "TaskCategory":
        category = _CATEGORIES.get(name)
        if category is None:
            expected = ", ".join(_CATEGORIES)
            raise ValueError(f"unknown task_category {name!r} (expected one of: {expected})")
        return category


_CATEGORIES = {category.value: category for category in TaskCategory}

_HEX = "0123456789abcdefABCDEF"
_MAX_FLOAT = sys.float_info.max


# Each model type's value rules, called by its ``__post_init__`` and on ingest's checked line.
def _manifest_rules(manifest: SampleManifest | CheckedManifest) -> None:
    _refuse_surrogates(manifest.sample_id, "sample_id")
    _refuse_surrogates(manifest.framework, "framework")
    if not manifest.sample_id:
        raise ValueError("sample_id must be nonempty")
    if manifest.operator_count < 1:
        raise ValueError(f"operator_count must be >= 1, got {manifest.operator_count}")
    if manifest.parameter_count is not None and manifest.parameter_count < 0:
        raise ValueError(f"parameter_count must be >= 0, got {manifest.parameter_count}")
    if not manifest.graph_hash or manifest.graph_hash.strip(_HEX):
        raise ValueError("graph_hash must be a nonempty hex digest")


class SampleGroup(NamedTuple):
    """The manifest fields scoring and ``stats`` read: join key, group, size."""

    sample_id: str
    framework: str
    task_category: TaskCategory
    operator_count: int


class ErrorCode(IntEnum):
    """Failure category; a level t forgives codes with value <= t."""

    ACCURACY = 1
    RUNTIME_CRASH = 2
    COMPILE_FAILURE = 3

    def tolerated_at(self, t: float) -> bool:
        return t >= self.value


# Each outcome kind a record may name, with the error code of a run that ends so.
_OUTCOME_CODES = {"completed": None, "runtime_crash": ErrorCode.RUNTIME_CRASH,
                  "compile_failure": ErrorCode.COMPILE_FAILURE}


class ScoreRow(NamedTuple):
    """What scoring reads of a record: a completed run (``error_code``
    None) is correct at level t when ``passing``, its largest min_passing_t
    (inf if any is null), is <= min(t, 0). A failed run has its outcome's
    ``error_code``, ``passing`` inf and no speedup."""

    sample_id: str
    error_code: ErrorCode | None
    passing: float
    speedup: float | None


def _comparison_rules(tensor_index: int) -> None:
    if tensor_index < 0:
        raise ValueError(f"tensor_index must be >= 0, got {tensor_index}")


def _completed_rules(comparisons: Sequence[Any]) -> None:
    if not comparisons:
        raise ValueError("completed outcome requires at least one comparison")


def _record_rules(record: RunRecord | CheckedRecord, completed: bool) -> None:
    eager, compiled = record.eager_time_s, record.compiled_time_s
    _refuse_surrogates(record.sample_id, "sample_id")
    if not record.sample_id:
        raise ValueError("sample_id must be nonempty")
    if not eager > 0:
        raise ValueError(f"eager_time_s must be positive, got {eager}")
    if completed and compiled is None:
        raise ValueError("completed record requires compiled_time_s")
    if not completed and compiled is not None:
        raise ValueError("compiled_time_s is only valid for completed records")
    if compiled is not None:
        if not compiled > 0:
            raise ValueError(f"compiled_time_s must be positive, got {compiled}")
        speedup = eager / compiled
        if not 0 < speedup <= _MAX_FLOAT:
            raise ValueError(
                "speedup eager_time_s / compiled_time_s must be finite and"
                f" positive, got {speedup}"
            )
    if record.warmup_iters < 0:
        raise ValueError(f"warmup_iters must be >= 0, got {record.warmup_iters}")
    if record.timed_iters < 1:
        raise ValueError(f"timed_iters must be >= 1, got {record.timed_iters}")


class RecordsHeader(namedtuple("RecordsHeader", "grid p b producer")):
    """First line of a records file: settings shared by every record."""

    __slots__ = ()

    def __new__(cls, grid: Iterable[float], p: float, b: float, producer: str) -> RecordsHeader:
        _refuse_surrogates(producer, "producer")
        grid = level_grid(grid)
        check_penalties(p, b)
        if 0.0 not in grid:
            # `violin` and the default `score` read level 0.
            raise ValueError("grid must contain level 0")
        return tuple.__new__(cls, (grid, p, b, producer))


# The grid and penalty rules that the header, ``ScoreConfig`` and the tolerance scan share.
def level_grid(levels: Iterable[float]) -> tuple[float, ...]:
    """Check a level grid; return its one form, floats with 0 never -0.0 (-0.0 + 0.0 is 0.0)."""
    try:
        grid = tuple([float(t) + 0.0 for t in levels])
    except OverflowError:  # an integer beyond float range: not finite either
        grid = (math.inf,)
    if not all(map(math.isfinite, grid)):
        raise ValueError("grid levels must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly ascending")
    return grid


def check_penalties(p: float, b: float) -> None:
    if not 0 < p < 1 or not 0 < b < 1:
        raise ValueError("penalties p and b must lie in (0, 1)")


class CheckedManifest(NamedTuple):
    """A manifest line's checked JSON values, named as ``SampleManifest``'s fields."""

    sample_id: str
    framework: str
    task_category: TaskCategory
    operator_count: int
    graph_hash: str
    dtypes: list[str]
    parameter_count: int | None
    source_digest_inputs: Mapping[str, Any] | None


# Each checker tests a field's common JSON form inline and calls its
# ``_expect_*`` helper only for the rest: a rare valid form, or a fault it
# words. The last fields and the model rules share one test; if it fails,
# their helpers and the rules run in the order of the full checks.
def _check_manifest(data: Mapping[str, Any]) -> CheckedManifest:
    """Run every check of a manifest line, in a fixed order; return the checked values."""
    dtypes = data.get("dtypes", [])
    try:
        names = "".join(dtypes) if type(dtypes) is list else None
    except TypeError:  # an entry that is not a string
        names = None
    if names is None:
        raise ValueError("dtypes must be a list of kind names")
    if not names.isascii():
        _refuse_surrogates(names, "dtypes")
    parameter_count = data.get("parameter_count")
    if parameter_count is not None and type(parameter_count) is not int:
        _expect_int(data, "parameter_count")
    digest_inputs = data.get("source_digest_inputs")
    if digest_inputs is not None:
        if type(digest_inputs) is not dict:
            _expect_object(data, "source_digest_inputs")
        source = digest_inputs.get("normalized_source")
        if type(source) is not str or not source.isascii():
            _expect_str(digest_inputs, "normalized_source")
        _check_topology(digest_inputs.get("topology"))
    sample_id, framework, category = data.get("sample_id"), data.get("framework"), data.get("task_category")
    operator_count, hex_digest = data.get("operator_count"), data.get("graph_hash")
    category = _CATEGORIES.get(category) if type(category) is str else None  # a list is unhashable
    if (
        type(sample_id) is str and sample_id and sample_id.isascii()
        and type(framework) is str and framework.isascii() and category is not None
        and type(operator_count) is int and operator_count >= 1
        and (parameter_count is None or parameter_count >= 0)
        and type(hex_digest) is str and hex_digest and not hex_digest.strip(_HEX)
    ):
        return CheckedManifest(
            sample_id, framework, category, operator_count, hex_digest,
            dtypes, parameter_count, digest_inputs,
        )
    checked = CheckedManifest(
        _expect_str(data, "sample_id"),
        _expect_str(data, "framework"),
        TaskCategory.from_name(_expect_str(data, "task_category")),
        _expect_int(data, "operator_count"),
        _expect_str(data, "graph_hash"),
        dtypes, parameter_count, digest_inputs,
    )
    _manifest_rules(checked)
    return checked

class CheckedRecord(NamedTuple):
    """A record line's checked JSON values, named as ``RunRecord``'s fields.

    The outcome is its kind name and ``detail``: the ``(tensor_index,
    kind name, min_passing_t)`` comparisons of a completed run, else its
    message.
    """

    sample_id: str
    eager_time_s: float
    outcome: str
    detail: list[tuple[int, str, float | None]] | str
    compiled_time_s: float | None
    warmup_iters: int
    timed_iters: int


def _check_record(data: Mapping[str, Any], grid: frozenset[float]) -> CheckedRecord:
    """Run every check of a record line, in a fixed order; return the checked values.

    Each min_passing_t must be one of the ``grid`` levels.
    """
    raw_outcome = data.get("outcome")
    if type(raw_outcome) is not dict:
        _expect_object(data, "outcome")
    outcome = raw_outcome.get("kind")
    if type(outcome) is not str or outcome not in _OUTCOME_CODES:
        raise ValueError(f"unknown outcome kind {_expect_str(raw_outcome, 'kind')!r}")
    completed = _OUTCOME_CODES[outcome] is None
    if completed:
        comparisons = raw_outcome.get("comparisons")
        if type(comparisons) is not list:
            raise ValueError("completed outcome requires a comparisons list")
        detail: Any = []
        for c in comparisons:
            if type(c) is not dict:
                raise ValueError("comparison entries must be objects")
            level, tensor_index, kind = c.get("min_passing_t"), c.get("tensor_index"), c.get("kind")
            if type(level) is int and level in grid:  # a level written as a JSON integer
                level = float(level)
            elif level is not None and not (type(level) is float and level in grid):
                level = _expect_real(c, "min_passing_t")
                if level not in grid:
                    raise ValueError(
                        f"min_passing_t {level} is not on the declared grid's numeric levels (t <= 0)"
                    )
            if not (type(tensor_index) is int and tensor_index >= 0 and type(kind) is str and kind.isascii()):
                tensor_index, kind = _expect_int(c, "tensor_index"), _expect_str(c, "kind")
                _comparison_rules(tensor_index)
            detail.append((tensor_index, kind, level))
        _completed_rules(detail)
    else:
        detail = raw_outcome.get("message", "")
        if type(detail) is not str or not detail.isascii():
            detail = _expect_str(raw_outcome, "message", "")
    sample_id, eager, compiled = data.get("sample_id"), data.get("eager_time_s"), data.get("compiled_time_s")
    warmup, timed = data.get("warmup_iters"), data.get("timed_iters")
    if (
        type(sample_id) is str and sample_id and sample_id.isascii()
        and type(eager) is float and 0 < eager <= _MAX_FLOAT
        and type(warmup) is int and warmup >= 0 and type(timed) is int and timed >= 1
        and (compiled is None if not completed else (
            type(compiled) is float and compiled > 0 and 0 < eager / compiled <= _MAX_FLOAT
        ))
    ):
        return CheckedRecord(sample_id, eager, outcome, detail, compiled, warmup, timed)
    if compiled is not None:
        compiled = _expect_real(data, "compiled_time_s")
    checked = CheckedRecord(
        _expect_str(data, "sample_id"),
        _expect_real(data, "eager_time_s"),
        outcome, detail, compiled,
        _expect_int(data, "warmup_iters"),
        _expect_int(data, "timed_iters"),
    )
    _record_rules(checked, completed)
    return checked


def _build_score_row(r: CheckedRecord) -> ScoreRow:
    sample_id, eager, outcome, detail, compiled, _, _ = r
    code = _OUTCOME_CODES[outcome]
    if code is not None:
        return ScoreRow(sample_id, code, math.inf, None)
    passing = -math.inf
    for _, _, t in detail:
        if t is None:
            passing = math.inf
            break
        if t > passing:
            passing = t
    return ScoreRow(sample_id, None, passing, eager / compiled)


def header_to_dict(header: RecordsHeader) -> dict[str, Any]:
    return {
        "grid": list(header.grid),
        "p": header.p,
        "b": header.b,
        "producer": header.producer,
    }


def header_from_dict(data: Mapping[str, Any]) -> RecordsHeader:
    """Check the header's JSON types; ``RecordsHeader`` checks its values."""
    raw_grid = data.get("grid")
    if not isinstance(raw_grid, list) or not raw_grid or not all(map(_is_real, raw_grid)):
        raise ValueError("grid must be a nonempty list of finite numbers")
    p, b = _expect_real(data, "p"), _expect_real(data, "b")
    return RecordsHeader(raw_grid, p, b, _expect_str(data, "producer"))


def read_manifest_lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield each line of a manifests file, stripped, with its graph hash.

    Every line is checked in full, as ``load_manifests`` checks it, with
    the same errors, raised when the bad line is reached.
    """
    return _ingest_manifests(Path(path), lambda checked: checked.graph_hash)


def load_sample_groups(path: str | Path, mismatched: list[str] | None = None) -> list[SampleGroup]:
    """Load a manifests file keeping only each line's ``SampleGroup``.

    Every line is checked in full, so this accepts exactly the files
    ``load_manifests`` accepts, with the same errors; only the group is
    built. With ``mismatched`` given, this also audits graph hashes: the
    id of each line whose ``source_digest_inputs`` hash to other than its
    stored graph_hash, in either case, is appended to it in file order.
    """

    def build(m: CheckedManifest) -> SampleGroup:
        inputs = m.source_digest_inputs
        if mismatched is not None and inputs is not None:
            # Checked JSON lists encode as the tuples ``_build_manifest`` freezes.
            source = normalize_source(inputs["normalized_source"])
            if graph_digest(source, inputs["topology"]) != m.graph_hash.lower():
                mismatched.append(m.sample_id)
        return SampleGroup._make(m[:4])  # a group is a checked manifest's first four fields

    return [group for _, group in _ingest_manifests(Path(path), build)]


def load_score_rows(path: str | Path) -> tuple[RecordsHeader, list[ScoreRow]]:
    """``load_records``, checking every line in full but keeping only each ``ScoreRow``."""
    return _load_records(Path(path), _build_score_row)


_Item = TypeVar("_Item")
_Checked = TypeVar("_Checked", CheckedManifest, CheckedRecord)


def _load_records(path: Path, build: Callable[[CheckedRecord], _Item]) -> tuple[RecordsHeader, list[_Item]]:
    lines = _read_json_lines(path)
    for lineno, _, obj in lines:
        try:
            header = header_from_dict(obj)
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: bad header: {exc}") from exc
        break
    else:
        raise IngestError(f"{path}: missing header line")
    # A comparison passes at a numeric level; levels > 0 only forgive failures.
    grid = frozenset(t for t in header.grid if t <= 0)
    records = _ingest(
        path, lines, lambda obj: _check_record(obj, grid), build, "no records after the header"
    )
    return header, [record for _, record in records]


@contextmanager
def file_writer(path: str | Path) -> Iterator[Callable[[str], int]]:
    """Yield a ``write(text)`` whose text replaces ``path`` when the block ends cleanly.

    Every file tcscore writes goes through here. Text goes to a temporary
    sibling of ``path`` (symlinks resolved) that replaces it when the
    block ends cleanly and is deleted on any exception, so ``path`` holds
    either its old bytes or all the text. An existing target that is not
    a regular file (a directory, pipe or device) is refused.
    """
    target = Path(path).resolve()
    if target.exists() and not target.is_file():
        raise OSError(errno.EINVAL, "not a regular file", str(path))
    temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        fh = temporary.open("w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh.write
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


# Lines encode the acyclic dicts of ``*_to_dict``: no cycle check needed.
_encode_line = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode
# Stripped lines hold no JSON whitespace at either end: a full ``raw_decode`` is ``json.loads``.
_raw_decode = json.JSONDecoder().raw_decode


def _ingest_manifests(
    path: Path, build: Callable[[CheckedManifest], _Item]
) -> Iterator[tuple[str, _Item]]:
    return _ingest(path, _read_json_lines(path), _check_manifest, build, "no manifests")


def _ingest(
    path: Path,
    lines: Iterator[tuple[int, str, dict[str, Any]]],
    check: Callable[[dict[str, Any]], _Checked],
    build: Callable[[_Checked], _Item],
    empty: str,
) -> Iterator[tuple[str, _Item]]:
    """Check every remaining line, yielding its text and what ``build`` keeps of it.

    ``check`` runs all of a line's checks and returns its checked values;
    ``build`` runs only on values that passed, so it cannot fail. Sample
    ids must be unique, and a file with no line left raises ``empty``:
    scores are means over a nonempty sample set.
    """
    first_seen: dict[str, int] = {}
    for lineno, text, obj in lines:
        try:
            checked = check(obj)
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from exc
        duplicate = first_seen.setdefault(checked.sample_id, lineno)
        if duplicate != lineno:
            raise IngestError(
                f"{path}:{lineno}: duplicate sample_id {checked.sample_id!r}"
                f" (first seen at line {duplicate})"
            )
        yield text, build(checked)
    if not first_seen:
        raise IngestError(f"{path}: {empty}")


def _read_json_lines(path: Path) -> Iterator[tuple[int, str, dict[str, Any]]]:
    """Yield each line's number, its text stripped of surrounding whitespace, and its object."""
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                stripped = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise IngestError(f"{path}:{lineno}: invalid UTF-8") from None
            if not stripped:
                raise IngestError(f"{path}:{lineno}: blank line")
            try:
                obj, end = _raw_decode(stripped)
            except (ValueError, RecursionError):
                end = -1
            if end != len(stripped):
                try:
                    obj = json.loads(stripped)
                except (ValueError, RecursionError) as exc:
                    # Too deep a nesting, or an integer past Python's digit limit.
                    message = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                    raise IngestError(f"{path}:{lineno}: invalid JSON: {message}") from exc
            if not isinstance(obj, dict):
                raise IngestError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, stripped, obj


# The checks below test the exact types ``json.loads`` builds; ``type(v)
# is int`` also excludes ``bool``.
def _expect_str(data: Mapping[str, Any], key: str, default: str | None = None) -> str:
    value = data.get(key, default)
    if type(value) is not str:
        raise ValueError(f"{key} must be a string")
    return _refuse_surrogates(value, key)


def _expect_int(data: Mapping[str, Any], key: str) -> int:
    value = data.get(key)
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer")
    return value


def _expect_real(data: Mapping[str, Any], key: str) -> float:
    value = data.get(key)
    if not _is_real(value):
        raise ValueError(f"{key} must be a finite number")
    return float(value)


def _expect_object(data: Mapping[str, Any], key: str) -> Mapping[str, Any]:
    value = data.get(key)
    if type(value) is not dict:
        raise ValueError(f"{key} must be an object")
    return value


def _is_real(value: Any) -> bool:
    # Finite and within float range: rejects NaN, infinities and huge integers.
    return type(value) in (int, float) and abs(value) <= _MAX_FLOAT
