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
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

from .graphhash import _check_topology, _CheckedTuple, _encode_topology, _refuse_surrogates, _text_digest
from .graphhash import normalize_source

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
        return _member(cls, name, "task_category")


def _member(members: Any, name: str, what: str) -> Any:
    """The member of enum ``members`` whose value is ``name``; any other name is refused."""
    for member in members:
        if member.value == name:
            return member
    raise ValueError(f"unknown {what} {name!r} (expected one of: {', '.join([m.value for m in members])})")


_CATEGORIES = {category.value: category for category in TaskCategory}

_HEX = "0123456789abcdefABCDEF"
_MAX_FLOAT = sys.float_info.max


# The field rules: each tests a value's exact type (``type(v) is int`` excludes ``bool``),
# then its value, in ingest's words. Ingest's fallbacks call them on a line's JSON values
# and keep what they return, a number as a float. The model constructors call them on
# their own fields with ``exact``, which refuses a number that a float would change.
def _text(value: Any, key: str, nonempty: bool = False) -> str:
    if type(value) is not str:
        raise ValueError(f"{key} must be a string")
    if nonempty and not value:
        raise ValueError(f"{key} must be nonempty")
    return _refuse_surrogates(value, key)


def _count(value: Any, key: str, least: int) -> int:
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer")
    # A count must be writable as text: at most sys.get_int_max_str_digits() digits (0: no cap;
    # older interpreters lack it). 2000 bits make under 603 digits, below the least cap (640).
    if value.bit_length() > 2000:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and abs(value) >= 10**limit:
            raise ValueError(f"{key} must have at most {limit} digits")
    if value < least:
        raise ValueError(f"{key} must be >= {least}, got {value}")
    return value


def _is_real(value: Any) -> bool:
    # Finite and within float range: rejects NaN, infinities and huge integers.
    return type(value) in (int, float) and abs(value) <= _MAX_FLOAT


def _real(value: Any, key: str, positive: bool = False, exact: bool = False) -> float:
    if not _is_real(value):
        raise ValueError(f"{key} must be a finite number")
    if not exact:
        value = float(value)
    elif float(value) != value:  # ingest reads a number as a float, which would change this integer
        raise ValueError(f"{key} {value} is not exact as a float")
    if positive and not value > 0:
        raise ValueError(f"{key} must be positive, got {value}")
    return value


def _object(value: Any, key: str) -> dict[str, Any]:
    if type(value) is not dict:
        raise ValueError(f"{key} must be an object")
    return value


def _manifest_rules(sample_id: str, framework: str, operator_count: int, graph_hash: str,
                    parameter_count: int | None) -> None:
    _text(sample_id, "sample_id", nonempty=True)
    _text(framework, "framework")
    _count(operator_count, "operator_count", 1)
    if not _text(graph_hash, "graph_hash") or graph_hash.strip(_HEX):
        raise ValueError("graph_hash must be a nonempty hex digest")
    if parameter_count is not None:
        _count(parameter_count, "parameter_count", 0)


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
# Each outcome's kind name, by its error code.
_OUTCOME_KINDS = {code: kind for kind, code in _OUTCOME_CODES.items()}


class ScoreRow(NamedTuple):
    """What scoring reads of a record: a completed run (``error_code``
    None) is correct at level t when ``passing``, its largest min_passing_t
    (inf if any is null), is <= min(t, 0). A failed run has its outcome's
    ``error_code``, ``passing`` inf and no speedup."""

    sample_id: str
    error_code: ErrorCode | None
    passing: float
    speedup: float | None


def _record_rules(sample_id: str, eager: float, compiled: float | None, warmup: int, timed: int,
                  completed: bool, exact: bool = False) -> tuple[float, float | None]:
    _text(sample_id, "sample_id", nonempty=True)
    eager = _real(eager, "eager_time_s", positive=True, exact=exact)
    if compiled is None:
        if completed:
            raise ValueError("completed record requires compiled_time_s")
    elif not completed:
        _real(compiled, "compiled_time_s")  # a time of the wrong type is named as such first
        raise ValueError("compiled_time_s is only valid for completed records")
    else:
        compiled = _real(compiled, "compiled_time_s", positive=True, exact=exact)
        speedup = eager / compiled
        if not 0 < speedup <= _MAX_FLOAT:
            raise ValueError("speedup eager_time_s / compiled_time_s must be finite and positive,"
                             f" got {speedup}")
    _count(warmup, "warmup_iters", 0)
    _count(timed, "timed_iters", 1)
    return eager, compiled


class RecordsHeader(_CheckedTuple, namedtuple("RecordsHeader", "grid p b producer")):
    """First line of a records file: settings shared by every record."""

    __slots__ = ()

    def __new__(cls, grid: Iterable[float], p: float, b: float, producer: str) -> RecordsHeader:
        _text(producer, "producer")
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
        # Text is refused as the grid, which would be read character by character, and as a level float() reads.
        levels = [levels] if isinstance(levels, (str, bytes, bytearray)) else list(levels)
        if any([isinstance(t, (str, bytes, bytearray)) for t in levels]):
            raise TypeError
        grid = tuple([float(t) + 0.0 for t in levels])
    except OverflowError:  # an integer beyond float range: not finite either
        grid = (math.inf,)
    except (TypeError, ValueError):  # not iterable, or a level float() cannot take
        raise ValueError("grid must be an iterable of real numbers") from None
    if not all(map(math.isfinite, grid)):
        raise ValueError("grid levels must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly ascending")
    return grid


def check_penalties(p: float, b: float) -> None:
    if type(p) is not float or type(b) is not float:
        from numbers import Real  # numpy's scalar types register as real numbers
        if not isinstance(p, Real) or not isinstance(b, Real):
            raise ValueError("penalties p and b must be real numbers")
    if not 0 < p < 1 or not 0 < b < 1:
        raise ValueError("penalties p and b must lie in (0, 1)")


# Each checker tests a field's common JSON form inline and calls its field
# rule only for the rest: a rare valid form, or a fault the rule words. The
# last fields share one combined test; if it fails, ``_manifest_rules`` or
# ``_record_rules`` checks them field by field, as the model constructors do.
def _check_manifest(data: Mapping[str, Any]) -> tuple:
    """Run every check of a manifest line, in a fixed order; return its values as a tuple
    in ``SampleManifest``'s field order, each in its JSON form but ``task_category``."""
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
        _count(parameter_count, "parameter_count", 0)
    digest_inputs = data.get("source_digest_inputs")
    if digest_inputs is not None:
        if type(digest_inputs) is not dict:
            _object(digest_inputs, "source_digest_inputs")
        source = digest_inputs.get("normalized_source")
        if type(source) is not str or not source.isascii():
            _text(source, "normalized_source")
        _check_topology(digest_inputs.get("topology"))
    sample_id, framework, category = data.get("sample_id"), data.get("framework"), data.get("task_category")
    operator_count, hex_digest = data.get("operator_count"), data.get("graph_hash")
    category = _CATEGORIES.get(category) if type(category) is str else None  # a list is unhashable
    if not (
        type(sample_id) is str and sample_id and sample_id.isascii()
        and type(framework) is str and framework.isascii() and category is not None
        and type(operator_count) is int and operator_count >= 1
        and (parameter_count is None or parameter_count >= 0)
        and type(hex_digest) is str and hex_digest and not hex_digest.strip(_HEX)
    ):
        _manifest_rules(sample_id, framework, operator_count, hex_digest, parameter_count)
        category = TaskCategory.from_name(_text(data.get("task_category"), "task_category"))
    return sample_id, framework, category, operator_count, hex_digest, dtypes, parameter_count, digest_inputs


def _check_record(data: Mapping[str, Any], grid: frozenset[float]) -> tuple:
    """Run every check of a record line, in a fixed order; return its values as a tuple in
    ``RunRecord``'s field order, the outcome as its kind name and ``detail``: the
    ``(tensor_index, kind name, min_passing_t)`` comparisons of a completed run, else its
    message. Each min_passing_t must be one of the ``grid`` levels."""
    raw_outcome = data.get("outcome")
    if type(raw_outcome) is not dict:
        _object(raw_outcome, "outcome")
    outcome = raw_outcome.get("kind")
    if type(outcome) is not str or outcome not in _OUTCOME_CODES:
        raise ValueError(f"unknown outcome kind {_text(outcome, 'kind')!r}")
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
                level = _real(level, "min_passing_t")
                if level not in grid:
                    raise ValueError(
                        f"min_passing_t {level} is not on the declared grid's numeric levels (t <= 0)"
                    )
            if not (type(tensor_index) is int and tensor_index >= 0 and type(kind) is str and kind.isascii()):
                tensor_index, kind = _count(tensor_index, "tensor_index", 0), _text(kind, "kind")
            detail.append((tensor_index, kind, level))
        if not detail:
            raise ValueError("completed outcome requires at least one comparison")
    else:
        detail = raw_outcome.get("message", "")
        if type(detail) is not str or not detail.isascii():
            detail = _text(detail, "message")
    sample_id, eager, compiled = data.get("sample_id"), data.get("eager_time_s"), data.get("compiled_time_s")
    warmup, timed = data.get("warmup_iters"), data.get("timed_iters")
    if not (
        type(sample_id) is str and sample_id and sample_id.isascii()
        and type(eager) is float and 0 < eager <= _MAX_FLOAT
        and type(warmup) is int and warmup >= 0 and type(timed) is int and timed >= 1
        and (compiled is None if not completed else (
            type(compiled) is float and compiled > 0 and 0 < eager / compiled <= _MAX_FLOAT
        ))
    ):
        eager, compiled = _record_rules(sample_id, eager, compiled, warmup, timed, completed)
    return sample_id, eager, outcome, detail, compiled, warmup, timed


def _build_score_row(record: tuple) -> ScoreRow:
    sample_id, eager, outcome, detail, compiled, _, _ = record
    code = _OUTCOME_CODES[outcome]
    # tuple.__new__ skips the named tuple's Python-level __new__, once per record line.
    if code is not None:
        return tuple.__new__(ScoreRow, (sample_id, code, math.inf, None))
    passing = -math.inf
    for _, _, t in detail:
        if t is None:
            passing = math.inf
            break
        if t > passing:
            passing = t
    return tuple.__new__(ScoreRow, (sample_id, None, passing, eager / compiled))


def header_to_dict(header: RecordsHeader) -> dict[str, Any]:
    return {**header._asdict(), "grid": list(header.grid)}


def header_from_dict(data: Mapping[str, Any]) -> RecordsHeader:
    """Check the header's JSON types; ``RecordsHeader`` checks its values and the producer."""
    raw_grid = data.get("grid")
    if not isinstance(raw_grid, list) or not raw_grid or not all(map(_is_real, raw_grid)):
        raise ValueError("grid must be a nonempty list of finite numbers")
    return RecordsHeader(raw_grid, _real(data.get("p"), "p"), _real(data.get("b"), "b"), data.get("producer"))


def read_manifest_lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield each line of a manifests file, stripped, with its graph hash.

    Every line is checked in full, as ``load_manifests`` checks it, with
    the same errors, raised when the bad line is reached.
    """

    def build(manifest: tuple) -> str:
        _, _, _, _, graph_hash, _, _, _ = manifest
        return graph_hash

    return _ingest_manifests(Path(path), build)


def load_sample_groups(path: str | Path, mismatched: list[str] | None = None) -> list[SampleGroup]:
    """Load a manifests file keeping only each line's ``SampleGroup``.

    Every line is checked in full, so this accepts exactly the files
    ``load_manifests`` accepts, with the same errors; only the group is
    built. With ``mismatched`` given, this also audits graph hashes: the
    id of each line whose ``source_digest_inputs`` hash to other than its
    stored graph_hash, in either case, is appended to it in file order.
    """

    def build(manifest: tuple) -> SampleGroup:
        sample_id, framework, category, operator_count, graph_hash, _, _, inputs = manifest
        if mismatched is not None and inputs is not None:
            # Checked JSON lists encode as the tuples ``HashInput`` freezes.
            source = normalize_source(inputs["normalized_source"])
            if _text_digest(source, _encode_topology(inputs["topology"])) != graph_hash.lower():
                mismatched.append(sample_id)
        return tuple.__new__(SampleGroup, (sample_id, framework, category, operator_count))

    return [group for _, group in _ingest_manifests(Path(path), build)]


def load_score_rows(path: str | Path) -> tuple[RecordsHeader, list[ScoreRow]]:
    """``load_records``, checking every line in full but keeping only each ``ScoreRow``."""
    return _load_records(Path(path), _build_score_row)


_Item = TypeVar("_Item")


def _load_records(path: Path, build: Callable[[tuple], _Item]) -> tuple[RecordsHeader, list[_Item]]:
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
    path: Path, build: Callable[[tuple], _Item]
) -> Iterator[tuple[str, _Item]]:
    return _ingest(path, _read_json_lines(path), _check_manifest, build, "no manifests")


def _ingest(
    path: Path,
    lines: Iterator[tuple[int, str, dict[str, Any]]],
    check: Callable[[dict[str, Any]], tuple],
    build: Callable[[tuple], _Item],
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
        sample_id = checked[0]  # the first of both checkers' values
        duplicate = first_seen.setdefault(sample_id, lineno)
        if duplicate != lineno:
            raise IngestError(
                f"{path}:{lineno}: duplicate sample_id {sample_id!r}"
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
