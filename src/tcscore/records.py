"""Manifest and run-record data model with line-delimited JSON ingestion.

A dataset is two files. The manifests file carries one JSON manifest per
line. The records file starts with a header object declaring the
tolerance grid and penalty settings its producer used, followed by one
record per line. Loading validates every model invariant and reports
problems as ``path:line: message``.
"""

from __future__ import annotations

import errno
import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .graphhash import HashInput, _check_topology, _freeze_topology, graph_hash, normalize_source
from .tolerance import ScalarKind

__all__ = [
    "CompileFailure",
    "Completed",
    "IngestError",
    "RecordId",
    "RecordsHeader",
    "RunOutcome",
    "RunRecord",
    "RuntimeCrash",
    "SampleGroup",
    "SampleManifest",
    "TaskCategory",
    "TensorComparison",
    "jsonl_writer",
    "load_manifests",
    "load_record_ids",
    "load_records",
    "load_sample_groups",
    "read_manifest_lines",
    "write_manifests",
    "write_records",
]


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

_HEX_DIGEST = re.compile(r"[0-9a-fA-F]+\Z")


@dataclass(frozen=True, slots=True)
class SampleManifest:
    """Static metadata for one computational-graph sample."""

    sample_id: str
    framework: str
    task_category: TaskCategory
    operator_count: int
    graph_hash: str
    dtypes: frozenset[ScalarKind] = frozenset()
    parameter_count: int | None = None
    source_digest_inputs: HashInput | None = None

    def __post_init__(self) -> None:
        _manifest_rules(self.sample_id, self.operator_count, self.parameter_count, self.graph_hash)


# Each model type's value rules, called by its ``__post_init__`` and by ingest's checker.
def _manifest_rules(
    sample_id: str, operator_count: int, parameter_count: int | None, graph_hash: str
) -> None:
    if not sample_id:
        raise ValueError("sample_id must be nonempty")
    if operator_count < 1:
        raise ValueError(f"operator_count must be >= 1, got {operator_count}")
    if parameter_count is not None and parameter_count < 0:
        raise ValueError(f"parameter_count must be >= 0, got {parameter_count}")
    if not _HEX_DIGEST.match(graph_hash):
        raise ValueError("graph_hash must be a nonempty hex digest")


class SampleGroup(NamedTuple):
    """The manifest fields scoring and ``stats`` read: join key, group, size."""

    sample_id: str
    framework: str
    task_category: TaskCategory
    operator_count: int


class RecordId(NamedTuple):
    """The one record field ``join_samples`` reads."""

    sample_id: str


@dataclass(frozen=True, slots=True)
class TensorComparison:
    """Per-output comparison summary at the record producer's grid.

    ``min_passing_t`` is the smallest grid level the output pair passes;
    None means the pair fails even at the loosest level.
    """

    tensor_index: int
    kind: ScalarKind
    min_passing_t: float | None

    def __post_init__(self) -> None:
        _comparison_rules(self.tensor_index)


def _comparison_rules(tensor_index: int) -> None:
    if tensor_index < 0:
        raise ValueError(f"tensor_index must be >= 0, got {tensor_index}")


@dataclass(frozen=True, slots=True)
class Completed:
    """Compiled run finished and its outputs were compared."""

    comparisons: tuple[TensorComparison, ...]

    def __post_init__(self) -> None:
        _completed_rules(self.comparisons)


def _completed_rules(comparisons: Sequence[Any]) -> None:
    if not comparisons:
        raise ValueError("completed outcome requires at least one comparison")


@dataclass(frozen=True, slots=True)
class RuntimeCrash:
    message: str = ""


@dataclass(frozen=True, slots=True)
class CompileFailure:
    message: str = ""


RunOutcome = Completed | RuntimeCrash | CompileFailure
_OUTCOMES = {"runtime_crash": RuntimeCrash, "compile_failure": CompileFailure}


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One measured run of a sample: timings plus its outcome."""

    sample_id: str
    eager_time_s: float
    outcome: RunOutcome
    compiled_time_s: float | None = None
    warmup_iters: int = 0
    timed_iters: int = 1

    def __post_init__(self) -> None:
        _record_rules(
            self.sample_id, self.eager_time_s, isinstance(self.outcome, Completed),
            self.compiled_time_s, self.warmup_iters, self.timed_iters,
        )


def _record_rules(
    sample_id: str, eager_time_s: float, completed: bool,
    compiled_time_s: float | None, warmup_iters: int, timed_iters: int,
) -> None:
    if not sample_id:
        raise ValueError("sample_id must be nonempty")
    if not eager_time_s > 0:
        raise ValueError(f"eager_time_s must be positive, got {eager_time_s}")
    if completed and compiled_time_s is None:
        raise ValueError("completed record requires compiled_time_s")
    if not completed and compiled_time_s is not None:
        raise ValueError("compiled_time_s is only valid for completed records")
    if compiled_time_s is not None:
        if not compiled_time_s > 0:
            raise ValueError(f"compiled_time_s must be positive, got {compiled_time_s}")
        speedup = eager_time_s / compiled_time_s
        if not 0 < speedup <= sys.float_info.max:
            raise ValueError(
                "speedup eager_time_s / compiled_time_s must be finite and"
                f" positive, got {speedup}"
            )
    if warmup_iters < 0:
        raise ValueError(f"warmup_iters must be >= 0, got {warmup_iters}")
    if timed_iters < 1:
        raise ValueError(f"timed_iters must be >= 1, got {timed_iters}")


@dataclass(frozen=True, slots=True)
class RecordsHeader:
    """First line of a records file: settings shared by every record."""

    grid: tuple[float, ...]
    p: float
    b: float
    producer: str


def manifest_to_dict(manifest: SampleManifest) -> dict[str, Any]:
    data: dict[str, Any] = {
        "sample_id": manifest.sample_id,
        "framework": manifest.framework,
        "task_category": manifest.task_category.value,
        "operator_count": manifest.operator_count,
        "graph_hash": manifest.graph_hash,
        "dtypes": sorted(kind.value for kind in manifest.dtypes),
    }
    if manifest.parameter_count is not None:
        data["parameter_count"] = manifest.parameter_count
    if manifest.source_digest_inputs is not None:
        data["source_digest_inputs"] = {
            "normalized_source": manifest.source_digest_inputs.normalized_source,
            "topology": [
                [op, list(inputs)]
                for op, inputs in manifest.source_digest_inputs.topology
            ],
        }
    return data


def manifest_from_dict(data: Mapping[str, Any]) -> SampleManifest:
    return _build_manifest(_check_manifest(data))


def _check_manifest(data: Mapping[str, Any]) -> tuple:
    """Run every check of a manifest line, in a fixed order; return the checked values.

    They are ``SampleGroup``'s four fields, graph_hash, the dtype names,
    parameter_count and the ``source_digest_inputs`` object or None.
    """
    dtypes = data.get("dtypes", [])
    if not isinstance(dtypes, list) or not all(isinstance(v, str) for v in dtypes):
        raise ValueError("dtypes must be a list of kind names")
    parameter_count = data.get("parameter_count")
    if parameter_count is not None:
        parameter_count = _expect_int(data, "parameter_count")
    digest_inputs = None
    if data.get("source_digest_inputs") is not None:
        digest_inputs = _expect_object(data, "source_digest_inputs")
        _expect_str(digest_inputs, "normalized_source")
        _check_topology(digest_inputs.get("topology"))
    values = (
        _expect_str(data, "sample_id"),
        _expect_str(data, "framework"),
        TaskCategory.from_name(_expect_str(data, "task_category")),
        _expect_int(data, "operator_count"),
        _expect_str(data, "graph_hash"),
        dtypes, parameter_count, digest_inputs,
    )
    _manifest_rules(values[0], values[3], parameter_count, values[4])
    return values


def _build_manifest(values: tuple) -> SampleManifest:
    sample_id, framework, category, operator_count, graph_hash, dtypes, parameters, digest = values
    if digest is not None:
        source, topology = digest["normalized_source"], digest["topology"]
        digest = HashInput(normalize_source(source), _freeze_topology(topology))
    dtypes = frozenset(map(ScalarKind.from_name, dtypes))
    return SampleManifest(
        sample_id, framework, category, operator_count, graph_hash, dtypes, parameters, digest
    )


def record_to_dict(record: RunRecord) -> dict[str, Any]:
    outcome = record.outcome
    if isinstance(outcome, Completed):
        encoded: dict[str, Any] = {
            "kind": "completed",
            "comparisons": [
                {
                    "tensor_index": c.tensor_index,
                    "kind": c.kind.value,
                    "min_passing_t": c.min_passing_t,
                }
                for c in outcome.comparisons
            ],
        }
    elif isinstance(outcome, RuntimeCrash):
        encoded = {"kind": "runtime_crash", "message": outcome.message}
    else:
        encoded = {"kind": "compile_failure", "message": outcome.message}
    data: dict[str, Any] = {
        "sample_id": record.sample_id,
        "eager_time_s": record.eager_time_s,
        "outcome": encoded,
        "warmup_iters": record.warmup_iters,
        "timed_iters": record.timed_iters,
    }
    if record.compiled_time_s is not None:
        data["compiled_time_s"] = record.compiled_time_s
    return data


def record_from_dict(
    data: Mapping[str, Any], grid: frozenset[float] | None = None
) -> RunRecord:
    """Parse one record; with ``grid`` given, min_passing_t must be one of its levels."""
    return _build_record(_check_record(data, grid))


def _check_record(data: Mapping[str, Any], grid: frozenset[float] | None) -> tuple:
    """Run every check of a record line, in a fixed order; return the checked values.

    They are sample_id, eager_time_s, the outcome kind, its ``(tensor_index,
    kind name, min_passing_t)`` comparisons or its message,
    compiled_time_s, warmup_iters and timed_iters.
    """
    raw_outcome = _expect_object(data, "outcome")
    outcome_kind = _expect_str(raw_outcome, "kind")
    if outcome_kind == "completed":
        raw_comparisons = raw_outcome.get("comparisons")
        if not isinstance(raw_comparisons, list):
            raise ValueError("completed outcome requires a comparisons list")
        detail: Any = [_check_comparison(c, grid) for c in raw_comparisons]
        _completed_rules(detail)
    elif outcome_kind in _OUTCOMES:
        detail = _expect_str(raw_outcome, "message", "")
    else:
        raise ValueError(f"unknown outcome kind {outcome_kind!r}")
    compiled = data.get("compiled_time_s")
    if compiled is not None:
        compiled = _expect_real(data, "compiled_time_s")
    values = (
        _expect_str(data, "sample_id"),
        _expect_real(data, "eager_time_s"),
        outcome_kind, detail, compiled,
        _expect_int(data, "warmup_iters"),
        _expect_int(data, "timed_iters"),
    )
    _record_rules(values[0], values[1], outcome_kind == "completed", *values[4:])
    return values


def _check_comparison(data: Any, grid: frozenset[float] | None) -> tuple:
    if type(data) is not dict:
        raise ValueError("comparison entries must be objects")
    level = data.get("min_passing_t")
    if level is not None:
        level = _expect_real(data, "min_passing_t")
        if grid is not None and level not in grid:
            raise ValueError(
                f"min_passing_t {level} is not on the declared grid's numeric levels (t <= 0)"
            )
    tensor_index = _expect_int(data, "tensor_index")
    kind = _expect_str(data, "kind")
    _comparison_rules(tensor_index)
    return tensor_index, kind, level


def _build_record(values: tuple) -> RunRecord:
    sample_id, eager_time_s, outcome_kind, detail, compiled, warmup, timed = values
    if outcome_kind == "completed":
        outcome = Completed(
            tuple([TensorComparison(i, ScalarKind.from_name(kind), t) for i, kind, t in detail])
        )
    else:
        outcome = _OUTCOMES[outcome_kind](detail)
    return RunRecord(sample_id, eager_time_s, outcome, compiled, warmup, timed)


def header_to_dict(header: RecordsHeader) -> dict[str, Any]:
    return {
        "grid": list(header.grid),
        "p": header.p,
        "b": header.b,
        "producer": header.producer,
    }


def header_from_dict(data: Mapping[str, Any]) -> RecordsHeader:
    raw_grid = data.get("grid")
    if (
        not isinstance(raw_grid, list)
        or not raw_grid
        or not all(_is_real(v) for v in raw_grid)
    ):
        raise ValueError("grid must be a nonempty list of finite numbers")
    grid = tuple(float(v) for v in raw_grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly ascending")
    p = _expect_real(data, "p")
    b = _expect_real(data, "b")
    if not 0 < p < 1 or not 0 < b < 1:
        raise ValueError("penalties p and b must lie in (0, 1)")
    return RecordsHeader(grid, p, b, _expect_str(data, "producer"))


def read_manifest_lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield each line of a manifests file, stripped, with its graph hash.

    Every line is checked in full, as ``load_manifests`` checks it, with
    the same errors, raised when the bad line is reached.
    """
    return _ingest_manifests(Path(path), lambda values: values[4])


def load_manifests(path: str | Path) -> list[SampleManifest]:
    """Load a manifests file: one JSON manifest per line, unique ids, at least one line."""
    return [manifest for _, manifest in _ingest_manifests(Path(path), _build_manifest)]


def load_sample_groups(path: str | Path, mismatched: list[str] | None = None) -> list[SampleGroup]:
    """Load a manifests file keeping only each line's ``SampleGroup``.

    Every line is checked in full, so this accepts exactly the files
    ``load_manifests`` accepts, with the same errors; only the group is
    built. With ``mismatched`` given, this also audits graph hashes: the
    id of each line whose ``source_digest_inputs`` hash to other than its
    stored graph_hash, in either case, is appended to it in file order.
    """

    def build(values: tuple) -> SampleGroup:
        digest = values[7]
        if mismatched is not None and digest is not None:
            # Checked JSON lists encode as the tuples ``_build_manifest`` freezes.
            inputs = HashInput(normalize_source(digest["normalized_source"]), digest["topology"])
            if graph_hash(inputs) != values[4].lower():
                mismatched.append(values[0])
        return SampleGroup(*values[:4])

    return [group for _, group in _ingest_manifests(Path(path), build)]


def load_records(path: str | Path) -> tuple[RecordsHeader, list[RunRecord]]:
    """Load a records file: the header line plus one record per line.

    The header grid must contain level 0, each min_passing_t must be one
    of its levels t <= 0, and at least one record must follow. Returns the
    parsed header together with the records in file order.
    """
    return _load_records(Path(path), _build_record)


def load_record_ids(path: str | Path) -> tuple[RecordsHeader, list[RecordId]]:
    """``load_records``, checking every line in full but keeping only each ``RecordId``."""
    return _load_records(Path(path), lambda values: RecordId(values[0]))


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
    if 0.0 not in header.grid:
        # `violin` and the default `score` read level 0.
        raise IngestError(f"{path}:{lineno}: header grid must contain level 0")
    # A comparison passes at a numeric level; levels > 0 only forgive failures.
    grid = frozenset(t for t in header.grid if t <= 0)
    records = _ingest(
        path, lines, lambda obj: _check_record(obj, grid), build, "no records after the header"
    )
    return header, [record for _, record in records]


def write_manifests(path: str | Path, manifests: Iterable[SampleManifest]) -> None:
    """Write manifests as canonical JSON lines (sorted keys, compact)."""
    with jsonl_writer(path) as write:
        write(manifests)


def write_records(
    path: str | Path, header: RecordsHeader, records: Iterable[RunRecord]
) -> None:
    """Write the header line followed by one record per line."""
    with jsonl_writer(path, header) as write:
        write(records)


@contextmanager
def jsonl_writer(
    path: str | Path, header: RecordsHeader | None = None
) -> Iterator[Callable[[Iterable[Any]], None]]:
    """Yield a function that appends manifests, or records after ``header``, to ``path``.

    Given a ``header``, the file is a records file: the header line, then
    one line per record; otherwise one line per manifest. Model objects are
    written as canonical JSON; a ``str`` is a line already encoded, written
    as it is (a newline is added). Lines go to a
    temporary sibling of ``path`` (symlinks resolved) that replaces it
    when the block ends cleanly and is deleted on any exception, so
    ``path`` holds either its old bytes or every line. An existing target
    that is not a regular file (a directory, pipe or device) is refused.
    """
    to_dict = manifest_to_dict if header is None else record_to_dict
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
            if header is not None:
                fh.write(_encode_line(header_to_dict(header)) + "\n")
            yield lambda items: fh.writelines(
                (i if type(i) is str else _encode_line(to_dict(i))) + "\n" for i in items
            )
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


# Lines encode the acyclic dicts of ``*_to_dict``: no cycle check needed.
_encode_line = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode
# Stripped lines hold no JSON whitespace at either end: a full ``raw_decode`` is ``json.loads``.
_raw_decode = json.JSONDecoder().raw_decode


def _ingest_manifests(path: Path, build: Callable[[tuple], _Item]) -> Iterator[tuple[str, _Item]]:
    return _ingest(path, _read_json_lines(path), _check_manifest, build, "no manifests")


def _ingest(
    path: Path,
    lines: Iterator[tuple[int, str, dict[str, Any]]],
    check: Callable[[dict[str, Any]], tuple],
    build: Callable[[tuple], _Item],
    empty: str,
) -> Iterator[tuple[str, _Item]]:
    """Check every remaining line, yielding its text and what ``build`` keeps of it.

    ``check`` runs all of a line's checks and returns its checked values,
    the sample id first; ``build`` runs only on values that passed, so it
    cannot fail. Sample ids must be unique, and a file with no line left
    raises ``empty``: scores are means over a nonempty sample set.
    """
    first_seen: dict[str, int] = {}
    for lineno, text, obj in lines:
        try:
            values = check(obj)
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from exc
        duplicate = first_seen.setdefault(values[0], lineno)
        if duplicate != lineno:
            raise IngestError(
                f"{path}:{lineno}: duplicate sample_id {values[0]!r}"
                f" (first seen at line {duplicate})"
            )
        yield text, build(values)
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
    return value


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
    return type(value) in (int, float) and abs(value) <= sys.float_info.max
