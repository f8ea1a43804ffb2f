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
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Protocol, TypeVar

from .graphhash import HashInput
from .tolerance import ScalarKind

__all__ = [
    "CompileFailure",
    "Completed",
    "IngestError",
    "ManifestFields",
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
        if not self.sample_id:
            raise ValueError("sample_id must be nonempty")
        if self.operator_count < 1:
            raise ValueError(f"operator_count must be >= 1, got {self.operator_count}")
        if self.parameter_count is not None and self.parameter_count < 0:
            raise ValueError(
                f"parameter_count must be >= 0, got {self.parameter_count}"
            )
        if not _HEX_DIGEST.match(self.graph_hash):
            raise ValueError("graph_hash must be a nonempty hex digest")


class SampleGroup(NamedTuple):
    """The manifest fields scoring and ``stats`` read: join key, group, size."""

    sample_id: str
    framework: str
    task_category: TaskCategory
    operator_count: int


class ManifestFields(Protocol):
    """What ``SampleManifest`` and ``SampleGroup`` share; readers of only
    these fields take either."""

    @property
    def sample_id(self) -> str: ...
    @property
    def framework(self) -> str: ...
    @property
    def task_category(self) -> TaskCategory: ...
    @property
    def operator_count(self) -> int: ...


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
        if self.tensor_index < 0:
            raise ValueError(f"tensor_index must be >= 0, got {self.tensor_index}")


@dataclass(frozen=True, slots=True)
class Completed:
    """Compiled run finished and its outputs were compared."""

    comparisons: tuple[TensorComparison, ...]

    def __post_init__(self) -> None:
        if not self.comparisons:
            raise ValueError("completed outcome requires at least one comparison")


@dataclass(frozen=True, slots=True)
class RuntimeCrash:
    message: str = ""


@dataclass(frozen=True, slots=True)
class CompileFailure:
    message: str = ""


RunOutcome = Completed | RuntimeCrash | CompileFailure


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
        if not self.sample_id:
            raise ValueError("sample_id must be nonempty")
        if not self.eager_time_s > 0:
            raise ValueError(f"eager_time_s must be positive, got {self.eager_time_s}")
        completed = isinstance(self.outcome, Completed)
        if completed and self.compiled_time_s is None:
            raise ValueError("completed record requires compiled_time_s")
        if not completed and self.compiled_time_s is not None:
            raise ValueError("compiled_time_s is only valid for completed records")
        if self.compiled_time_s is not None:
            if not self.compiled_time_s > 0:
                raise ValueError(
                    f"compiled_time_s must be positive, got {self.compiled_time_s}"
                )
            speedup = self.eager_time_s / self.compiled_time_s
            if not 0 < speedup <= sys.float_info.max:
                raise ValueError(
                    "speedup eager_time_s / compiled_time_s must be finite and"
                    f" positive, got {speedup}"
                )
        if self.warmup_iters < 0:
            raise ValueError(f"warmup_iters must be >= 0, got {self.warmup_iters}")
        if self.timed_iters < 1:
            raise ValueError(f"timed_iters must be >= 1, got {self.timed_iters}")


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
    dtypes = data.get("dtypes", [])
    if not isinstance(dtypes, list) or not all(isinstance(v, str) for v in dtypes):
        raise ValueError("dtypes must be a list of kind names")
    parameter_count = data.get("parameter_count")
    if parameter_count is not None:
        parameter_count = _expect_int({"parameter_count": parameter_count}, "parameter_count")
    digest_inputs = None
    if data.get("source_digest_inputs") is not None:
        raw_digest = _expect_object(data, "source_digest_inputs")
        digest_inputs = HashInput.from_source(
            _expect_str(raw_digest, "normalized_source"), raw_digest.get("topology")
        )
    return SampleManifest(
        sample_id=_expect_str(data, "sample_id"),
        framework=_expect_str(data, "framework"),
        task_category=TaskCategory.from_name(_expect_str(data, "task_category")),
        operator_count=_expect_int(data, "operator_count"),
        graph_hash=_expect_str(data, "graph_hash"),
        dtypes=frozenset(ScalarKind.from_name(v) for v in dtypes),
        parameter_count=parameter_count,
        source_digest_inputs=digest_inputs,
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
    """Parse one record; with ``grid`` given, min_passing_t must lie on it."""
    raw_outcome = _expect_object(data, "outcome")
    outcome_kind = _expect_str(raw_outcome, "kind")
    outcome: RunOutcome
    if outcome_kind == "completed":
        raw_comparisons = raw_outcome.get("comparisons")
        if not isinstance(raw_comparisons, list):
            raise ValueError("completed outcome requires a comparisons list")
        outcome = Completed(
            tuple(_comparison_from_dict(c, grid) for c in raw_comparisons)
        )
    elif outcome_kind == "runtime_crash":
        outcome = RuntimeCrash(_expect_str(raw_outcome, "message", ""))
    elif outcome_kind == "compile_failure":
        outcome = CompileFailure(_expect_str(raw_outcome, "message", ""))
    else:
        raise ValueError(f"unknown outcome kind {outcome_kind!r}")
    compiled = data.get("compiled_time_s")
    if compiled is not None:
        compiled = _expect_real({"compiled_time_s": compiled}, "compiled_time_s")
    return RunRecord(
        sample_id=_expect_str(data, "sample_id"),
        eager_time_s=_expect_real(data, "eager_time_s"),
        outcome=outcome,
        compiled_time_s=compiled,
        warmup_iters=_expect_int(data, "warmup_iters"),
        timed_iters=_expect_int(data, "timed_iters"),
    )


def _comparison_from_dict(
    data: Any, grid: frozenset[float] | None
) -> TensorComparison:
    if type(data) is not dict:
        raise ValueError("comparison entries must be objects")
    level = data.get("min_passing_t")
    if level is not None:
        level = _expect_real({"min_passing_t": level}, "min_passing_t")
        if grid is not None and level not in grid:
            raise ValueError(f"min_passing_t {level} is not on the declared grid")
    return TensorComparison(
        tensor_index=_expect_int(data, "tensor_index"),
        kind=ScalarKind.from_name(_expect_str(data, "kind")),
        min_passing_t=level,
    )


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


def read_manifest_lines(path: str | Path) -> Iterator[tuple[str, SampleManifest]]:
    """Yield each line of a manifests file, stripped, with its checked manifest.

    Lines are read one at a time and checked as ``load_manifests`` checks
    them, with the same errors, raised when the bad line is reached.
    """
    path = Path(path)
    return _ingest(path, _read_json_lines(path), manifest_from_dict)


def load_manifests(path: str | Path) -> list[SampleManifest]:
    """Load a manifests file: one JSON manifest per line, unique ids."""
    return [manifest for _, manifest in read_manifest_lines(path)]


def load_sample_groups(
    path: str | Path, inspect: Callable[[SampleManifest], None] | None = None
) -> list[SampleGroup]:
    """Load a manifests file keeping only each line's ``SampleGroup``.

    Every line is still parsed and checked as a full ``SampleManifest``,
    so this accepts exactly the files ``load_manifests`` accepts, with the
    same errors. ``inspect``, when given, sees each checked manifest, in
    file order, before it is dropped.
    """

    def parse(obj: dict[str, Any]) -> SampleGroup:
        manifest = manifest_from_dict(obj)
        if inspect is not None:
            inspect(manifest)
        return SampleGroup(
            manifest.sample_id,
            manifest.framework,
            manifest.task_category,
            manifest.operator_count,
        )

    path = Path(path)
    return [group for _, group in _ingest(path, _read_json_lines(path), parse)]


def load_records(path: str | Path) -> tuple[RecordsHeader, list[RunRecord]]:
    """Load a records file: the header line plus one record per line.

    The header grid must contain level 0, and each record's min_passing_t
    values must lie on it. Returns the parsed header together with the
    records in file order.
    """
    path = Path(path)
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
    grid = frozenset(header.grid)
    records = _ingest(path, lines, lambda obj: record_from_dict(obj, grid=grid))
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


_encode_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


_Item = TypeVar("_Item", SampleManifest, SampleGroup, RunRecord)


def _ingest(
    path: Path,
    lines: Iterator[tuple[int, str, dict[str, Any]]],
    parse: Callable[[dict[str, Any]], _Item],
) -> Iterator[tuple[str, _Item]]:
    """Parse every remaining line, yielding its text and item; sample ids must be unique."""
    first_seen: dict[str, int] = {}
    for lineno, text, obj in lines:
        try:
            item = parse(obj)
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from exc
        duplicate = first_seen.setdefault(item.sample_id, lineno)
        if duplicate != lineno:
            raise IngestError(
                f"{path}:{lineno}: duplicate sample_id {item.sample_id!r}"
                f" (first seen at line {duplicate})"
            )
        yield text, item


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
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
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
