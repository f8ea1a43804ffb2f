"""The object model: manifests, run records and their outcomes, as frozen dataclasses.

``load_manifests``, ``load_records`` and ``simulator.simulate`` build them
from the values ``tcscore.records`` checked. ``tcscore.records`` serves
each name of ``MODEL_NAMES`` from here on first access, so no command
loads this module: none builds these objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Iterable

from .graphhash import HashInput
from .records import (
    MODEL_NAMES, _OUTCOME_KINDS, ErrorCode, RecordsHeader, ScoreRow, TaskCategory, _build_score_row, _count,
    _encode_line, _ingest_manifests, _load_records, _manifest_rules, _real, _record_rules, _text, file_writer,
    header_to_dict,
)
from .tolerance import ScalarKind

__all__ = list(MODEL_NAMES)


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
        # In the order ingest checks a line: dtypes, digest inputs, the rules, task_category.
        if type(self.dtypes) is not frozenset or not all(type(k) is ScalarKind for k in self.dtypes):
            raise ValueError("dtypes must be a frozenset of ScalarKind")
        if self.source_digest_inputs is not None and type(self.source_digest_inputs) is not HashInput:
            raise ValueError("source_digest_inputs must be a HashInput or None")
        _manifest_rules(self.sample_id, self.framework, self.operator_count, self.graph_hash,
                        self.parameter_count)
        if type(self.task_category) is not TaskCategory:
            raise ValueError("task_category must be a TaskCategory")


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
        level = self.min_passing_t
        if level is not None and _real(level, "min_passing_t", exact=True) > 0:
            raise ValueError(f"min_passing_t must be <= 0, got {level}")
        _count(self.tensor_index, "tensor_index", 0)
        if type(self.kind) is not ScalarKind:
            raise ValueError("kind must be a ScalarKind")


@dataclass(frozen=True, slots=True)
class Completed:
    """Compiled run finished and its outputs were compared."""

    kind: ClassVar[str] = _OUTCOME_KINDS[None]
    comparisons: tuple[TensorComparison, ...]

    def __post_init__(self) -> None:
        comparisons = self.comparisons
        if type(comparisons) is not tuple or not all(type(c) is TensorComparison for c in comparisons):
            raise ValueError("comparisons must be a tuple of TensorComparison")
        if not comparisons:
            raise ValueError("completed outcome requires at least one comparison")


@dataclass(frozen=True, slots=True)
class RuntimeCrash:
    error_code: ClassVar[ErrorCode] = ErrorCode.RUNTIME_CRASH
    kind: ClassVar[str] = _OUTCOME_KINDS[error_code]
    message: str = ""

    def __post_init__(self) -> None:
        _text(self.message, "message")


@dataclass(frozen=True, slots=True)
class CompileFailure:
    error_code: ClassVar[ErrorCode] = ErrorCode.COMPILE_FAILURE
    kind: ClassVar[str] = _OUTCOME_KINDS[error_code]
    message: str = ""

    def __post_init__(self) -> None:
        _text(self.message, "message")


RunOutcome = Completed | RuntimeCrash | CompileFailure
_OUTCOMES = {outcome.kind: outcome for outcome in RunOutcome.__args__}


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
        if type(self.outcome) not in _OUTCOMES.values():
            raise ValueError("outcome must be a Completed, RuntimeCrash or CompileFailure")
        _record_rules(self.sample_id, self.eager_time_s, self.compiled_time_s, self.warmup_iters,
                      self.timed_iters, type(self.outcome) is Completed, exact=True)


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
            "topology": manifest.source_digest_inputs.topology,
        }
    return data


def _build_manifest(manifest: tuple) -> SampleManifest:
    sample_id, framework, category, operator_count, graph_hash, dtypes, parameter_count, digest = manifest
    if digest is not None:
        digest = HashInput.from_source(digest["normalized_source"], digest["topology"])
    return SampleManifest(sample_id, framework, category, operator_count, graph_hash,
                          frozenset(map(ScalarKind.from_name, dtypes)), parameter_count, digest)


def record_to_dict(record: RunRecord) -> dict[str, Any]:
    outcome = record.outcome
    encoded: dict[str, Any] = {"kind": outcome.kind}
    if isinstance(outcome, Completed):
        encoded["comparisons"] = [
            {"tensor_index": c.tensor_index, "kind": c.kind.value, "min_passing_t": c.min_passing_t}
            for c in outcome.comparisons
        ]
    else:
        encoded["message"] = outcome.message
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


def _build_record(record: tuple) -> RunRecord:
    sample_id, eager, kind, detail, compiled, warmup, timed = record
    outcome = _OUTCOMES[kind]
    if outcome is Completed:
        detail = tuple([TensorComparison(i, ScalarKind.from_name(k), t) for i, k, t in detail])
    return RunRecord(sample_id, eager, outcome(detail), compiled, warmup, timed)


def score_row(record: RunRecord) -> ScoreRow:
    """Reduce a record to the ``ScoreRow`` that ``load_score_rows`` builds from its line."""
    outcome = record.outcome
    detail = outcome.message if not isinstance(outcome, Completed) else [
        (c.tensor_index, c.kind.value, c.min_passing_t) for c in outcome.comparisons
    ]
    return _build_score_row((record.sample_id, record.eager_time_s, outcome.kind, detail,
                             record.compiled_time_s, record.warmup_iters, record.timed_iters))


def load_manifests(path: str | Path) -> list[SampleManifest]:
    """Load a manifests file: one JSON manifest per line, unique ids, at least one line."""
    return [manifest for _, manifest in _ingest_manifests(Path(path), _build_manifest)]


def load_records(path: str | Path) -> tuple[RecordsHeader, list[RunRecord]]:
    """Load a records file: the header line plus one record per line.

    The header must pass ``RecordsHeader``'s rules, each min_passing_t
    must be one of its levels t <= 0, and at least one record must follow.
    Returns the parsed header together with the records in file order.
    """
    return _load_records(Path(path), _build_record)


def write_manifests(path: str | Path, manifests: Iterable[SampleManifest]) -> None:
    """Write manifests as canonical JSON lines (sorted keys, compact)."""
    with file_writer(path) as write:
        for manifest in manifests:
            write(_encode_line(manifest_to_dict(manifest)) + "\n")


def write_records(
    path: str | Path, header: RecordsHeader, records: Iterable[RunRecord]
) -> None:
    """Write the header line followed by one record per line."""
    with file_writer(path) as write:
        write(_encode_line(header_to_dict(header)) + "\n")
        for record in records:
            write(_encode_line(record_to_dict(record)) + "\n")
