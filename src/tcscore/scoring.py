"""Sample classification and the speedup / error-aware speedup scores.

Levels t <= 0 set numeric strictness; levels 1, 2, 3 progressively
forgive accuracy errors, runtime crashes, and compilation failures. The
macro scores aggregate geometric-mean speedups with penalty factors and
are provably equal to geometric means of per-sample rectified speedups,
which this module also computes so the two routes can check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Sequence

from .records import (
    CompileFailure,
    Completed,
    IngestError,
    RecordsHeader,
    RunRecord,
    RuntimeCrash,
    SampleGroup,
    SampleManifest,
    ScoreRow,
    check_penalties,
    level_grid,
)

__all__ = [
    "ClassifiedSample",
    "CurvePoint",
    "DEFAULT_CONFIG",
    "ErrorCode",
    "ScoreComponents",
    "ScoreConfig",
    "ScoreCurve",
    "classify",
    "components",
    "error_aware_rectified_speedup",
    "error_aware_score",
    "gamma",
    "gmrs",
    "join_samples",
    "rectified_speedup",
    "score_curve",
    "score_level",
    "score_rows",
    "speedup_score",
]


class ErrorCode(IntEnum):
    """Failure category; a level t forgives codes with value <= t."""

    ACCURACY = 1
    RUNTIME_CRASH = 2
    COMPILE_FAILURE = 3

    def tolerated_at(self, t: float) -> bool:
        return t >= self.value


@dataclass(frozen=True)
class ScoreConfig:
    """Scoring knobs: penalties and the ascending tolerance level grid."""

    degradation_penalty: float = 0.1  # p: exponent boost for correct slowdowns
    failure_penalty: float = 0.1  # b: score factor for failed samples
    grid: tuple[float, ...] = tuple(range(-10, 5))

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", level_grid(self.grid))
        check_penalties(self.degradation_penalty, self.failure_penalty)
        if not self.grid or self.grid[0] > 0:
            raise ValueError("grid must contain at least one level <= 0")

    @classmethod
    def from_header(cls, header: RecordsHeader) -> "ScoreConfig":
        """Adopt a records-file header; default levels > 0 fill in if it has none."""
        grid = header.grid
        if grid[-1] <= 0:
            grid += tuple(t for t in DEFAULT_CONFIG.grid if t > 0)
        return cls(header.p, header.b, grid)

    def level(self, t: float) -> float:
        """Level t as the grid holds it; a level off the grid is refused."""
        t = float(t)
        if t not in self.grid:
            raise ValueError(f"level {t} is not on the configured grid")
        return t + 0.0  # the grid's form: equal floats are one float, but for -0.0


# The paper's settings: the CLI's defaults, and the positive levels a header lacks.
DEFAULT_CONFIG = ScoreConfig()


@dataclass(frozen=True, slots=True)
class ClassifiedSample:
    """A sample's status at one tolerance level.

    Exactly one of ``speedup`` (correct execution) and ``error_code`` is
    set.
    """

    sample_id: str
    speedup: float | None = None
    error_code: ErrorCode | None = None

    def __post_init__(self) -> None:
        if (self.speedup is None) == (self.error_code is None):
            raise ValueError("exactly one of speedup and error_code must be set")
        if self.speedup is not None and not (
            math.isfinite(self.speedup) and self.speedup > 0
        ):
            raise ValueError(f"speedup must be finite and positive, got {self.speedup}")

    @classmethod
    def correct(cls, sample_id: str, speedup: float) -> "ClassifiedSample":
        return cls(sample_id, speedup=speedup)

    @classmethod
    def erroneous(cls, sample_id: str, code: ErrorCode) -> "ClassifiedSample":
        return cls(sample_id, error_code=ErrorCode(code))

    @property
    def is_correct(self) -> bool:
        return self.error_code is None


@dataclass(frozen=True)
class ScoreComponents:
    """Aggregate quantities for one tolerance level.

    Counts are informational; the scores read only the rate and mean
    fields, so fixture rows can be replayed without count data.
    """

    geomean_speedup: float  # alpha: geomean speedup over correct samples
    geomean_slowdown: float  # beta: geomean over correct samples slower than eager
    correct_fraction: float  # lambda
    slowdown_fraction: float  # eta: slowdown share among correct samples
    penalty: float  # gamma: aggregate failure penalty at this level
    error_shares: tuple[float, float, float] = (0.0, 0.0, 0.0)  # pi by error code
    total: int = 0
    correct: int = 0
    slowdowns: int = 0
    errors: int = 0
    errors_by_code: tuple[int, int, int] = (0, 0, 0)


def classify(record: RunRecord, t: float, cfg: ScoreConfig) -> ClassifiedSample:
    """Classify one record at level t (t must be on the config grid).

    Numeric correctness is decided on the t <= 0 axis; positive levels
    freeze correctness at its level-0 value. Forgiving an error category
    therefore never reclassifies a sample as correct, it only relaxes the
    penalty applied downstream.
    """
    cutoff = min(cfg.level(t), 0.0)
    outcome, sample_id = record.outcome, record.sample_id
    if isinstance(outcome, CompileFailure):
        return ClassifiedSample(sample_id, None, ErrorCode.COMPILE_FAILURE)
    if isinstance(outcome, RuntimeCrash):
        return ClassifiedSample(sample_id, None, ErrorCode.RUNTIME_CRASH)
    for comparison in outcome.comparisons:
        passing = comparison.min_passing_t
        if passing is None or not passing <= cutoff:
            return ClassifiedSample(sample_id, None, ErrorCode.ACCURACY)
    return ClassifiedSample(sample_id, record.eager_time_s / record.compiled_time_s)


def components(samples: Sequence[ClassifiedSample], t: float, cfg: ScoreConfig) -> ScoreComponents:
    """Aggregate a classified sample set at grid level t."""
    return _sample_point(samples, t, cfg).components


def _sample_point(samples: Sequence[ClassifiedSample], t: float, cfg: ScoreConfig) -> CurvePoint:
    """Score samples through ``score_rows``: a correct sample is a row that passes at
    every level, an erroneous one a row that fails at every level with its code."""
    rows = [(s.sample_id, s.error_code or 0, -math.inf, s.speedup) for s in samples]
    return score_rows(rows, cfg, (t,)).points[0]


def _geomean(logs: list[float]) -> float:
    return math.exp(math.fsum(logs) / len(logs)) if logs else 1.0


def _score(comp: ScoreComponents, cfg: ScoreConfig, failure_factor: float) -> float:
    return (
        comp.geomean_speedup**comp.correct_fraction
        * comp.geomean_slowdown
        ** (comp.correct_fraction * comp.slowdown_fraction * cfg.degradation_penalty)
        * failure_factor ** (1.0 - comp.correct_fraction)
    )


def speedup_score(comp: ScoreComponents, cfg: ScoreConfig) -> float:
    """Macro score with the flat failure penalty (meaningful for t <= 0)."""
    return _score(comp, cfg, cfg.failure_penalty)


def error_aware_score(comp: ScoreComponents, cfg: ScoreConfig) -> float:
    """Macro score with the level-dependent penalty from ``comp.penalty``.

    For t <= 0 the aggregate penalty equals the flat failure penalty, so
    this reduces bitwise to ``speedup_score``.
    """
    return _score(comp, cfg, comp.penalty)


def gamma(errors_by_code: Sequence[int], t: float, cfg: ScoreConfig) -> float:
    """Aggregate failure penalty for per-code error counts at level t.

    Raises the failure penalty to the share of errors that level t does
    not forgive: the full penalty for t <= 0 (the exponent is exactly 1,
    as it comes from integer counts), fading to 1 once every category is
    forgiven at t >= 3. With no errors the penalty is 1.
    """
    errors = sum(errors_by_code)
    if not errors:
        return 1.0
    unforgiven = sum(n for code, n in zip(ErrorCode, errors_by_code) if not code.tolerated_at(t))
    return cfg.failure_penalty ** (unforgiven / errors)


def rectified_speedup(sample: ClassifiedSample, cfg: ScoreConfig) -> float:
    """Per-sample score factor: gains kept, slowdowns amplified, failures floored.

    Correct samples keep their speedup when it is >= 1 and take the power
    1 + degradation_penalty when below 1; erroneous samples contribute
    the flat failure penalty.
    """
    if sample.error_code is not None:
        return cfg.failure_penalty
    s = sample.speedup
    return s if s >= 1.0 else s ** (cfg.degradation_penalty + 1.0)


def error_aware_rectified_speedup(
    sample: ClassifiedSample, t: float, cfg: ScoreConfig
) -> float:
    """As ``rectified_speedup`` but failures forgiven at level t count as 1."""
    if sample.error_code is None:
        return rectified_speedup(sample, cfg)
    return 1.0 if sample.error_code.tolerated_at(t) else cfg.failure_penalty


def gmrs(samples: Sequence[ClassifiedSample], t: float, cfg: ScoreConfig) -> float:
    """Geometric mean of per-sample rectified speedups.

    Uses the error-aware per-sample form for t > 0. This is the
    sample-level route to the macro scores and serves as their
    independent cross-check.
    """
    if not samples:
        raise ValueError("no samples")
    if t <= 0:
        values = (rectified_speedup(s, cfg) for s in samples)
    else:
        values = (error_aware_rectified_speedup(s, t, cfg) for s in samples)
    return math.exp(math.fsum(map(math.log, values)) / len(samples))


@dataclass(frozen=True)
class CurvePoint:
    """Scores and components at one grid level; S is absent for t > 0."""

    t: float
    components: ScoreComponents
    speedup_score: float | None
    error_aware_score: float


@dataclass(frozen=True)
class ScoreCurve:
    points: tuple[CurvePoint, ...]

    def __post_init__(self) -> None:
        # Reports read their columns from the first point's row.
        if not self.points:
            raise ValueError("a score curve needs at least one point")


def join_samples(
    manifests: Sequence[SampleGroup | SampleManifest], records: Sequence[RunRecord | ScoreRow]
) -> list[tuple[SampleGroup | SampleManifest, Any]]:
    """Pair each record with its manifest by ``sample_id``; unmatched entries are errors."""
    by_id = {m.sample_id: m for m in manifests}
    if len(by_id) != len(manifests):
        raise IngestError("duplicate sample_id among manifests")
    pairs: list[tuple[SampleGroup | SampleManifest, Any]] = []
    matched: set[str] = set()
    for record in records:
        manifest = by_id.get(record.sample_id)
        if manifest is None:
            raise IngestError(f"record {record.sample_id!r} has no manifest")
        if record.sample_id in matched:
            raise IngestError(f"duplicate record for sample {record.sample_id!r}")
        matched.add(record.sample_id)
        pairs.append((manifest, record))
    unmatched = [m.sample_id for m in manifests if m.sample_id not in matched]
    if unmatched:
        preview = ", ".join(repr(s) for s in unmatched[:5])
        raise IngestError(f"{len(unmatched)} manifests without records: {preview}")
    return pairs


def score_rows(
    rows: Sequence[ScoreRow], cfg: ScoreConfig, levels: Sequence[float] | None = None
) -> ScoreCurve:
    """Score the rows at each of ``levels`` (by default the grid), reported as the grid holds them.

    A completed row's log speedup goes once into the bucket of its passing
    level, and its slowdown list if below 1; level t reads the buckets at
    or below min(t, 0). ``fsum`` over the raw logs is correctly rounded in
    any order, so the curve is bitwise ``score_curve``'s on the records.
    With no correct rows both means are 1; with no failed rows gamma is 1.
    """
    levels = [cfg.level(t) for t in (cfg.grid if levels is None else levels)]
    total = len(rows)
    if total == 0:
        raise ValueError("no samples")
    failures = [0, 0, 0, 0]  # rows by nonzero code, which fail at every level
    buckets: dict[float, tuple[list[float], list[float]]] = {}
    for _, code, passing, speedup in rows:
        if code:
            failures[code] += 1
        elif passing <= 0.0:
            logs, slow = buckets.get(passing) or buckets.setdefault(passing, ([], []))
            logs.append(math.log(speedup))
            if speedup < 1.0:
                slow.append(logs[-1])
    keys = sorted(buckets)
    points = []
    for t in levels:
        read = [buckets[key] for key in keys if key <= min(t, 0.0)]
        logs = [log for bucket, _ in read for log in bucket]
        slow = [log for _, bucket in read for log in bucket]
        correct, errors = len(logs), total - len(logs)
        counts = (errors - failures[2] - failures[3], failures[2], failures[3])
        comp = ScoreComponents(
            _geomean(logs), _geomean(slow), correct / total, len(slow) / correct if correct else 0.0,
            gamma(counts, t, cfg), tuple(n / errors for n in counts) if errors else (0.0, 0.0, 0.0),
            total, correct, len(slow), errors, counts,
        )
        score = speedup_score(comp, cfg) if t <= 0 else None
        points.append(CurvePoint(t, comp, score, error_aware_score(comp, cfg)))
    return ScoreCurve(tuple(points))


def score_level(records: Sequence[RunRecord], t: float, cfg: ScoreConfig) -> CurvePoint:
    """Classify and score every record at grid level t, reported as the grid holds it."""
    return _sample_point([classify(record, t, cfg) for record in records], t, cfg)


def score_curve(
    manifests: Sequence[SampleGroup | SampleManifest],
    records: Sequence[RunRecord],
    cfg: ScoreConfig,
) -> ScoreCurve:
    """Classify and score the dataset at every grid level: the per-sample oracle of ``score_rows``."""
    join_samples(manifests, records)
    return ScoreCurve(tuple(score_level(records, t, cfg) for t in cfg.grid))
