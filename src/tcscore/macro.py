"""The macro scores S(t) and ES(t): geometric-mean speedups with penalty factors.

Levels t <= 0 set numeric strictness; levels 1, 2, 3 progressively
forgive accuracy errors, runtime crashes, and compilation failures.
Every command scores through ``score_rows``; ``tcscore.scoring`` holds
the per-sample route that checks it. The types here are named tuples.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple, Sequence

from .records import ErrorCode, IngestError, check_penalties, level_grid

if TYPE_CHECKING:
    from .model import RunRecord, SampleManifest
    from .records import RecordsHeader, SampleGroup, ScoreRow

__all__ = [
    "CurvePoint", "DEFAULT_CONFIG", "ScoreComponents", "ScoreConfig", "ScoreCurve",
    "error_aware_score", "gamma", "join_samples", "score_rows", "speedup_score",
]


class ScoreConfig(namedtuple("ScoreConfig", "degradation_penalty failure_penalty grid")):
    """Scoring knobs: penalties and the ascending tolerance level grid."""

    __slots__ = ()

    def __new__(
        cls,
        degradation_penalty: float = 0.1,  # p: exponent boost for correct slowdowns
        failure_penalty: float = 0.1,  # b: score factor for failed samples
        grid: Iterable[float] = tuple(range(-10, 5)),
    ) -> ScoreConfig:
        grid = level_grid(grid)
        check_penalties(degradation_penalty, failure_penalty)
        if not grid or grid[0] > 0:
            raise ValueError("grid must contain at least one level <= 0")
        return tuple.__new__(cls, (degradation_penalty, failure_penalty, grid))

    @classmethod
    def from_header(cls, header: RecordsHeader) -> ScoreConfig:
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


class ScoreComponents(NamedTuple):
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


class CurvePoint(NamedTuple):
    """Scores and components at one grid level; S is absent for t > 0."""

    t: float
    components: ScoreComponents
    speedup_score: float | None
    error_aware_score: float


class ScoreCurve(namedtuple("ScoreCurve", "points")):
    __slots__ = ()

    def __new__(cls, points: tuple[CurvePoint, ...]) -> ScoreCurve:
        # Reports read their columns from the first point's row.
        if not points:
            raise ValueError("a score curve needs at least one point")
        return tuple.__new__(cls, (points,))


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
    failures = [0, 0, 0, 0]  # rows by error code, which fail at every level
    buckets: dict[float, tuple[list[float], list[float]]] = {}
    for _, code, passing, speedup in rows:
        if code is not None:
            failures[code] += 1
        elif passing <= 0.0:
            logs, slow = buckets.get(passing) or buckets.setdefault(passing, ([], []))
            logs.append(math.log(speedup))
            if speedup < 1.0:
                slow.append(logs[-1])
    keys = sorted(buckets)
    crashes, compile_failures = failures[ErrorCode.RUNTIME_CRASH], failures[ErrorCode.COMPILE_FAILURE]
    points = []
    for t in levels:
        read = [buckets[key] for key in keys if key <= min(t, 0.0)]
        logs = [log for bucket, _ in read for log in bucket]
        slow = [log for _, bucket in read for log in bucket]
        correct, errors = len(logs), total - len(logs)
        counts = (errors - crashes - compile_failures, crashes, compile_failures)
        comp = ScoreComponents(
            _geomean(logs), _geomean(slow), correct / total, len(slow) / correct if correct else 0.0,
            gamma(counts, t, cfg), tuple(n / errors for n in counts) if errors else (0.0, 0.0, 0.0),
            total, correct, len(slow), errors, counts,
        )
        score = speedup_score(comp, cfg) if t <= 0 else None
        points.append(CurvePoint(t, comp, score, error_aware_score(comp, cfg)))
    return ScoreCurve(tuple(points))
