"""Sample classification and per-sample rectified speedups: the oracle of the macro scores.

The macro scores of ``tcscore.macro``, whose names this module also
serves, are provably equal to geometric means of per-sample rectified
speedups, which this module computes record by record, so the two
routes can check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import macro
from .macro import *  # noqa: F403  (the macro route, served beside its oracle)
from .model import Completed
from .records import ErrorCode, ScoreRow

if TYPE_CHECKING:
    from .model import RunRecord, SampleManifest
    from .records import SampleGroup

__all__ = [
    "ClassifiedSample", "ErrorCode", "classify", "components", "error_aware_rectified_speedup", "gmrs",
    "rectified_speedup", "score_curve", *macro.__all__,
]


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


def classify(record: RunRecord, t: float, cfg: ScoreConfig) -> ClassifiedSample:
    """Classify one record at level t (t must be on the config grid).

    Numeric correctness is decided on the t <= 0 axis; positive levels
    freeze correctness at its level-0 value. Forgiving an error category
    therefore never reclassifies a sample as correct, it only relaxes the
    penalty applied downstream.
    """
    cutoff = min(cfg.level(t), 0.0)
    outcome, sample_id = record.outcome, record.sample_id
    if not isinstance(outcome, Completed):
        return ClassifiedSample(sample_id, None, outcome.error_code)
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
    rows = [ScoreRow(s.sample_id, s.error_code, -math.inf, s.speedup) for s in samples]
    return score_rows(rows, cfg, (t,)).points[0]


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


def score_curve(
    manifests: Sequence[SampleGroup | SampleManifest],
    records: Sequence[RunRecord],
    cfg: ScoreConfig,
) -> ScoreCurve:
    """Classify and score the dataset at every grid level: the per-sample oracle of ``score_rows``."""
    join_samples(manifests, records)
    return ScoreCurve(tuple(_sample_point([classify(r, t, cfg) for r in records], t, cfg) for t in cfg.grid))
