"""Correctness-aware speedup scoring for tensor-compiler benchmark runs."""

from .dataset import StatsReport, audit_hashes, dedup, stats
from .graphhash import HashInput, graph_hash, normalize_source
from .records import (
    CompileFailure,
    Completed,
    IngestError,
    RecordsHeader,
    RunOutcome,
    RunRecord,
    RuntimeCrash,
    SampleGroup,
    SampleManifest,
    TaskCategory,
    TensorComparison,
    load_manifests,
    load_records,
    load_sample_groups,
    write_manifests,
    write_records,
)
from .report import render_curve, render_stats, render_table, render_violin, violin_data
from .scoring import (
    ClassifiedSample,
    CurvePoint,
    ErrorCode,
    ScoreComponents,
    ScoreConfig,
    ScoreCurve,
    classify,
    components,
    error_aware_rectified_speedup,
    error_aware_score,
    gamma,
    gmrs,
    join_samples,
    rectified_speedup,
    score_curve,
    score_level,
    speedup_score,
)
from .tolerance import SLOPES, ScalarKind, atol, rtol

__version__ = "0.1.0"
