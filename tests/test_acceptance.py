"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tcscore.cli import main
from tcscore.dataset import dedup, stats
from tcscore.graphhash import HashInput, graph_hash
from tcscore.records import CompileFailure, RunRecord, SampleManifest, TaskCategory
from tcscore.scoring import (
    ClassifiedSample,
    ErrorCode,
    ScoreComponents,
    ScoreConfig,
    classify,
    components,
    error_aware_rectified_speedup,
    error_aware_score,
    gmrs,
    score_curve,
    speedup_score,
)
from tcscore.simulator import SimSpec, simulate
from tcscore.tolerance import ScalarKind, atol, rtol

CFG = ScoreConfig()


@contextmanager
def criterion(number: int, name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"criterion {number} ({name}): FAIL (runtime {elapsed:.2f}s over {budget_s}s)")
        raise AssertionError(f"criterion {number} runtime {elapsed:.2f}s over {budget_s}s")
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f}s)")


# Reference component tables from four compiler/workload runs, frozen as
# regression fixtures. Row layout: (t, alpha, beta, lambda, eta, S, gamma, ES);
# S is None where only the error-aware score is defined.
PADDLE_NLP = [
    (-10, 1.000, 1.000, 0.000, 0.000, 0.100, 0.100, 0.100),
    (-9, 1.000, 1.000, 0.000, 0.000, 0.100, 0.100, 0.100),
    (-8, 1.000, 1.000, 0.000, 0.000, 0.100, 0.100, 0.100),
    (-7, 1.441, 1.000, 0.009, 0.000, 0.103, 0.100, 0.103),
    (-6, 1.321, 0.858, 0.575, 0.049, 0.442, 0.100, 0.442),
    (-5, 1.284, 0.878, 0.953, 0.050, 1.139, 0.100, 1.139),
    (-4, 1.282, 0.878, 0.962, 0.049, 1.165, 0.100, 1.165),
    (-3, 1.278, 0.878, 0.991, 0.048, 1.248, 0.100, 1.248),
    (-2, 1.278, 0.878, 0.991, 0.048, 1.248, 0.100, 1.248),
    (-1, 1.278, 0.878, 0.991, 0.048, 1.248, 0.100, 1.248),
    (0, 1.278, 0.878, 0.991, 0.048, 1.248, 0.100, 1.248),
    (1, 1.278, 0.878, 0.991, 0.048, None, 0.100, 1.248),
    (2, 1.278, 0.878, 0.991, 0.048, None, 0.100, 1.248),
    (3, 1.278, 0.878, 0.991, 0.048, None, 1.000, 1.276),
    (4, 1.278, 0.878, 0.991, 0.048, None, 1.000, 1.276),
]

TORCH_NLP = [
    (-10, 0.981, 0.927, 0.010, 0.800, 0.102, 0.100, 0.102),
    (-9, 1.038, 0.927, 0.013, 0.615, 0.103, 0.100, 0.103),
    (-8, 1.170, 0.840, 0.029, 0.321, 0.107, 0.100, 0.107),
    (-7, 1.175, 0.840, 0.030, 0.310, 0.108, 0.100, 0.108),
    (-6, 1.344, 0.822, 0.423, 0.064, 0.300, 0.100, 0.300),
    (-5, 1.342, 0.817, 0.930, 0.046, 1.118, 0.100, 1.118),
    (-4, 1.345, 0.817, 0.933, 0.046, 1.129, 0.100, 1.129),
    (-3, 1.348, 0.817, 0.941, 0.045, 1.156, 0.100, 1.156),
    (-2, 1.354, 0.818, 0.963, 0.045, 1.229, 0.100, 1.229),
    (-1, 1.360, 0.818, 0.975, 0.045, 1.275, 0.100, 1.275),
    (0, 1.363, 0.818, 0.977, 0.044, 1.284, 0.100, 1.284),
    (1, 1.363, 0.818, 0.977, 0.044, None, 0.100, 1.284),
    (2, 1.363, 0.818, 0.977, 0.044, None, 0.100, 1.284),
    (3, 1.363, 0.818, 0.977, 0.044, None, 1.000, 1.353),
    (4, 1.363, 0.818, 0.977, 0.044, None, 1.000, 1.353),
]

PADDLE_CV = [
    (-10, 1.056, 0.917, 0.054, 0.739, 0.114, 0.100, 0.114),
    (-9, 1.056, 0.917, 0.054, 0.739, 0.114, 0.100, 0.114),
    (-8, 1.056, 0.917, 0.054, 0.739, 0.114, 0.100, 0.114),
    (-7, 1.056, 0.920, 0.080, 0.529, 0.121, 0.100, 0.121),
    (-6, 1.117, 0.906, 0.228, 0.216, 0.173, 0.100, 0.173),
    (-5, 1.137, 0.906, 0.526, 0.129, 0.359, 0.100, 0.359),
    (-4, 1.131, 0.915, 0.732, 0.109, 0.591, 0.100, 0.591),
    (-3, 1.125, 0.912, 0.892, 0.105, 0.866, 0.100, 0.866),
    (-2, 1.123, 0.911, 0.939, 0.105, 0.969, 0.100, 0.969),
    (-1, 1.122, 0.911, 0.965, 0.105, 1.031, 0.100, 1.031),
    (0, 1.121, 0.910, 0.981, 0.105, 1.072, 0.100, 1.072),
    (1, 1.122, 0.910, 0.993, 0.104, None, 1.000, 1.121),
    (2, 1.122, 0.910, 0.993, 0.104, None, 1.000, 1.123),
    (3, 1.122, 0.910, 0.993, 0.104, None, 1.000, 1.123),
    (4, 1.122, 0.910, 0.993, 0.104, None, 1.000, 1.123),
]

TORCH_CV = [
    (-10, 0.949, 0.825, 0.345, 0.618, 0.217, 0.100, 0.217),
    (-9, 0.954, 0.829, 0.404, 0.623, 0.249, 0.100, 0.249),
    (-8, 0.957, 0.821, 0.447, 0.609, 0.274, 0.100, 0.274),
    (-7, 0.984, 0.819, 0.605, 0.552, 0.399, 0.100, 0.399),
    (-6, 1.006, 0.814, 0.766, 0.505, 0.586, 0.100, 0.586),
    (-5, 1.030, 0.815, 0.882, 0.472, 0.783, 0.100, 0.783),
    (-4, 1.028, 0.815, 0.886, 0.474, 0.788, 0.100, 0.788),
    (-3, 1.028, 0.815, 0.886, 0.474, 0.788, 0.100, 0.788),
    (-2, 1.028, 0.815, 0.887, 0.473, 0.790, 0.100, 0.790),
    (-1, 1.028, 0.815, 0.887, 0.473, 0.790, 0.100, 0.790),
    (0, 1.028, 0.815, 0.887, 0.473, 0.790, 0.100, 0.790),
    (1, 1.028, 0.815, 0.887, 0.473, None, 0.100, 0.790),
    (2, 1.028, 0.815, 0.887, 0.473, None, 0.100, 0.790),
    (3, 1.028, 0.815, 0.887, 0.473, None, 1.000, 1.025),
    (4, 1.028, 0.815, 0.887, 0.473, None, 1.000, 1.025),
]

COMPONENT_TABLES = [
    ("paddle-nlp", PADDLE_NLP, 0.005),
    ("torch-nlp", TORCH_NLP, 0.005),
    ("paddle-cv", PADDLE_CV, 0.01),
    ("torch-cv", TORCH_CV, 0.01),
]


def test_criterion_1_component_table_reproduction():
    with criterion(1, "component table reproduction", budget_s=1.0):
        for label, table, tol in COMPONENT_TABLES:
            for t, alpha, beta, lam, eta, s, gam, es in table:
                comp = ScoreComponents(alpha, beta, lam, eta, penalty=gam)
                if s is not None:
                    got = speedup_score(comp, CFG)
                    assert got == pytest.approx(s, abs=tol), (label, t, "S", got)
                got = error_aware_score(comp, CFG)
                assert got == pytest.approx(es, abs=tol), (label, t, "ES", got)


@pytest.fixture(scope="module")
def sample_sets():
    """1,000 randomized classified sets: sizes 1..10^4, arbitrary error mixes."""
    rng = np.random.default_rng(20260809)
    sizes = [1, 10_000, 10_000] + [int(10 ** rng.uniform(0.0, 3.5)) for _ in range(997)]
    sets = []
    for index, n in enumerate(sizes):
        if index == 1:
            error_fraction = 0.0
        elif index == 2:
            error_fraction = 1.0
        else:
            error_fraction = float(rng.uniform(0.0, 1.0))
        erroneous = rng.random(n) < error_fraction
        speedups = 2.0 ** rng.uniform(-4.0, 4.0, size=n)
        codes = rng.integers(1, 4, size=n)
        sets.append(
            [
                ClassifiedSample.erroneous("x", ErrorCode(int(codes[j])))
                if erroneous[j]
                else ClassifiedSample.correct("x", float(speedups[j]))
                for j in range(n)
            ]
        )
    return sets


def test_criterion_2_macro_score_equals_gmrs(sample_sets):
    with criterion(2, "macro score equals per-sample geomean", budget_s=30.0):
        for samples in sample_sets:
            for t in range(-10, 1):
                macro = speedup_score(components(samples, float(t), CFG), CFG)
                oracle = gmrs(samples, float(t), CFG)
                assert math.isclose(macro, oracle, rel_tol=1e-9), (len(samples), t)


def test_criterion_3_error_aware_equivalences(sample_sets):
    with criterion(3, "error-aware per-sample equivalences", budget_s=30.0):
        for samples in sample_sets:
            erroneous = [s for s in samples if s.error_code is not None]
            for t in (1.0, 2.0, 3.0, 4.0):
                comp = components(samples, t, CFG)
                macro = error_aware_score(comp, CFG)
                oracle = gmrs(samples, t, CFG)
                assert math.isclose(macro, oracle, rel_tol=1e-9), (len(samples), t)
                if erroneous:
                    logs = math.fsum(
                        math.log(error_aware_rectified_speedup(s, t, CFG))
                        for s in erroneous
                    )
                    per_sample_penalty = math.exp(logs / len(erroneous))
                    assert math.isclose(comp.penalty, per_sample_penalty, rel_tol=1e-12)


def test_criterion_4_tolerance_schedule_tables():
    rows = [
        (ScalarKind.FLOAT16, 1e-5, 1.0, 1e-3, 1.0),
        (ScalarKind.BFLOAT16, 1e-5, 1.0, 1.6e-2, 1.0),
        (ScalarKind.FLOAT32, 1e-5, 1.0, 1.3e-6, 1.0),
        (ScalarKind.FLOAT64, 1e-7, 1.0, 1e-7, 1.0),
        (ScalarKind.COMPLEX32, 1e-5, 1.0, 1e-3, 1.0),
        (ScalarKind.COMPLEX64, 1e-5, 1.0, 1.3e-6, 1.0),
        (ScalarKind.COMPLEX128, 1e-7, 1.0, 1e-7, 1.0),
        (ScalarKind.QUINT8, 1e-5, 1.0, 1.3e-6, 1.0),
        (ScalarKind.QUINT2X4, 1e-5, 1.0, 1.3e-6, 1.0),
        (ScalarKind.QUINT4X2, 1e-5, 1.0, 1.3e-6, 1.0),
        (ScalarKind.QINT8, 1e-5, 1.0, 1.3e-6, 1.0),
        (ScalarKind.QINT32, 1e-5, 1.0, 1.3e-6, 1.0),
        (ScalarKind.OTHER, 0.0, 0.0, 0.0, 0.0),
    ]
    exact = {1e-5, 1e-7, 1e-3, 1.0, 0.0}
    with criterion(4, "tolerance schedule tables", budget_s=1.0):
        for kind, atol5, atol0, rtol5, rtol0 in rows:
            assert atol(kind, -5.0) == atol5  # every atol entry is a power of ten
            assert atol(kind, 0.0) == atol0
            assert rtol(kind, 0.0) == rtol0
            if rtol5 in exact:
                assert rtol(kind, -5.0) == rtol5
            else:
                # rounded entries match to two significant figures
                assert f"{rtol(kind, -5.0):.1e}" == f"{rtol5:.1e}"


def test_criterion_5_monotonicity_suite():
    with criterion(5, "monotonicity suite", budget_s=30.0):
        for seed in (101, 202, 303):
            spec = SimSpec(seed=seed, n_samples=400)
            manifests, records = simulate(spec, CFG)
            for record in records:
                passes = [classify(record, float(t), CFG).is_correct for t in CFG.grid if t <= 0]
                assert passes == sorted(passes), record.sample_id
            curve = score_curve(manifests, records, CFG)
            assert all(p.components.errors > 0 for p in curve.points)
            negative = [p for p in curve.points if p.t <= 0]
            fractions = [p.components.correct_fraction for p in negative]
            assert fractions == sorted(fractions)
            for point in negative:
                assert point.components.penalty == CFG.failure_penalty
                assert point.error_aware_score == point.speedup_score
            penalties = [p.components.penalty for p in curve.points]
            assert penalties == sorted(penalties)
            for point in curve.points:
                if point.t >= 3:
                    assert point.components.penalty == 1.0
            upper = [p.error_aware_score for p in curve.points if p.t >= 0]
            assert upper == sorted(upper)


def test_criterion_6_degenerate_cases():
    with criterion(6, "degenerate cases"):
        all_failures = [
            classify(RunRecord(f"s{i}", 1.0, CompileFailure("x")), 0.0, CFG)
            for i in range(20)
        ]
        assert speedup_score(components(all_failures, 0.0, CFG), CFG) == CFG.failure_penalty

        all_unit = [ClassifiedSample.correct(f"s{i}", 1.0) for i in range(20)]
        for t in CFG.grid:
            comp = components(all_unit, t, CFG)
            assert error_aware_score(comp, CFG) == 1.0
            if t <= 0:
                assert speedup_score(comp, CFG) == 1.0

        pair = [
            ClassifiedSample.correct("fast", 2.0),
            ClassifiedSample.erroneous("broken", ErrorCode.COMPILE_FAILURE),
        ]
        score = speedup_score(components(pair, 0.0, CFG), CFG)
        assert math.isclose(score, math.sqrt(2.0 * 0.1), rel_tol=1e-9)
        assert math.isclose(score, gmrs(pair, 0.0, CFG), rel_tol=1e-9)
        assert score == pytest.approx(0.4472, abs=5e-5)


def test_criterion_7_end_to_end_determinism(tmp_path):
    with criterion(7, "end-to-end determinism", budget_s=10.0):
        outputs = []
        for name in ("one", "two"):
            run_dir = tmp_path / name
            run_dir.mkdir()
            m_path = run_dir / "manifests.jsonl"
            r_path = run_dir / "records.jsonl"
            table = run_dir / "table.csv"
            assert (
                main(
                    [
                        "simulate",
                        "--seed",
                        "42",
                        "--n",
                        "500",
                        "--manifests",
                        str(m_path),
                        "--records",
                        str(r_path),
                    ]
                )
                == 0
            )
            assert (
                main(
                    [
                        "report",
                        "--records",
                        str(r_path),
                        "--manifests",
                        str(m_path),
                        "--out",
                        str(table),
                    ]
                )
                == 0
            )
            outputs.append(
                (m_path.read_bytes(), r_path.read_bytes(), table.read_bytes())
            )
        assert outputs[0] == outputs[1]


def test_criterion_8_dedup_and_stats():
    with criterion(8, "dedup and stats"):
        topology = [("conv2d", (0,)), ("relu", (1,))]
        source = "x1 = conv2d(x0)\nx2 = relu(x1)"
        messy = "x1  =  conv2d(x0)   # extract\n\n\tx2 = relu(x1)\n"
        original = SampleManifest(
            "s1",
            "torch",
            TaskCategory.CV,
            512,
            graph_hash(HashInput.from_source(source, topology)),
            source_digest_inputs=HashInput.from_source(source, topology),
        )
        duplicate = SampleManifest(
            "s2",
            "torch",
            TaskCategory.CV,
            512,
            graph_hash(HashInput.from_source(messy, topology)),
            source_digest_inputs=HashInput.from_source(messy, topology),
        )
        assert original.graph_hash == duplicate.graph_hash
        distinct = SampleManifest(
            "s3",
            "torch",
            TaskCategory.NLP,
            40,
            graph_hash(HashInput.from_source("y = embedding(x)", [("embedding", (0,))])),
        )
        kept, dropped = dedup([original, duplicate, distinct])
        assert kept == [original, distinct]
        assert dropped == [duplicate]
        again_kept, again_dropped = dedup(kept)
        assert again_kept == kept and again_dropped == []

        report = stats(kept)
        assert math.fsum(report.category_shares.values()) == pytest.approx(100.0, abs=1e-9)
        assert report.opcount_histograms["CV"] == {9: 1}  # the 512-operator sample
        assert report.opcount_histograms["NLP"] == {5: 1}
