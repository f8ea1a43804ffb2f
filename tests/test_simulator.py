"""Synthetic workload generation: determinism, laws, fault injection."""

from __future__ import annotations

import math
import statistics

import pytest

import tcscore.simulator
from tcscore.records import Completed, CompileFailure, RuntimeCrash
from tcscore.scoring import ScoreConfig, score_curve
from tcscore.simulator import (
    ErrorRates,
    SimSpec,
    SpeedupLaw,
    compare_outputs,
    records_header,
    simulate,
)
from tcscore.records import write_manifests, write_records
from tcscore.tolerance import ScalarKind

CFG = ScoreConfig()
NO_ERRORS = ErrorRates(0.0, 0.0, 0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(seed=-1)
    with pytest.raises(ValueError):
        SimSpec(n_samples=0)
    with pytest.raises(ValueError):
        ErrorRates(0.5, 0.4, 0.3)
    with pytest.raises(ValueError):
        ErrorRates(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        SpeedupLaw(log2_stddev=-1.0)
    with pytest.raises(ValueError):
        SimSpec(noise_law={})


def test_spec_from_dict_roundtrip_defaults():
    spec = SimSpec.from_dict(
        {
            "seed": 7,
            "n_samples": 10,
            "category_mix": {"CV": 1.0},
            "speedup_law": {"log2_mean": 0.1, "log2_stddev": 0.2},
            "error_rates": {"compile_failure": 1.0, "accuracy_violation": 0.0, "runtime_crash": 0.0},
            "noise_law": {"float32": 0.0},
            "opcount_law": {"log2_mean": 5.0, "log2_stddev": 0.5},
        }
    )
    assert spec.seed == 7
    assert spec.error_rates.compile_failure == 1.0
    assert spec.noise_law == {ScalarKind.FLOAT32: 0.0}
    # unnamed fields keep defaults
    assert SimSpec.from_dict({}).n_samples == SimSpec().n_samples


def test_clean_noiseless_runs_pass_at_strictest_level():
    spec = SimSpec(
        seed=3,
        n_samples=50,
        error_rates=NO_ERRORS,
        noise_law={ScalarKind.FLOAT32: 0.0},
    )
    _, records = simulate(spec, CFG)
    for record in records:
        assert isinstance(record.outcome, Completed)
        for comparison in record.outcome.comparisons:
            assert comparison.min_passing_t == CFG.grid[0]


def test_all_compile_failures_scores_to_failure_penalty():
    spec = SimSpec(seed=5, n_samples=40, error_rates=ErrorRates(0.0, 0.0, 1.0))
    manifests, records = simulate(spec, CFG)
    assert all(isinstance(r.outcome, CompileFailure) for r in records)
    assert all(r.compiled_time_s is None for r in records)
    curve = score_curve(manifests, records, CFG)
    at_zero = next(p for p in curve.points if p.t == 0.0)
    assert at_zero.speedup_score == CFG.failure_penalty


def test_same_spec_produces_identical_files(tmp_path):
    spec = SimSpec(seed=42, n_samples=120)
    paths = []
    for run in ("one", "two"):
        manifests, records = simulate(spec, CFG)
        m_path = tmp_path / f"m_{run}.jsonl"
        r_path = tmp_path / f"r_{run}.jsonl"
        write_manifests(m_path, manifests)
        write_records(r_path, records_header(spec, CFG), records)
        paths.append((m_path, r_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_different_seeds_differ():
    a = simulate(SimSpec(seed=1, n_samples=30), CFG)
    b = simulate(SimSpec(seed=2, n_samples=30), CFG)
    assert a != b


def test_compare_outputs_examples():
    grid = tuple(t for t in CFG.grid if t <= 0)
    same = compare_outputs([1.0, 2.0], [1.0, 2.0], ScalarKind.FLOAT32, grid)
    assert same.min_passing_t == grid[0]
    perturbed = compare_outputs([1.0 + 1e-4], [1.0], ScalarKind.FLOAT32, grid, index=2)
    assert perturbed.min_passing_t == -4.0
    assert perturbed.tensor_index == 2
    # 3.0 exceeds the level-0 bound 1 + |1.0| = 2, so it never passes
    broken = compare_outputs([4.0], [1.0], ScalarKind.FLOAT32, grid)
    assert broken.min_passing_t is None
    with pytest.raises(ValueError):
        compare_outputs([1.0, 2.0], [1.0], ScalarKind.FLOAT32, grid)


def test_simulate_scores_each_block_with_one_call_per_kind(monkeypatch):
    scan = tcscore.simulator.min_passing_tolerance
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(tcscore.simulator, "min_passing_tolerance", counted)
    spec = SimSpec(seed=19, n_samples=1000)
    _, records = simulate(spec, CFG)
    blocks = math.ceil(spec.n_samples / tcscore.simulator.BLOCK)
    assert 0 < len(calls) <= blocks * len(spec.noise_law)
    assert sum(isinstance(r.outcome, Completed) for r in records) > len(calls)


def test_injected_noise_spreads_min_passing_levels():
    spec = SimSpec(seed=11, n_samples=300, error_rates=NO_ERRORS)
    _, records = simulate(spec, CFG)
    levels = {
        c.min_passing_t
        for r in records
        if isinstance(r.outcome, Completed)
        for c in r.outcome.comparisons
    }
    assert None not in levels
    assert len(levels) >= 3


def test_speedup_law_moments_match():
    law = SpeedupLaw(log2_mean=0.75, log2_stddev=0.5)
    spec = SimSpec(seed=97, n_samples=10_000, error_rates=NO_ERRORS, speedup_law=law)
    _, records = simulate(spec, CFG)
    log2_speedups = [
        math.log2(r.eager_time_s / r.compiled_time_s)
        for r in records
        if isinstance(r.outcome, Completed)
    ]
    assert len(log2_speedups) == spec.n_samples
    mean = statistics.fmean(log2_speedups)
    stddev = statistics.pstdev(log2_speedups)
    assert abs(mean - law.log2_mean) <= 0.05 * law.log2_mean
    assert abs(stddev - law.log2_stddev) <= 0.05 * law.log2_stddev


def test_outcome_fractions_converge_to_error_rates():
    rates = ErrorRates(accuracy_violation=0.1, runtime_crash=0.05, compile_failure=0.15)
    n = 10_000
    spec = SimSpec(seed=1234, n_samples=n, error_rates=rates)
    _, records = simulate(spec, CFG)
    crash = sum(isinstance(r.outcome, RuntimeCrash) for r in records)
    compile_fail = sum(isinstance(r.outcome, CompileFailure) for r in records)
    accuracy = sum(
        isinstance(r.outcome, Completed)
        and any(c.min_passing_t is None for c in r.outcome.comparisons)
        for r in records
    )
    for observed, expected in (
        (accuracy, rates.accuracy_violation),
        (crash, rates.runtime_crash),
        (compile_fail, rates.compile_failure),
    ):
        stderr = math.sqrt(expected * (1 - expected) / n)
        assert abs(observed / n - expected) <= 3 * stderr


def test_category_mix_respected():
    from tcscore.records import TaskCategory

    spec = SimSpec(
        seed=8,
        n_samples=500,
        category_mix={TaskCategory.NLP: 0.8, TaskCategory.AUDIO: 0.2},
    )
    manifests, _ = simulate(spec, CFG)
    seen = {m.task_category for m in manifests}
    assert seen <= {TaskCategory.NLP, TaskCategory.AUDIO}
    nlp_share = sum(m.task_category is TaskCategory.NLP for m in manifests) / 500
    assert 0.7 < nlp_share < 0.9


def test_manifest_hashes_are_self_consistent_and_distinct():
    from tcscore.dataset import audit_hashes

    manifests, _ = simulate(SimSpec(seed=21, n_samples=100), CFG)
    assert audit_hashes(manifests) == []
    assert len({m.graph_hash for m in manifests}) == 100


def test_end_to_end_pipeline_completes():
    spec = SimSpec(seed=33, n_samples=150)
    manifests, records = simulate(spec, CFG)
    curve = score_curve(manifests, records, CFG)
    assert len(curve.points) == len(CFG.grid)
