"""Synthetic workload generation: determinism, laws, fault injection."""

from __future__ import annotations

import gc
import json
import math
import os
import re
import stat
import statistics
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tcscore.simulator
from tcscore.cli import main
from tcscore.graphhash import normalize_source
from tcscore.records import Completed, CompileFailure, RuntimeCrash
from tcscore.scoring import ScoreConfig, score_curve
from tcscore.simulator import (
    BLOCK,
    ErrorRates,
    Log2NormalLaw,
    SimSpec,
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
        Log2NormalLaw(log2_mean=0.0, log2_stddev=-1.0)
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


def test_spec_from_dict_partial_laws_keep_the_other_default():
    spec = SimSpec.from_dict({"opcount_law": {"log2_mean": 5.0}})
    assert spec.opcount_law == Log2NormalLaw(log2_mean=5.0, log2_stddev=1.2)
    assert spec.speedup_law == SimSpec().speedup_law
    spec = SimSpec.from_dict({"speedup_law": {"log2_stddev": 0.1}})
    assert spec.speedup_law == Log2NormalLaw(log2_mean=0.35, log2_stddev=0.1)
    assert spec.opcount_law == SimSpec().opcount_law
    spec = SimSpec.from_dict({"error_rates": {"runtime_crash": 0.5}})
    assert spec.error_rates == ErrorRates(runtime_crash=0.5)


@pytest.mark.parametrize(
    "key, expected",
    [
        ("speedup_law", "log2_mean, log2_stddev"),
        ("opcount_law", "log2_mean, log2_stddev"),
        ("error_rates", "accuracy_violation, runtime_crash, compile_failure"),
    ],
)
def test_spec_from_dict_names_unknown_law_keys(key, expected):
    message = f"{key}: unknown keys mean, z (expected: {expected})"
    with pytest.raises(ValueError, match=re.escape(message)):
        SimSpec.from_dict({key: {"z": 1.0, "mean": 0.0}})


def test_spec_from_dict_names_unknown_top_level_keys(tmp_path, capsys):
    expected = (
        "seed, n_samples, framework, category_mix, speedup_law, error_rates, noise_law, opcount_law"
    )
    message = f"unknown keys n_sample, z (expected: {expected})"
    with pytest.raises(ValueError, match=re.escape(message)):
        SimSpec.from_dict({"z": 1, "n_sample": 7, "seed": 3})
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_sample": 7}))
    out = [str(tmp_path / "m.jsonl"), str(tmp_path / "r.jsonl")]
    argv = ["simulate", "--spec", str(spec), "--manifests", out[0], "--records", out[1]]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {spec}: unknown keys n_sample (expected: {expected})\n"
    assert not any(Path(path).exists() for path in out)


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
    law = Log2NormalLaw(log2_mean=0.75, log2_stddev=0.5)
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


def test_simulated_sources_are_already_normalized():
    # The simulator hashes its sources as written, without normalizing them.
    manifests, _ = simulate(SimSpec(seed=5, n_samples=2 * BLOCK + 3), CFG)
    for m in manifests:
        source = m.source_digest_inputs.normalized_source
        assert normalize_source(source) == source


def test_end_to_end_pipeline_completes():
    spec = SimSpec(seed=33, n_samples=150)
    manifests, records = simulate(spec, CFG)
    curve = score_curve(manifests, records, CFG)
    assert len(curve.points) == len(CFG.grid)


def _cli_outputs(directory: Path) -> list[str]:
    return ["--manifests", str(directory / "m.jsonl"), "--records", str(directory / "r.jsonl")]


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_cli_streams_the_bytes_the_library_writes(n, seed):
    spec = SimSpec(seed=seed, n_samples=n)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        assert main(["simulate", "--seed", str(seed), "--n", str(n), *_cli_outputs(directory)]) == 0
        manifests, records = simulate(spec, CFG)
        write_manifests(directory / "lib_m.jsonl", manifests)
        write_records(directory / "lib_r.jsonl", records_header(spec, CFG), records)
        for streamed, written in (("m.jsonl", "lib_m.jsonl"), ("r.jsonl", "lib_r.jsonl")):
            assert (directory / streamed).read_bytes() == (directory / written).read_bytes()


def test_cli_simulate_memory_does_not_grow_with_n(tmp_path, capsys):
    def peak(n: int) -> int:
        gc.collect()  # both runs start from the same collector state
        tracemalloc.start()
        try:
            assert main(["simulate", "--seed", "5", "--n", str(n), *_cli_outputs(tmp_path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(BLOCK)  # imports and first-call caches are not the simulation's memory
    small, large = peak(4 * BLOCK), peak(32 * BLOCK)
    assert large < 2 * small, f"peak {large} B at n={32 * BLOCK} vs {small} B at n={4 * BLOCK}"


def _same_file_pairs(tmp_path: Path) -> list[tuple[str, str]]:
    (tmp_path / "sub").mkdir()
    os.symlink(tmp_path / "x.jsonl", tmp_path / "link.jsonl")
    x = str(tmp_path / "x.jsonl")
    return [
        (x, x),
        (x, str(tmp_path / "sub" / ".." / "x.jsonl")),
        (x, str(tmp_path / "link.jsonl")),
    ]


def test_cli_simulate_refuses_one_path_for_both_outputs(tmp_path, capsys, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("simulate drew samples before checking its outputs")

    monkeypatch.setattr(tcscore.simulator, "_simulate_block", no_draws)
    for manifests, records in _same_file_pairs(tmp_path):
        assert main(["simulate", "--n", "3", "--manifests", manifests, "--records", records]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --manifests and --records are the same file: {records}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "sub"]


@pytest.mark.parametrize(
    "manifests, records, bad, reason",
    [
        ("m2.jsonl", "nodir/r.jsonl", "nodir/r.jsonl", "[Errno 2] No such file or directory"),
        # A directory as the manifests target must fail before the records file lands.
        ("outdir", "r2.jsonl", "outdir", "[Errno 22] not a regular file"),
    ],
)
def test_cli_simulate_leaves_no_output_when_a_target_cannot_be_written(
    tmp_path, capsys, monkeypatch, manifests, records, bad, reason
):
    monkeypatch.chdir(tmp_path)
    Path("outdir").mkdir()
    for name in ("m2.jsonl", "r2.jsonl"):
        Path(name).write_bytes(b"keep me\n")
    argv = ["simulate", "--n", "3", "--manifests", manifests, "--records", records]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {reason}: {bad!r}\n"
    assert sorted(os.listdir()) == ["m2.jsonl", "outdir", "r2.jsonl"]
    assert os.listdir("outdir") == []
    for name in ("m2.jsonl", "r2.jsonl"):
        assert Path(name).read_bytes() == b"keep me\n"


@pytest.mark.parametrize("via_symlink", [False, True])
def test_cli_simulate_refuses_a_pipe_target_and_leaves_it_in_place(tmp_path, capsys, via_symlink):
    # Replacing a pipe (or a device) with a regular file would leave its reader waiting.
    os.mkfifo(tmp_path / "pipe")
    records = tmp_path / "pipe"
    if via_symlink:
        os.symlink(records, tmp_path / "link")
        records = tmp_path / "link"
    argv = ["simulate", "--n", "3", "--manifests", str(tmp_path / "m.jsonl"), "--records", str(records)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 22] not a regular file: {str(records)!r}\n"
    assert stat.S_ISFIFO((tmp_path / "pipe").stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "pipe"][1 - via_symlink :]


# Found by search: with float32 noise at 1.805e306 an output's magnitude
# passes float max only when its noise exponent draws above about 1.998,
# for about 1 output in 2000; for seed 0 the first two blocks stay in
# range and the third does not.
LATE_OVERFLOW_SEED = 0
LATE_OVERFLOW_SPEC = {"noise_law": {"float32": 1.805e306}, "n_samples": 3 * BLOCK}


@pytest.mark.parametrize("existing", [False, True])
def test_law_leaving_float_range_in_a_later_block_writes_nothing(tmp_path, capsys, existing):
    spec = SimSpec.from_dict({**LATE_OVERFLOW_SPEC, "seed": LATE_OVERFLOW_SEED})
    blocks = tcscore.simulator.simulate_blocks(spec, CFG)
    next(blocks), next(blocks)
    with pytest.raises(ValueError, match="^noise_law: draws leave float range$"):
        next(blocks)

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(LATE_OVERFLOW_SPEC))
    old = {name: b"old " + name.encode() for name in ("m.jsonl", "r.jsonl") if existing}
    for name, data in old.items():
        (tmp_path / name).write_bytes(data)
    argv = ["simulate", "--spec", str(spec_path), "--seed", str(LATE_OVERFLOW_SEED)]
    assert main([*argv, *_cli_outputs(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: noise_law: draws leave float range\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*old, "spec.json"])
    for name, data in old.items():
        assert (tmp_path / name).read_bytes() == data
