"""Classification and score computation, including per-sample equivalences."""

from __future__ import annotations

import math
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from tcscore.dataset import StatsReport
from tcscore.graphhash import HashInput
from tcscore.records import (
    CompileFailure,
    Completed,
    IngestError,
    RecordsHeader,
    RunRecord,
    RuntimeCrash,
    SampleManifest,
    ScoreRow,
    TaskCategory,
    TensorComparison,
    score_row,
)
from tcscore.report import violin_data
from tcscore.scoring import (
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
    score_rows,
    speedup_score,
)
from tcscore.simulator import Log2NormalLaw, SimSpec, simulate
from tcscore.tolerance import ScalarKind

CFG = ScoreConfig()


def completed_record(sample_id="a", levels=(-10.0,), eager=2.0, compiled=1.0):
    return RunRecord(
        sample_id,
        eager,
        Completed(
            tuple(TensorComparison(i, ScalarKind.FLOAT32, t) for i, t in enumerate(levels))
        ),
        compiled_time_s=compiled,
    )


def correct(speedup, sample_id="x"):
    return ClassifiedSample.correct(sample_id, speedup)


def erroneous(code, sample_id="x"):
    return ClassifiedSample.erroneous(sample_id, ErrorCode(code))


def test_config_validation():
    with pytest.raises(ValueError):
        ScoreConfig(degradation_penalty=0.0)
    with pytest.raises(ValueError):
        ScoreConfig(failure_penalty=1.0)
    with pytest.raises(ValueError):
        ScoreConfig(grid=())
    with pytest.raises(ValueError):
        ScoreConfig(grid=(-1.0, -1.0))
    with pytest.raises(ValueError, match="level <= 0"):
        ScoreConfig(grid=(1.0, 2.0))
    with pytest.raises(ValueError, match="ascending"):
        ScoreConfig(grid=(1.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        ScoreConfig(grid=(-1.0, math.nan, 0.0))
    with pytest.raises(ValueError, match="finite"):
        ScoreConfig(grid=(-1, 10**400))  # an integer no float holds


def test_score_curve_refuses_no_points():
    # Reports take their columns from the first point's row.
    with pytest.raises(ValueError, match="at least one point"):
        ScoreCurve(())


def test_classified_sample_validation():
    with pytest.raises(ValueError):
        ClassifiedSample("x")
    with pytest.raises(ValueError):
        ClassifiedSample("x", speedup=1.0, error_code=ErrorCode.ACCURACY)
    with pytest.raises(ValueError):
        ClassifiedSample.correct("x", 0.0)
    with pytest.raises(ValueError):
        ClassifiedSample.correct("x", float("inf"))


def test_classified_sample_is_slotted_and_frozen():
    sample = correct(2.0)
    assert not hasattr(sample, "__dict__")
    with pytest.raises(FrozenInstanceError):
        sample.speedup = 3.0


_COMPONENTS = ScoreComponents(2.0, 0.5, 0.75, 0.25, 0.1, (1.0, 0.0, 0.0), 4, 3, 1, 1, (1, 0, 0))


# The named-tuple value types keep what their frozen dataclasses promised.
@pytest.mark.parametrize(
    "build, hashable",
    [
        (lambda: RecordsHeader((-1, 0), 0.1, 0.2, "p"), True),
        (lambda: ScoreConfig(0.2, 0.3, (-1, 0, 1)), True),
        (lambda: ScoreComponents(2.0, 0.5, 0.75, 0.25, 0.1), True),
        (lambda: CurvePoint(0.0, _COMPONENTS, 1.5, 1.5), True),
        (lambda: score_rows([ScoreRow("a", None, 0.0, 2.0)], CFG), True),
        (lambda: HashInput("x1 = add(x0)", (("add", (0,)),)), True),
        (lambda: StatsReport(1, {"CV": 1}, {"CV": 100.0}, {"CV": {0: 1}}), False),  # dicts, as before
    ],
    ids=["RecordsHeader", "ScoreConfig", "ScoreComponents", "CurvePoint", "ScoreCurve", "HashInput",
         "StatsReport"],
)
def test_value_types_refuse_assignment_and_hash_by_value(build, hashable):
    value, twin = build(), build()
    assert value == twin and value is not twin and not hasattr(value, "__dict__")
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(twin, field))
    if hashable:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def test_classify_correct_at_strictest_level():
    sample = classify(completed_record(levels=(-10.0, -10.0)), -10.0, CFG)
    assert sample.is_correct and sample.speedup == 2.0


def test_classify_never_comparison_is_accuracy_error():
    sample = classify(completed_record(levels=(-10.0, None)), 0.0, CFG)
    assert sample.error_code is ErrorCode.ACCURACY


def test_classify_failure_codes_survive_tolerant_levels():
    crash = RunRecord("a", 1.0, RuntimeCrash("boom"))
    compile_fail = RunRecord("a", 1.0, CompileFailure("nope"))
    assert classify(compile_fail, 2.0, CFG).error_code is ErrorCode.COMPILE_FAILURE
    assert classify(crash, 3.0, CFG).error_code is ErrorCode.RUNTIME_CRASH


def test_classify_positive_levels_freeze_level_zero_status():
    record = completed_record(levels=(-3.0,))
    failing = completed_record(levels=(None,))
    for t in (1.0, 2.0, 3.0, 4.0):
        assert classify(record, t, CFG) == classify(record, 0.0, CFG)
        assert classify(failing, t, CFG).error_code is ErrorCode.ACCURACY


def test_classify_mixed_dtypes_use_worst_comparison():
    record = completed_record(levels=(-8.0, -4.0))
    assert classify(record, -5.0, CFG).error_code is ErrorCode.ACCURACY
    assert classify(record, -4.0, CFG).is_correct


def test_classify_rejects_off_grid_level():
    with pytest.raises(ValueError, match="grid"):
        classify(completed_record(), -0.5, CFG)


@st.composite
def run_records(draw):
    kind = draw(st.sampled_from(("completed", "runtime_crash", "compile_failure")))
    eager = draw(st.floats(1e-6, 1e3))
    if kind == "runtime_crash":
        return RunRecord("r", eager, RuntimeCrash("boom"))
    if kind == "compile_failure":
        return RunRecord("r", eager, CompileFailure("nope"))
    levels = draw(st.lists(st.one_of(st.none(), st.sampled_from(CFG.grid)), min_size=1, max_size=3))
    return completed_record("r", levels, eager, draw(st.floats(1e-6, 1e3)))


@given(run_records())
@settings(max_examples=200)
def test_classify_matches_its_definition_at_every_level(record):
    outcome = record.outcome
    for t in CFG.grid:
        sample = classify(record, t, CFG)
        assert sample.sample_id == record.sample_id
        if isinstance(outcome, CompileFailure):
            assert sample.error_code is ErrorCode.COMPILE_FAILURE and sample.speedup is None
        elif isinstance(outcome, RuntimeCrash):
            assert sample.error_code is ErrorCode.RUNTIME_CRASH and sample.speedup is None
        elif all(c.min_passing_t is not None and c.min_passing_t <= min(t, 0.0)
                 for c in outcome.comparisons):
            assert sample.error_code is None
            assert sample.speedup == record.eager_time_s / record.compiled_time_s
        else:
            assert sample.error_code is ErrorCode.ACCURACY and sample.speedup is None


def test_components_all_unit_speedups():
    comp = components([correct(1.0) for _ in range(5)], 0.0, CFG)
    assert comp.geomean_speedup == 1.0
    assert comp.geomean_slowdown == 1.0
    assert comp.correct_fraction == 1.0
    assert comp.slowdown_fraction == 0.0
    assert comp.penalty == 1.0


def test_components_two_sample_example():
    comp = components([correct(2.0), erroneous(3)], 0.0, CFG)
    assert comp.geomean_speedup == pytest.approx(2.0)
    assert comp.correct_fraction == 0.5
    assert comp.slowdown_fraction == 0.0
    assert comp.error_shares == (0.0, 0.0, 1.0)
    assert comp.penalty == CFG.failure_penalty


def test_components_no_correct_samples_initialize_to_one():
    comp = components([erroneous(1), erroneous(2)], 0.0, CFG)
    assert comp.geomean_speedup == 1.0
    assert comp.geomean_slowdown == 1.0
    assert comp.correct_fraction == 0.0
    assert comp.slowdown_fraction == 0.0


def test_components_empty_is_error():
    with pytest.raises(ValueError, match="no samples"):
        components([], 0.0, CFG)


def test_speedup_score_reference_rows():
    # Component rows from published runs; scores recompute to 3 decimals.
    row = ScoreComponents(1.321, 0.858, 0.575, 0.049, penalty=0.1)
    assert speedup_score(row, CFG) == pytest.approx(0.442, abs=2e-3)
    row = ScoreComponents(1.363, 0.818, 0.977, 0.044, penalty=0.1)
    assert speedup_score(row, CFG) == pytest.approx(1.284, abs=2e-3)
    row = ScoreComponents(1.0, 1.0, 0.0, 0.0, penalty=0.1)
    assert speedup_score(row, CFG) == pytest.approx(0.100, abs=1e-12)


def test_error_aware_score_reference_rows():
    row = ScoreComponents(1.363, 0.818, 0.977, 0.044, penalty=1.0)
    assert error_aware_score(row, CFG) == pytest.approx(1.353, abs=2e-3)
    row = ScoreComponents(1.5, 0.9, 1.0, 0.2, penalty=0.3)
    assert error_aware_score(row, CFG) == speedup_score(row, CFG)  # exponent 1-lambda = 0


def test_gamma_examples():
    assert gamma((1, 0, 0), 1.0, CFG) == 1.0
    assert gamma((0, 0, 1), 2.0, CFG) == 0.1
    assert gamma((1, 0, 1), 1.0, CFG) == 0.1**0.5
    assert gamma((2, 3, 5), -4.0, CFG) == CFG.failure_penalty
    assert gamma((2, 3, 5), 3.0, CFG) == 1.0
    assert gamma((0, 0, 0), -4.0, CFG) == 1.0


def test_rectified_speedup_branches():
    assert rectified_speedup(correct(2.0), CFG) == 2.0
    assert rectified_speedup(correct(1.0), CFG) == 1.0  # no penalty at exactly 1
    assert rectified_speedup(correct(0.5), CFG) == pytest.approx(0.5**1.1)
    assert rectified_speedup(correct(0.5), CFG) == pytest.approx(0.4665, abs=1e-4)
    for code in (1, 2, 3):
        assert rectified_speedup(erroneous(code), CFG) == 0.1


def test_error_aware_rectified_speedup_branches():
    assert error_aware_rectified_speedup(erroneous(2), 2.0, CFG) == 1.0
    assert error_aware_rectified_speedup(erroneous(3), 2.0, CFG) == 0.1
    assert error_aware_rectified_speedup(correct(1.5), 3.0, CFG) == 1.5
    assert error_aware_rectified_speedup(correct(0.5), 3.0, CFG) == pytest.approx(0.5**1.1)


def test_gmrs_examples():
    assert gmrs([correct(4.0)], 0.0, CFG) == pytest.approx(4.0)
    pair = [correct(2.0), erroneous(3)]
    assert gmrs(pair, 0.0, CFG) == pytest.approx(math.sqrt(0.2))
    assert gmrs(pair, -5.0, CFG) == pytest.approx(math.sqrt(0.2))
    assert gmrs(pair, 3.0, CFG) == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValueError):
        gmrs([], 0.0, CFG)


# -- equivalence properties ----------------------------------------------------

statuses = st.one_of(
    st.floats(min_value=2.0**-4, max_value=2.0**4).map(lambda s: ("ok", s)),
    st.sampled_from([("err", 1), ("err", 2), ("err", 3)]),
)


def build_samples(raw):
    return [
        correct(value, f"s{i}") if tag == "ok" else erroneous(value, f"s{i}")
        for i, (tag, value) in enumerate(raw)
    ]


@given(st.lists(statuses, min_size=1, max_size=200))
@settings(max_examples=150)
def test_macro_score_equals_geomean_rectified(raw):
    samples = build_samples(raw)
    for t in (-10.0, -3.0, 0.0):
        macro = speedup_score(components(samples, t, CFG), CFG)
        oracle = gmrs(samples, t, CFG)
        assert macro == pytest.approx(oracle, rel=1e-9)


@given(st.lists(statuses, min_size=1, max_size=200))
@settings(max_examples=150)
def test_error_aware_score_equals_geomean_rectified(raw):
    samples = build_samples(raw)
    for t in (1.0, 2.0, 3.0, 4.0):
        comp = components(samples, t, CFG)
        assert error_aware_score(comp, CFG) == pytest.approx(gmrs(samples, t, CFG), rel=1e-9)
        erroneous_only = [s for s in samples if s.error_code is not None]
        if erroneous_only:
            per_sample = [
                error_aware_rectified_speedup(s, t, CFG) for s in erroneous_only
            ]
            geo = math.exp(math.fsum(map(math.log, per_sample)) / len(per_sample))
            assert comp.penalty == pytest.approx(geo, rel=1e-12)


@given(st.lists(statuses, min_size=1, max_size=300), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_aggregation_is_order_independent(raw, rnd):
    samples = build_samples(raw)
    shuffled = samples[:]
    rnd.shuffle(shuffled)
    for t in (-5.0, 0.0, 2.0):
        a = components(samples, t, CFG)
        b = components(shuffled, t, CFG)
        assert a.geomean_speedup == pytest.approx(b.geomean_speedup, rel=1e-12)
        assert a.geomean_slowdown == pytest.approx(b.geomean_slowdown, rel=1e-12)
        assert a.penalty == b.penalty
        assert gmrs(samples, t, CFG) == pytest.approx(gmrs(shuffled, t, CFG), rel=1e-12)


@given(st.lists(statuses, min_size=1, max_size=200))
@settings(max_examples=100)
def test_error_aware_reduces_to_plain_score_at_nonpositive_levels(raw):
    samples = build_samples(raw)
    for t in (-10.0, -1.0, 0.0):
        comp = components(samples, t, CFG)
        assert error_aware_score(comp, CFG) == speedup_score(comp, CFG)


# -- score_curve ----------------------------------------------------------------


def make_pairs(records):
    from tcscore.records import SampleManifest, TaskCategory

    manifests = [
        SampleManifest(r.sample_id, "torch", TaskCategory.CV, 4, "ab")
        for r in records
    ]
    return manifests, records


def test_score_curve_shape_and_reduction():
    records = [
        completed_record("a", levels=(-6.0,), eager=3.0, compiled=1.0),
        completed_record("b", levels=(-2.0,), eager=1.0, compiled=2.0),
        RunRecord("c", 1.0, CompileFailure("x")),
        completed_record("d", levels=(None,), eager=1.0, compiled=1.0),
    ]
    manifests, records = make_pairs(records)
    curve = score_curve(manifests, records, CFG)
    assert [p.t for p in curve.points] == list(CFG.grid)
    for point in curve.points:
        if point.t <= 0:
            assert point.speedup_score == point.error_aware_score
        else:
            assert point.speedup_score is None
    # components freeze above level 0
    at_zero = next(p for p in curve.points if p.t == 0.0)
    for point in curve.points:
        if point.t > 0:
            assert point.components.correct_fraction == at_zero.components.correct_fraction
            assert point.components.geomean_speedup == at_zero.components.geomean_speedup
    # error-aware score is nondecreasing over positive levels
    positive = [p.error_aware_score for p in curve.points if p.t >= 0]
    assert positive == sorted(positive)


def test_fully_tolerant_level_scores_upper_bound():
    samples = [correct(2.0), correct(0.5), erroneous(1), erroneous(3)]
    for t in (3.0, 4.0):
        comp = components(samples, t, CFG)
        assert comp.penalty == 1.0
        bound = comp.geomean_speedup**comp.correct_fraction * comp.geomean_slowdown ** (
            comp.correct_fraction * comp.slowdown_fraction * CFG.degradation_penalty
        )
        assert error_aware_score(comp, CFG) == bound


def test_score_curve_no_errors_flat_on_positive_levels():
    records = [completed_record("a", eager=4.0), completed_record("b", eager=3.0)]
    manifests, records = make_pairs(records)
    curve = score_curve(manifests, records, CFG)
    positive = [p for p in curve.points if p.t > 0]
    assert all(p.components.penalty == 1.0 for p in positive)
    assert len({p.error_aware_score for p in positive}) == 1


def test_score_curve_join_errors():
    records = [completed_record("a")]
    manifests, _ = make_pairs([completed_record("b")])
    with pytest.raises(IngestError, match="no manifest"):
        score_curve(manifests, records, CFG)
    manifests, records = make_pairs([completed_record("a"), completed_record("b")])
    with pytest.raises(IngestError, match="without records"):
        score_curve(manifests, records[:1], CFG)
    with pytest.raises(IngestError, match="duplicate record"):
        join_samples(manifests, [records[0], records[0], records[1]])
    with pytest.raises(IngestError, match="duplicate sample_id among manifests"):
        score_curve([manifests[0], manifests[0], manifests[1]], records, CFG)


def test_score_curve_empty_inputs():
    with pytest.raises(ValueError, match="no samples"):
        score_curve([], [], CFG)
    with pytest.raises(ValueError):
        ScoreConfig(grid=())  # an empty grid cannot even be configured


def test_lambda_monotone_on_negative_grid():
    rnd = random.Random(7)
    records = []
    for i in range(60):
        level = rnd.choice([t for t in CFG.grid if t <= 0] + [None])
        records.append(completed_record(f"s{i}", levels=(level,), eager=rnd.uniform(0.5, 4.0)))
    manifests, records = make_pairs(records)
    curve = score_curve(manifests, records, CFG)
    fractions = [p.components.correct_fraction for p in curve.points if p.t <= 0]
    assert fractions == sorted(fractions)


# -- score_rows: the CLI's route, held to score_curve --------------------------


def test_score_rows_refuses_off_grid_levels_and_no_rows():
    rows = [score_row(completed_record())]
    with pytest.raises(ValueError, match="level 0.5 is not on the configured grid"):
        score_rows(rows, CFG, (0.0, 0.5))
    with pytest.raises(ValueError, match="no samples"):
        score_rows([], CFG)
    with pytest.raises(ValueError, match="level -0.5 is not on the configured grid"):
        components([correct(2.0)], -0.5, CFG)  # through score_rows, so on the grid only
    point = score_rows(rows, CFG, (-0.0,)).points[0]
    zero = score_curve(*make_pairs([completed_record()]), CFG).points[CFG.grid.index(0.0)]
    assert repr(point.t) == "0.0" and point == zero


@st.composite
def scored_datasets(draw):
    """A simulated dataset plus hand-made edge records, and a config on a subset of its grid."""
    spec = SimSpec(
        seed=draw(st.integers(0, 2**32)),
        n_samples=draw(st.integers(1, 120)),
        speedup_law=Log2NormalLaw(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 1.5))),
        noise_law=draw(st.dictionaries(
            st.sampled_from(list(ScalarKind)), st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.1]), min_size=1
        )),
    )
    manifests, records = simulate(spec, CFG)
    levels = st.one_of(st.none(), st.sampled_from([t for t in CFG.grid if t <= 0]))
    # Speedups of exactly 1, and comparisons that are all null.
    for i, passing in enumerate(draw(st.lists(st.lists(levels, min_size=1, max_size=3), max_size=6))):
        eager = draw(st.sampled_from([1.0, 0.5, 3.0]))
        records.append(completed_record(f"edge{i}", passing, eager, eager))
        manifests.append(SampleManifest(f"edge{i}", "edge", TaskCategory.OTHER, 1, "ab"))
    for i in range(draw(st.integers(0, 2))):
        records.append(completed_record(f"null{i}", (None, None), 2.0, 1.0))
        manifests.append(SampleManifest(f"null{i}", "edge", TaskCategory.CV, 1, "ab"))
    grid = draw(st.lists(st.sampled_from(CFG.grid), min_size=1, unique=True).filter(
        lambda g: min(g) <= 0
    ))
    p, b = (draw(st.floats(0.01, 0.99)) for _ in range(2))
    return manifests, records, ScoreConfig(p, b, tuple(sorted(grid)))


@given(scored_datasets())
@settings(max_examples=40, deadline=None)
def test_score_rows_is_bitwise_score_curve(dataset):
    manifests, records, cfg = dataset
    rows = [score_row(record) for record in records]
    curve = score_rows(rows, cfg)
    assert curve == score_curve(manifests, records, cfg)
    # Both routes share the aggregate: hold its counts to ``classify`` directly.
    for point in curve.points:
        samples = [classify(record, point.t, cfg) for record in records]
        speedups = [s.speedup for s in samples if s.is_correct]
        comp = point.components
        assert (comp.correct, comp.slowdowns) == (len(speedups), sum(s < 1.0 for s in speedups))
        assert comp.errors_by_code == tuple(sum(s.error_code is code for s in samples) for code in ErrorCode)
    if 0.0 in cfg.grid:
        groups: dict = {}
        for manifest, record in zip(manifests, records):
            logs = groups.setdefault((manifest.framework, manifest.task_category.value), [])
            sample = classify(record, 0.0, cfg)
            if sample.is_correct:
                logs.append(math.log2(sample.speedup))
        assert violin_data(manifests, rows, cfg) == dict(sorted(groups.items()))
        assert violin_data(manifests, records, cfg) == dict(sorted(groups.items()))
    else:
        for route in (rows, records):
            with pytest.raises(ValueError, match="level 0.0 is not on the configured grid"):
                violin_data(manifests, route, cfg)
