"""Data model ingestion, validation, and round-trip serialization."""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import gc
import io
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import example, given, settings, strategies as st

import tcscore
import tcscore.model
import tcscore.scoring
from tcscore.cli import main
from tcscore.graphhash import HashInput, _encode_topology, graph_hash
from tcscore.records import (
    CompileFailure,
    Completed,
    ErrorCode,
    IngestError,
    RecordsHeader,
    RunRecord,
    RuntimeCrash,
    SampleGroup,
    SampleManifest,
    ScoreRow,
    TaskCategory,
    TensorComparison,
    load_manifests,
    load_records,
    load_sample_groups,
    load_score_rows,
    manifest_to_dict,
    read_manifest_lines,
    record_to_dict,
    score_row,
    write_manifests,
    write_records,
    _check_manifest,
    _encode_line,
    _read_json_lines,
    header_to_dict,
)
from tcscore.scoring import DEFAULT_CONFIG, ScoreConfig, score_rows
from tcscore.simulator import ErrorRates, Log2NormalLaw, SimSpec, min_passing_tolerance, simulate
from tcscore.tolerance import ScalarKind

GRID = tuple(float(t) for t in range(-10, 1)) + (1.0, 2.0, 3.0, 4.0)
HEADER = RecordsHeader(grid=GRID, p=0.1, b=0.1, producer="test")


def roundtrip(value: SampleManifest | RunRecord, directory) -> SampleManifest | RunRecord:
    """Write a manifest, or a record under ``HEADER``, to a file in ``directory`` and load it back."""
    path = directory / "roundtrip.jsonl"
    if isinstance(value, SampleManifest):
        write_manifests(path, [value])
        return load_manifests(path)[0]
    if isinstance(value, RunRecord):
        write_records(path, HEADER, [value])
        return load_records(path)[1][0]
    raise TypeError(f"cannot round-trip values of type {type(value).__name__}")


def make_manifest(sample_id="a", **overrides) -> SampleManifest:
    fields = dict(
        sample_id=sample_id,
        framework="torch",
        task_category=TaskCategory.CV,
        operator_count=512,
        graph_hash="ab12",
        dtypes=frozenset({ScalarKind.FLOAT32}),
    )
    fields.update(overrides)
    return SampleManifest(**fields)


def make_record(sample_id="a", levels=(-10.0,), **overrides) -> RunRecord:
    fields = dict(
        sample_id=sample_id,
        eager_time_s=2.0,
        outcome=Completed(
            tuple(
                TensorComparison(i, ScalarKind.FLOAT32, t)
                for i, t in enumerate(levels)
            )
        ),
        compiled_time_s=1.0,
        warmup_iters=3,
        timed_iters=10,
    )
    fields.update(overrides)
    return RunRecord(**fields)


def test_model_invariants_enforced():
    with pytest.raises(ValueError):
        make_manifest(operator_count=0)
    with pytest.raises(ValueError):
        make_manifest(graph_hash="not-hex!")
    with pytest.raises(ValueError):
        make_manifest(parameter_count=-1)
    with pytest.raises(ValueError):
        make_record(eager_time_s=0.0)
    with pytest.raises(ValueError):
        make_record(outcome=RuntimeCrash("boom"))  # compiled time still set
    with pytest.raises(ValueError):
        make_record(compiled_time_s=None)  # completed without a time
    with pytest.raises(ValueError):
        Completed(())
    with pytest.raises(ValueError):
        TensorComparison(-1, ScalarKind.FLOAT32, None)
    with pytest.raises(ValueError):
        make_record(timed_iters=0)


# Each model constructor refuses a string that ingest refuses, with ingest's
# message, so the library never writes a line its own loaders refuse.
@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: HashInput.from_source("x = y", [("\udc00", [0])]), "topology"),
        (lambda: HashInput.from_source("x = \ud800", [("add", [0])]), "normalized_source"),
        (lambda: make_manifest("s\ud800"), "sample_id"),
        (lambda: make_manifest(framework="to\udfffrch"), "framework"),
        (lambda: make_record("s\ud800"), "sample_id"),
        (lambda: RuntimeCrash("bo\ud800om"), "message"),
        (lambda: CompileFailure("\udc00"), "message"),
        (lambda: RecordsHeader(GRID, 0.1, 0.1, "pro\ud800"), "producer"),
        # Built directly, not through from_source; graph_hash would raise UnicodeEncodeError.
        (lambda: graph_hash(HashInput("x = \ud800", (("add", (0,)),))), "normalized_source"),
        (lambda: graph_hash(HashInput("x", (("a\udc00", (0,)),))), "topology"),
    ],
    ids=[
        "op", "source", "manifest-id", "framework", "record-id", "crash", "compile", "producer",
        "direct-source", "direct-op",
    ],
)
def test_model_types_refuse_lone_surrogates_as_ingest_does(build, key):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == f"{key} must not hold a lone surrogate"


# Each numeric or text field of the model, built with a value in place of a valid one.
FIELDS = {
    "sample_id": lambda v: make_manifest(v),
    "framework": lambda v: make_manifest(framework=v),
    "graph_hash": lambda v: make_manifest(graph_hash=v),
    "message": lambda v: make_record(outcome=RuntimeCrash(v), compiled_time_s=None),
    "operator_count": lambda v: make_manifest(operator_count=v),
    "parameter_count": lambda v: make_manifest(parameter_count=v),
    "eager_time_s": lambda v: make_record(eager_time_s=v, outcome=RuntimeCrash("x"), compiled_time_s=None),
    "compiled_time_s": lambda v: make_record(compiled_time_s=v),
    "warmup_iters": lambda v: make_record(warmup_iters=v),
    "timed_iters": lambda v: make_record(timed_iters=v),
    "tensor_index": lambda v: make_record(outcome=Completed((TensorComparison(v, ScalarKind.FLOAT32, -1.0),))),
    "min_passing_t": lambda v: make_record(levels=(v,)),
}


@given(
    st.sampled_from(sorted(FIELDS)),
    st.integers() | st.floats() | st.booleans() | st.text() | st.none(),
)
@example("operator_count", math.inf)
@example("operator_count", 2.5)
@example("operator_count", True)
@example("parameter_count", 1e300)
@example("parameter_count", 10**4000)
@example("parameter_count", 10**5000)
@example("eager_time_s", math.inf)
@example("eager_time_s", 2**53 + 1)
@example("warmup_iters", 1.5)
@example("min_passing_t", math.nan)
@example("min_passing_t", 1.0)
@example("min_passing_t", -(2**53) - 1)
@example("sample_id", None)
@example("sample_id", 5)
@example("framework", "é")
@example("graph_hash", "ABCdef0")
@example("message", None)
@example("operator_count", "512")
@settings(max_examples=300)
def test_model_types_build_only_numbers_their_loaders_load(tmp_path_factory, field, value):
    try:
        built = FIELDS[field](value)
    except ValueError:
        return
    directory = tmp_path_factory.mktemp("rt")
    if field != "min_passing_t" or value is None:
        assert roundtrip(built, directory) == built
        return
    # A level must be on the header's grid; the producer declares the levels it measured.
    path = directory / "r.jsonl"
    write_records(path, HEADER._replace(grid=sorted({*GRID, value})), [built])
    assert load_records(path)[1] == [built]


def test_model_types_refuse_numbers_with_ingests_messages():
    cases = [
        (lambda: make_manifest(operator_count=math.inf), "operator_count must be an integer"),
        (lambda: make_manifest(parameter_count=True), "parameter_count must be an integer"),
        (lambda: make_record(eager_time_s=math.nan), "eager_time_s must be a finite number"),
        (lambda: make_record(compiled_time_s=True), "compiled_time_s must be a finite number"),
        (lambda: make_record(timed_iters=1.0), "timed_iters must be an integer"),
        (lambda: TensorComparison(0.0, ScalarKind.FLOAT32, None), "tensor_index must be an integer"),
        (lambda: TensorComparison(0, ScalarKind.FLOAT32, math.nan), "min_passing_t must be a finite number"),
        (lambda: TensorComparison(0, ScalarKind.FLOAT32, 1.0), "min_passing_t must be <= 0, got 1.0"),
        (lambda: make_record(eager_time_s=2**53 + 1), "eager_time_s 9007199254740993 is not exact as a float"),
    ]
    # A count past the interpreter's integer-to-text limit, where it has one, could not be written.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        cases += [
            (lambda: make_manifest(operator_count=10**limit), f"operator_count must have at most {limit} digits"),
            (lambda: make_record(warmup_iters=-(10**limit)), f"warmup_iters must have at most {limit} digits"),
        ]
    for build, message in cases:
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


# Each model constructor refuses a structured field of the wrong type, which no writer could encode.
@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: make_manifest(task_category="CV"), "task_category"),
        (lambda: make_manifest(dtypes=frozenset({"float32"})), "dtypes"),
        (lambda: make_manifest(source_digest_inputs={"normalized_source": "x", "topology": [["add", []]]}),
         "source_digest_inputs"),
        (lambda: TensorComparison(0, "float32", None), "kind"),
        (lambda: make_record(outcome="completed"), "outcome"),
        (lambda: Completed((1, 2)), "comparisons"),
        (lambda: HashInput(5, (("add", (0,)),)), "normalized_source"),
        (lambda: HashInput.from_source(5, [["a", [0]]]), "normalized_source"),
        (lambda: HashInput("x1 = add(x0)", (("add", 5),)), "topology"),
        (lambda: HashInput("x", ()), "topology"),
    ],
    ids=["task_category", "dtypes", "source_digest_inputs", "kind", "outcome", "comparisons",
         "hash-source", "hash-from-source", "hash-topology-inputs", "hash-topology-empty"],
)
def test_model_types_refuse_wrongly_typed_structured_fields(build, key):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value).startswith(f"{key} must be ")


def test_from_source_accepts_a_surrogate_that_normalizing_drops(tmp_path):
    # The rule applies to the text written, and a comment is not written.
    digest = HashInput.from_source("x = y  # \ud800", [("add", [0])])
    assert digest.normalized_source == "x = y"
    manifest = make_manifest(graph_hash=graph_hash(digest), source_digest_inputs=digest)
    assert roundtrip(manifest, tmp_path) == manifest


def test_crash_record_without_compiled_time_is_valid():
    record = make_record(outcome=CompileFailure("nope"), compiled_time_s=None)
    assert record.compiled_time_s is None


def test_failure_types_share_a_body_but_stay_distinct():
    assert RuntimeCrash("x") != CompileFailure("x")
    assert make_record(outcome=RuntimeCrash("x"), compiled_time_s=None) != make_record(
        outcome=CompileFailure("x"), compiled_time_s=None
    )
    for failure in (RuntimeCrash, CompileFailure):
        assert repr(failure("x")) == f"{failure.__name__}(message='x')"
        assert not hasattr(failure("x"), "__dict__")
        assert type(dataclasses.replace(failure("x"), message="y")) is failure
        assert dataclasses.replace(failure("x"), message="y") == failure("y")


def test_load_manifests_empty_file(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text("")
    with pytest.raises(IngestError, match=r"m\.jsonl: no manifests$"):
        load_manifests(path)


@pytest.mark.parametrize(
    "load, body, message",
    [
        (load_manifests, "", "no manifests"),
        (load_sample_groups, "", "no manifests"),
        (lambda path: load_sample_groups(path, []), "", "no manifests"),
        (lambda path: list(read_manifest_lines(path)), "", "no manifests"),
        (load_records, json.dumps(header_to_dict(HEADER)) + "\n", "no records after the header"),
        (load_score_rows, json.dumps(header_to_dict(HEADER)) + "\n", "no records after the header"),
    ],
    ids=["manifests", "groups", "groups-audited", "manifest-lines", "records", "score-rows"],
)
def test_every_loader_refuses_an_empty_body_as_the_cli_does(tmp_path, capsys, load, body, message):
    path = tmp_path / "in.jsonl"
    path.write_text(body)
    with pytest.raises(IngestError) as caught:
        load(path)
    assert str(caught.value) == f"{path}: {message}"
    flag = "--records" if body else "--manifests"
    assert main(["validate", flag, str(path)]) == 1
    assert capsys.readouterr().err == f"error: {caught.value}\n"


def test_load_manifests_in_order(tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifests(path, [make_manifest("a"), make_manifest("b"), make_manifest("c")])
    loaded = load_manifests(path)
    assert [m.sample_id for m in loaded] == ["a", "b", "c"]


def test_load_manifests_duplicate_id_names_both_lines(tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifests(path, [make_manifest("a"), make_manifest("b")])
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[1], lines[0]]) + "\n")
    with pytest.raises(IngestError, match=r"m\.jsonl:3.*'a'.*line 1"):
        load_manifests(path)


def test_load_manifests_malformed_line_names_line(tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifests(path, [make_manifest("a")])
    with path.open("a") as fh:
        fh.write("{oops\n")
    with pytest.raises(IngestError, match=r"m\.jsonl:2"):
        load_manifests(path)


def test_sample_groups_retain_under_a_quarter_of_manifest_memory(tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifests(path, simulate(SimSpec(n_samples=2000), DEFAULT_CONFIG)[0])

    def retained(load) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            loaded = load(path)
            gc.collect()
            assert len(loaded) == 2000
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert 4 * retained(load_sample_groups) < retained(load_manifests)


def test_load_manifests_unknown_category_rejected(tmp_path):
    path = tmp_path / "m.jsonl"
    data = json.loads(
        json.dumps(
            {
                "sample_id": "a",
                "framework": "torch",
                "task_category": "Robotics",
                "operator_count": 1,
                "graph_hash": "ff",
            }
        )
    )
    path.write_text(json.dumps(data) + "\n")
    with pytest.raises(IngestError, match="task_category"):
        load_manifests(path)


def test_load_records_roundtrip_file(tmp_path):
    path = tmp_path / "r.jsonl"
    records = [
        make_record("a", levels=(-4.0, None)),
        make_record("b", outcome=RuntimeCrash("segéfault"), compiled_time_s=None),
    ]
    write_records(path, HEADER, records)
    header, loaded = load_records(path)
    assert header == HEADER
    assert loaded == records


def test_load_records_missing_header(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text("")
    with pytest.raises(IngestError, match="missing header"):
        load_records(path)


def test_load_records_header_only(tmp_path):
    path = tmp_path / "r.jsonl"
    write_records(path, HEADER, [])
    with pytest.raises(IngestError, match=r"r\.jsonl: no records after the header$"):
        load_records(path)


def test_load_records_validation_errors_located(tmp_path):
    path = tmp_path / "r.jsonl"
    write_records(path, HEADER, [make_record("a")])
    good = path.read_text().splitlines()
    bad = json.loads(good[1])
    bad["eager_time_s"] = 0.0
    path.write_text("\n".join([good[0], json.dumps(bad)]) + "\n")
    with pytest.raises(IngestError, match=r"r\.jsonl:2.*eager_time_s"):
        load_records(path)


class JSONText(str):
    """A value planted as this JSON text: ``json.dumps`` writes neither ``-0`` nor ``1e400``."""


def _plant(path, lineno, where, value) -> None:
    """Set ``where`` in the object on line ``lineno`` of ``path`` to ``value``."""
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    target = lines[lineno - 1]
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = "\0" if isinstance(value, JSONText) else value
    text = "".join(json.dumps(line) + "\n" for line in lines)
    path.write_text(text.replace('"\\u0000"', value) if isinstance(value, JSONText) else text)


def _write_dataset(directory) -> tuple[Path, Path]:
    """Manifests of samples a and b; records of a, completed, and b, crashed."""
    m_path, r_path = directory / "m.jsonl", directory / "r.jsonl"
    digest = HashInput.from_source("x1 = mul(x0)", [("mul", (0,))])
    a = make_manifest("a", graph_hash=graph_hash(digest), source_digest_inputs=digest)
    write_manifests(m_path, [a, make_manifest("b")])
    crash = make_record("b", outcome=RuntimeCrash("x"), compiled_time_s=None)
    write_records(r_path, HEADER, [make_record("a"), crash])
    return m_path, r_path


# Every loader of a file kind, including ``validate``'s audited manifests load.
LOADERS = {
    "m": [load_manifests, load_sample_groups, lambda path: load_sample_groups(path, [])],
    "r": [load_records, load_score_rows],
}

# (file, line, where in that line's object, value, message): values of the
# wrong JSON type, each rejected with its own located message.
ENTRY = ("outcome", "comparisons", 0)
TOPOLOGY = ("source_digest_inputs", "topology")
WRONG_TYPES = [
    ("m", 1, ("operator_count",), True, "operator_count must be an integer"),
    ("m", 1, ("operator_count",), 3.0, "operator_count must be an integer"),
    ("m", 1, ("source_digest_inputs",), "x", "source_digest_inputs must be an object"),
    ("r", 2, ("warmup_iters",), True, "warmup_iters must be an integer"),
    ("r", 2, ("eager_time_s",), True, "eager_time_s must be a finite number"),
    ("r", 2, ("eager_time_s",), "1.0", "eager_time_s must be a finite number"),
    ("r", 2, ("outcome",), [], "outcome must be an object"),
    ("r", 2, ENTRY, 1, "comparison entries must be objects"),
    ("r", 2, (*ENTRY, "tensor_index"), True, "tensor_index must be an integer"),
    ("r", 2, (*ENTRY, "tensor_index"), 3.0, "tensor_index must be an integer"),
    ("r", 2, (*ENTRY, "min_passing_t"), True, "min_passing_t must be a finite number"),
    ("r", 2, (*ENTRY, "min_passing_t"), "1.0", "min_passing_t must be a finite number"),
]
# Values of the right JSON type that break a model rule, located the same way.
BAD_VALUES = [
    ("m", 1, ("sample_id",), "", "sample_id must be nonempty"),
    ("r", 2, ("sample_id",), "", "sample_id must be nonempty"),
    ("r", 2, ("compiled_time_s",), -1.0, "compiled_time_s must be positive, got -1.0"),
    ("r", 2, ("warmup_iters",), -1, "warmup_iters must be >= 0, got -1"),
    ("r", 2, ("outcome", "kind"), "exploded", "unknown outcome kind 'exploded'"),
]
# Faults that fail a checker's inline test, each worded by the field's rule,
# which the inline test or the combined test hands it to.
FALLBACK_FAULTS = [
    ("m", 1, ("task_category",), [], "task_category must be a string"),
    ("m", 1, ("dtypes",), [1, "\ud800"], "dtypes must be a list of kind names"),
    ("m", 1, TOPOLOGY, [["\udc00", [0]], ["mul"]],
     "topology must be a nonempty list of [op string, list of integer indices]"),
    *[
        ("r", 2, where, value, f"{where[-1]} must be a finite number")
        for where in [("eager_time_s",), ("compiled_time_s",), (*ENTRY, "min_passing_t")]
        for value in [math.nan, math.inf, JSONText("1e400"), 10**400]
    ],
    ("m", 1, ("graph_hash",), "xyz", "graph_hash must be a nonempty hex digest"),
    ("m", 1, ("parameter_count",), -1, "parameter_count must be >= 0, got -1"),
    ("r", 2, (*ENTRY, "tensor_index"), -1, "tensor_index must be >= 0, got -1"),
    ("r", 2, ("outcome", "comparisons"), [], "completed outcome requires at least one comparison"),
    ("r", 2, ("compiled_time_s",), None, "completed record requires compiled_time_s"),
    ("r", 3, ("eager_time_s",), -1.0, "eager_time_s must be positive, got -1.0"),
    ("r", 3, ("compiled_time_s",), 1.0, "compiled_time_s is only valid for completed records"),
]


def _short_id(value):
    return "10**400" if value == 10**400 else None  # None keeps pytest's own id


@pytest.mark.parametrize(
    "file, lineno, where, value, message", WRONG_TYPES + BAD_VALUES + FALLBACK_FAULTS, ids=_short_id
)
def test_load_rejects_wrong_json_types_located(
    tmp_path, capsys, file, lineno, where, value, message
):
    m_path, r_path = _write_dataset(tmp_path)
    path = {"m": m_path, "r": r_path}[file]
    _plant(path, lineno, where, value)
    for load in LOADERS[file]:
        with pytest.raises(IngestError, match=rf"{file}\.jsonl:{lineno}: {re.escape(message)}\Z"):
            load(path)
    assert main(["validate", "--manifests", str(m_path), "--records", str(r_path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:{lineno}: {message}\n"


# Two faults on one line: the checker names the first field in its order, each
# field's type test before its value test, and the model constructor names the same.
@pytest.mark.parametrize(
    "file, lineno, faults, build, message",
    [
        ("m", 1, {"sample_id": "", "operator_count": "x"},
         lambda: make_manifest("", operator_count="x"), "sample_id must be nonempty"),
        ("r", 2, {"eager_time_s": -1.0, "timed_iters": 1.5},
         lambda: make_record(eager_time_s=-1.0, timed_iters=1.5), "eager_time_s must be positive, got -1.0"),
    ],
    ids=["manifest", "record"],
)
def test_two_faults_on_a_line_name_the_first_field_in_checker_order(
    tmp_path, capsys, file, lineno, faults, build, message
):
    m_path, r_path = _write_dataset(tmp_path)
    path = {"m": m_path, "r": r_path}[file]
    for key, value in faults.items():
        _plant(path, lineno, (key,), value)
    for load in LOADERS[file]:
        with pytest.raises(IngestError, match=rf"{file}\.jsonl:{lineno}: {re.escape(message)}\Z"):
            load(path)
    assert main(["validate", "--manifests", str(m_path), "--records", str(r_path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:{lineno}: {message}\n"
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


# (file, line, where, rare value, common twin): valid forms that a checker's
# inline test hands to the field's rule. Each loads as its twin does; a
# non-ASCII string loads as its ASCII twin but for that letter.
CRASH = ("outcome", "message")
RARE_FORMS = [
    ("r", 2, ("eager_time_s",), 2, 2.0),
    ("r", 2, ("compiled_time_s",), 1, 1.0),
    ("r", 2, (*ENTRY, "min_passing_t"), -3, -3.0),
    ("r", 2, (*ENTRY, "min_passing_t"), JSONText("-3.0"), -3.0),
    ("r", 2, (*ENTRY, "min_passing_t"), JSONText("-0"), 0.0),
    *[("r", lineno, where, "é", "e") for lineno, where in [
        (1, ("producer",)), (2, ("sample_id",)), (2, (*ENTRY, "kind")), (3, CRASH)
    ]],
    *[("m", 1, where, "é", "e") for where in [
        ("sample_id",), ("framework",), ("dtypes", 0),
        ("source_digest_inputs", "normalized_source"), (*TOPOLOGY, 0, 0),
    ]],
]


@pytest.mark.parametrize("file, lineno, where, value, twin", RARE_FORMS)
def test_load_accepts_rare_forms_as_their_twins(tmp_path, capsys, file, lineno, where, value, twin):
    m_path, r_path = _write_dataset(tmp_path)
    path = {"m": m_path, "r": r_path}[file]
    original = path.read_text()
    loaded = []
    for planted in (twin, value):
        path.write_text(original)
        _plant(path, lineno, where, planted)
        results = [load(path) for load in LOADERS[file]]
        results += [main(["validate", f"--{'manifests' if file == 'm' else 'records'}", str(path)])]
        results += [capsys.readouterr()]
        loaded.append(repr(results).replace("é", "e"))
    assert loaded[1] == loaded[0]


@pytest.mark.parametrize("kind", ["runtime_crash", "compile_failure"])
def test_load_records_outcome_message_must_be_a_string(tmp_path, capsys, kind):
    path = tmp_path / "r.jsonl"
    write_records(path, HEADER, [make_record("a", outcome=RuntimeCrash("x"), compiled_time_s=None)])
    header, record = (json.loads(line) for line in path.read_text().splitlines())
    for message in (None, [1, 2], 3):
        record["outcome"] = {"kind": kind, "message": message}
        path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(IngestError, match=r"r\.jsonl:2: message must be a string\Z"):
            load_records(path)
        assert main(["validate", "--records", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: message must be a string\n"
    record["outcome"] = {"kind": kind}
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    assert load_records(path)[1][0].outcome.message == ""


@pytest.mark.parametrize(
    "lineno, field, value",
    [
        (1, "grid", [-10.0, math.nan, 0.0]),
        (1, "p", math.nan),
        (1, "b", math.inf),
        (2, "eager_time_s", math.inf),
        (2, "eager_time_s", 10**400),
        (2, "compiled_time_s", math.nan),
        (2, "min_passing_t", -math.inf),
        # value = (eager_time_s, compiled_time_s): each finite, the ratio not
        (2, "speedup", (1e308, 0.01)),
        (2, "speedup", (1e-300, 1e300)),
    ],
)
def test_load_records_rejects_non_finite_numbers(tmp_path, capsys, lineno, field, value):
    path = tmp_path / "r.jsonl"
    write_records(path, HEADER, [make_record("a")])
    header, record = (json.loads(line) for line in path.read_text().splitlines())
    target = {1: header, 2: record}[lineno]
    if field == "min_passing_t":
        target = record["outcome"]["comparisons"][0]
    if field == "speedup":
        record["eager_time_s"], record["compiled_time_s"] = value
    else:
        target[field] = value
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(IngestError, match=rf"r\.jsonl:{lineno}: .*{field}"):
        load_records(path)
    assert main(["validate", "--records", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:{lineno}: ")


@pytest.mark.parametrize(
    "topology",
    [[["mul", "0"]], [["mul", [0.7]]], [["mul", [True]]], [], [["mul"]], ["mul"], [[1, [0]]], {}],
)
def test_load_manifests_rejects_malformed_topology(tmp_path, capsys, topology):
    path = tmp_path / "m.jsonl"
    digest_inputs = HashInput.from_source("x1 = mul(x0)", [("mul", (0,))])
    write_manifests(path, [make_manifest("a", source_digest_inputs=digest_inputs)])
    data = json.loads(path.read_text())
    data["source_digest_inputs"]["topology"] = topology
    path.write_text(json.dumps(data) + "\n")
    with pytest.raises(IngestError, match=r"m\.jsonl:1: topology must be"):
        load_manifests(path)
    for command in ("validate", "dedup", "stats"):
        out = ["--out", str(tmp_path / "out.jsonl")] if command == "dedup" else []
        assert main([command, "--manifests", str(path), *out]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:1: topology must be")


def test_load_rejects_invalid_utf8_naming_the_line(tmp_path):
    m_path, r_path = tmp_path / "m.jsonl", tmp_path / "r.jsonl"
    write_manifests(m_path, [make_manifest("a")])
    write_records(r_path, HEADER, [make_record("a")])
    for path, load in ((m_path, load_manifests), (r_path, load_records)):
        with path.open("ab") as fh:
            fh.write(b'{"sample_id": "\xff"}\n')
        lineno = len(path.read_bytes().splitlines())
        with pytest.raises(IngestError, match=rf"jsonl:{lineno}: invalid UTF-8"):
            load(path)


def test_load_records_rejects_off_grid_level(tmp_path):
    path = tmp_path / "r.jsonl"
    write_records(path, HEADER, [make_record("a", levels=(-4.5,))])
    with pytest.raises(IngestError, match="not on the declared grid"):
        load_records(path)


@pytest.mark.parametrize("level", [1.0, 3.0])
def test_validate_refuses_a_forgiveness_level_as_min_passing_t(tmp_path, capsys, level):
    # HEADER lists the forgiveness levels 1-4, but a comparison passes only at t <= 0. The
    # model refuses such a level too, so the line is written as text.
    path = tmp_path / "r.jsonl"
    write_records(path, HEADER, [make_record("a"), make_record("b", levels=(-4.0, -1.0))])
    path.write_text(path.read_text().replace('"min_passing_t":-1.0', f'"min_passing_t":{level}'))
    message = f"{path}:3: min_passing_t {level} is not on the declared grid's numeric levels (t <= 0)"
    with pytest.raises(IngestError) as caught:
        load_records(path)
    assert str(caught.value) == message
    assert main(["validate", "--records", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_records_rejects_header_grid_without_level_zero(tmp_path, capsys):
    m_path, r_path = tmp_path / "m.jsonl", tmp_path / "r.jsonl"
    write_manifests(m_path, [make_manifest("a")])
    # `RecordsHeader` refuses this grid, so the header line is written as raw JSON.
    header = {"grid": [t for t in GRID if t != 0.0], "p": 0.1, "b": 0.1, "producer": "test"}
    lines = [json.dumps(header), *_record_lines([make_record("a", levels=(-4.0,))])]
    r_path.write_text("\n".join(lines) + "\n")
    message = f"{r_path}:1: bad header: grid must contain level 0"
    with pytest.raises(IngestError) as caught:
        load_records(r_path)
    assert str(caught.value) == message
    for command in ("validate", "report", "violin", "score"):
        assert main([command, "--records", str(r_path), "--manifests", str(m_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "grid, p, b, message",
    [
        ((-1.0, math.nan, 0.0), 0.1, 0.1, "grid levels must be finite"),
        ((-1.0, 0.0, math.inf), 0.1, 0.1, "grid levels must be finite"),
        ((0.0, -1.0), 0.1, 0.1, "grid must be strictly ascending"),
        ((-1.0, 0.0, 0.0), 0.1, 0.1, "grid must be strictly ascending"),
        ((-1.0, 0.0), 0.0, 0.1, "penalties p and b must lie in (0, 1)"),
        ((-1.0, 0.0), 0.1, 1.0, "penalties p and b must lie in (0, 1)"),
        ((-1.0, 0.0), math.nan, 0.1, "penalties p and b must lie in (0, 1)"),
        ((-2.0, -1.0), 0.1, 0.1, "grid must contain level 0"),
        ((), 0.1, 0.1, "grid must contain level 0"),
        # Rules apply in order: ascending, then penalties, then level 0.
        ((1.0, -1.0), 2.0, 0.1, "grid must be strictly ascending"),
        ((-2.0, -1.0), 2.0, 0.1, "penalties p and b must lie in (0, 1)"),
        ((0, 10**400), 0.1, 0.1, "grid levels must be finite"),  # no float holds it
        ("01", 0.1, 0.1, "grid must be an iterable of real numbers"),  # not read character by character
        (b"01", 0.1, 0.1, "grid must be an iterable of real numbers"),
        (5, 0.1, 0.1, "grid must be an iterable of real numbers"),
        ([None], 0.1, 0.1, "grid must be an iterable of real numbers"),
        ((-1.0, 0.0), "0.5", 0.1, "penalties p and b must be real numbers"),
        ((-1.0, 0.0), 0.1, None, "penalties p and b must be real numbers"),
        (["-1", "0"], 0.1, 0.1, "grid must be an iterable of real numbers"),  # float() reads text levels
    ],
)
def test_records_header_refuses_each_rule(grid, p, b, message):
    assert _refusal(RecordsHeader, grid, p, b, "test") == message
    if message == "grid must contain level 0":
        return  # the header's own rule
    # `ScoreConfig` shares every other rule, in the same order; the tolerance scan, the grid rules.
    assert _refusal(ScoreConfig, p, b, grid) == message
    if message.startswith("grid"):
        assert _refusal(min_passing_tolerance, [[1.0]], [[1.0]], ScalarKind.FLOAT32, grid) == message


def _refusal(build, *args, **kwargs):
    with pytest.raises(ValueError) as caught:
        build(*args, **kwargs)
    return str(caught.value)


@pytest.mark.parametrize(
    "value, changes, message",
    [
        (RecordsHeader((-1.0, 0.0), 0.1, 0.1, "test"), {"grid": (1.0,)}, "grid must contain level 0"),
        (ScoreConfig(), {"failure_penalty": 2.0}, "penalties p and b must lie in (0, 1)"),
        (
            score_rows([ScoreRow("a", None, 0.0, 2.0)], DEFAULT_CONFIG, (0.0,)),
            {"points": ()},
            "a score curve needs at least one point",
        ),
        (
            HashInput("x", (("a", ()),)),
            {"topology": (("a\udc00", ()),)},
            "topology must not hold a lone surrogate",
        ),
        (Log2NormalLaw(0.0, 1.0), {"log2_stddev": -1.0}, "log2_stddev must be >= 0"),
        (ErrorRates(), {"runtime_crash": 0.9}, "error rates must sum to at most 1"),
        (SimSpec(), {"n_samples": 0}, "n_samples must be >= 1"),
    ],
    ids=["RecordsHeader", "ScoreConfig", "ScoreCurve", "HashInput", "Log2NormalLaw", "ErrorRates",
         "SimSpec"],
)
def test_checked_tuples_replace_and_make_through_their_constructor(value, changes, message):
    # A plain named tuple's _make, which its _replace calls, skips __new__ and its checks.
    cls = type(value)
    assert value._replace() == value and cls._make(value) == value
    assert type(cls._make(value)) is cls
    assert _refusal(value._replace, **changes) == message
    assert _refusal(cls._make, {**value._asdict(), **changes}.values()) == message


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"grid": [0.0, -1.0]}, "grid must be strictly ascending"),
        ({"p": 1.0}, "penalties p and b must lie in (0, 1)"),
        ({"b": 0}, "penalties p and b must lie in (0, 1)"),
        ({"grid": []}, "grid must be a nonempty list of finite numbers"),
        ({"p": "0.1"}, "p must be a finite number"),
        ({"producer": None}, "producer must be a string"),
    ],
)
def test_load_records_refuses_a_header_by_its_rules(tmp_path, fields, message):
    path = tmp_path / "r.jsonl"
    header = {"grid": [-1.0, 0.0], "p": 0.1, "b": 0.1, "producer": "test", **fields}
    lines = [json.dumps(header), *_record_lines([make_record("a", levels=(-1.0,))])]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError) as caught:
        load_records(path)
    assert str(caught.value) == f"{path}:1: bad header: {message}"


def test_load_records_duplicate_id(tmp_path):
    path = tmp_path / "r.jsonl"
    lines = [
        json.dumps({"grid": list(GRID), "p": 0.1, "b": 0.1, "producer": "t"}),
    ]
    record_line = next(iter(_record_lines([make_record("a")])))
    lines += [record_line, record_line]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match=r"duplicate sample_id 'a' \(first seen at line 2\)"):
        load_records(path)


def test_score_rows_carry_each_outcome_types_error_code(tmp_path):
    assert tcscore.scoring.ErrorCode is ErrorCode
    records = [
        make_record("done"),
        make_record("crash", outcome=RuntimeCrash("boom"), compiled_time_s=None),
        make_record("broken", outcome=CompileFailure("nope"), compiled_time_s=None),
    ]
    expected = [None, ErrorCode.RUNTIME_CRASH, ErrorCode.COMPILE_FAILURE]
    path = tmp_path / "r.jsonl"
    write_records(path, HEADER, records)
    assert [row.error_code for row in load_score_rows(path)[1]] == expected
    assert [score_row(record).error_code for record in records] == expected


def test_records_serves_the_model_names_from_the_model():
    assert sorted(tcscore.records.MODEL_NAMES) == sorted(tcscore.model.__all__)
    for name in tcscore.model.__all__:
        assert getattr(tcscore.records, name) is getattr(tcscore.model, name)
    # Every public class and function of the model is served.
    defined = {
        name for name, value in vars(tcscore.model).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == "tcscore.model"
    }
    assert defined <= set(tcscore.model.__all__)
    # The top-level scorer is the route every command takes; the per-sample oracle stays in scoring.
    assert tcscore.score_rows is tcscore.macro.score_rows
    assert not hasattr(tcscore, "score_curve")


@pytest.mark.parametrize("module", [tcscore, tcscore.records], ids=["tcscore", "records"])
def test_an_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'nope'"):
        module.nope
    assert not hasattr(module, "_build_manifest")


def _record_lines(records):
    return [json.dumps(record_to_dict(r)) for r in records]


def test_roundtrip_examples(tmp_path):
    manifest = make_manifest(
        source_digest_inputs=HashInput.from_source("x = a + b  # sum", [("add", (0, 1))]),
        parameter_count=1000,
    )
    assert roundtrip(manifest, tmp_path) == manifest
    never = make_record(levels=(None,))
    assert roundtrip(never, tmp_path) == never
    unicode_failure = make_record(
        outcome=CompileFailure("päss ✓ 中文"), compiled_time_s=None
    )
    assert roundtrip(unicode_failure, tmp_path) == unicode_failure
    with pytest.raises(TypeError):
        roundtrip(42, tmp_path)


# -- randomized round-trip ---------------------------------------------------

kinds = st.sampled_from(list(ScalarKind))
ids = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)
times = st.floats(min_value=1e-6, max_value=1e4, allow_nan=False)

hash_inputs = st.builds(
    HashInput.from_source,
    st.text(max_size=80),
    st.lists(
        st.tuples(st.sampled_from(["add", "mul", "conv"]), st.lists(st.integers(0, 5), max_size=3)),
        min_size=1,
        max_size=5,
    ),
)

manifests = st.builds(
    SampleManifest,
    sample_id=ids,
    framework=st.sampled_from(["torch", "paddle", "synthetic"]),
    task_category=st.sampled_from(list(TaskCategory)),
    operator_count=st.integers(min_value=1, max_value=10_000),
    graph_hash=st.text(alphabet="0123456789abcdef", min_size=4, max_size=64),
    dtypes=st.frozensets(kinds, max_size=4),
    parameter_count=st.none() | st.integers(min_value=0, max_value=10**12),
    source_digest_inputs=st.none() | hash_inputs,
)

comparisons = st.builds(
    TensorComparison,
    tensor_index=st.integers(min_value=0, max_value=8),
    kind=kinds,
    min_passing_t=st.none() | st.sampled_from(sorted(GRID[:11])),
)

completed = st.builds(
    lambda cs, eager, compiled, warm, timed, sid: RunRecord(
        sid, eager, Completed(tuple(cs)), compiled, warm, timed
    ),
    st.lists(comparisons, min_size=1, max_size=4),
    times,
    times,
    st.integers(0, 50),
    st.integers(1, 100),
    ids,
)

failed = st.builds(
    lambda ctor, msg, eager, warm, timed, sid: RunRecord(
        sid, eager, ctor(msg), None, warm, timed
    ),
    st.sampled_from([RuntimeCrash, CompileFailure]),
    st.text(max_size=40),
    times,
    st.integers(0, 50),
    st.integers(1, 100),
    ids,
)


@given(manifests)
@settings(max_examples=150)
def test_manifest_roundtrip_identity(tmp_path_factory, manifest):
    assert roundtrip(manifest, tmp_path_factory.mktemp("rt")) == manifest


@given(completed | failed)
@settings(max_examples=150)
def test_record_roundtrip_identity(tmp_path_factory, record):
    assert roundtrip(record, tmp_path_factory.mktemp("rt")) == record


@given(st.lists(completed | failed, max_size=10))
@settings(max_examples=50)
def test_records_file_roundtrip_preserves_order(tmp_path_factory, records):
    unique = {}
    for record in records:
        unique.setdefault(record.sample_id, record)
    records = list(unique.values())
    path = tmp_path_factory.mktemp("rt") / "r.jsonl"
    write_records(path, HEADER, records)
    if not records:
        with pytest.raises(IngestError, match="no records after the header"):
            load_records(path)
        return
    _, loaded = load_records(path)
    assert loaded == records


# -- line decoding and encoding ------------------------------------------------

# Any text a manifests file can hold on one line.
line_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
# Valid JSON, possibly padded with whitespace or followed by more text.
json_lines = st.builds(
    lambda value, pad, tail: pad + json.dumps(value) + pad + tail,
    json_values,
    st.sampled_from(["", " ", "\t", "\r", "\u3000", "\x85"]),
    st.sampled_from(["", "x", " {}", ",", "]", "}"]),
)


def _decode_reference(path, text: str):
    """What one manifests line decodes to, by ``json.loads``: (object, None) or (None, error)."""
    stripped = text.strip()
    if not stripped:
        return None, f"{path}:1: blank line"
    try:
        obj = json.loads(stripped)
    except (ValueError, RecursionError) as exc:
        message = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
        return None, f"{path}:1: invalid JSON: {message}"
    if not isinstance(obj, dict):
        return None, f"{path}:1: expected a JSON object"
    return obj, None


@given(line_text | json_lines)
@example("\ufeff{}")
@example("{} {}")
@example("{}x")
@example("[")
@example("NaN")
@example('"s"')
@example("[" * 200_000)
@example("9" * 5000)
@example('{"sample_id": ' + "9" * 5000 + "}")
@settings(max_examples=300, deadline=None)
def test_decoding_words_every_error_as_json_loads(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("decode") / "m.jsonl"
    path.write_bytes(text.encode("utf-8") + b"\n")
    obj, error = _decode_reference(path, text)
    if error is None:
        assert list(_read_json_lines(path)) == [(1, text.strip(), obj)]
        try:
            values = _check_manifest(obj)
        except ValueError as exc:
            error = f"{path}:1: {exc}"
        else:
            assert load_sample_groups(path) == [SampleGroup(*values[:4])]
            return
    with pytest.raises(IngestError) as caught:
        load_sample_groups(path)
    assert str(caught.value) == error
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        assert main(["validate", "--manifests", str(path)]) == 1
    assert stderr.getvalue() == f"error: {error}\n"


def _dumps(value, **kwargs) -> str:
    return json.dumps(value, separators=(",", ":"), **kwargs)


@given(manifests, completed | failed)
@settings(max_examples=150)
def test_line_encoder_matches_json_dumps(manifest, record):
    for data in (manifest_to_dict(manifest), record_to_dict(record), header_to_dict(HEADER)):
        assert _encode_line(data) == _dumps(data, sort_keys=True)


topologies = st.lists(
    st.tuples(st.text(max_size=8), st.lists(st.integers(), max_size=3)), min_size=1, max_size=5
)


@given(topologies)
@example([("ädd✓", [0]), ("中文", [])])
@settings(max_examples=150)
def test_topology_encoder_matches_json_dumps(topology):
    as_lists = [[op, list(inputs)] for op, inputs in topology]
    frozen = HashInput.from_source("", as_lists).topology
    assert _encode_topology(as_lists) == _encode_topology(frozen) == _dumps(as_lists)


def _write_calls(tree: ast.AST) -> Iterator[ast.Call]:
    """Each call in ``tree`` that may open a file for writing.

    That is ``write_text``, ``write_bytes``, and an ``open`` whose mode
    holds w, a, x or + or is not a string literal.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, (ast.Name, ast.Attribute)):
            continue
        name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        if name in ("write_text", "write_bytes"):
            yield node
        elif name == "open":
            # open(file, mode), os.open(path, flags) and io.open(file, mode); Path.open(mode).
            receiver = getattr(node.func, "value", None)
            takes_path = receiver is None or isinstance(receiver, ast.Name) and receiver.id in ("os", "io")
            args = node.args[1:] if takes_path else node.args
            modes = [kw.value for kw in node.keywords if kw.arg in ("mode", "flags")] + args
            read_only = not modes or (
                isinstance(modes[0], ast.Constant) and isinstance(modes[0].value, str)
                and not set("wax+") & set(modes[0].value)
            )
            if not read_only:
                yield node


@pytest.mark.parametrize(
    "code, writes",
    [
        ('Path(out).write_text(text, encoding="utf-8")', True),
        ("out.write_bytes(data)", True),
        ('open(path, "a")', True),
        ('path.open("r+b")', True),
        ("open(path, mode=mode)", True),
        ("os.open(path, os.O_WRONLY)", True),
        ("open(path)", False),
        ('path.open("rb")', False),
        ('open(path, encoding="utf-8")', False),
    ],
)
def test_write_call_detector(code, writes):
    assert bool(list(_write_calls(ast.parse(code)))) == writes


def test_only_the_file_writer_opens_files_for_writing():
    # A second write path would lose the writer's guarantees: old bytes
    # kept on failure, no truncated target, no pipe or device written.
    owners = []
    for path in sorted(Path(tcscore.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(call): "<module>" for call in _write_calls(tree)}
        # ast.walk is breadth first: an inner function overrides its outer one.
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update({id(call): func.name for call in _write_calls(func)})
        owners += [f"{path.name}:{name}" for name in owner.values()]
    assert owners == ["records.py:file_writer"]
