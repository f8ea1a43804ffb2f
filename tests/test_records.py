"""Data model ingestion, validation, and round-trip serialization."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from tcscore.cli import main
from tcscore.graphhash import HashInput, _encode_topology, graph_hash
from tcscore.records import (
    CompileFailure,
    Completed,
    IngestError,
    RecordsHeader,
    RunRecord,
    RuntimeCrash,
    SampleGroup,
    SampleManifest,
    TaskCategory,
    TensorComparison,
    load_manifests,
    load_record_ids,
    load_records,
    load_sample_groups,
    manifest_from_dict,
    manifest_to_dict,
    read_manifest_lines,
    record_from_dict,
    record_to_dict,
    write_manifests,
    write_records,
    _check_manifest,
    _encode_line,
    _read_json_lines,
    header_to_dict,
)
from tcscore.scoring import DEFAULT_CONFIG
from tcscore.simulator import SimSpec, simulate
from tcscore.tolerance import ScalarKind

GRID = tuple(float(t) for t in range(-10, 1)) + (1.0, 2.0, 3.0, 4.0)
HEADER = RecordsHeader(grid=GRID, p=0.1, b=0.1, producer="test")


def roundtrip(value: SampleManifest | RunRecord) -> SampleManifest | RunRecord:
    """Serialize a manifest or record to JSON text and parse it back."""
    if isinstance(value, SampleManifest):
        return manifest_from_dict(json.loads(json.dumps(manifest_to_dict(value))))
    if isinstance(value, RunRecord):
        return record_from_dict(json.loads(json.dumps(record_to_dict(value))))
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


def test_crash_record_without_compiled_time_is_valid():
    record = make_record(outcome=CompileFailure("nope"), compiled_time_s=None)
    assert record.compiled_time_s is None


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
        (load_record_ids, json.dumps(header_to_dict(HEADER)) + "\n", "no records after the header"),
    ],
    ids=["manifests", "groups", "groups-audited", "manifest-lines", "records", "record-ids"],
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


# (file, line, where in that line's object, value, message): values of the
# wrong JSON type, each rejected with its own located message.
ENTRY = ("outcome", "comparisons", 0)
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


@pytest.mark.parametrize("file, lineno, where, value, message", WRONG_TYPES)
def test_load_rejects_wrong_json_types_located(
    tmp_path, capsys, file, lineno, where, value, message
):
    m_path, r_path = tmp_path / "m.jsonl", tmp_path / "r.jsonl"
    digest = HashInput.from_source("x1 = mul(x0)", [("mul", (0,))])
    write_manifests(
        m_path, [make_manifest("a", graph_hash=graph_hash(digest), source_digest_inputs=digest)]
    )
    write_records(r_path, HEADER, [make_record("a")])
    path = {"m": m_path, "r": r_path}[file]
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    target = lines[lineno - 1]
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(IngestError, match=rf"{file}\.jsonl:{lineno}: {re.escape(message)}\Z"):
        (load_manifests if file == "m" else load_records)(path)
    assert main(["validate", "--manifests", str(m_path), "--records", str(r_path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:{lineno}: {message}\n"


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
    # HEADER lists the forgiveness levels 1-4, but a comparison passes only at t <= 0.
    path = tmp_path / "r.jsonl"
    write_records(path, HEADER, [make_record("a"), make_record("b", levels=(-4.0, level))])
    message = f"{path}:3: min_passing_t {level} is not on the declared grid's numeric levels (t <= 0)"
    with pytest.raises(IngestError) as caught:
        load_records(path)
    assert str(caught.value) == message
    assert main(["validate", "--records", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_records_rejects_header_grid_without_level_zero(tmp_path, capsys):
    m_path, r_path = tmp_path / "m.jsonl", tmp_path / "r.jsonl"
    write_manifests(m_path, [make_manifest("a")])
    header = RecordsHeader(tuple(t for t in GRID if t != 0.0), 0.1, 0.1, "test")
    write_records(r_path, header, [make_record("a", levels=(-4.0,))])
    message = f"{r_path}:1: header grid must contain level 0"
    with pytest.raises(IngestError, match=r"r\.jsonl:1: header grid must contain level 0"):
        load_records(r_path)
    for command in ("validate", "report", "violin", "score"):
        assert main([command, "--records", str(r_path), "--manifests", str(m_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


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


def _record_lines(records):
    return [json.dumps(record_to_dict(r)) for r in records]


def test_roundtrip_examples():
    manifest = make_manifest(
        source_digest_inputs=HashInput.from_source("x = a + b  # sum", [("add", (0, 1))]),
        parameter_count=1000,
    )
    assert roundtrip(manifest) == manifest
    never = make_record(levels=(None,))
    assert roundtrip(never) == never
    unicode_failure = make_record(
        outcome=CompileFailure("päss ✓ 中文"), compiled_time_s=None
    )
    assert roundtrip(unicode_failure) == unicode_failure
    with pytest.raises(TypeError):
        roundtrip(42)


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
def test_manifest_roundtrip_identity(manifest):
    assert roundtrip(manifest) == manifest


@given(completed | failed)
@settings(max_examples=150)
def test_record_roundtrip_identity(record):
    assert roundtrip(record) == record


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
