"""Neither a corrupted dataset line nor odd arguments crash the CLI.

The first test takes a small simulated dataset, damages one line (a key
dropped, a value swapped for an odd one, or the line replaced by non-JSON
text) or plants graph-hash mismatches in some manifests lines, and runs
the file-reading subcommands through ``main``. Every run must exit 0 or
1, and every command that fails must print the same
``error:`` line as ``validate``: they keep different parts of each line,
but check every line alike. Only ``validate`` checks graph hashes, so
it alone may fail on a hash mismatch.

The second draws ``simulate --spec`` laws from wide finite floats and
``--p``/``--b``/``--t``/``--grid`` values for ``score`` and ``report``.
Every run must exit 0, 1 or 2 with no traceback or warning, and every
exit 1 must print an ``error:`` line.

The third draws speedup and op-count laws up to the edges of float range,
with noise magnitudes and fault rates, and holds ``validate`` to its
promise: whenever it accepts the simulated files, every scoring,
rendering and dataset subcommand accepts them too, in every format.

The fourth holds ``validate`` to the same promise on hand-written files:
header grids with and without positive levels, every outcome kind,
passing levels null, on the grid or off it, and times out to the edges
of float range. Both also require ``dedup`` to write input lines, in
input order and as they were read, accounting for every input line.

The fifth holds the loaders that keep part of each line to the full
loaders: on every corrupted manifests file, ``load_sample_groups``, with
and without its hash audit, and ``dedup_file`` fail with the same error
as ``load_manifests``, or all load, the groups are the manifests'
projection, the audit names the ids ``audit_hashes`` names and
``dedup_file`` keeps the lines of the manifests ``dedup`` keeps. On
every corrupted records file, ``load_record_ids`` fails with the same
error as ``load_records``, or both load the same sample ids.
"""

from __future__ import annotations

import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tcscore.cli import main
from tcscore.dataset import audit_hashes, dedup, dedup_file
from tcscore.records import (
    IngestError,
    SampleGroup,
    TaskCategory,
    load_manifests,
    load_record_ids,
    load_records,
    load_sample_groups,
)

N_SAMPLES = 12
DROP = "<drop key>"
ODD_VALUES = [None, True, math.nan, 1e308, 10**400, "", [], {}]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory) -> dict[str, list[str]]:
    work = tmp_path_factory.mktemp("fuzz")
    m_path, r_path = work / "m.jsonl", work / "r.jsonl"
    with redirect_stdout(StringIO()):
        assert main(["simulate", "--seed", "7", "--n", str(N_SAMPLES),
                     "--manifests", str(m_path), "--records", str(r_path)]) == 0
    return {"m.jsonl": m_path.read_text().splitlines(), "r.jsonl": r_path.read_text().splitlines()}


def _slots(obj):
    """Every (container, key) pair inside a parsed JSON value."""
    keys = obj.keys() if isinstance(obj, dict) else range(len(obj))
    for key in keys:
        yield obj, key
        if isinstance(obj[key], (dict, list)):
            yield from _slots(obj[key])


@st.composite
def corrupted(draw, dataset):
    files = {name: list(lines) for name, lines in dataset.items()}
    lines = files[draw(st.sampled_from(sorted(files)))]
    index = draw(st.integers(0, len(lines) - 1))
    change = draw(st.sampled_from(["not json", DROP, *ODD_VALUES]))
    if change == "not json":
        lines[index] = "not json"
        return files
    obj = json.loads(lines[index])
    container, key = draw(st.sampled_from(list(_slots(obj))))
    if change == DROP:
        del container[key]
    else:
        container[key] = change
    lines[index] = json.dumps(obj)
    return files


@st.composite
def planted(draw, dataset):
    """The dataset with one to three manifests lines changed so that their
    hash may disagree: a hex digit of ``graph_hash`` flipped, or a token
    added to ``normalized_source``. A comment or whitespace in the source,
    or an upper-cased digest, leaves the hash matching."""
    files = {name: list(lines) for name, lines in dataset.items()}
    lines = files["m.jsonl"]
    for index in draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=3, unique=True)):
        obj = json.loads(lines[index])
        digest, inputs = obj["graph_hash"], obj["source_digest_inputs"]
        change = draw(st.sampled_from(["flip digit", "add token", "add comment", "upper case"]))
        if change == "flip digit":
            at = draw(st.integers(0, len(digest) - 1))
            digit = int(digest[at], 16) ^ draw(st.integers(1, 15))
            obj["graph_hash"] = f"{digest[:at]}{digit:x}{digest[at + 1:]}"
        elif change == "add token":
            inputs["normalized_source"] += draw(st.sampled_from(["x", " x", " return x0"]))
        elif change == "add comment":
            spacing = draw(st.sampled_from(["  # note\n", "\n\t", "\u3000"]))
            inputs["normalized_source"] = inputs["normalized_source"].replace(" ", spacing, 1)
        else:
            obj["graph_hash"] = digest.upper()
        lines[index] = json.dumps(obj)
    return files


def _run(argv: list[str], out: StringIO | None = None) -> tuple[int, str]:
    """Exit code and stderr of one CLI call, its stdout going to ``out``;
    any warning fails the test."""
    err = StringIO()
    with redirect_stdout(out or StringIO()), redirect_stderr(err), warnings.catch_warnings(
        record=True
    ) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert not caught, [str(w.message) for w in caught]
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupted_line_fails_cleanly(dataset, data):
    files = data.draw(st.one_of(corrupted(dataset), planted(dataset)))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, lines in files.items():
            (work / name).write_text("\n".join(lines) + "\n")
        m_path, r_path = str(work / "m.jsonl"), str(work / "r.jsonl")
        both = ["--manifests", m_path, "--records", r_path]
        results = {
            command: _run(argv)
            for command, argv in {
                "validate": ["validate", *both],
                "report": ["report", *both],
                "violin": ["violin", *both],
                "score": ["score", *both],
                "stats": ["stats", "--manifests", m_path],
                "dedup": ["dedup", "--manifests", m_path, "--out", str(work / "kept.jsonl")],
            }.items()
        }
    validate_code, validate_err = results["validate"]
    for command, (code, err) in results.items():
        assert code in (0, 1), command
        if code == 1:
            assert err.startswith("error: ") and err == validate_err, (command, err, validate_err)
    if validate_code == 1 and results["report"][0] == 0:
        assert validate_err.startswith("error: graph_hash does not match"), validate_err


WIDE = st.floats(allow_nan=False, allow_infinity=False)
# Log2 laws reach the float range edges (about +-1024) within a few
# deviations; mixing in that band finds overflows in few examples.
LOG2 = st.one_of(WIDE, st.floats(-2000, 2000))
LOG2_STDDEV = st.one_of(WIDE, st.floats(0, 1000))
KIND_NAMES = ["float16", "bfloat16", "float32", "float64", "complex64", "other"]


@st.composite
def sim_specs(draw):
    spec = {}
    for law in ("speedup_law", "opcount_law"):
        if draw(st.booleans()):
            spec[law] = {"log2_mean": draw(LOG2), "log2_stddev": draw(LOG2_STDDEV)}
    if draw(st.booleans()):
        spec["noise_law"] = draw(st.dictionaries(st.sampled_from(KIND_NAMES), WIDE, min_size=1))
    return spec


# Flag values: any float as text (NaN and infinities included), or junk.
FLAG_VALUES = st.one_of(st.floats().map(repr), st.sampled_from(["", "x", "-", "1e999", "0x1p-3"]))
GRIDS = st.one_of(
    st.lists(st.floats(-12, 6), max_size=6).map(lambda ts: ",".join(map(repr, ts))),
    st.lists(st.integers(-10, 4), min_size=1, max_size=6, unique=True).map(
        lambda ts: ",".join(map(str, sorted(ts)))
    ),
    FLAG_VALUES,
)


@settings(max_examples=40, deadline=None)
@given(spec=sim_specs(), data=st.data())
def test_odd_arguments_fail_cleanly(dataset, spec, data):
    flags = {"--p": FLAG_VALUES, "--b": FLAG_VALUES, "--grid": GRIDS}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, lines in dataset.items():
            (work / name).write_text("\n".join(lines) + "\n")
        (work / "spec.json").write_text(json.dumps(spec))
        both = ["--manifests", str(work / "m.jsonl"), "--records", str(work / "r.jsonl")]
        scoring = [
            f"{flag}={data.draw(values)}"
            for flag, values in flags.items()
            if data.draw(st.booleans())
        ]
        t = [f"--t={data.draw(FLAG_VALUES)}"] if data.draw(st.booleans()) else []
        simulate = ["simulate", "--spec", str(work / "spec.json"), "--n", "20"]
        simulate += ["--manifests", str(work / "sm.jsonl"), "--records", str(work / "sr.jsonl")]
        results = [
            _run(simulate),
            _run(["score", *both, *scoring, *t]),
            _run(["report", *both, *scoring]),
        ]
    for code, err in results:
        assert code in (0, 1, 2)
        assert "Traceback" not in err and "Warning" not in err
        if code == 1:
            assert err.startswith("error: "), err


# Log2 laws out past where simulate starts to refuse them: op counts and
# speedups overflow near 2**1024, and speedups below about 2**-1028 push
# compiled times past float range.
EDGE_MEAN = st.floats(-1100, 1100)
EDGE_STDDEV = st.one_of(st.floats(0, 2), st.floats(0, 40))


# Noise magnitudes from none to the float range edge; fault rates summing
# to at most 1, or one fault hitting every sample.
NOISE = st.one_of(st.floats(0, 1), st.floats(min_value=0, allow_infinity=False))
RATE_NAMES = ("accuracy_violation", "runtime_crash", "compile_failure")
ERROR_RATES = st.one_of(
    st.fixed_dictionaries({name: st.floats(0, 1 / 3) for name in RATE_NAMES}),
    st.sampled_from(RATE_NAMES).map(lambda hit: {name: float(name == hit) for name in RATE_NAMES}),
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    laws=st.fixed_dictionaries(
        {
            law: st.fixed_dictionaries({"log2_mean": EDGE_MEAN, "log2_stddev": EDGE_STDDEV})
            for law in ("speedup_law", "opcount_law")
        },
        optional={
            "noise_law": st.dictionaries(st.sampled_from(KIND_NAMES), NOISE, min_size=1),
            "error_rates": ERROR_RATES,
        },
    ),
)
def test_validated_files_pass_every_command(seed, laws):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "spec.json").write_text(json.dumps({"seed": seed, **laws}))
        m_path, r_path = str(work / "m.jsonl"), str(work / "r.jsonl")
        both = ["--manifests", m_path, "--records", r_path]
        code, err = _run(["simulate", "--spec", str(work / "spec.json"), "--n", "20", *both])
        if code == 1:
            assert err.endswith(": draws leave float range\n"), err
            return
        assert code == 0, err
        assert _run(["validate", *both]) == (0, "")
        _assert_every_command_accepts(work)


def _assert_every_command_accepts(work: Path) -> None:
    """Every scoring, rendering and dataset command accepts ``work``'s files,
    and ``dedup`` writes a subsequence of the input lines as they were read."""
    m_path, r_path = str(work / "m.jsonl"), str(work / "r.jsonl")
    both = ["--manifests", m_path, "--records", r_path]
    argvs = [["score", *both]]
    for fmt in ("csv", "json", "md"):
        argvs += [[command, *both, "--format", fmt] for command in ("curve", "report", "violin")]
        argvs.append(["stats", "--manifests", m_path, "--format", fmt])
    for argv in argvs:
        assert _run(argv) == (0, ""), argv

    out = StringIO()
    assert _run(["dedup", "--manifests", m_path, "--out", str(work / "k.jsonl")], out) == (0, "")
    kept, dropped = map(int, out.getvalue().split()[1::2])
    lines = [line.strip() for line in (work / "m.jsonl").read_bytes().split(b"\n")[:-1]]
    kept_lines = (work / "k.jsonl").read_bytes().split(b"\n")[:-1]
    assert kept + dropped == len(lines) and kept == len(kept_lines)
    remaining = iter(lines)
    assert all(line in remaining for line in kept_lines), "not input lines in input order"
    hashes = {json.loads(line)["graph_hash"].lower() for line in lines}
    if len(hashes) == len(lines):
        assert (work / "k.jsonl").read_bytes() == (work / "m.jsonl").read_bytes()


# Times: ordinary ones, and the smallest subnormal, smallest normal and
# largest finite doubles, so speedups underflow or overflow.
EDGE_TIMES = st.one_of(
    st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1.0]),
)
OPEN_UNIT = st.floats(0, 1, exclude_min=True, exclude_max=True)


@st.composite
def hand_written(draw) -> tuple[dict, list[dict], list[dict]]:
    numeric = draw(st.lists(st.integers(-12, -1), unique=True, max_size=5))
    positive = draw(st.lists(st.sampled_from([0.5, 1, 2, 3, 4, 6]), unique=True, max_size=4))
    grid = sorted({*map(float, numeric), 0.0, *map(float, positive)})
    header = {"grid": grid, "p": draw(OPEN_UNIT), "b": draw(OPEN_UNIT), "producer": "hand"}
    passing = st.one_of(st.none(), st.sampled_from(grid))
    if draw(st.booleans()):  # then validate rejects nearly every file
        passing |= st.floats(-20, 20)
    manifests, records = [], []
    for i in range(draw(st.integers(1, 5))):
        sample_id = f"h{i}"
        manifests.append({
            "sample_id": sample_id,
            "framework": draw(st.sampled_from(["torch", "paddle"])),
            "task_category": draw(st.sampled_from([c.value for c in TaskCategory])),
            "operator_count": draw(st.integers(1, 2**40)),
            "graph_hash": f"{i:064x}",
        })
        record = {"sample_id": sample_id, "eager_time_s": draw(EDGE_TIMES),
                  "warmup_iters": 0, "timed_iters": 1}
        kind = draw(st.sampled_from(["completed", "runtime_crash", "compile_failure"]))
        if kind == "completed":
            comparisons = draw(st.lists(passing, min_size=1, max_size=3))
            record["outcome"] = {"kind": kind, "comparisons": [
                {"tensor_index": j, "kind": "float32", "min_passing_t": t}
                for j, t in enumerate(comparisons)
            ]}
            record["compiled_time_s"] = draw(EDGE_TIMES)
        else:
            record["outcome"] = {"kind": kind, "message": "boom"}
        records.append(record)
    return header, manifests, records


@settings(max_examples=60, deadline=None)
@given(files=hand_written())
def test_validated_hand_written_files_pass_every_command(files):
    header, manifests, records = files
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "m.jsonl").write_text("".join(json.dumps(m) + "\n" for m in manifests))
        (work / "r.jsonl").write_text("".join(json.dumps(r) + "\n" for r in [header, *records]))
        both = ["--manifests", str(work / "m.jsonl"), "--records", str(work / "r.jsonl")]
        if _run(["validate", *both])[0] == 0:
            _assert_every_command_accepts(work)


def _load_or_error(load, *args):
    try:
        return load(*args)
    except IngestError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sample_groups_load_what_manifests_load(dataset, data):
    manifests_only = {"m.jsonl": dataset["m.jsonl"]}
    lines = data.draw(st.one_of(corrupted(manifests_only), planted(manifests_only)))["m.jsonl"]
    mismatched: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "m.jsonl", Path(tmp) / "kept.jsonl"
        path.write_text("\n".join(lines) + "\n")
        manifests = _load_or_error(load_manifests, path)
        groups = _load_or_error(load_sample_groups, path)
        audited = _load_or_error(load_sample_groups, path, mismatched)
        counts = _load_or_error(dedup_file, path, out)
        kept_lines = out.read_text().splitlines() if out.exists() else None
    if isinstance(manifests, str):
        assert groups == audited == counts == manifests
        assert kept_lines is None
    else:
        assert groups == audited == [
            SampleGroup(m.sample_id, m.framework, m.task_category, m.operator_count)
            for m in manifests
        ]
        assert mismatched == audit_hashes(manifests)
        kept, dropped = dedup(manifests)
        assert counts == (len(kept), len(dropped))
        line_of = {json.loads(line)["sample_id"]: line.strip() for line in lines}
        assert kept_lines == [line_of[m.sample_id] for m in kept]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_ids_load_what_records_load(dataset, data):
    lines = data.draw(corrupted({"r.jsonl": dataset["r.jsonl"]}))["r.jsonl"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.jsonl"
        path.write_text("\n".join(lines) + "\n")
        loaded = _load_or_error(load_records, path)
        ids = _load_or_error(load_record_ids, path)
    if isinstance(loaded, str):
        assert ids == loaded
    else:
        assert ids[0] == loaded[0]
        assert [r.sample_id for r in ids[1]] == [r.sample_id for r in loaded[1]]
