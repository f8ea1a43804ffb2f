"""Neither a corrupted dataset line nor odd arguments crash the CLI.

The first test takes a small simulated dataset, damages one line (a key
dropped, a value swapped for an odd one, or the line replaced by non-JSON
text) and runs the file-reading subcommands through ``main``. Every run
must exit 0 or 1, failures must print an ``error:`` line, and
``validate`` must reject whatever ``report`` rejects.

The second draws ``simulate --spec`` laws from wide finite floats and
``--p``/``--b``/``--t``/``--grid`` values for ``score`` and ``report``.
Every run must exit 0, 1 or 2 with no traceback or warning, and every
exit 1 must print an ``error:`` line.
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


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one CLI call; any warning fails the test."""
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err), warnings.catch_warnings(
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
    files = data.draw(corrupted(dataset))
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
    for command, (code, err) in results.items():
        assert code in (0, 1), command
        if code == 1:
            assert err.startswith("error: "), (command, err)
    validate_code, validate_err = results["validate"]
    if results["report"][0] == 1:
        assert validate_code == 1
    elif validate_code == 1:
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
