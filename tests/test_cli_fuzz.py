"""Corrupting one line of a dataset never crashes the CLI.

Each example takes a small simulated dataset, damages one line (a key
dropped, a value swapped for an odd one, or the line replaced by non-JSON
text) and runs the file-reading subcommands through ``main``. Every run
must exit 0 or 1, failures must print an ``error:`` line, and
``validate`` must reject whatever ``report`` rejects.
"""

from __future__ import annotations

import json
import math
import tempfile
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
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = main(argv)
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
