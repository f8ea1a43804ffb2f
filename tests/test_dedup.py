"""`tcscore dedup`: kept lines are written as they were read, in one checked pass."""

from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import tcscore
from tcscore.cli import main
from tcscore.dataset import audit_hashes, dedup
from tcscore.graphhash import HashInput, graph_hash
from tcscore.records import load_manifests

INPUTS = HashInput.from_source("x = a + b", [("add", (0, 1))])
DIGEST = graph_hash(INPUTS)

# Lines `validate` accepts but canonical JSON would rewrite: a dtype name
# tcscore does not know, unsorted keys, odd spacing and a CRLF ending.
FAITHFUL = [
    b'{"sample_id":"a","framework":"torch","task_category":"CV","operator_count":3,'
    b'"graph_hash":"0a","dtypes":["float8_e4m3","float32"]}',
    b'{ "task_category" : "NLP",  "sample_id":"b", "operator_count": 7,'
    b' "framework":"paddle", "graph_hash":"0b" }',
    b'{"sample_id":"c","framework":"torch","task_category":"Audio","operator_count":2,'
    b'"graph_hash":"0c","dtypes":["bfloat16"],"parameter_count":10}',
]
# Same graph as line 1, so dedup drops it.
DUPLICATE = (
    b'{"sample_id":"d","framework":"torch","task_category":"CV","operator_count":3,'
    b'"graph_hash":"0a"}'
)


def _manifests_file(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_bytes(
        FAITHFUL[0] + b"\n" + FAITHFUL[1] + b"\r\n" + DUPLICATE + b"\n  " + FAITHFUL[2] + b"\t\n"
    )
    return path


def _kept_bytes() -> bytes:
    return b"".join(line + b"\n" for line in FAITHFUL)


def test_dedup_writes_kept_lines_as_read(tmp_path, capsys):
    m_path, out = _manifests_file(tmp_path), tmp_path / "kept.jsonl"
    assert main(["validate", "--manifests", str(m_path)]) == 0
    capsys.readouterr()
    assert main(["dedup", "--manifests", str(m_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "kept 3 dropped 1\n"
    assert out.read_bytes() == _kept_bytes()


@pytest.mark.parametrize("via_symlink", [False, True])
def test_dedup_in_place(tmp_path, capsys, via_symlink):
    m_path = _manifests_file(tmp_path)
    target = m_path
    if via_symlink:
        target = tmp_path / "link.jsonl"
        os.symlink(m_path, target)
    assert main(["dedup", "--manifests", str(m_path), "--out", str(target)]) == 0
    assert capsys.readouterr().out == "kept 3 dropped 1\n"
    assert m_path.read_bytes() == _kept_bytes()
    assert target.is_symlink() == via_symlink
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "m.jsonl"][1 - via_symlink :]


@pytest.mark.parametrize("in_place", [False, True])
def test_dedup_bad_last_line_leaves_out_untouched(tmp_path, capsys, in_place):
    m_path = _manifests_file(tmp_path)
    with m_path.open("ab") as fh:
        fh.write(b'{"sample_id": "e"}\n')
    before = m_path.read_bytes()
    out = m_path if in_place else tmp_path / "kept.jsonl"
    if not in_place:
        out.write_bytes(b"keep me\n")
    assert main(["dedup", "--manifests", str(m_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {m_path}:5: framework must be a string\n"
    assert m_path.read_bytes() == before
    assert out.read_bytes() == (before if in_place else b"keep me\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"m.jsonl", out.name})


@pytest.mark.parametrize("kind", ["fifo", "directory"])
@pytest.mark.parametrize("command", ["dedup", "report", "curve", "violin", "stats"])
def test_out_refuses_a_target_that_is_not_a_regular_file(tmp_path, capsys, command, kind):
    # Every `--out` goes through the one writer. The child has a timeout:
    # opening a pipe for writing would wait for a reader.
    m_path, r_path = tmp_path / "m.jsonl", tmp_path / "r.jsonl"
    assert main(["simulate", "--n", "3", "--manifests", str(m_path), "--records", str(r_path)]) == 0
    capsys.readouterr()
    target = tmp_path / kind
    if kind == "fifo":
        os.mkfifo(target)
    else:
        target.mkdir()
    argv = [command, "--manifests", str(m_path), "--out", str(target)]
    if command in ("report", "curve", "violin"):
        argv += ["--records", str(r_path)]
    paths = [str(Path(tcscore.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, "-m", "tcscore", *argv], capture_output=True, text=True, env=env, timeout=30
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"error: [Errno 22] not a regular file: {str(target)!r}\n"
    if kind == "fifo":
        assert stat.S_ISFIFO(target.stat().st_mode)
    else:
        assert os.listdir(target) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["m.jsonl", "r.jsonl", kind])


def test_graph_hash_case_is_ignored(tmp_path, capsys):
    # Hex digests may be spelled in either case; `graph_hash` emits lowercase.
    def line(sample_id, digest):
        return json.dumps({
            "sample_id": sample_id, "framework": "torch", "task_category": "CV",
            "operator_count": 2, "graph_hash": digest,
            "source_digest_inputs": {"normalized_source": INPUTS.normalized_source,
                                     "topology": [["add", [0, 1]]]},
        })

    m_path, out = tmp_path / "m.jsonl", tmp_path / "kept.jsonl"
    m_path.write_text(line("lower", DIGEST) + "\n" + line("upper", DIGEST.upper()) + "\n")
    assert main(["validate", "--manifests", str(m_path)]) == 0
    assert capsys.readouterr().out == "ok: 2 manifests\n"
    assert main(["dedup", "--manifests", str(m_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "kept 1 dropped 1\n"
    assert out.read_text() == line("lower", DIGEST) + "\n"
    lower, upper = load_manifests(m_path)
    assert dedup([upper, lower]) == ([upper], [lower])
    assert audit_hashes([lower, upper]) == []
