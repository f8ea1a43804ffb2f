"""Byte stability of CLI outputs across commits.

``tests/data/cli_golden.json`` pins the sha256 of every output below. A
refactor that claims unchanged output must leave these digests as they
are; a deliberate output change re-pins them with
``python tests/test_cli_golden.py > tests/data/cli_golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from tcscore.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# output name -> CLI arguments after the dataset flags; "{out}" is the output file
FILE_OUTPUTS = {
    "report.csv": ["report", "--format", "csv"],
    "report.json": ["report", "--format", "json"],
    "report.md": ["report", "--format", "md"],
    "curve.csv": ["curve", "--format", "csv"],
    "curve.json": ["curve", "--format", "json"],
    "violin.json": ["violin"],
    "report_grid.csv": ["report", "--grid=-10,-5,0,3"],
}
SCORE_LEVELS = ("-10", "0", "3")


def _run(argv: list[str]) -> str:
    buffer = StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, argv
    return buffer.getvalue()


def cli_digests(work: Path) -> dict[str, str]:
    """Run every pinned CLI call in ``work`` and return name -> sha256."""
    m_path, r_path = work / "manifests.jsonl", work / "records.jsonl"
    _run(["simulate", "--seed", "42", "--n", "500",
          "--manifests", str(m_path), "--records", str(r_path)])
    outputs = {"manifests.jsonl": m_path.read_bytes(), "records.jsonl": r_path.read_bytes()}
    dataset = ["--records", str(r_path), "--manifests", str(m_path)]
    for name, args in FILE_OUTPUTS.items():
        out = work / name
        _run([*args, *dataset, "--out", str(out)])
        outputs[name] = out.read_bytes()
    for t in SCORE_LEVELS:
        outputs[f"score_t{t}.json"] = _run(["score", *dataset, f"--t={t}"]).encode()
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def test_cli_outputs_match_pinned_digests(tmp_path):
    assert cli_digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(cli_digests(Path(tmp)), indent=2, sort_keys=True))
