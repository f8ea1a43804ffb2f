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

OVERRIDES = ["--p", "0.2", "--grid=-10,-5,0,3"]
# output name -> CLI arguments after the dataset flags; "{out}" is the output file
FILE_OUTPUTS = {
    "report.csv": ["report", "--format", "csv"],
    "report.json": ["report", "--format", "json"],
    "report.md": ["report", "--format", "md"],
    "curve.csv": ["curve", "--format", "csv"],
    "curve.json": ["curve", "--format", "json"],
    "violin.json": ["violin"],
    "report_grid.csv": ["report", "--grid=-10,-5,0,3"],
    "curve.md": ["curve", "--format", "md"],
    "violin.csv": ["violin", "--format", "csv"],
    "violin.md": ["violin", "--format", "md"],
    "report_p_grid.csv": ["report", *OVERRIDES],
    "curve_p_grid.csv": ["curve", *OVERRIDES],
    "violin_p_grid.json": ["violin", *OVERRIDES],
}
SCORE_LEVELS = ("-10", "0", "3", "1", "2", "4")
STATS_FORMATS = ("json", "csv", "md")
# Copies of the first manifests under new ids, so dedup has graphs to drop.
DEDUP_COPIES = 20


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
    outputs["score_records_b0.3.json"] = _run(
        ["score", "--records", str(r_path), "--b", "0.3"]
    ).encode()
    for fmt in STATS_FORMATS:
        out = work / f"stats.{fmt}"
        _run(["stats", "--manifests", str(m_path), "--format", fmt, "--out", str(out)])
        outputs[out.name] = out.read_bytes()
    lines = m_path.read_text().splitlines()
    copies = []
    for line in lines[:DEDUP_COPIES]:
        obj = json.loads(line)
        obj["sample_id"] += "-copy"
        copies.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    dup_path, dedup_path = work / "dup.jsonl", work / "dedup.jsonl"
    dup_path.write_text("\n".join(lines + copies) + "\n")
    outputs["dedup.stdout"] = _run(
        ["dedup", "--manifests", str(dup_path), "--out", str(dedup_path)]
    ).encode()
    outputs["dedup.jsonl"] = dedup_path.read_bytes()
    outputs["validate.stdout"] = _run(["validate", *dataset]).encode()
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def test_cli_outputs_match_pinned_digests(tmp_path):
    assert cli_digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(cli_digests(Path(tmp)), indent=2, sort_keys=True))
