"""The README's code runs as written."""

from __future__ import annotations

import shlex
from pathlib import Path

from tcscore.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    snippet = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(snippet, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # One line per level of the default grid, then gamma at t = 3.
    assert len(lines) == 16
    assert lines[-1] == "1.0"


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    block = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("tcscore ")]
    # The block shows every subcommand.
    assert {argv[1] for argv in commands} == {
        "simulate", "validate", "report", "curve", "score", "violin", "stats", "dedup",
    }
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
        named = [value for flag, value in zip(argv, argv[1:]) if flag in ("--out", "--manifests", "--records")]
        for path in named:
            assert (tmp_path / path).is_file(), f"{' '.join(argv)}: no {path}"
    assert capsys.readouterr().err == ""
