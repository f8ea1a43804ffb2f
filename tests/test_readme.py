"""The README's code runs as written."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    snippet = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(snippet, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # One line per level of the default grid, then gamma at t = 3.
    assert len(lines) == 16
    assert lines[-1] == "1.0"
