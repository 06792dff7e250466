"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippet_runs(capsys):
    (snippet,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(snippet, str(README), "exec"), {"__name__": "readme"})  # no __main__ guard needed
    printed = capsys.readouterr().out.split()
    assert len(printed) == 6
