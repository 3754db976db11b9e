"""The README's Python quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_quick_start_prints_its_commented_lines():
    text = README.read_text(encoding="utf-8")
    start = text.index("## Quick start")
    code = re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)
    # each print is followed by a comment line holding what it prints
    lines = code.splitlines()
    expected = [after[2:] for line, after in zip(lines, lines[1:]) if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert expected == [
        "converged 9 (5.6497015804567425, 3.177746808587273)",
        "converged [(1, 2, 0, 3), (1, 2, 0, 3), (1, 2, 0, 3)]",
    ]
