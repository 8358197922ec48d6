"""README's library example runs against the package as it is, and prints
what its comments show."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_the_library_example_runs_as_shown():
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 1
    source = blocks[0]
    shown = re.findall(r"^print\(.*\)\s+# (.*)$", source, re.M)
    assert shown
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    assert out.getvalue().splitlines() == shown
