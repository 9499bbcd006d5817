"""The README's ``python`` examples run as written, so they cannot drift from the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL))
    assert blocks
    for block in blocks:
        # padded to its place in the file, so a traceback names the README's own line
        source = "\n" * text.count("\n", 0, block.start(1)) + block[1]
        exec(compile(source, str(README), "exec"), {})
