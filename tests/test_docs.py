"""The ```python blocks of README.md and PAPER.md run as written."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "PAPER.md")


def python_blocks(name):
    text = (ROOT / name).read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)


@pytest.mark.parametrize("name", DOCS)
def test_python_blocks_run(name):
    blocks = python_blocks(name)
    assert blocks
    for block in blocks:
        exec(compile(block, name, "exec"), {})
