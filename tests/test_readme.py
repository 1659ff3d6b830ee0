"""The README's Python examples: every Python block runs as printed, and
every name a Python block imports from ``slicegb`` is exported."""

import re
from pathlib import Path

import pytest

import slicegb

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", README, re.DOTALL)


@pytest.mark.parametrize("number", range(1, len(BLOCKS) + 1))
def test_python_block_runs(number):
    # each block stands alone, in a namespace of its own
    exec(compile(BLOCKS[number - 1], f"README.md (Python block {number})", "exec"), {})


def test_readme_imports_are_exported():
    names = set()
    for block in BLOCKS:
        for group in re.findall(r"from slicegb import \(([^)]*)\)|from slicegb import ([^\n]*)", block):
            names.update(n.strip() for n in "".join(group).split(",") if n.strip())
    assert names
    assert sorted(names - set(slicegb.__all__)) == []
