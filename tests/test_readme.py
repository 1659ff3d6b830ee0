"""The README's Python examples: the Quick tour runs as printed, and
every name a Python block imports from ``slicegb`` is exported."""

import re
from pathlib import Path

import slicegb

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", README, re.DOTALL)


def test_quick_tour_runs():
    tour = README.split("## Quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    exec(compile(block, "README.md (Quick tour)", "exec"), {})


def test_readme_imports_are_exported():
    names = set()
    for block in BLOCKS:
        for group in re.findall(r"from slicegb import \(([^)]*)\)|from slicegb import ([^\n]*)", block):
            names.update(n.strip() for n in "".join(group).split(",") if n.strip())
    assert names
    assert sorted(names - set(slicegb.__all__)) == []
