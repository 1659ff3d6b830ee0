"""Fuzz of the input boundary: every file in ``tests/data``, mutated in
the types and shapes of its fields, runs through the command line and
ends in an exit code of the contract (0, 1, 2 or 3), never in an
uncaught exception.

A JSON file gets one value at any depth replaced by another JSON value,
one key dropped, or an optional key added with a value of any type. A
text file gets a line dropped, duplicated, or swapped with another.
Numbers stay small: an absurd exponent still runs unbounded, so each
call carries ``--timeout 5``. ``surface_map.json`` gets fewer examples:
each of its mutants that still reads runs the quintic until that
timeout, and ``cubic_map.json`` and ``pinch_map.json`` spell the same
format.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegb.cli import main

DATA = Path(__file__).parent / "data"

# the subcommand that reads each file
COMMANDS = {
    "cone_sections.txt": ["gb"],
    "monomial_knot.txt": ["gb"],
    "twisted_surface.txt": ["gb"],
    "twisted_surface.json": ["gb"],
    "line_family.txt": ["family-gb"],
    "line_family.json": ["family-gb"],
    "conic_family.txt": ["family-gb"],
    "lemon_slices.json": ["reconstruct"],
    "cubic_slices.json": ["reconstruct-surface"],
    "cubic_detection.json": ["reconstruct-surface"],
    "cubic_map.json": ["implicitize", "--mode", "slice"],
    "pinch_map.json": ["implicitize", "--mode", "slice"],
    "surface_map.json": ["implicitize", "--mode", "slice"],
}
OPTIONAL_KEYS = ("order", "tail", "pivot", "curve", "points")

SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-4, 4)
    | st.sampled_from([float("nan"), float("inf")])
    | st.text(alphabet="xyzast12^*+-/ ", max_size=4)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(OPTIONAL_KEYS), inner, max_size=2),
    max_leaves=4,
)


def test_every_data_file_is_fuzzed():
    assert sorted(COMMANDS) == sorted(p.name for p in DATA.iterdir() if p.is_file())


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def json_mutants(draw, doc):
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    kind = draw(st.sampled_from(["replace", "drop", "add"]))
    if kind == "replace":
        path = draw(st.sampled_from(paths))
        if not path:
            return draw(VALUES)
        _at(doc, path[:-1])[path[-1]] = draw(VALUES)
    elif kind == "drop":
        path = draw(st.sampled_from([p for p in paths if p and isinstance(_at(doc, p[:-1]), dict)]))
        del _at(doc, path[:-1])[path[-1]]
    else:
        path = draw(st.sampled_from([p for p in paths if isinstance(_at(doc, p), dict)]))
        _at(doc, path)[draw(st.sampled_from(OPTIONAL_KEYS))] = draw(VALUES)
    return doc


@st.composite
def text_mutants(draw, text):
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["drop", "duplicate", "swap"]))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def _run(command, path):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main([*command, "--timeout", "5", str(path)])


@pytest.mark.parametrize("name", sorted(n for n in COMMANDS if n.endswith(".json")))
def test_mutated_json_keeps_the_exit_code_contract(name, tmp_path_factory):
    target = tmp_path_factory.mktemp("fuzz") / name
    original = json.loads((DATA / name).read_text())

    @settings(max_examples=10 if name == "surface_map.json" else 50, deadline=None)
    @given(json_mutants(original))
    def check(doc):
        target.write_text(json.dumps(doc))
        assert _run(COMMANDS[name], target) in (0, 1, 2, 3)

    check()


@pytest.mark.parametrize("name", sorted(n for n in COMMANDS if n.endswith(".txt")))
def test_mutated_text_keeps_the_exit_code_contract(name, tmp_path_factory):
    target = tmp_path_factory.mktemp("fuzz") / name

    @settings(max_examples=50, deadline=None)
    @given(text_mutants((DATA / name).read_text()))
    def check(text):
        target.write_text(text)
        assert _run(COMMANDS[name], target) in (0, 1, 2, 3)

    check()
