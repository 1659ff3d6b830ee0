"""Golden command-line output: the stdout and exit code of a fixed call
set over the files in ``tests/data``, compared byte for byte.

The call set runs every ideal file under ``gb``, ``gb --json``, ``dim``,
``nf``, ``section`` and ``lift`` at three orderings, the slice pipelines on both
slice files, and ``implicitize`` on ``cubic_map.json`` in both modes.
Slice mode also runs on ``cubic_map.json`` at each pivot and at two
jobs, and on ``pinch_map.json``, where the first interpolant the stop
rule accepts fails the certificate and the scan reads on.
The JSON spellings of an ideal and of a family run ``gb``/``dim`` and
the family commands, and ``cubic_detection.json`` runs
``reconstruct-surface`` from points and curves.
``line_family.txt`` also runs ``sigma-scheme`` and a ``family-section``
whose cut avoids every leading term.  ``conic_family.txt``, whose basis
carries the denominator ``a2^2 +a1``, runs ``family-gb`` at three
orderings, ``ncc``, ``sigma-scheme`` (with its tag variable) and a
``family-section`` that the leading terms block (exit 2).
After a change that is meant to alter the output, rewrite the expected
output with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from slicegb.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden" / "cli.json"

# each ideal file with a polynomial for ``nf``, whose denominators the
# division must carry, and a cut whose tail sits below its pivot in
# every ordering; only the last cut avoids every leading term
IDEAL_FILES = (
    ("cone_sections.txt", "1/3*x2^4*x1 -2/5*x3^5 +x0^2*x1^2*x2 -7", "x0 -1/2*x3 -2"),
    ("monomial_knot.txt", "3/4*x1*x3^3 -x2^2*x4 +1/6*x1^3 +x3", "x1 -3"),
    ("twisted_surface.txt", "1/3*x^7 -5/2*x^3*y^2 +w^4", "w -3"),
)
ORDERS = ("lex", "deglex", "degrevlex")
SLICE_FILES = ("cubic_slices.json", "lemon_slices.json")
FAMILY_FILES = ("line_family.txt", "line_family.json")


def calls():
    out = []
    for name, polynomial, cut in IDEAL_FILES:
        for order in ORDERS:
            flag = ["--order", order]
            out += [
                ["gb", *flag, name],
                ["gb", "--json", *flag, name],
                ["dim", *flag, name],
                ["nf", *flag, name, polynomial],
                ["section", *flag, "--cut", cut, name],
                ["lift", *flag, "--cut", cut, name, name],
            ]
    for name in SLICE_FILES:
        for command in ("reconstruct", "common-lift", "reconstruct-surface"):
            out.append([command, name])
    for mode in ("eliminate", "slice"):
        out.append(["implicitize", "--mode", mode, "cubic_map.json"])
    slice_mode = ["implicitize", "--mode", "slice"]
    for flag in (["--pivot", "y"], ["--pivot", "z"], ["--jobs", "2"]):
        out.append([*slice_mode, *flag, "cubic_map.json"])
    out.append([*slice_mode, "pinch_map.json"])
    out += [["gb", "twisted_surface.json"], ["dim", "twisted_surface.json"]]
    for name in FAMILY_FILES:
        for command in (["family-gb"], ["ncc"], ["independent"], ["hough"], ["hough", "--point", "1,2"]):
            out.append([*command, name])
    out.append(["reconstruct-surface", "cubic_detection.json"])
    out += [
        ["sigma-scheme", "line_family.txt"],
        ["family-section", "--cut", "x2 -3", "line_family.txt"],
    ]
    for order in ORDERS:
        out.append(["family-gb", "--order", order, "conic_family.txt"])
    out += [
        ["ncc", "conic_family.txt"],
        ["sigma-scheme", "conic_family.txt"],
        ["family-section", "--cut", "x -3", "conic_family.txt"],
    ]
    return out


def run(argv):
    """Exit code and stdout of one in-process call; file names are read
    from ``tests/data``."""
    argv = [str(DATA / a) if a.endswith((".txt", ".json")) else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _expected():
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_file_covers_the_call_set():
    assert [entry["argv"] for entry in _expected()] == calls()


@pytest.mark.parametrize("entry", _expected(), ids=lambda e: " ".join(e["argv"]))
def test_cli_output_matches_golden(entry):
    assert run(entry["argv"]) == (entry["exit"], entry["stdout"])


if __name__ == "__main__":
    entries = []
    for argv in calls():
        code, stdout = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": stdout})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"{len(entries)} calls written to {GOLDEN}")
