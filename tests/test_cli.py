"""End-to-end runs of the command line front end against small fixture
files, including the exit-code taxonomy and byte-stable reruns."""

import gc
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import slicegb
from slicegb.cli import main

DATA = Path(__file__).parent / "data"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def path(name):
    return str(DATA / name)


# -- plain ideal commands --------------------------------------------


def test_gb_uses_order_header():
    code, out, err = run("gb", path("cone_sections.txt"))
    assert code == 0 and err == ""
    assert out == (
        "x3^3 -x0*x1*x2\n"
        "x2^3 -x0*x1*x3 -x0^2*x2\n"
        "x1^2*x2 -x0^2*x3\n"
        "x0*x1^3*x3 -x0^2*x2^2*x3 +x0^4*x3\n"
    )


def test_gb_flag_overrides_order_header():
    code, out, _ = run("gb", "--order", "degrevlex", path("twisted_surface.txt"))
    assert code == 0
    assert out == "y -w\nx^2 -w\n"


def test_gb_json_payload():
    code, out, _ = run("gb", "--json", path("twisted_surface.txt"))
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "ring": ["x", "y", "w"],
        "order": "degrevlex",
        "generators": ["y -w", "x^2 -w"],
        "minimal": True,
        "reduced": True,
    }


def test_nf():
    code, out, _ = run("nf", path("twisted_surface.txt"), "x^2 +y^2")
    assert code == 0 and out == "w^2 +w\n"


def test_nf_of_member_is_zero():
    code, out, _ = run("nf", path("twisted_surface.txt"), "x^2 -w")
    assert code == 0 and out == "0\n"


def test_eliminate():
    code, out, _ = run("eliminate", "--drop", "w", path("twisted_surface.txt"))
    assert code == 0 and out == "x^2 -y\n"


def test_eliminate_unknown_variable():
    code, _, err = run("eliminate", "--drop", "q", path("twisted_surface.txt"))
    assert code == 1 and "q" in err


def test_dim():
    code, out, _ = run("dim", path("twisted_surface.txt"))
    assert code == 0 and out == "1\n"


def test_colon_by_generator_is_whole_ring():
    code, out, _ = run("colon", path("twisted_surface.txt"), "y -w")
    assert code == 0 and out == "1\n"


# -- slicing and lifting ---------------------------------------------


def test_section():
    code, out, _ = run("section", "--cut", "w -1", path("twisted_surface.txt"))
    assert code == 0 and out == "y -1\nx^2 -1\n"


def test_section_blocked_cut_exits_2():
    code, _, err = run("section", "--cut", "x -1", path("twisted_surface.txt"))
    assert code == 2
    assert err.startswith("error: HypothesisViolation")


def test_lift_certifies_round_trip():
    code, out, _ = run(
        "lift", "--cut", "w -1",
        path("twisted_surface.txt"), path("twisted_surface.txt"),
    )
    assert code == 0 and out == "y -w\nx^2 -w\n"


def test_lift_zero_divisor_exits_2():
    code, out, err = run(
        "lift", "--cut", "x2 -x4",
        path("monomial_knot.txt"), path("monomial_knot.txt"),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ZeroDivisor")
    assert "witness: x4" in err


def test_common_lift():
    code, out, _ = run("common-lift", path("lemon_slices.json"))
    assert code == 0
    assert out == "x^2 +y^6 -3*y^5 +3*y^4 -y^3 +z^2\n"


def test_reconstruct_lemon():
    code, out, err = run("reconstruct", path("lemon_slices.json"))
    assert code == 0
    assert out == "x^2 +y^6 -3*y^5 +3*y^4 -y^3 +z^2\n"
    assert "not membership-checked" in err


def test_reconstruct_wrong_order_exits_2():
    code, _, err = run("reconstruct", "--order", "degrevlex", path("lemon_slices.json"))
    assert code == 2 and "LTDrift" in err


def test_implicitize_both_modes_agree():
    code, out, _ = run("implicitize", path("cubic_map.json"))
    assert code == 0 and out == "y^3 +x^2 -z\n"
    code, sliced, _ = run("implicitize", "--mode", "slice", path("cubic_map.json"))
    assert code == 0 and sliced == out


def test_implicitize_parallel_matches_sequential():
    code, out, _ = run("implicitize", "--mode", "slice", "--jobs", "2",
                       path("cubic_map.json"))
    assert code == 0 and out == "y^3 +x^2 -z\n"


# -- families and detection ------------------------------------------


def test_family_gb():
    code, out, _ = run("family-gb", path("line_family.txt"))
    assert code == 0 and out == "x1 +1/(a1)*x2 +a2/(a1)\n"


def test_ncc():
    code, out, _ = run("ncc", path("line_family.txt"))
    assert code == 0 and out == "1/(a1)\na2/(a1)\n"


def test_sigma_scheme_dense_image():
    code, out, _ = run("sigma-scheme", path("line_family.txt"))
    assert code == 0
    assert out == "QQ[y1,y2]\n0\ndimension: 2\n"


def test_sigma_scheme_with_a_parameter_named_u(tmp_path):
    def scheme(a, b):
        target = tmp_path / f"{a}{b}.txt"
        target.write_text(f"QQ[{a},{b}]\nQQ[x,y]\n{a}*x^2 +{b}*y -1\nx*y -{a}\n")
        return run("sigma-scheme", str(target))

    code, out, err = scheme("u", "v")
    assert (code, err) == (0, "")
    assert (code, out, err) == scheme("a1", "a2")
    assert out.startswith("QQ[y1,y2,y3,y4,y5]\n")


def test_independent():
    code, out, _ = run("independent", path("line_family.txt"))
    assert code == 0 and out == "independent\n"


def test_family_section():
    code, out, _ = run("family-section", "--cut", "x2 -1", path("line_family.txt"))
    assert code == 0
    assert out == "x1 +(a2 +1)/(a1)\nparameters: independent\n"


def test_family_section_blocked_exits_2():
    code, _, err = run("family-section", "--cut", "x1 -1", path("line_family.txt"))
    assert code == 2
    assert err.startswith("error: HypothesisViolation")
    assert "blocking" in err


def test_hough_generic_dimension():
    code, out, _ = run("hough", path("line_family.txt"))
    assert code == 0 and out == "1\n"


def test_hough_point_locus():
    code, out, _ = run("hough", "--point", "1,2", path("line_family.txt"))
    assert code == 0
    assert out == "a1 +a2 +2\ndimension: 1\n"


def test_detect_two_points():
    code, out, _ = run("detect", "--points", "0,1;1,0", path("line_family.txt"))
    assert code == 0
    assert out == "a2 +1\na1 -1\ndimension: 0\nsolution: 1, -1\n"


def test_detect_json_payload():
    code, out, _ = run("detect", "--json", "--points", "0,1;1,0",
                       path("line_family.txt"))
    assert code == 0
    payload = json.loads(out)
    assert payload["solution"] == ["1", "-1"]
    assert payload["dimension"] == 0
    assert not payload["inconsistent"]


def test_detect_non_collinear_is_still_exit_0():
    code, out, _ = run("detect", "--points", "0,0;1,1;1,-1",
                       path("line_family.txt"))
    assert code == 0
    assert out == "1\ndimension: -1\ninconsistent\n"


@pytest.mark.parametrize("argv", [
    ("hough", "--point=10,1"),
    ("hough", "--json", "--point=10,1"),
    ("detect", "--points=10,1"),
], ids=" ".join)
def test_hough_solution_past_the_int_text_limit(tmp_path, argv):
    # the point (10, 1) puts a1 at 1/10^5000, past Python's 4,300-digit
    # limit on converting an int to text
    family = tmp_path / "long_family.txt"
    family.write_text("QQ[a1]\nQQ[x,y]\ny -a1*x^5000\n")
    code, out, err = run(*argv, str(family))
    assert code == 0 and err == ""
    denominator = "1" + "0" * 5000
    if "--json" in argv:
        assert json.loads(out)["solution"] == [f"1/{denominator}"]
    else:
        assert out.endswith(f"solution: 1/{denominator}\n")


def test_hough_point_past_the_int_text_limit(tmp_path):
    # a coordinate of 5,000 digits reads exactly and puts a1 at it
    family = tmp_path / "line_family.txt"
    family.write_text("QQ[a1]\nQQ[x,y]\ny -a1*x\n")
    nines = "9" * 5000
    code, out, err = run("hough", f"--point=1,{nines}", str(family))
    assert code == 0 and err == ""
    assert out.endswith(f"solution: {nines}\n")


def test_json_integers_past_the_int_text_limit(tmp_path):
    # JSON integers of 5,000 digits: an ideal generator and a slice constant
    nines = "9" * 5000
    ideal = tmp_path / "constant.json"
    ideal.write_text(f'{{"ring": "QQ[x]", "generators": [{nines}]}}')
    assert run("gb", str(ideal)) == (0, "1\n", "")
    slices = tmp_path / "slices.json"
    slices.write_text(
        '{"ring": "QQ[x,y]", "pivot": "x", "slices": [{"gamma": 0, "generators": ["y"]}, '
        f'{{"gamma": {nines}, "generators": ["y -1"]}}]}}'
    )
    # the lift y - x/n takes y at x = 0 and y - 1 at x = n
    assert run("common-lift", str(slices)) == (0, f"-1/{nines}*x +y\n", "")


def test_reconstruct_surface():
    code, out, _ = run("reconstruct-surface", path("cubic_slices.json"))
    assert code == 0
    assert out == "x^3 -y^2 -x*z -y*z -z\n"


def test_reconstruct_surface_parallel():
    code, out, _ = run("reconstruct-surface", "--jobs", "2", path("cubic_slices.json"))
    assert code == 0
    assert out == "x^3 -y^2 -x*z -y*z -z\n"


# -- determinism and the exit-code taxonomy --------------------------

GOLDEN = [
    ("gb", path("cone_sections.txt")),
    ("reconstruct", path("lemon_slices.json")),
    ("family-gb", path("line_family.txt")),
    ("implicitize", path("cubic_map.json")),
    ("reconstruct-surface", path("cubic_slices.json")),
    ("detect", "--points", "0,1;1,0", path("line_family.txt")),
]


@pytest.mark.parametrize("argv", GOLDEN, ids=lambda a: a[0])
def test_rerun_is_byte_identical(argv):
    first = run(*argv)
    second = run(*argv)
    assert first == second
    assert first[0] == 0


@pytest.mark.parametrize("argv", GOLDEN, ids=lambda a: a[0])
def test_json_rerun_is_byte_identical(argv):
    first = run(argv[0], "--json", *argv[1:])
    second = run(argv[0], "--json", *argv[1:])
    assert first == second
    json.loads(first[1])


def test_missing_file_exits_1():
    code, _, err = run("gb", path("no_such_file.txt"))
    assert code == 1 and err.startswith("error:")


def test_bad_polynomial_exits_1():
    code, _, err = run("nf", path("twisted_surface.txt"), "x^2 +")
    assert code == 1 and "error:" in err


def test_deeply_nested_polynomial_exits_1(tmp_path):
    # a fresh interpreter, so that an uncaught error would print its traceback
    deep = tmp_path / "deep.txt"
    deep.write_text("QQ[x,y]\n" + "(" * 3000 + "x" + ")" * 3000 + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(slicegb.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "slicegb", "gb", str(deep)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, doc", [
    ("gb", {"ring": ["x", "y"], "order": 5, "generators": ["x"]}),
    ("family-gb", {"params": ["a"], "vars": ["x"], "generators": ["x -a"], "order": 5}),
    ("common-lift", {"ring": "QQ[x,y,z]", "pivot": "x", "tail": [1],
                     "slices": [{"gamma": "1", "generators": ["y"]}]}),
    ("gb", "[" * 100000),
], ids=["ideal-order", "family-order", "slice-tail", "deep-json"])
def test_malformed_json_field_exits_1(tmp_path, command, doc):
    # a fresh interpreter, so that an uncaught error would print its traceback
    bad = tmp_path / "bad.json"
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(slicegb.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "slicegb", command, str(bad)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_slice_file_tail_before_the_pivot_exits_1(tmp_path):
    # the API lifts along any tail; slice files keep theirs after the pivot
    bad = tmp_path / "tail.json"
    bad.write_text(json.dumps({"ring": "QQ[x,y,z]", "pivot": "y", "tail": {"x": 1},
                               "slices": [{"gamma": g, "generators": ["x +z"]} for g in (1, 2)]}))
    for command in ("common-lift", "reconstruct"):
        assert run(command, str(bad)) == (1, "", "error: tail variables must come after the pivot\n")


def test_broken_json_exits_1(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"ring": [')
    code, _, err = run("gb", str(bad))
    assert code == 1 and err.startswith("error:")


def test_wrong_json_shape_exits_1(tmp_path):
    bad = tmp_path / "shape.json"
    bad.write_text('{"ring": "QQ[x]", "slices": 7}')
    code, _, err = run("reconstruct", str(bad))
    assert code == 1 and err.startswith("error:")


def test_unknown_order_exits_1():
    code, _, err = run("gb", "--order", "mystery", path("twisted_surface.txt"))
    assert code == 1 and "mystery" in err


def test_unknown_subcommand_exits_1():
    code, _, _ = run("frobnicate", path("twisted_surface.txt"))
    assert code == 1


def test_timeout_exits_3():
    # elimination of the quintic map takes minutes; 50ms always trips
    code, _, err = run("implicitize", "--timeout", "0.05", path("surface_map.json"))
    assert code == 3
    assert "ResourceLimit" in err and "timed out" in err


def test_timeout_fires_again_after_an_alarm_python_only_reports(monkeypatch):
    # Python reports an error raised in a gc callback through
    # sys.unraisablehook and goes on; an alarm that lands there must
    # still end the call, with no report of its own, and the hook is put
    # back afterwards
    reported = []
    record = lambda unraisable: reported.append(unraisable.exc_value)
    monkeypatch.setattr(sys, "unraisablehook", record)
    interrupted = []

    def busy(phase, info):
        # wait inside the first collection after the alarm is armed
        if not interrupted and signal.getitimer(signal.ITIMER_REAL)[0]:
            end = time.monotonic() + 0.6
            try:
                while time.monotonic() < end:
                    pass
            except BaseException as err:
                interrupted.append(err)
                raise
            interrupted.append(None)

    gc.callbacks.append(busy)
    start = time.monotonic()
    try:
        code, out, err = run("implicitize", "--mode", "slice", "--timeout", "0.3",
                             path("surface_map.json"))
    finally:
        gc.callbacks.remove(busy)
    elapsed = time.monotonic() - start
    assert [type(e).__name__ for e in interrupted] == ["ResourceLimit"]
    assert code == 3 and out == "" and err == "error: ResourceLimit: timed out after 0.3s\n"
    assert elapsed < 0.3 + 1.5
    assert reported == [] and sys.unraisablehook is record


def test_timeout_ends_slice_workers():
    # a fresh interpreter, so that an uncaught error would print its traceback
    env = dict(os.environ, PYTHONPATH=str(Path(slicegb.__file__).parent.parent))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "slicegb", "implicitize", "--mode", "slice",
                           "--jobs", "2", "--timeout", "2", path("surface_map.json")],
                          capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3 and proc.stdout == ""
    assert "ResourceLimit" in proc.stderr and "Traceback" not in proc.stderr
    assert elapsed < 2 + 1.5


@pytest.mark.parametrize("seconds", ["inf", "1e300", "-1", "nan"])
def test_bad_timeout_is_a_usage_error(seconds):
    # a fresh interpreter, so that an uncaught error would print its traceback
    env = dict(os.environ, PYTHONPATH=str(Path(slicegb.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "slicegb", "gb", "--timeout", seconds,
                           path("cone_sections.txt")], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "usage:" in proc.stderr and "--timeout" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_timeout_of_zero_means_no_limit():
    assert run("gb", "--timeout", "0", path("cone_sections.txt")) == run("gb", path("cone_sections.txt"))


def test_slice_count_cap_exits_3(tmp_path):
    # x*z - y has no slice curve polynomial in the pivot once made monic,
    # so no slice count verifies; a fresh interpreter, so that an uncaught
    # error would print its traceback
    surface = tmp_path / "plane_pencil.json"
    surface.write_text(json.dumps({"params": "QQ[s,t]", "coords": "QQ[x,y,z]",
                                   "images": ["s", "s*t", "t"], "pivot": "z"}))
    env = dict(os.environ, PYTHONPATH=str(Path(slicegb.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "slicegb", "implicitize", "--mode", "slice",
                           str(surface)], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "RetryLimitExceeded" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("implicitize", "--mode", "slice", "--jobs", "2", "--timeout", "0.5", path("surface_map.json")),
    ("implicitize", "--mode", "slice", "--jobs", "2", path("cubic_map.json")),
    ("reconstruct-surface", "--jobs", "2", path("cubic_slices.json")),
], ids=["timeout", "implicitize", "reconstruct-surface"])
def test_no_worker_outlives_the_call(argv):
    code, _, _ = run(*argv)
    assert code == (3 if "--timeout" in argv else 0)
    assert multiprocessing.active_children() == []


def test_one_parser_serves_every_call():
    # the parser is built once per process; a usage error or an earlier
    # call leaves nothing behind for the next one
    assert slicegb.cli._build() is slicegb.cli._build()
    assert run("gb", "--bogus", path("cone_sections.txt"))[0] == 1
    assert run("gb", "--order", "lex", path("cone_sections.txt"))[0] == 0
    code, out, _ = run("gb", path("cone_sections.txt"))
    assert code == 0 and out == run("gb", "--order", "degrev:x0", path("cone_sections.txt"))[1]


def test_help_exits_0():
    code, out, _ = run("--help")
    assert code == 0
    assert "reconstruct-surface" in out
