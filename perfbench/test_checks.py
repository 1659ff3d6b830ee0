"""Each output check accepts a right answer and rejects planted wrong ones.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

PARAMS = ["a1", "a2", "a3"]
VARS = ["x", "y", "z", "w"]
GENERATORS = ["a1*x*y -a2*y^2 -w", "a2*x^2 +a3*y^2 +z^2"]
POINTS = [[3, -2, 5], [-7, 4, 1]]
BASIS = """\
x*y -a2/(a1)*y^2 -1/(a1)*w
x^2 +a3/(a2)*y^2 +1/(a2)*z^2
y^3 +a1^2/(a2^3 +a1^2*a3)*y*z^2 +a1*a2/(a2^3 +a1^2*a3)*x*w +a2^2/(a2^3 +a1^2*a3)*y*w
"""
COEFFICIENTS = """\
-a2/(a1)
-1/(a1)
a3/(a2)
1/(a2)
a1^2/(a2^3 +a1^2*a3)
a1*a2/(a2^3 +a1^2*a3)
a2^2/(a2^3 +a1^2*a3)
"""
SCHEME = """\
QQ[y1,y2,y3,y4,y5,y6,y7]
y6^2 -y5*y7
y3*y6 -y1*y7 +y2
y2*y6 +y4*y7
y1*y6 +y7
y3*y5 -y4 +y7
y2*y5 +y4*y6
y1*y5 +y6
y1*y4 -y2
y1*y2*y7 +y3*y4*y7 -y2^2
y1^2*y7 -y1*y2 +y3*y7
y3*y4^2*y7 -y2^2*y4 +y2^2*y7
dimension: 3
"""
SECTION = """\
x*y -a2/(a1)*y^2 -2/(a1)
x^2 +a3/(a2)*y^2 +1/(a2)*z^2
y^3 +a1^2/(a2^3 +a1^2*a3)*y*z^2 +2*a1*a2/(a2^3 +a1^2*a3)*x +2*a2^2/(a2^3 +a1^2*a3)*y
parameters: independent
"""


def implicit(out):
    check = checks.implicit_equation(["s", "t", "s^2 +t^3"], ["s", "t"], ["x", "y", "z"], "z")
    return check(out, {})


def test_implicit_accepts_the_equation():
    assert implicit("y^3 +x^2 -z\n") == []


def test_implicit_rejects_a_linear_factor():
    assert implicit("x*y^3 +x^3 -x*z +y^3 +x^2 -z\n")


def test_implicit_rejects_a_changed_coefficient():
    assert implicit("y^3 +2*x^2 -z\n")


def test_implicit_rejects_content_and_sign():
    assert implicit("2*y^3 +2*x^2 -2*z\n")
    assert implicit("-y^3 -x^2 +z\n")


def test_equals_rejects_a_changed_coefficient():
    check = checks.equals("x^2 +1/2*y -z", ["x", "y", "z"])
    assert check("x^2 +1/2*y -z\n", {}) == []
    assert check("x^2 +1/3*y -z\n", {})


def test_family_basis_rejects_a_changed_coefficient():
    check = checks.family_basis(GENERATORS, PARAMS, VARS, POINTS)
    assert check(BASIS, {}) == []
    assert check(BASIS.replace("-1/(a1)*w", "-2/(a1)*w"), {})


def test_nonconstant_coefficients_reject_a_changed_or_missing_one():
    check = checks.nonconstant_coefficients(PARAMS, VARS, "gb")
    assert check(COEFFICIENTS, {"gb": BASIS}) == []
    assert check(COEFFICIENTS.replace("a3/(a2)", "a3/(a1)"), {"gb": BASIS})
    assert check(COEFFICIENTS.replace("1/(a2)\n", ""), {"gb": BASIS})


def test_coefficient_scheme_rejects_a_wrong_dimension_or_generator():
    check = checks.coefficient_scheme(PARAMS, VARS, "gb", POINTS[0])
    assert check(SCHEME, {"gb": BASIS}) == []
    assert check(SCHEME.replace("dimension: 3", "dimension: 2"), {"gb": BASIS})
    assert check(SCHEME.replace("y1*y4 -y2", "y1*y4 +y2"), {"gb": BASIS})


def test_family_section_rejects_a_changed_coefficient():
    check = checks.family_section(GENERATORS, PARAMS, VARS, ("w", 2), POINTS)
    assert check(SECTION, {}) == []
    assert check(SECTION.replace("-2/(a1)", "-1/(a1)"), {})
    assert check(SECTION.replace("parameters: independent\n", ""), {})


def test_detection_rejects_an_answer_off_by_one_half():
    check = checks.detection(["1/2", "2"])
    assert check("a2 -2\na1 -1/2\ndimension: 0\nsolution: 1/2, 2\n", {}) == []
    assert check("a2 -2\na1 -1\ndimension: 0\nsolution: 1, 2\n", {})


def test_point_locus_rejects_a_wrong_dimension_or_locus():
    check = checks.point_locus(["a1", "a2"], ["-1/2", "2"], 1)
    assert check("a1 +1/2*a2 -1/2\ndimension: 1\n", {}) == []
    assert check("a1 +1/2*a2 -1/2\ndimension: 0\n", {})
    assert check("a1 +1/2*a2 -1\ndimension: 1\n", {})


def test_text_rejects_another_dimension():
    assert checks.text("0")("0\n", {}) == []
    assert checks.text("0")("1\n", {})
