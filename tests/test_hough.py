import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fractions, rank_exact, solve_exact
from slicegb.errors import (
    Inconsistent,
    NotLinearInParams,
    Underdetermined,
)
from slicegb.families import (
    Family,
    coefficient_scheme,
    family_basis,
    nonconstant_coefficients,
    specialize_family,
)
from slicegb.groebner import basis_dimension, dimension, eliminate, normal_form
from slicegb.hough import (
    detect,
    generic_hough_dimension,
    hough_ideal,
    parse_detection_json,
    reconstruct_surface,
    solve_linear_hough,
)
from slicegb.orders import DegRevLex
from slicegb.parsing import ParseError, parse_polynomial
from slicegb.poly import Polynomial
from slicegb.rings import Ring, ring

P2 = ring("a1", "a2")
P4 = ring("a1", "a2", "a3", "a4")
XY = ring("x", "y")
XYZ = ring("x", "y", "z")


def p(text, r):
    return parse_polynomial(r, text)


def line_family():
    return Family.parse(P2, ring("x1", "x2"), ["x2 +a1*x1 +a2"])


def rose_family(linear=False):
    """A sextic rose squared against a plane, listed with z first so the
    plane's leading term is z.  The linear variant moves the first
    parameter out of the square."""
    V = ring("z", "y", "x")
    combined = P2.concat(V)
    radius = p("x^2 +y^2", combined)
    bump = radius - p("x^3 -3*x*y^2", combined)
    if linear:
        sextic = radius ** 3 - p("a1", combined) * bump ** 2
        plane = p("z -a2*x", combined)
    else:
        sextic = radius ** 3 - (p("a1", combined) * radius
                                - p("a2", combined) * p("x^3 -3*x*y^2", combined)) ** 2
        plane = p("a1*z -a2*x", combined)
    return Family.of(P2, V, [sextic, plane])


def cubic_template():
    return Family.parse(P4, XY, ["x^3 -a1*y^2 +a2*x +a3*y +a4"])


CURVES = [
    (0, "x^3 -y^2"),
    (1, "x^3 -y^2 -x -y -1"),
    (-1, "x^3 -y^2 +x +y +1"),
    (2, "x^3 -y^2 -2*x -2*y -2"),
]

SURFACE = "x^3 -x*z -y^2 -y*z -z"


# -- the locus of one point ------------------------------------------


def test_point_locus_of_the_line_family():
    # substituting (1, 2) into x2 +a1*x1 +a2 leaves 2 +a1 +a2
    result = hough_ideal(line_family(), (1, 2))
    assert [repr(g) for g in result.ideal.generators] == ["a1 +a2 +2"]
    assert result.dimension == 1
    assert not result.empty
    assert result.solution is None


def test_point_locus_vanishes_on_substitution():
    # any parameter choice on the locus puts its fiber through the point
    fam = line_family()
    result = hough_ideal(fam, (1, 2))
    for t in (Fraction(0), Fraction(1), Fraction(-5, 3)):
        values = [t, -2 - t]
        assert all(g.evaluate(values) == 0 for g in result.ideal.generators)
        fiber = specialize_family(fam, values)
        assert all(g.evaluate([1, 2]) == 0 for g in fiber.generators)


def test_unit_generator_family_has_empty_locus():
    fam = Family.parse(P2, ring("x"), ["x -x +1"])
    result = hough_ideal(fam, (5,))
    assert result.empty
    assert result.dimension == -1
    assert result.solution is None


def test_single_variable_locus_is_the_point_itself():
    fam = Family.parse(ring("a1"), ring("x1"), ["x1 -a1"])
    assert generic_hough_dimension(fam) == 0
    assert hough_ideal(fam, (7,)).solution == (Fraction(7),)


def test_generic_locus_dimension_of_the_line_family():
    fam = line_family()
    combined = fam.combined_ideal()
    assert dimension(combined) == 3
    assert dimension(eliminate(combined, range(2))) == 2
    assert generic_hough_dimension(fam) == 1


def degenerate_family():
    """The swept set is two pieces: the origin, hit by every parameter
    choice, and the line x1 = 1, hit along a curve of choices."""
    return Family.parse(
        P2,
        ring("x1", "x2"),
        ["x1^2 -x1", "x1*x2 -x2", "x2^2 +a1*a2*x1 -(a1 +a2)*x2"],
    )


def test_degenerate_image_family():
    fam = degenerate_family()
    combined = fam.combined_ideal()
    assert dimension(combined) == 2
    image = eliminate(combined, range(2))
    assert [repr(g) for g in image.generators] == ["x1*x2 -x2", "x1^2 -x1"]
    at_origin = hough_ideal(fam, (0, 0))
    assert at_origin.ideal.is_zero
    assert at_origin.dimension == 2
    for c in (Fraction(3), Fraction(-2), Fraction(1, 2)):
        on_line = hough_ideal(fam, (1, c))
        expected = (p("a1", P2) - c) * (p("a2", P2) - c)
        assert list(on_line.ideal.generators) == [expected]
        assert on_line.dimension == 1


@pytest.mark.parametrize("family", [line_family, rose_family, cubic_template, degenerate_family],
                         ids=lambda f: f.__name__)
def test_dimensions_are_read_off_the_eliminated_basis(family):
    # eliminate returns the reduced DegRevLex basis of the kept ring, so
    # its leading terms give the dimension that a new basis would
    fam = family()
    image = eliminate(fam.combined_ideal(), range(fam.params.arity))
    assert basis_dimension(image) == dimension(image)
    scheme = coefficient_scheme(fam.params, nonconstant_coefficients(family_basis(fam)))
    assert scheme.dimension == dimension(scheme.ideal)


def test_rose_locus_at_a_projection_point():
    fam = rose_family()
    assert generic_hough_dimension(fam) == 0
    result = hough_ideal(fam, (1, 1, 1))
    # the locus is the conjugate pair a1 = a2 = 1/sqrt(2) and its
    # negative: irrational, so no coordinate solution is reported, but
    # a1^2 -1/2 lies in the ideal
    assert [repr(g) for g in result.ideal.generators] == ["a1 -a2", "a2^2 -1/2"]
    assert result.dimension == 0
    assert not result.empty
    assert result.solution is None
    order = DegRevLex(2)
    assert normal_form(order, p("a1^2 -1/2", P2), result.ideal.generators).is_zero()


# -- exact solving when the parameters enter linearly ----------------


def test_linear_rose_variant_solved_exactly():
    # the ring lists z first, so (2, 1, 1) is the point with x = y = 1
    # sitting at height 2
    fam = rose_family(linear=True)
    solution = solve_linear_hough(fam, (2, 1, 1))
    assert solution == (Fraction(1, 2), Fraction(2))
    fiber = specialize_family(fam, solution)
    assert all(g.evaluate([2, 1, 1]) == 0 for g in fiber.generators)


def test_linear_solver_reports_degenerate_points():
    fam = rose_family(linear=True)
    # x = 0 kills the plane's parameter but not the plane equation
    with pytest.raises(Inconsistent):
        solve_linear_hough(fam, (1, 1, 0))
    # at the origin every condition vanishes
    with pytest.raises(Underdetermined):
        solve_linear_hough(fam, (0, 0, 0))


def test_linear_solver_needs_enough_conditions():
    with pytest.raises(Underdetermined):
        solve_linear_hough(line_family(), (1, 2))


def test_solver_rejects_nonlinear_parameters():
    with pytest.raises(NotLinearInParams):
        solve_linear_hough(rose_family(), (2, 1, 1))


# Families linear in one to three parameters, drawn as raw data that the
# oracle reads without the library: each generator maps a monomial in
# x, y to coefficients [c0, c1, ..., ck], standing for c0 +c1*a1 +...
# +ck*ak.  Small values with many zeros make rank-deficient and
# contradictory systems common.
SMALL = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])
XY_MONOMIALS = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]


def linear_params(k):
    return ring(*(f"a{i + 1}" for i in range(k)))


def linear_generator(params: Ring, data) -> Polynomial:
    k = params.arity
    combined = params.concat(XY)
    terms = {}
    for m, coeffs in data.items():
        for i, c in enumerate(coeffs):
            lift = tuple(1 if j == i - 1 else 0 for j in range(k))
            terms[lift + m] = Fraction(c)
    return Polynomial.from_terms(combined, terms)


def linear_coefficients(k, monomials):
    return st.dictionaries(
        st.sampled_from(monomials), st.lists(SMALL, min_size=k + 1, max_size=k + 1),
        min_size=1, max_size=len(monomials),
    )


@st.composite
def linear_families(draw):
    k = draw(st.integers(1, 3))
    data = draw(st.lists(linear_coefficients(k, XY_MONOMIALS), min_size=1, max_size=3))
    return k, data


def expected_outcome(rows, rhs, k):
    """Inconsistent, Underdetermined or the one solution, by Gaussian
    elimination and a rank count."""
    solution = solve_exact(rows, rhs)
    if solution is None:
        return Inconsistent
    if rank_exact(rows) < k:
        return Underdetermined
    return tuple(solution)


@given(linear_families(), st.tuples(fractions(3, 2), fractions(3, 2)))
@settings(max_examples=150, deadline=None)
def test_linear_solver_matches_gaussian_elimination(family, point):
    k, data = family
    params = linear_params(k)
    fam = Family.of(params, XY, [linear_generator(params, d) for d in data])
    px, py = point
    rows, rhs = [], []
    for d in data:
        rows.append([sum(c[i] * px ** m[0] * py ** m[1] for m, c in d.items()) for i in range(1, k + 1)])
        rhs.append(-sum(c[0] * px ** m[0] * py ** m[1] for m, c in d.items()))
    expected = expected_outcome(rows, rhs, k)
    if isinstance(expected, tuple):
        assert solve_linear_hough(fam, point) == expected
    else:
        with pytest.raises(expected):
            solve_linear_hough(fam, point)


def test_family_without_parameters_is_its_own_member():
    # with no parameters the locus of a point on the fiber is the one
    # point (), for every question that reads the locus
    fam = Family.parse(Ring(()), XY, ["x*y -1"])
    assert solve_linear_hough(fam, (1, 1)) == ()
    assert hough_ideal(fam, (1, 1)).solution == ()
    assert detect(fam, [(1, 1), (-1, -1)]).solution == ()
    with pytest.raises(Inconsistent):
        solve_linear_hough(fam, (1, 2))
    assert reconstruct_surface(fam, "z", [(0, p("x*y -1", XY))]) == p("x*y -1", XYZ)


# -- combining several points ----------------------------------------


def test_detect_two_points_pins_the_line():
    result = detect(line_family(), [(0, 1), (1, 0)])
    assert result.solution == (Fraction(1), Fraction(-1))
    assert not result.empty
    # the line x2 +x1 -1 = 0 through both points
    member = p("x2 +x1 -1", ring("x1", "x2"))
    assert member.evaluate([0, 1]) == 0 and member.evaluate([1, 0]) == 0


def test_detect_single_point_stays_underdetermined():
    result = detect(line_family(), [(0, 1)])
    assert result.solution is None
    assert not result.empty
    assert result.dimension == 1
    assert [repr(g) for g in result.ideal.generators] == ["a2 +1"]


def test_detect_of_one_point_is_its_hough_locus():
    for point in [(0, 1), (2, -3)]:
        assert detect(line_family(), [point]) == hough_ideal(line_family(), point)


def test_detect_contradictory_points():
    result = detect(line_family(), [(0, 0), (1, 0), (0, 1)])
    assert result.empty
    assert result.dimension == -1
    assert [repr(g) for g in result.ideal.generators] == ["1"]


@given(st.tuples(fractions(6, 3), fractions(6, 3)))
@settings(max_examples=50, deadline=None)
def test_detect_recovers_random_lines(alpha):
    a1, a2 = alpha
    points = [(t, -a1 * t - a2) for t in (Fraction(0), Fraction(1), Fraction(3))]
    result = detect(line_family(), points)
    assert result.solution == (a1, a2)


def test_generic_dimension_matches_sampled_points():
    # the line family sweeps the whole plane, so every sampled point
    # should show the generic locus dimension
    rng = random.Random(11)
    fam = line_family()
    generic = generic_hough_dimension(fam)
    for _ in range(7):
        point = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        assert hough_ideal(fam, point).dimension == generic


# -- surface reconstruction ------------------------------------------


def test_reconstruct_surface_from_slice_curves():
    slices = [(g, p(c, XY)) for g, c in CURVES]
    surface = reconstruct_surface(cubic_template(), "z", slices)
    assert surface == p(SURFACE, XYZ)


def test_reconstruct_surface_from_sampled_points():
    # on the slice at 0 the curve is x^3 = y^2, with rational points
    # (t^2, t^3); four of them pin the four template parameters
    slices = [(0, [(0, 0), (1, 1), (1, -1), (4, 8)])]
    slices += [(g, p(c, XY)) for g, c in CURVES[1:]]
    surface = reconstruct_surface(cubic_template(), "z", slices)
    assert surface == p(SURFACE, XYZ)


def test_reconstruct_surface_single_slice():
    surface = reconstruct_surface(cubic_template(), "z", [(5, p("x^3 -y^2", XY))])
    assert surface == p("x^3 -y^2", XYZ)


def test_reconstruct_surface_rejects_bad_input():
    template = cubic_template()
    with pytest.raises(Inconsistent, match="slice at 1"):
        reconstruct_surface(template, "z", [(1, p("x^3 +x*y", XY))])
    with pytest.raises(Underdetermined, match="slice at 0"):
        reconstruct_surface(
            Family.parse(P2, ring("x"), ["x -a1 -a2"]), "z", [(0, p("x -3", ring("x")))]
        )
    with pytest.raises(NotLinearInParams):
        reconstruct_surface(
            Family.parse(ring("a1"), ring("x"), ["x -a1^2"]), "z", [(0, p("x -4", ring("x")))]
        )
    with pytest.raises(ValueError, match="single-generator"):
        reconstruct_surface(
            Family.parse(P2, XY, ["x -a1", "y -a2"]), "z", [(0, p("x", XY))]
        )
    with pytest.raises(ValueError, match="distinct"):
        reconstruct_surface(
            template, "z", [(1, p("x^3 -y^2", XY)), (1, p("x^3 -y^2", XY))]
        )


@given(
    st.tuples(fractions(4, 2), fractions(4, 2), fractions(4, 2), fractions(4, 2))
)
@settings(max_examples=40, deadline=None)
def test_slice_and_recover_a_cubic_surface(alpha):
    # build a surface from the template with z-linear coefficients,
    # slice it exactly, and ask for it back
    a1, a2, a3, a4 = alpha
    surface = p("x^3", XYZ) \
        - (Polynomial.constant(XYZ, a1) + p("z", XYZ)) * p("y^2", XYZ) \
        + Polynomial.constant(XYZ, a2) * p("x*z", XYZ) \
        + Polynomial.constant(XYZ, a3) * p("y", XYZ) \
        + Polynomial.constant(XYZ, a4) * p("z", XYZ)
    slices = []
    for gamma in (Fraction(0), Fraction(1), Fraction(-1)):
        cut = surface.substitute(2, Polynomial.constant(XYZ, gamma))
        slices.append((gamma, cut.project_drop(2)))
    recovered = reconstruct_surface(
        Family.parse(P4, XY, ["x^3 -a1*y^2 +a2*x +a3*y +a4"]), "z", slices
    )
    assert recovered == surface


# a template x^3 +(linear in the parameters)*{1, x, y}; its slices keep
# the leading term x^3 upstairs for up to three slices along z
CURVE_MONOMIALS = [(0, 0), (1, 0), (0, 1)]


@st.composite
def curve_slices(draw):
    k = draw(st.integers(1, 3))
    data = draw(linear_coefficients(k, CURVE_MONOMIALS))
    curves = []
    for gamma in (Fraction(0), Fraction(1), Fraction(-1))[: draw(st.integers(1, 3))]:
        if draw(st.booleans()):
            # a member of the template, at some parameter point
            values = draw(st.lists(SMALL, min_size=k, max_size=k))
            coeffs = {m: c[0] + sum(ci * vi for ci, vi in zip(c[1:], values)) for m, c in data.items()}
        else:
            coeffs = {m: draw(SMALL) for m in CURVE_MONOMIALS}
        curves.append((gamma, coeffs))
    return k, data, curves


@given(curve_slices())
@settings(max_examples=100, deadline=None)
def test_reconstruct_surface_matches_gaussian_elimination(problem):
    k, data, curves = problem
    params = linear_params(k)
    template = Family.of(
        params, XY, [linear_generator(params, data) + p("x^3", params.concat(XY))]
    )
    slices = []
    first_failure = None
    for gamma, coeffs in curves:
        curve = Polynomial.from_terms(XY, {(3, 0): Fraction(1), **{m: Fraction(c) for m, c in coeffs.items()}})
        slices.append((gamma, curve))
        zero = [0] * (k + 1)
        rows = [list(data.get(m, zero)[1:]) for m in CURVE_MONOMIALS]
        rhs = [curve.terms.get(m, 0) - data.get(m, zero)[0] for m in CURVE_MONOMIALS]
        expected = expected_outcome(rows, rhs, k)
        if first_failure is None and not isinstance(expected, tuple):
            first_failure = (gamma, expected)
    if first_failure is not None:
        gamma, error = first_failure
        with pytest.raises(error, match=f"slice at {gamma}"):
            reconstruct_surface(template, "z", slices)
        return
    surface = reconstruct_surface(template, "z", slices)
    for gamma, curve in slices:
        assert surface.substitute(2, Polynomial.constant(XYZ, gamma)).project_drop(2) == curve


# -- detection files -------------------------------------------------


def detection_doc():
    return {
        "template": {
            "params": ["a1", "a2", "a3", "a4"],
            "vars": ["x", "y"],
            "generators": ["x^3 -a1*y^2 +a2*x +a3*y +a4"],
        },
        "pivot": "z",
        "slices": [
            {"gamma": "0", "points": [[0, 0], [1, 1], [1, -1], [4, 8]]},
            {"gamma": "1", "curve": "x^3 -y^2 -x -y -1"},
            {"gamma": "-1", "curve": "x^3 -y^2 +x +y +1"},
            {"gamma": "2", "curve": "x^3 -y^2 -2*x -2*y -2"},
        ],
    }


def test_detection_file_round_trip():
    df = parse_detection_json(json.loads(json.dumps(detection_doc())))
    assert df.pivot == "z"
    assert df.template.params == P4
    assert [g for g, _ in df.slices] == [0, 1, -1, 2]
    assert isinstance(df.slices[0][1], list)
    assert df.slices[1][1] == p("x^3 -y^2 -x -y -1", XY)
    surface = reconstruct_surface(df.template, df.pivot, df.slices)
    assert surface == p(SURFACE, XYZ)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("template"), "missing 'template'"),
        (lambda d: d.pop("pivot"), "missing 'pivot'"),
        (lambda d: d.pop("slices"), "missing 'slices'"),
        (lambda d: d.update(pivot="x"), "collides"),
        (lambda d: d.update(pivot=5), "must be a variable name"),
        (lambda d: d.update(slices=[]), "must not be empty"),
        (lambda d: d["slices"][0].update(points="ab"), "must be a JSON list"),
        (lambda d: d["slices"][0].pop("gamma"), "without 'gamma'"),
        (lambda d: d["slices"][0].update(gamma="two"), "bad slice constant"),
        (lambda d: d["slices"][1].update(gamma="0"), "duplicate"),
        (lambda d: d["slices"][1].update(points=[[1, 1]]), "'points' or 'curve'"),
        (lambda d: d["slices"][0].pop("points"), "'points' or 'curve'"),
        (lambda d: d["slices"][0]["points"].append([1]), "wrong number"),
        (lambda d: d["slices"][0]["points"].append([1, "x"]), "bad coordinate"),
    ],
)
def test_detection_file_rejects(mutate, message):
    doc = detection_doc()
    mutate(doc)
    with pytest.raises(ParseError, match=message):
        parse_detection_json(doc)
