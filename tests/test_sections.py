import itertools
import json
import multiprocessing
import random
import time
from concurrent.futures import Future
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import fractions, nonzero_polynomials, polynomials
from slicegb.errors import (
    HypothesisViolation,
    LTDrift,
    NonGenericSlices,
    NonPrincipal,
    RetryLimitExceeded,
    ZeroDivisor,
)
from slicegb.groebner import Ideal, groebner_basis, is_member
from slicegb.orders import DegRevLex, Elim, Lex, PivotDegRev, degrevlex, lex
from slicegb.parsing import ParseError, format_polynomial, parse_polynomial
from slicegb.poly import Polynomial, compose
from slicegb import sections
from slicegb.rings import pp_drop, ring
from slicegb.sections import (
    LinearForm,
    common_lifting,
    gamma_stream,
    homogeneous_section_basis,
    implicitize,
    lagrange_coefficients,
    map_slices,
    parse_slice_json,
    reconstruct_basis,
    section_basis,
    verify_lifting,
)

R2 = ring("x", "y")
R3 = ring("x", "y", "z")


def p(text, r):
    return parse_polynomial(r, text)


def strings(basis):
    return [format_polynomial(basis.order, g) for g in basis]


def parallel(r, pivot, gammas, tail=None):
    """The parallel cuts pivot = tail + gamma, one per constant."""
    return [LinearForm.of(r, pivot, tail, g) for g in gammas]


# -- linear forms ----------------------------------------------------


def test_linear_form_from_polynomial():
    form = LinearForm.from_polynomial(p("2*z -4*w +6", ring("x", "y", "z", "w")))
    assert form.pivot == 2
    assert form.tail == ((3, Fraction(2)),)
    assert form.gamma == Fraction(-3)


def test_linear_form_round_trip():
    r = ring("x", "y", "z")
    form = LinearForm.of(r, "y", {"z": Fraction(1, 2)}, gamma=Fraction(7))
    again = LinearForm.from_polynomial(form.as_polynomial())
    assert again == form


def test_linear_form_rejects_bad_input():
    r = ring("x", "y", "z")
    with pytest.raises(ValueError):
        LinearForm.from_polynomial(p("x^2 -y", r))
    with pytest.raises(ValueError):
        LinearForm.from_polynomial(Polynomial.zero(r))
    with pytest.raises(ValueError):
        # tail on the pivot itself
        LinearForm.of(r, "z", {"z": Fraction(1)})


def test_linear_form_takes_a_tail_before_the_pivot():
    # any variable but the pivot may sit in the tail; the ordering is
    # checked only where a basis is sliced
    r = ring("x", "y", "z")
    form = LinearForm.of(r, "z", {"x": Fraction(2)}, gamma=Fraction(1))
    assert form.tail == ((0, Fraction(2)),)
    assert form.apply(p("z^2 -y", r)) == p("4*x^2 +4*x -y +1", form.sub_ring())


def test_one_cut_is_one_value():
    # the constructor sorts the tail and makes every number a Fraction,
    # so a cut compares equal however it is listed and slices a basis
    # with int values as it does with Fractions
    listed = LinearForm(R3, 0, ((2, 1), (1, 2)), 1)
    named = LinearForm.of(R3, "x", {"y": 2, "z": 1}, 1)
    assert listed == named and hash(listed) == hash(named)
    assert listed.tail == ((1, Fraction(2)), (2, Fraction(1)))
    assert type(listed.gamma) is Fraction
    assert all(type(c) is Fraction for _, c in listed.tail)
    ideal = Ideal.of(R3, [p("y^2 -z", R3), p("z^3 -y*z +1", R3)])
    order = DegRevLex(3)
    gb = groebner_basis(order, ideal.generators)
    for form in (LinearForm(R3, 0, ((2, 2),), 1), LinearForm(R3, 0, ((2, Fraction(2)),), Fraction(1))):
        assert verify_lifting(ideal, list(gb.elements), form, order) == gb


def slice_file(r, pivot, tail):
    """A slice file of two slices along ``pivot`` with the given tail."""
    sub = [v for v in r.names if v != pivot]
    return {"ring": f"QQ[{','.join(r.names)}]", "pivot": pivot, "tail": tail,
            "slices": [{"gamma": g, "generators": [sub[0]]} for g in (1, 2)]}


@pytest.mark.parametrize("make", [
    lambda: LinearForm(R3, 0, ((5, Fraction(1)),)),
    lambda: LinearForm(R3, 0, ((-1, Fraction(1)),)),
    lambda: LinearForm(R3, 3, ()),
    lambda: LinearForm(R3, 0, ((3, Fraction(1)),)),
    lambda: LinearForm(R3, 0, ((1, Fraction(0)),)),
    lambda: LinearForm(R3, 7, (), Fraction(1)),
    lambda: LinearForm(R3, 0, ((5, Fraction(1)),), Fraction(2)),
    lambda: parse_slice_json(slice_file(R2, "x", {"y": 0})),
    lambda: parse_slice_json(slice_file(R3, "y", {"x": 1})),
    lambda: LinearForm(R3, 2, ((1, Fraction(1)), (1, Fraction(2)))),
    lambda: LinearForm(R3, 0, ((1, Fraction(1)), (1, Fraction(2)))),
    lambda: LinearForm(R3, 0, ((1, Fraction(1)), (1, Fraction(2))), Fraction(1)),
], ids=["hom-tail-past-arity", "hom-negative-tail", "hom-pivot-past-arity",
        "tail-past-arity", "zero-tail", "family-pivot-past-arity",
        "family-tail-past-arity", "family-zero-tail", "family-tail-before-pivot",
        "hom-repeated-tail", "repeated-tail", "family-repeated-tail"])
def test_cuts_reject_bad_pivots_and_tails(make):
    with pytest.raises(ValueError):
        make()


def test_linear_form_apply():
    r = ring("x", "y", "z")
    form = LinearForm.of(r, "x", {"z": Fraction(2)}, gamma=Fraction(1))
    image = form.apply(p("x^2 -y", r))
    assert image == p("4*z^2 +4*z -y +1", form.sub_ring())


def test_compatible_with_depends_on_order():
    r = ring("x", "y", "z")
    form = LinearForm.of(r, "x", {"z": Fraction(1)})
    assert form.compatible_with(DegRevLex(3))
    assert form.compatible_with(Lex(3))
    # pivoted at x, the pivot is the smallest variable, so z sits above it
    assert not form.compatible_with(PivotDegRev(3, 0))


def test_hom_linear_form_requires_named_pivot():
    # a homogeneous cut is a LinearForm with gamma = 0, its pivot named
    r = ring("x", "y", "z")
    form = LinearForm.of(r, "z", {"x": 1, "y": 1})
    assert form.tail == ((0, Fraction(1)), (1, Fraction(1)))
    assert form.gamma == 0
    with pytest.raises(KeyError):
        LinearForm.of(r, "w", {"x": 1, "y": 1})
    with pytest.raises(ValueError):
        LinearForm.of(r, "z", {"x": 1, "z": 1})
    with pytest.raises(ValueError):
        homogeneous_section_basis(
            Ideal.of(r, [p("x^2 -y*z", r)]), LinearForm.of(r, "x", {"y": 1}, gamma=1), PivotDegRev(3, 0)
        )


# -- homogeneous sections --------------------------------------------

# Worked fixture: cutting (z^2 - x*w, x^2*y - z*w^2) with z = 3y + w
# under the ordering that keeps z cheapest.  The shifted reduced basis
# and its projection were checked against an independent computer
# algebra system before being frozen here.

RXYZW = ring("x", "y", "z", "w")
SHIFT_BASIS = [
    "y^2 -1/9*x*w +2/3*y*w +1/9*w^2 +2/3*y*z +2/9*z*w +1/9*z^2",
    "x^2*y -3*y*w^2 -w^3 -z*w^2",
    "x^3*w -x^2*w^2 -3*x*w^3 -9*y*w^3 -3*w^4 -2*x^2*z*w -9*y*z*w^2 "
    "-6*z*w^3 -x^2*z^2 -3*z^2*w^2",
]
SECTION_BASIS = [
    "y^2 -1/9*x*w +2/3*y*w +1/9*w^2",
    "x^2*y -3*y*w^2 -w^3",
    "x^3*w -x^2*w^2 -3*x*w^3 -9*y*w^3 -3*w^4",
]


def test_homogeneous_shift_basis():
    order = PivotDegRev(4, 2)
    form = LinearForm.of(RXYZW, "z", {"y": 3, "w": 1})
    shift = Polynomial.variable(RXYZW, "z") + form.replacement()
    shifted = [g.substitute(2, shift) for g in (p("z^2 -x*w", RXYZW), p("x^2*y -z*w^2", RXYZW))]
    assert format_polynomial(order, shifted[0]) in (
        "9*y^2 -x*w +6*y*w +w^2 +6*y*z +2*z*w +z^2",
    )
    gb = groebner_basis(order, shifted)
    assert strings(gb) == SHIFT_BASIS
    assert gb.is_reduced


def test_homogeneous_section_matches_projection():
    order = PivotDegRev(4, 2)
    form = LinearForm.of(RXYZW, "z", {"y": 3, "w": 1})
    ideal = Ideal.of(RXYZW, [p("z^2 -x*w", RXYZW), p("x^2*y -z*w^2", RXYZW)])
    down = homogeneous_section_basis(ideal, form, order)
    assert strings(down) == SECTION_BASIS
    assert down.is_minimal and down.is_reduced
    # the same basis falls out of substituting directly and recomputing
    direct = groebner_basis(down.order, [form.apply(g) for g in ideal.generators])
    assert list(direct.elements) == list(down.elements)


def test_homogeneous_section_axis_cut_drops_zero():
    # one basis element dies under the cut and must disappear, not
    # linger as a zero
    r = ring("x0", "x1", "x2", "x3")
    order = PivotDegRev(4, 0)
    gens = [
        p("x3^3 -x1*x2*x0", r),
        p("x2^3 -x1*x3*x0 -x2*x0^2", r),
        p("x1^2*x2 -x3*x0^2", r),
    ]
    gb = groebner_basis(order, gens)
    assert strings(gb) == [
        "x3^3 -x0*x1*x2",
        "x2^3 -x0*x1*x3 -x0^2*x2",
        "x1^2*x2 -x0^2*x3",
        "x0*x1^3*x3 -x0^2*x2^2*x3 +x0^4*x3",
    ]
    form = LinearForm.of(r, "x0")
    down = homogeneous_section_basis(Ideal.of(r, gens), form, order)
    assert strings(down) == ["x3^3", "x2^3", "x1^2*x2"]


def test_homogeneous_section_rejects_wrong_order():
    ideal = Ideal.of(R3, [p("x^2 -y*z", R3)])
    form = LinearForm.of(R3, "x")
    with pytest.raises(ValueError):
        homogeneous_section_basis(ideal, form, DegRevLex(3))
    with pytest.raises(ValueError):
        homogeneous_section_basis(
            Ideal.of(R3, [p("x^2 -y", R3)]), LinearForm.of(R3, "z"), DegRevLex(3)
        )


def test_homogeneous_section_rejects_a_constant_term():
    ideal = Ideal.of(RXYZW, [p("z^2 -x*w", RXYZW), p("x^2*y -z*w^2", RXYZW)])
    form = LinearForm.of(RXYZW, "z", {"y": 3, "w": 1}, gamma=Fraction(1, 2))
    with pytest.raises(ValueError, match="constant term"):
        homogeneous_section_basis(ideal, form, PivotDegRev(4, 2))


@pytest.mark.parametrize("order", [DegRevLex(4), PivotDegRev(4, 3), Elim(4, ())],
                         ids=["degrevlex", "pivotdegrev", "elim-empty"])
def test_homogeneous_section_accepts_the_pivoted_rows(order):
    # every ordering with the rows of the degree-reverse ordering
    # pivoted at w slices alike
    ideal = Ideal.of(RXYZW, [p("z^2 -x*w", RXYZW), p("x^2*y -z*w^2", RXYZW)])
    form = LinearForm.of(RXYZW, "w", {"x": 1, "z": -2})
    down = homogeneous_section_basis(ideal, form, order)
    direct = groebner_basis(down.order, [form.apply(g) for g in ideal.generators])
    assert list(down.elements) == list(direct.elements)


# -- slicing and lifting ---------------------------------------------


def test_section_basis_keeps_leading_terms():
    order = degrevlex(R3)
    gb = groebner_basis(order, [p("x^2 -y", R3), p("y^2 -z", R3)])
    sliced = section_basis(gb, LinearForm.of(R3, "z", gamma=Fraction(3)))
    assert strings(sliced) == ["y^2 -3", "x^2 -y"]
    assert sliced.is_minimal and sliced.is_reduced


def test_section_basis_flags_blocking_leading_terms():
    # substituting x1 = x3 + x4 invalidates the basis: the cube's
    # leading term contains the pivot, and recomputing downstairs turns
    # up a genuinely new element
    r = ring("x1", "x2", "x3", "x4")
    order = degrevlex(r)
    f1, f2 = p("x2*x3 -x4", r), p("x1^3 -2*x3^2", r)
    gb = groebner_basis(order, [f1, f2])
    assert strings(gb) == ["x2*x3 -x4", "x1^3 -2*x3^2"]
    form = LinearForm.of(r, "x1", {"x3": Fraction(1), "x4": Fraction(1)})
    with pytest.raises(HypothesisViolation) as info:
        section_basis(gb, form)
    assert info.value.offending == [f2]
    down = groebner_basis(DegRevLex(3), [form.apply(f1), form.apply(f2)])
    assert strings(down) == [
        "x2*x3 -x4",
        "x3^3 +3*x3^2*x4 +3*x3*x4^2 +x4^3 -2*x3^2",
        "x2*x4^3 +x3^2*x4 +3*x3*x4^2 +3*x4^3 -2*x3*x4",
    ]


def test_section_basis_oblique_cut_loses_reducedness():
    r = ring("x1", "x2", "x3")
    order = degrevlex(r)
    gb = groebner_basis(order, [p("x2^3 -x1^2", r), p("x3^2 -1", r)])
    assert gb.is_reduced
    sliced = section_basis(gb, LinearForm.of(r, "x1", {"x3": Fraction(1)}))
    assert strings(sliced) == ["x3^2 -1", "x2^3 -x3^2"]
    assert sliced.is_minimal
    assert not sliced.is_reduced


def test_section_basis_takes_a_tail_before_the_pivot_below_it():
    # under the ordering pivoted at x, x sits below z although it is
    # listed first; the slice is what substituting and recomputing gives
    r = ring("x", "y", "z")
    order = PivotDegRev(3, 0)
    gb = groebner_basis(order, [p("y^2 -x*z", r), p("x^3 -z^2", r)])
    assert strings(gb) == ["y^2 -x*z", "x^3 -z^2"]
    form = LinearForm.of(r, "z", {"x": Fraction(2)}, gamma=Fraction(-1))
    assert form.compatible_with(order)
    sliced = section_basis(gb, form)
    direct = groebner_basis(sliced.order, [form.apply(g) for g in gb])
    assert groebner_basis(sliced.order, list(sliced.elements)).elements == direct.elements


def test_section_basis_rejects_a_tail_before_the_pivot_above_it():
    # under degrevlex the earlier x sits above z, so the tail is refused
    r = ring("x", "y", "z")
    order = degrevlex(r)
    gb = groebner_basis(order, [p("y^2 -x", r), p("x*y -1", r)])
    form = LinearForm.of(r, "z", {"x": Fraction(1)})
    with pytest.raises(ValueError, match="below the pivot"):
        section_basis(gb, form)


def test_verify_lifting_round_trip():
    order = degrevlex(R3)
    gb = groebner_basis(order, [p("x^2 -y", R3), p("y^2 -z", R3)])
    ideal = Ideal.of(R3, list(gb.elements))
    out = verify_lifting(ideal, list(gb.elements), LinearForm.of(R3, "z", gamma=Fraction(3)), order)
    assert list(out.elements) == list(gb.elements)
    assert out.is_minimal and out.is_reduced


def test_verify_lifting_zero_divisor():
    # the cut multiplies a stray element into the ideal, so certification
    # must refuse even though the sliced candidate looks perfect
    r = ring("x1", "x2", "x3", "x4")
    order = degrevlex(r)
    cand = [p("x1^2", r), p("x1*x3 -x2", r), p("x1*x4", r), p("x4^2", r)]
    ideal = Ideal.of(r, cand)
    form = LinearForm.of(r, "x2", {"x4": Fraction(1)})
    with pytest.raises(ZeroDivisor) as info:
        verify_lifting(ideal, cand, form, order)
    witness = info.value.witness
    gb = groebner_basis(order, ideal.generators)
    assert witness is not None and not is_member(witness, gb)
    assert is_member(witness * form.as_polynomial(), gb)
    # what the certification refused: the candidate misses elements,
    # among them x2*x4 = x3*(x1*x4) - x4*(x1*x3 - x2), whose leading
    # term no candidate leading term divides
    assert sorted(strings(gb)) == sorted(
        ["x1^2", "x1*x3 -x2", "x1*x4", "x4^2", "x1*x2", "x2*x4", "x2^2"]
    )


def test_verify_lifting_leading_term_blockers():
    r = ring("x1", "x2", "x3", "x4")
    order = degrevlex(r)
    cand = [p("x2^2 -x3^2", r), p("x1*x2", r)]
    ideal = Ideal.of(r, cand)
    form = LinearForm.of(r, "x2", {"x4": Fraction(1)})
    with pytest.raises(HypothesisViolation) as info:
        verify_lifting(ideal, cand, form, order)
    assert info.value.offending == cand
    # the candidate is not a basis: x1*x3^2 = x2*(x1*x2) - x1*(x2^2 -x3^2)
    # lies in the ideal and neither candidate leading term divides it
    assert sorted(strings(groebner_basis(order, ideal.generators))) == sorted(
        ["x2^2 -x3^2", "x1*x2", "x1*x3^2"]
    )


def test_verify_lifting_certifies_unreduced_basis():
    r = ring("x1", "x2", "x3", "x4")
    order = degrevlex(r)
    cand = [p("x2^3 +x1*x3 -x2*x3", r), p("x3", r)]
    ideal = Ideal.of(r, cand)
    form = LinearForm.of(r, "x1", {"x2": Fraction(1)})
    out = verify_lifting(ideal, cand, form, order)
    assert out.is_minimal
    assert not out.is_reduced


def test_verify_lifting_incomplete_candidate():
    order = degrevlex(R3)
    ideal = Ideal.of(R3, [p("x^2 -y", R3), p("y^2 -z", R3)])
    with pytest.raises(HypothesisViolation):
        verify_lifting(ideal, [p("x^2 -y", R3)], LinearForm.of(R3, "z", gamma=Fraction(1)),
                       order)


def test_verify_lifting_rejects_outsider():
    # x^2 -z sections to x^2 -1, covering the downstairs leading term, so
    # the failure has to come from the membership check
    order = degrevlex(R3)
    ideal = Ideal.of(R3, [p("x^2 -y", R3)])
    with pytest.raises(ValueError, match="outside the ideal"):
        verify_lifting(ideal, [p("x^2 -z", R3)],
                       LinearForm.of(R3, "z", gamma=Fraction(1)), order)


# -- interpolation ---------------------------------------------------


def test_lagrange_quadratic():
    pts = [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(4)), (Fraction(3), Fraction(9))]
    assert lagrange_coefficients(pts) == [Fraction(0), Fraction(0), Fraction(1)]


def test_lagrange_drops_trailing_zeros():
    pts = [(Fraction(k), Fraction(5)) for k in range(4)]
    assert lagrange_coefficients(pts) == [Fraction(5)]
    assert lagrange_coefficients([]) == []


@given(st.lists(fractions(), min_size=1, max_size=6, unique=True).flatmap(
    lambda xs: st.tuples(st.just(xs), st.lists(fractions(), min_size=len(xs),
                                               max_size=len(xs)))))
def test_lagrange_interpolates(data):
    xs, ys = data
    coeffs = lagrange_coefficients(list(zip(xs, ys)))
    assert len(coeffs) <= len(xs)
    for x, y in zip(xs, ys):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        assert acc == y


@given(st.lists(fractions(max_den=7), min_size=1, max_size=7, unique=True))
def test_integer_lagrange_basis_is_one_at_its_node_and_zero_at_the_others(xs):
    rows, den = sections._lagrange_basis(xs)
    assert all(type(c) is int for row in rows for c in row)
    for j, x in enumerate(xs):
        at_x = [sum(row[i] * x ** k for k, row in enumerate(rows)) / den for i in range(len(xs))]
        assert at_x == [1 if i == j else 0 for i in range(len(xs))]


@settings(max_examples=60, deadline=None)
@given(nonzero_polynomials(R3, max_degree=4, max_terms=6, coeffs=fractions(max_den=9)),
       st.sampled_from([{}, {"z": Fraction(-3, 2)}, {"y": Fraction(2, 5), "z": Fraction(1)}]),
       st.lists(fractions(max_num=5, max_den=7).filter(lambda g: g.denominator > 1),
                min_size=7, max_size=7, unique=True),
       st.integers(0, 2))
def test_common_lifting_rebuilds_a_polynomial_on_fraction_nodes(g, tail, nodes, extra):
    # nodes with denominators, axis and oblique cuts, and surplus slices
    count = g.degree_in(0) + 1 + extra
    forms = parallel(R3, "x", nodes[:count], tail)
    assert common_lifting(forms, [form.apply(g) for form in forms]) == g


@given(st.lists(fractions(), min_size=1, max_size=6, unique=True), polynomials(R2, max_degree=3))
def test_stop_rule_flags_the_slices_earlier_ones_predict(xs, h):
    # the flag is checked against Lagrange interpolation over the earlier
    # slices, term by term; past the pivot degree of h every slice agrees
    nodes, earlier = [], []
    for x in xs:
        value = LinearForm.of(R2, "x", gamma=x).apply(h)
        predicted = True
        for t in set(value.terms).union(*(v.terms for v in earlier)):
            coeffs = lagrange_coefficients([(n, v.terms.get(t, Fraction(0)))
                                            for n, v in zip(nodes, earlier)])
            at_x = Fraction(0)
            for c in reversed(coeffs):
                at_x = at_x * x + c
            predicted = predicted and at_x == value.terms.get(t, Fraction(0))
        cuts = [LinearForm.of(R2, "x", gamma=n) for n in nodes + [x]]
        assert sections._agrees(cuts, earlier + [value]) == predicted
        if len(nodes) > max((t[0] for t in h.terms), default=0):
            assert predicted
        nodes.append(x)
        earlier.append(value)


def test_common_lifting_minimal_degree_example():
    sub = R2.drop(1)
    values = [p("x", sub), p("x +1", sub), p("x +4", sub)]
    g = common_lifting(parallel(R2, "y", [0, 1, 2]), values)
    assert g == p("y^2 +x", R2)


def test_common_lifting_with_tail():
    # slices x = z + gamma of a known polynomial come back exactly
    target = p("x^2*y -z*x +y", R3)
    forms = parallel(R3, "x", [0, 1, -1], {"z": Fraction(1)})
    assert common_lifting(forms, [form.apply(target) for form in forms]) == target


def test_common_lifting_takes_a_tail_before_the_pivot():
    # slices z = 2*x - y + gamma: the API takes any tail, listed in any
    # order, and the lift undoes the shear exactly
    target = p("z^2*x -y*z +x^3 -2", R3)
    tails = [((0, Fraction(2)), (1, Fraction(-1))), ((1, Fraction(-1)), (0, Fraction(2)))]
    gammas = [Fraction(1, 2), Fraction(-1), Fraction(3)]
    forms = [LinearForm(R3, 2, tails[k % 2], g) for k, g in enumerate(gammas)]
    assert common_lifting(forms, [form.apply(target) for form in forms]) == target


@pytest.mark.parametrize("corrupt", [0, -1], ids=["constant", "top"])
def test_common_lifting_checks_every_slice(monkeypatch, corrupt):
    # one interpolated coefficient off by one numerator: on fraction
    # nodes of an oblique cut, the integer check refuses the lift
    target = p("x^2*y -z*x +y", R3)
    forms = parallel(R3, "x", [Fraction(1, 2), Fraction(-1, 3), Fraction(2)], {"z": Fraction(1)})
    interpolate, calls = sections._interpolate, []

    def corrupted(rows, ys):
        coeffs = interpolate(rows, ys)
        if not calls:
            coeffs[corrupt] += 1
        calls.append(ys)
        return coeffs

    monkeypatch.setattr(sections, "_interpolate", corrupted)
    with pytest.raises(AssertionError, match="failed to restrict to a slice value"):
        common_lifting(forms, [form.apply(target) for form in forms])


def test_common_lifting_validates_input():
    forms = parallel(R2, "y", [0, 1])
    with pytest.raises(ValueError):
        common_lifting(forms, [p("x", R2.drop(1))])
    with pytest.raises(ValueError):
        common_lifting(forms, [p("x", R2), p("x", R2)])
    with pytest.raises(ValueError, match="slice constants must be distinct"):
        common_lifting(parallel(R2, "y", [1, 1]), [p("x", R2.drop(1))] * 2)
    with pytest.raises(ValueError):
        common_lifting([], [])


MISMATCHED_CUTS = {
    "ring": [LinearForm.of(R3, "x", gamma=1), LinearForm.of(ring("x", "y", "w"), "x", gamma=2)],
    "pivot": [LinearForm.of(R3, "x", gamma=1), LinearForm.of(R3, "y", gamma=2)],
    "tail": [LinearForm.of(R3, "x", {"z": 1}, 1), LinearForm.of(R3, "x", {"z": 2}, 2)],
    "no-tail": [LinearForm.of(R3, "x", {"z": 1}, 1), LinearForm.of(R3, "x", gamma=2)],
    "constant": [LinearForm.of(R3, "x", {"z": 1}, 1), LinearForm.of(R3, "x", {"z": 1}, 1)],
}


@pytest.mark.parametrize("forms", MISMATCHED_CUTS.values(), ids=MISMATCHED_CUTS)
def test_parallel_slices_share_one_cut_and_distinct_constants(forms):
    # the cuts of parallel slices may differ in their constant only,
    # and there only; both the lift and the reconstruction refuse
    value = p("y +z", ring("y", "z"))
    with pytest.raises(ValueError):
        common_lifting(forms, [value] * len(forms))
    with pytest.raises(ValueError):
        reconstruct_basis([(form, [value]) for form in forms], lex(R3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_common_lifting_recovers_random_polynomials(data):
    # sample-and-recover: slice a random polynomial along a random cut
    # with one more slice than its pivot degree, then lift
    names = ("x", "y", "z", "w")
    n = data.draw(st.integers(min_value=2, max_value=4), label="arity")
    r = ring(*names[:n])
    g = data.draw(nonzero_polynomials(r, max_degree=5, max_terms=5), label="poly")
    pivot = data.draw(st.integers(min_value=0, max_value=n - 1), label="pivot")
    tail_vars = list(range(pivot + 1, n))
    tail = {
        r.names[j]: data.draw(fractions(max_num=3, max_den=2), label=f"tail{j}")
        for j in tail_vars
        if data.draw(st.booleans(), label=f"use{j}")
    }
    tail = {v: c for v, c in tail.items() if c}
    count = g.degree_in(pivot) + 1
    gammas = data.draw(
        st.lists(fractions(max_num=6, max_den=3), min_size=count, max_size=count,
                 unique=True),
        label="gammas",
    )
    forms = parallel(r, r.names[pivot], gammas, tail)
    assert common_lifting(forms, [form.apply(g) for form in forms]) == g


# -- reconstruction --------------------------------------------------

LEMON_SLICES = [
    (-5, "x^2 +z^2 +27000"),
    (-4, "x^2 +z^2 +8000"),
    (-3, "x^2 +z^2 +1728"),
    (-2, "x^2 +z^2 +216"),
    (2, "x^2 +z^2 +8"),
    (3, "x^2 +z^2 +216"),
    (4, "x^2 +z^2 +1728"),
    (5, "x^2 +z^2 +8000"),
]


def lemon_slices():
    return [(LinearForm.of(R3, "y", gamma=g), [p(s, R3.drop(1))]) for g, s in LEMON_SLICES]


def test_lemon_surface_reconstruction():
    out = reconstruct_basis(lemon_slices(), lex(R3))
    assert strings(out) == ["x^2 +y^6 -3*y^5 +3*y^4 -y^3 +z^2"]
    surface = out.elements[0]
    # x^2 + z^2 - y^3*(1-y)^3
    assert surface == p("x^2 +z^2", R3) - p("y", R3) ** 3 * p("1 -y", R3) ** 3


def test_lemon_reconstruction_certified_against_basis():
    factored = p("x^2 +z^2", R3) - p("y", R3) ** 3 * p("1 -y", R3) ** 3
    target = groebner_basis(lex(R3), [factored])
    out = reconstruct_basis(lemon_slices(), lex(R3))
    assert all(is_member(g, target) for g in out)
    assert out.is_reduced


def test_lemon_reconstruction_needs_lex():
    # under a degree-compatible ordering the lifted y^6 overtakes the
    # slice leading term x^2, and the reconstruction must say so
    with pytest.raises(LTDrift):
        reconstruct_basis(lemon_slices(), degrevlex(R3))


def test_reconstruction_rejects_mismatched_slices():
    sub = R2.drop(1)
    bases = [[p("x", sub)], [p("x^2", sub)]]
    with pytest.raises(NonGenericSlices):
        reconstruct_basis(list(zip(parallel(R2, "y", [0, 1]), bases)), degrevlex(R2))


def test_reconstruction_membership_failure():
    sub = R2.drop(1)
    bases = [[p("x +1", sub)], [p("x +2", sub)]]
    target = groebner_basis(degrevlex(R2), [p("x", R2)])
    out = reconstruct_basis(list(zip(parallel(R2, "y", [0, 1]), bases)), degrevlex(R2))
    # the lift is returned unchecked, and it is not in the target
    assert strings(out) == ["x +y +1"]
    assert not is_member(out.elements[0], target)


def test_multi_element_reconstruction():
    order = degrevlex(R3)
    gens = [p("x^2 -y", R3), p("y^2 -z*x", R3)]
    gb = groebner_basis(order, gens)
    slices = [(form, list(section_basis(gb, form).elements))
              for form in parallel(R3, "z", [2, -2, 3, -3, 4])]
    out = reconstruct_basis(slices, order)
    assert all(is_member(g, gb) for g in out)
    assert list(out.elements) == list(gb.elements)


# -- implicitization -------------------------------------------------


def test_gamma_stream_is_deterministic(monkeypatch):
    monkeypatch.delenv("SLICEGB_SEED", raising=False)
    first = list(itertools.islice(gamma_stream(), 6))
    assert first == [Fraction(v) for v in (2, -2, 3, -3, 4, -4)]
    assert list(itertools.islice(gamma_stream(), 6)) == first
    monkeypatch.setenv("SLICEGB_SEED", "2")
    shifted = list(itertools.islice(gamma_stream(), 3))
    assert shifted == [Fraction(v) for v in (4, -4, 5)]


def test_gamma_stream_reads_environment(monkeypatch):
    monkeypatch.setenv("SLICEGB_SEED", "3")
    assert next(gamma_stream()) == Fraction(5)
    monkeypatch.delenv("SLICEGB_SEED")
    assert next(gamma_stream()) == Fraction(2)


def test_implicitize_parabola_both_modes():
    par = ring("t")
    coords = ring("x", "y")
    images = [p("t", par), p("t^2", par)]
    elim = implicitize(par, coords, images)
    assert format_polynomial(degrevlex(coords), elim) == "x^2 -y"
    sliced = implicitize(par, coords, images, mode="slice", pivot="y")
    assert sliced == elim


def test_implicitize_pinch_point_surface():
    par = ring("u", "v")
    coords = ring("x", "y", "z")
    images = [p("u*v", par), p("u", par), p("v^2", par)]
    elim = implicitize(par, coords, images)
    assert format_polynomial(degrevlex(coords), elim) == "y^2*z -x^2"
    for pivot in ("y", "z"):
        assert implicitize(par, coords, images, mode="slice", pivot=pivot) == elim


def test_implicitize_verifies_result():
    par = ring("s", "t")
    coords = ring("x", "y", "z")
    images = [p("s", par), p("t", par), p("s*t -s^3", par)]
    out = implicitize(par, coords, images, mode="slice", pivot="z")
    assert compose(out, images, par).is_zero()
    assert out == implicitize(par, coords, images)


def test_implicitize_rejects_bad_shapes():
    par = ring("t")
    coords = ring("x", "y")
    images = [p("t", par), p("t^2", par)]
    with pytest.raises(ValueError):
        implicitize(par, ring("x", "y", "z"), images)
    with pytest.raises(ValueError):
        implicitize(par, coords, images, mode="slice")
    with pytest.raises(ValueError):
        implicitize(par, coords, images, mode="nonsense")
    with pytest.raises(ValueError):
        implicitize(par, ring("t", "y"), [p("t", par), p("t^2", par)])
    with pytest.raises(ValueError):
        implicitize(par, coords, [p("t", par), p("1", par)], mode="slice", pivot="y")


def test_implicitize_nonprincipal():
    # the image of a line in 3-space is a curve, not a hypersurface
    par = ring("t")
    coords = ring("x", "y", "z")
    with pytest.raises(ValueError):
        implicitize(par, coords, [p("t", par), p("t^2", par), p("t^3", par)])
    par2 = ring("s", "t")
    with pytest.raises(NonPrincipal):
        # constant images collapse the surface to a point
        implicitize(par2, coords, [p("1", par2), p("2", par2), p("3", par2)])


# images of 1-2 terms of degree <= 2 in s, t, the constant included
MAP_MONOMIALS = ["1", "s", "t", "s^2", "s*t", "t^2"]
map_images = st.lists(
    st.tuples(st.sampled_from(MAP_MONOMIALS), st.sampled_from([-3, -2, -1, 1, 2, 3])),
    min_size=1, max_size=2, unique_by=lambda term: term[0],
).map(lambda terms: " ".join(f"{c:+d}*{m}" for m, c in terms).lstrip("+"))


def leading_coefficient_involves(f, i):
    """Whether the leading coefficient of ``f``, viewed over its part
    without variable ``i`` under the ordering pivoted at ``i`` with ``i``
    deleted, involves variable ``i``."""
    sub = PivotDegRev(f.ring.arity, i).restrict(i)
    lead = max((pp_drop(t, i) for t in f.terms), key=sub.key)
    return any(t[i] for t in f.terms if pp_drop(t, i) == lead)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.tuples(map_images, map_images, map_images))
# the two give-ups of slice mode on a seeded sample of such maps, pivot z
@example(("-s", "-2*s -2*s*t", "-t"))
@example(("2*t -s^2", "-2*s*t", "-3*s"))
def test_slice_mode_matches_eliminate_mode_on_small_maps(texts):
    # slice mode prints eliminate mode's equation up to sign at every
    # pivot with a nonconstant image, or gives up where the equation's
    # leading coefficient away from the pivot involves the pivot
    par, coords = ring("s", "t"), ring("x", "y", "z")
    images = [p(text, par) for text in texts]
    try:
        equation = implicitize(par, coords, images)
    except NonPrincipal:
        return
    for i, name in enumerate(coords.names):
        if images[i].is_constant():
            continue
        try:
            sliced = implicitize(par, coords, images, mode="slice", pivot=name)
        except RetryLimitExceeded:
            assert leading_coefficient_involves(equation, i), (texts, name)
            continue
        assert sliced in (equation, -equation), (texts, name)


PINCH = (["u", "v"], ["u*v", "u", "v^2"])
# the slice z = -2 is the parameter line s = 0, which maps to a point
POINT_SLICE = (["s", "t"], ["s*t", "s*t^2", "s -2"])


def surface_map(params, images):
    par = ring(*params)
    return par, ring("x", "y", "z"), [p(text, par) for text in images]


def count_slices(monkeypatch):
    """Record the slice constant of every slice elimination run in this process."""
    seen = []
    job = sections._slice_curve_job

    def counted(args):
        seen.append(args[-1])
        return job(args)

    monkeypatch.setattr(sections, "_slice_curve_job", counted)
    return seen


@pytest.mark.parametrize("case, pivot, computed, lifts", [
    # x^2 is even in the pivot x, so the second slice repeats the first;
    # the constant interpolant fails the certificate and the scan reads on
    (PINCH, "x", [2, -2, 3, -3], [2, 4]),
    (POINT_SLICE, "z", [2, -2, 3, -3], [3]),
])
def test_implicitize_stops_without_recomputing_a_slice(monkeypatch, case, pivot, computed, lifts):
    # the scan stops at the first slice the earlier ones predict, pivot
    # degree + 2 slices in; no slice is eliminated twice and none of the
    # gamma stream is skipped
    par, coords, images = surface_map(*case)
    elim = implicitize(par, coords, images)
    seen = count_slices(monkeypatch)
    lifted = []
    lifting = sections.common_lifting

    def counted_lifting(cuts, values):
        lifted.append(len(values))
        return lifting(cuts, values)

    monkeypatch.setattr(sections, "common_lifting", counted_lifting)
    sliced = implicitize(par, coords, images, mode="slice", pivot=pivot)
    assert sliced == elim
    assert seen == computed == list(itertools.islice(gamma_stream(), len(computed)))
    assert lifted == lifts
    # workers cannot import the counting wrapper
    monkeypatch.undo()
    parallel = implicitize(par, coords, images, mode="slice", pivot=pivot, jobs=2)
    assert format_polynomial(degrevlex(coords), parallel) == format_polynomial(degrevlex(coords), sliced)


@pytest.mark.parametrize("pivot_image, kept", [
    # the slice at 2 comes first and has the smaller leading term x*y, so
    # the slice at -2 starts the kept slices afresh
    ("s*t +2", [-2, 3, -3, 4]),
    # the slice at -2 comes after a larger leading term and is skipped
    ("s*t -2", [2, 3, -3, 4]),
], ids=["reset", "skip"])
def test_implicitize_keeps_only_slices_of_the_largest_leading_term(monkeypatch, pivot_image, kept):
    # x*y^2 = (z -/+ 2)^2, and at z = +/-2 the image of the slice is the
    # two axes x*y = 0: a proper factor of the slice of the surface
    par, coords, images = surface_map(["s", "t"], ["s^2", "t", pivot_image])
    elim = implicitize(par, coords, images)
    families = []
    lifting = sections.common_lifting

    def recorded_lifting(cuts, values):
        families.append(tuple(cut.gamma for cut in cuts))
        return lifting(cuts, values)

    monkeypatch.setattr(sections, "common_lifting", recorded_lifting)
    assert implicitize(par, coords, images, mode="slice", pivot="z") == elim
    assert families == [tuple(map(Fraction, kept))]


def test_implicitize_gives_up_at_the_degree_bound(monkeypatch):
    # x*z - y normalizes on each slice to x - y/gamma, which is no
    # polynomial in gamma; the degree bound 2 caps the scan at 4 slices
    par, coords, images = surface_map(["s", "t"], ["s", "s*t", "t"])
    seen = count_slices(monkeypatch)
    with pytest.raises(RetryLimitExceeded):
        implicitize(par, coords, images, mode="slice", pivot="z")
    assert seen == [2, -2, 3, -3]


class InlinePool:
    """Stands in for the process pool: runs each call when it is
    submitted, starts no process, and records the worker count asked
    for and how many calls were in flight at once."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = self.taken = self.most_in_flight = 0
        InlinePool.made.append(self)

    def submit(self, fn, arg):
        self.submitted += 1
        self.most_in_flight = max(self.most_in_flight, self.submitted - self.taken)
        future = TakenFuture(self)
        future.set_result(fn(arg))
        return future

    def shutdown(self, cancel_futures=False):
        pass


class TakenFuture(Future):
    """A future that counts the reads of its result on its pool."""

    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def result(self, timeout=None):
        self.pool.taken += 1
        return super().result(timeout)


@pytest.fixture
def inline_pool(monkeypatch):
    InlinePool.made = []
    monkeypatch.setattr(sections, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sections.os, "cpu_count", lambda: 3)
    return InlinePool.made


def test_map_slices_bounds_workers_and_calls_in_flight(inline_pool):
    assert list(map_slices(abs, range(-9, 0), jobs=10 ** 5)) == list(range(9, 0, -1))
    assert list(map_slices(abs, range(-9, 0), jobs=2)) == list(range(9, 0, -1))
    huge, two = inline_pool
    assert (huge.max_workers, two.max_workers) == (3, 2)
    assert huge.most_in_flight == 3 and huge.taken == 9
    assert two.most_in_flight == 2 and two.taken == 9
    assert list(map_slices(abs, [-1, -2], jobs=1)) == [1, 2]
    assert len(inline_pool) == 2  # one job runs in process


def test_implicitize_runs_fewer_slices_than_workers_past_the_stop(monkeypatch, inline_pool):
    par, coords, images = surface_map(*POINT_SLICE)
    seen = count_slices(monkeypatch)
    one = implicitize(par, coords, images, mode="slice", pivot="z")
    computed = list(seen)
    seen.clear()
    many = implicitize(par, coords, images, mode="slice", pivot="z", jobs=10 ** 5)
    assert many == one
    (pool,) = inline_pool
    assert pool.max_workers == 3 and pool.most_in_flight == 3
    # the degenerate slice at -2 is replaced from the stream, and the
    # two calls in flight past the stopping slice are the next two
    # slices of the stream
    assert computed == [2, -2, 3, -3]
    assert seen == list(itertools.islice(gamma_stream(), len(computed) + 2))
    assert pool.submitted == len(seen) and pool.taken == len(computed)


def test_closing_map_slices_ends_running_workers():
    start = time.perf_counter()
    results = map_slices(time.sleep, [0, 60, 60], jobs=2)
    assert next(results) is None
    results.close()
    assert time.perf_counter() - start < 10
    assert multiprocessing.active_children() == []


def test_map_slices_passes_errors_on_and_reaps_workers():
    with pytest.raises(ValueError):
        list(map_slices(int, ["1", "x", "2", "3"], jobs=2))
    assert multiprocessing.active_children() == []


# -- slice files -----------------------------------------------------


def test_load_slice_file():
    text = """
    {"ring": "QQ[x,y,z]", "order": "lex", "pivot": "y",
     "slices": [{"gamma": "2", "generators": ["x^2 +z^2 +8"]},
                {"gamma": "-2", "generators": ["x^2 +z^2 +216"]}]}
    """
    out = parse_slice_json(json.loads(text))
    assert [form for form, _ in out.slices] == parallel(R3, "y", [2, -2])
    assert out.order_name == "lex"
    assert out.slices[0][1] == [p("x^2 +z^2 +8", ring("x", "z"))]


def test_load_slice_file_with_tail():
    text = """
    {"ring": "QQ[x,y]", "pivot": "x", "tail": {"y": "1/2"},
     "slices": [{"gamma": 0, "generators": ["y"]}]}
    """
    out = parse_slice_json(json.loads(text))
    assert [form for form, _ in out.slices] == parallel(R2, "x", [0], {"y": Fraction(1, 2)})
    assert out.order_name is None


@pytest.mark.parametrize(
    "text",
    [
        '{"pivot": "x", "slices": []}',
        '{"ring": "QQ[x,y]", "pivot": "x", "slices": []}',
        '{"ring": "QQ[x,y]", "pivot": "x", "slices": [{"gamma": "1"}]}',
        '{"ring": "QQ[x,y]", "pivot": "w", "slices": [{"gamma": "1", "generators": []}]}',
        '{"ring": "QQ[x,y]", "pivot": "x", "slices": [{"gamma": "1", "generators": ["x"]}]}',
        '{"ring": "QQ[x,y]", "pivot": "x", "tail": [1], "slices": [{"gamma": "1", "generators": ["y"]}]}',
        '{"ring": "QQ[x,y]", "pivot": "x", "order": 5, "slices": [{"gamma": "1", "generators": ["y"]}]}',
        '{"ring": "QQ[x,y]", "pivot": "x", "slices": [{"gamma": "1", "generators": "y"}]}',
        '{"ring": "QQ[x,y]", "pivot": "y", "tail": {"x": 1}, "slices": [{"gamma": "1", "generators": ["x"]}]}',
    ],
)
def test_load_slice_file_errors(text):
    with pytest.raises((ParseError, KeyError, ValueError)):
        parse_slice_json(json.loads(text))


# -- section and lift round trip on random ideals --------------------


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_section_then_lift_round_trip(data):
    # any monic basis whose leading terms avoid some variable slices to
    # a basis downstairs and certifies back upstairs unchanged
    order = degrevlex(R3)
    gens = data.draw(
        st.lists(nonzero_polynomials(R3, max_degree=3, max_terms=3), min_size=1,
                 max_size=2),
        label="generators",
    )
    gb = groebner_basis(order, gens)
    pivot = next(
        (i for i in range(3) if all(g.leading_power_product(order)[i] == 0 for g in gb)),
        None,
    )
    if pivot is None or len(gb) > 6:
        return
    gamma = data.draw(fractions(max_num=4, max_den=2), label="gamma")
    form = LinearForm(R3, pivot, (), Fraction(gamma))
    sliced = section_basis(gb, form)
    down = groebner_basis(sliced.order, [form.apply(g) for g in gb])
    assert list(down.elements) == list(sliced.elements)
    lifted = verify_lifting(Ideal.of(R3, list(gb.elements)), list(gb.elements), form, order)
    assert list(lifted.elements) == list(gb.elements)
    assert lifted.is_minimal and lifted.is_reduced
