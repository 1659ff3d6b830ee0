from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fractions, nonzero_polynomials, polynomials, power_products
from slicegb.orders import DegRevLex, Lex
from slicegb.poly import Polynomial, compose, exact_divide
from slicegb.ratfunc import RationalFunction
from slicegb.rings import ring

R2 = ring("x", "y")
R3 = ring("x", "y", "z")


def p(text, r=R3):
    from slicegb.parsing import parse_polynomial

    return parse_polynomial(r, text)


def test_binomial_square():
    assert p("(x+y)*(x+y)") == p("x^2 + 2*x*y + y^2")


def test_product_example():
    assert p("(x+y+z)*(x-y)") == p("x^2 - y^2 + x*z - y*z")


def test_zero_handling():
    z = Polynomial.zero(R3)
    assert not z
    assert p("x") - p("x") == z
    assert z * p("x+y") == z
    with pytest.raises(ValueError):
        z.total_degree()
    with pytest.raises(ValueError):
        z.leading_term(DegRevLex(3))


def test_constant_and_variable():
    c = Polynomial.constant(R3, Fraction(3, 2))
    assert c.constant_value() == Fraction(3, 2)
    assert c.is_constant()
    v = Polynomial.variable(R3, "y")
    assert v.terms == {(0, 1, 0): 1}
    with pytest.raises(KeyError):
        Polynomial.variable(R3, "w")


def test_degrees():
    f = p("x^2*y + z^5 - 1")
    assert f.total_degree() == 5
    assert f.degree_in(2) == 5
    assert f.degree_in(0) == 2
    assert not f.is_homogeneous()
    assert p("x^2*y + z^3").is_homogeneous()


def test_leading_term_depends_on_order():
    f = p("x^2 + y^3", R2)
    assert f.leading_power_product(DegRevLex(2)) == (0, 3)
    assert f.leading_power_product(Lex(2)) == (2, 0)


def test_monic():
    f = p("3*x^2 + 6*y")
    m = f.monic(DegRevLex(3))
    assert m == p("x^2 + 2*y")
    assert m.monic(DegRevLex(3)) is m


def test_power():
    assert p("x+1") ** 3 == p("x^3 + 3*x^2 + 3*x + 1")
    assert p("x+y") ** 0 == Polynomial.constant(R3, 1)


def test_evaluate():
    f = p("x^2*y - z + 1/2")
    assert f.evaluate([Fraction(2), Fraction(3), Fraction(1)]) == Fraction(23, 2)
    with pytest.raises(ValueError):
        f.evaluate([Fraction(1)])


def test_substitute_example():
    f = p("x^2 + y", R2)
    g = f.substitute(0, p("y - 1", R2))
    assert g == p("y^2 - y + 1", R2)


def test_project_and_embed():
    f = p("x^2 + z")
    with pytest.raises(ValueError):
        f.project_drop(2)
    g = p("x^2 + y").project_drop(2)
    assert g.ring == R2
    assert g == p("x^2 + y", R2)
    back = g.embed_insert(2, "z")
    assert back == p("x^2 + y")


def test_ring_mismatch():
    with pytest.raises(ValueError):
        p("x", R2) + p("x")


@settings(max_examples=60)
@given(polynomials(R3), polynomials(R3), polynomials(R3))
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + Polynomial.zero(R3) == f
    assert f - f == Polynomial.zero(R3)


@settings(max_examples=60)
@given(polynomials(R3), polynomials(R3), st.integers(0, 2), polynomials(R3, max_degree=2, max_terms=3))
def test_substitute_is_a_ring_map(f, g, i, value):
    assert (f + g).substitute(i, value) == f.substitute(i, value) + g.substitute(i, value)
    assert (f * g).substitute(i, value) == f.substitute(i, value) * g.substitute(i, value)


@settings(max_examples=60)
@given(polynomials(R3), st.integers(0, 2), polynomials(R3, max_degree=2, max_terms=3),
       st.lists(polynomials(R2, max_degree=2, max_terms=3), min_size=3, max_size=3),
       st.lists(fractions(), min_size=3, max_size=3))
def test_substitute_and_compose_agree_with_evaluation(f, i, value, images, point):
    # x_i := value, then evaluating, is evaluating with x_i set to value(point)
    moved = list(point)
    moved[i] = value.evaluate(point)
    assert f.substitute(i, value).evaluate(point) == f.evaluate(moved)
    # the ring map x, y, z -> images, then evaluating, is evaluating at the images' values
    at = point[:2]
    assert compose(f, images, R2).evaluate(at) == f.evaluate([g.evaluate(at) for g in images])


P = ring("a")


def over_p(f):
    """``f`` with each coefficient promoted to a constant rational
    function, which ``substitute`` takes through its generic loop."""
    return Polynomial(f.ring, {t: RationalFunction(Polynomial.constant(P, c)) for t, c in f.terms.items()})


def back_to_q(f):
    assert all(c.den == 1 for c in f.terms.values())
    return Polynomial(f.ring, {t: c.num.constant_value() for t, c in f.terms.items()})


DENOMINATED = fractions(max_num=9, max_den=12)


@settings(max_examples=80, deadline=None)
@given(polynomials(R3, coeffs=DENOMINATED), st.integers(0, 2),
       polynomials(R3, max_degree=2, max_terms=3, coeffs=DENOMINATED))
def test_substitute_over_q_agrees_with_the_generic_loop(f, i, value):
    kernel = f.substitute(i, value)
    assert all(type(c) is Fraction for c in kernel.terms.values())
    assert back_to_q(over_p(f).substitute(i, over_p(value))) == kernel
    # the families path: rational-function coefficients, a value over Q
    assert back_to_q(over_p(f).substitute(i, value)) == kernel


def test_compose_rejects_coefficients_outside_q():
    f, images = p("x^2 +1/2*y"), [p("x", R2), p("y", R2), p("x*y", R2)]
    assert compose(f, images, R2) == p("x^2 +1/2*y", R2)
    with pytest.raises(TypeError, match="over Q"):
        compose(over_p(f), images, R2)
    with pytest.raises(TypeError, match="over Q"):
        compose(f, [over_p(g) for g in images], R2)
    with pytest.raises(TypeError, match="over Q"):
        compose(Polynomial(R3, {(1, 0, 0): 2}), images, R2)


def test_compose_takes_high_powers_without_recursion():
    # one product per power, in a loop: a degree past the recursion
    # limit composes
    S = ring("s")
    assert compose(p("x^3000", ring("x")), [p("s", S)], S) == p("s^3000", S)


# -- exact division ----------------------------------------------------

LARGE = fractions(max_num=10 ** 15, max_den=10 ** 12)


def division_inputs(r):
    """A quotient ``f`` and a divisor ``g`` in the ring ``r``: ``g`` is a
    polynomial, a constant or a monomial, and either may carry
    coefficients with large numerators and denominators."""
    nonzero = LARGE.filter(bool)
    divisors = st.one_of(
        nonzero_polynomials(r, max_degree=2, max_terms=3),
        nonzero_polynomials(r, max_degree=2, max_terms=3, coeffs=LARGE),
        nonzero.map(lambda c: Polynomial.constant(r, c)),
        st.tuples(power_products(r.arity, 3), nonzero).map(lambda tc: Polynomial(r, {tc[0]: tc[1]})),
    )
    quotients = polynomials(r, max_degree=3, max_terms=4) | polynomials(r, max_degree=2, max_terms=3, coeffs=LARGE)
    return st.tuples(quotients, divisors)


RINGS = st.sampled_from([ring("x"), R2, R3])


@settings(max_examples=100, deadline=None)
@given(RINGS.flatmap(division_inputs))
def test_exact_divide_recovers_the_quotient(inputs):
    f, g = inputs
    q = exact_divide(f * g, g)
    assert q == f
    assert all(type(c) is Fraction for c in q.terms.values())


@settings(max_examples=60, deadline=None)
@given(RINGS.flatmap(division_inputs), LARGE.filter(bool))
def test_exact_divide_refuses_a_remainder(inputs, c):
    # a nonconstant g divides f*g + c only if it divides c
    f, g = inputs
    if g.is_constant():
        g = g + Polynomial.variable(g.ring, "x")
    with pytest.raises(ValueError, match="not an exact division"):
        exact_divide(f * g + c, g)


def test_exact_divide_examples():
    assert exact_divide(p("x^2 -y^2"), p("x -y")) == p("x +y")
    # the quotient over Z of the primitive part is scaled back to Q
    assert exact_divide(p("x +1/2"), p("6*x +3")) == p("1/6")
    assert exact_divide(p("2/3*x*y^2"), p("-4*y")) == p("-1/6*x*y")
    assert exact_divide(Polynomial.zero(R3), p("x +1")) == Polynomial.zero(R3)
    # the leading term divides, a later one does not
    with pytest.raises(ValueError):
        exact_divide(p("x*y +1"), p("x"))
    # the leading terms divide, the leading coefficients do not over Z
    with pytest.raises(ValueError):
        exact_divide(p("x"), p("2*x +3"))
    with pytest.raises(ValueError):
        exact_divide(p("x^2 +1"), p("x +1"))
    with pytest.raises(ZeroDivisionError):
        exact_divide(p("x"), Polynomial.zero(R3))


def test_exact_divide_rejects_coefficients_outside_q():
    f, g = p("x^2 -1"), p("x -1")
    with pytest.raises(TypeError, match="over Q"):
        exact_divide(over_p(f), g)
    with pytest.raises(TypeError, match="over Q"):
        exact_divide(f, over_p(g))
    with pytest.raises(TypeError, match="over Q"):
        exact_divide(Polynomial(R3, {(2, 0, 0): 1, (0, 0, 0): -1}), g)


@settings(max_examples=60)
@given(polynomials(R3), fractions(), fractions(), fractions())
def test_evaluate_is_a_ring_map(f, a, b, c):
    point = [a, b, c]
    g = p("x*y - 2*z + 1")
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
    assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


@settings(max_examples=40)
@given(polynomials(R2, max_degree=3, max_terms=4).filter(bool), polynomials(R2, max_degree=3, max_terms=4).filter(bool))
def test_leading_term_multiplicative(f, g):
    order = DegRevLex(2)
    cf, tf = f.leading_term(order)
    cg, tg = g.leading_term(order)
    cp, tp = (f * g).leading_term(order)
    assert tp == tuple(a + b for a, b in zip(tf, tg))
    assert cp == cf * cg
