"""Polynomial gcd and the fraction type built on it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fractions, nonzero_polynomials, polynomials
from slicegb import ratfunc
from slicegb.groebner import exact_divide, groebner_basis, normal_form
from slicegb.orders import DegRevLex
from slicegb.parsing import parse_polynomial
from slicegb.poly import Polynomial
from slicegb.ratfunc import RationalFunction, polynomial_gcd
from slicegb.rings import ring

A = ring("a", "b", "c")
T = ring("t")


def p(text, r=A):
    return parse_polynomial(r, text)


# -- gcd -------------------------------------------------------------


def test_gcd_univariate():
    assert polynomial_gcd(p("t^4 -1", T), p("t^2 -1", T)) == p("t^2 -1", T)
    assert polynomial_gcd(p("t^2 +1", T), p("t^2 -1", T)) == p("1", T)


def test_gcd_multivariate():
    assert polynomial_gcd(p("a^2 -b^2"), p("a -b")) == p("a -b")
    assert polynomial_gcd(p("a*b"), p("a*c")) == p("a")
    f, g, h = p("a +b"), p("a -b"), p("a*c +1")
    assert polynomial_gcd(f * h, g * h) == h


def test_gcd_is_monic():
    assert polynomial_gcd(p("2*a^2*b +2*a*b^2"), p("4*a*b")) == p("a*b")
    assert polynomial_gcd(p("-3*a +3*b"), p("6*a -6*b")) == p("a -b")


def test_gcd_degenerate_inputs():
    zero = Polynomial.zero(A)
    assert polynomial_gcd(zero, p("3*a -3")) == p("a -1")
    assert polynomial_gcd(p("3*a -3"), zero) == p("a -1")
    assert polynomial_gcd(zero, zero) == zero
    assert polynomial_gcd(p("5"), p("a^2 +b")) == p("1")


def test_gcd_argument_order_irrelevant():
    # a^3*c -a*c = a*c*(a -1)*(a +1) shares the factor a*(a +1) with a^2 +a
    f, g = p("a^3*c -a*c"), p("a^2 +a")
    assert polynomial_gcd(f, g) == polynomial_gcd(g, f) == p("a^2 +a")


@settings(max_examples=50, deadline=None)
@given(
    nonzero_polynomials(A, max_degree=2, max_terms=3),
    nonzero_polynomials(A, max_degree=2, max_terms=3),
    nonzero_polynomials(A, max_degree=2, max_terms=2),
)
def test_gcd_divides_and_collects_common_factors(f, g, h):
    d = polynomial_gcd(f * h, g * h)
    # d is a common divisor and picks up the planted factor h
    for target in (f * h, g * h):
        q = exact_divide(target, d)
        assert q * d == target
    q = exact_divide(d, polynomial_gcd(d, h))
    assert q * polynomial_gcd(d, h) == d


def remainder_sequence_gcd(f, g):
    """The gcd by the primitive remainder sequence alone, made monic."""
    h = ratfunc._gcd(f, g)
    return h.monic(DegRevLex(h.ring.arity)) if h else h


def gcd_inputs(r):
    """Products ``a*c`` and ``b*c``, some with large coefficients, and
    the factors themselves, which may be zero or constant."""
    small = polynomials(r, max_degree=3, max_terms=3)
    large = polynomials(r, max_degree=2, max_terms=3, coeffs=fractions(10**6, 10**3))
    return st.tuples(small | large, small, small)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([ring("a", "b"), A]).flatmap(gcd_inputs))
def test_gcd_matches_the_remainder_sequence(factors):
    a, b, c = factors
    for f, g in [(a * c, b * c), (a, c), (c, a * c)]:
        got, expected = polynomial_gcd(f, g), remainder_sequence_gcd(f, g)
        assert got == expected and repr(got) == repr(expected)


def test_gcd_refuses_a_candidate_with_wrong_coefficients():
    # t*(t +2)^2 and -(3*t -2)*(t +2) at the first evaluation point 10:
    # gcd(1440, 336) = 48 lifts to 5*t -2, whose exponents divide both
    # inputs but whose leading coefficient 5 does not divide t^3; only
    # the coefficient check of the trial division refuses it, and the
    # next point 27 gives gcd(22707, 2291) = 29, which lifts to t +2
    f, g = p("t^3 +4*t^2 +4*t", T), p("-3*t^2 -4*t +4", T)
    assert ratfunc._lift({(0,): 48}, 0, 10) == {(1,): 5, (0,): -2}
    assert polynomial_gcd(f, g) == p("t +2", T)


def test_gcd_falls_back_to_the_remainder_sequence(monkeypatch):
    # no candidate divides: all six evaluation points fail at every level
    monkeypatch.setattr(ratfunc, "_int_quotient", lambda a, h: None)
    f, g, h = p("a +b"), p("a -b"), p("a*c +1")
    assert polynomial_gcd(f * h, g * h) == h
    assert repr(polynomial_gcd(p("2*a^2*b +2*a*b^2"), p("4*a*b +4*b^2"))) == "a*b +b^2"


# -- construction and normal form ------------------------------------


def test_fraction_reduces_on_construction():
    r = RationalFunction(p("a^2 -1"), p("a -1"))
    assert r.num == p("a +1")
    assert r.den == p("1")
    assert r.is_polynomial()
    assert r.as_polynomial() == p("a +1")


def test_fraction_denominator_made_monic():
    r = RationalFunction(p("a"), p("2*b"))
    assert r.num == p("1/2*a")
    assert r.den == p("b")
    with pytest.raises(ValueError):
        r.as_polynomial()


def test_fraction_zero_is_canonical():
    r = RationalFunction(Polynomial.zero(A), p("a*b +c"))
    assert not r
    assert r.den == p("1")


def test_fraction_rejects_bad_input():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(p("a"), Polynomial.zero(A))
    with pytest.raises(ValueError):
        RationalFunction(p("a"), p("t", T))


def test_products_reduce_and_equality_cross_multiplies():
    r = RationalFunction(p("a^2 -1"), p("a -1"))
    s = r * RationalFunction(p("a -1"), p("a +1"))
    assert (s.num, s.den) == (p("a -1"), p("1"))
    # a pair left unreduced still equals its reduced form
    u = RationalFunction._reduced(p("a^2 -1"), p("a -1"))
    assert u.den == p("a -1")
    assert u == r and r == u
    assert u == p("a +1")
    assert u * RationalFunction(p("a -1")) == p("a^2 -1")


# -- arithmetic ------------------------------------------------------


def test_fraction_field_identities():
    r = RationalFunction(p("a"), p("a +1"))
    s = RationalFunction(p("1"), p("a +1"))
    assert r + s == 1
    assert r - r == 0
    assert r * RationalFunction(p("a +1"), p("a")) == 1
    assert (r / s) == p("a")
    assert -(-r) == r


def test_fraction_mixes_with_scalars_and_polynomials():
    r = RationalFunction(p("a"), p("b"))
    assert 1 + r == RationalFunction(p("a +b"), p("b"))
    assert Fraction(1, 2) * r == RationalFunction(p("a"), p("2*b"))
    assert 3 / r == RationalFunction(p("3*b"), p("a"))
    assert p("b") * r == p("a")
    assert 2 - r == RationalFunction(p("2*b -a"), p("b"))


def test_fraction_division_by_zero():
    r = RationalFunction(p("a"))
    z = RationalFunction.zero(A)
    with pytest.raises(ZeroDivisionError):
        r / z
    with pytest.raises(ZeroDivisionError):
        1 / z
    with pytest.raises(ZeroDivisionError):
        z ** -1


def test_fraction_powers():
    r = RationalFunction(p("a"), p("b"))
    assert r ** 2 == RationalFunction(p("a^2"), p("b^2"))
    assert r ** -2 == RationalFunction(p("b^2"), p("a^2"))
    assert r ** 0 == 1


def test_fraction_sign_and_repr():
    assert RationalFunction(p("-a")) < 0
    assert not (RationalFunction(p("a")) < 0)
    assert repr(RationalFunction(p("a -b"), p("c"))) == "(a -b)/(c)"
    assert repr(RationalFunction(p("a^2 -1"), p("a -1"))) == "a +1"


def test_fraction_evaluate():
    r = RationalFunction(p("a +b"), p("c"))
    assert r.evaluate([1, 2, 3]) == Fraction(1)
    with pytest.raises(ZeroDivisionError):
        r.evaluate([1, 2, 0])


@settings(max_examples=40, deadline=None)
@given(
    polynomials(A, max_degree=2, max_terms=3),
    nonzero_polynomials(A, max_degree=2, max_terms=2),
    nonzero_polynomials(A, max_degree=2, max_terms=2),
)
def test_fraction_arithmetic_matches_cross_multiplication(f, g, h):
    r = RationalFunction(f, g)
    s = RationalFunction(p("1"), h)
    total = r + s
    assert total.num * (g * h) == (f * h + g) * total.den
    prod = r * s
    assert prod.num * (g * h) == f * prod.den


# -- the basis engine over a fraction field --------------------------


def test_engine_runs_over_fraction_coefficients():
    X = ring("x", "y")
    order = DegRevLex(2)
    t = RationalFunction(p("t", T))
    one = RationalFunction.one(T)
    fx = Polynomial(X, {(1, 0): one}) - Polynomial.constant(X, t)
    fy = Polynomial(X, {(0, 1): one}) - Polynomial.constant(X, t ** 2)
    gb = groebner_basis(order, [fx, fy])
    assert [g.leading_power_product(order) for g in gb.elements] == [
        (0, 1),
        (1, 0),
    ]
    xy = Polynomial(X, {(1, 1): one})
    assert normal_form(order, xy, gb.elements) == Polynomial.constant(X, t ** 3)


def test_monic_scaling_over_fractions():
    X = ring("x", "y")
    order = DegRevLex(2)
    t = RationalFunction(p("t", T))
    f = Polynomial(X, {(2, 0): t, (0, 1): t ** 2})
    m = f.monic(order)
    assert m.terms[(2, 0)] == 1
    assert m.terms[(0, 1)] == t
