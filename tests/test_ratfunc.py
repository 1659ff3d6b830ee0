"""Polynomial gcd and the fraction type built on it."""

from fractions import Fraction
from typing import Dict

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
from slicegb.rings import PowerProduct, ring

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


# -- the reference gcd: the primitive remainder sequence -------------


def _coefficient_of(f: Polynomial, v: int, e: int) -> Polynomial:
    """The coefficient of x_v^e, as a polynomial free of x_v."""
    terms = {
        t[:v] + (0,) + t[v + 1:]: c for t, c in f.terms.items() if t[v] == e
    }
    return Polynomial(f.ring, terms)


def _times_power(f: Polynomial, v: int, e: int) -> Polynomial:
    t = tuple(e if j == v else 0 for j in range(f.ring.arity))
    return f.mul_term(t, Fraction(1))


def _content(f: Polynomial, v: int) -> Polynomial:
    """Gcd of the coefficients of ``f`` read as a polynomial in x_v."""
    slices: Dict[int, Dict[PowerProduct, object]] = {}
    for t, c in f.terms.items():
        rest = t[:v] + (0,) + t[v + 1:]
        slices.setdefault(t[v], {})[rest] = c
    out = Polynomial.zero(f.ring)
    for part in slices.values():
        out = _gcd(out, Polynomial(f.ring, part))
        if out.is_constant():
            break
    return out


def _prem(f: Polynomial, g: Polynomial, v: int) -> Polynomial:
    """Pseudo-remainder of ``f`` by ``g`` in the variable x_v."""
    dg = g.degree_in(v)
    lg = _coefficient_of(g, v, dg)
    r = f
    while r and r.degree_in(v) >= dg:
        d = r.degree_in(v)
        lr = _coefficient_of(r, v, d)
        r = lg * r - _times_power(lr * g, v, d - dg)
    return r


def _gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    # unnormalised; remainder_sequence_gcd rescales once at the end
    if not f:
        return g
    if not g:
        return f
    if f.is_constant() or g.is_constant():
        return Polynomial.constant(f.ring, 1)
    v = max(
        i
        for i in range(f.ring.arity)
        if f.degree_in(i) > 0 or g.degree_in(i) > 0
    )
    if f.degree_in(v) == 0:
        return _gcd(f, _content(g, v))
    if g.degree_in(v) == 0:
        return _gcd(_content(f, v), g)
    cf = _content(f, v)
    cg = _content(g, v)
    a = exact_divide(f, cf)
    b = exact_divide(g, cg)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while b.degree_in(v) > 0:
        r = _prem(a, b, v)
        if not r:
            part = b
            break
        r = exact_divide(r, _content(r, v))
        # any scalar multiple serves; this one keeps the rationals from
        # compounding along the sequence
        a, b = b, r.scale(1 / next(iter(r.terms.values())))
    else:
        part = Polynomial.constant(f.ring, 1)
    return _gcd(cf, cg) * part


def remainder_sequence_gcd(f, g):
    """The gcd by the primitive remainder sequence alone, made monic."""
    h = _gcd(f, g)
    return h.monic(DegRevLex(h.ring.arity)) if h else h


def gcd_inputs(r):
    """Products ``a*c`` and ``b*c``, some with large coefficients, and
    the factors themselves, which may be zero or constant."""
    small = polynomials(r, max_degree=3, max_terms=3)
    large = polynomials(r, max_degree=2, max_terms=3, coeffs=fractions(10**6, 10**3))
    return st.tuples(small | large, small, small)


@pytest.mark.parametrize("route", ["heuristic", "intersection"])
def test_gcd_matches_the_remainder_sequence(route, monkeypatch):
    # the intersection route is the exact fallback, taken on every draw
    # once the heuristic gives up at once
    if route == "intersection":
        monkeypatch.setattr(ratfunc, "_heuristic_gcd", lambda a, b: None)
    examples = 60 if route == "heuristic" else 100

    @settings(max_examples=examples, deadline=None, derandomize=route == "intersection")
    @given(st.sampled_from([ring("a", "b"), A]).flatmap(gcd_inputs))
    def check(factors):
        a, b, c = factors
        for f, g in [(a * c, b * c), (a, c), (c, a * c)]:
            got, expected = polynomial_gcd(f, g), remainder_sequence_gcd(f, g)
            assert got == expected and repr(got) == repr(expected)

    check()


def test_gcd_refuses_a_candidate_with_wrong_coefficients():
    # t*(t +2)^2 and -(3*t -2)*(t +2) at the first evaluation point 10:
    # gcd(1440, 336) = 48 lifts to 5*t -2, whose exponents divide both
    # inputs but whose leading coefficient 5 does not divide t^3; only
    # the coefficient check of the trial division refuses it, and the
    # next point 27 gives gcd(22707, 2291) = 29, which lifts to t +2
    f, g = p("t^3 +4*t^2 +4*t", T), p("-3*t^2 -4*t +4", T)
    assert ratfunc._lift({(0,): 48}, 0, 10) == {(1,): 5, (0,): -2}
    assert polynomial_gcd(f, g) == p("t +2", T)


def test_gcd_falls_back_to_the_intersection(monkeypatch):
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
