"""Reduced Groebner bases and elimination ideals of small random ideals
against sympy's ``groebner``, an implementation that shares no code with
slicegb."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import nonzero_polynomials
from slicegb.groebner import Ideal, eliminate, groebner_basis
from slicegb.orders import DegLex, DegRevLex, Lex
from slicegb.rings import ring

sympy = pytest.importorskip("sympy")

R3 = ring("x", "y", "z")
SYMBOLS = sympy.symbols(R3.names)
ORDERS = {"lex": Lex(3), "grlex": DegLex(3), "grevlex": DegRevLex(3)}


def to_sympy(g, symbols=SYMBOLS):
    terms = {t: sympy.Rational(c.numerator, c.denominator) for t, c in g.terms.items()}
    return sympy.Poly.from_dict(terms, *symbols, domain="QQ")


@pytest.mark.parametrize("name", ORDERS)
@settings(max_examples=15, deadline=None)
@given(st.lists(nonzero_polynomials(R3, max_degree=3, max_terms=3), min_size=1, max_size=3))
def test_reduced_basis_matches_sympy(name, gens):
    order = ORDERS[name]
    theirs = sympy.groebner([to_sympy(g) for g in gens], *SYMBOLS, order=name, domain="QQ")
    assert theirs.gens == tuple(SYMBOLS)
    ours = groebner_basis(order, gens)
    # both monic and unique, so equal as sets; ordered by leading terms
    # in each ordering, which checks that the two orderings agree
    monic = [p.exquo_ground(p.LC(order=name)) for p in theirs.polys]
    expected = sorted(monic, key=lambda p: order.key(p.monoms(order=name)[0]))
    assert [to_sympy(g) for g in ours] == expected
    assert [g.leading_power_product(order) for g in ours] == [p.monoms(order=name)[0] for p in expected]


@pytest.mark.parametrize("drop", [1, 2], ids=["x", "x,y"])
@settings(max_examples=10, deadline=None)
@given(st.lists(nonzero_polynomials(R3, max_degree=2, max_terms=3), min_size=1, max_size=3))
def test_eliminate_matches_sympy(drop, gens):
    # the lex basis elements free of the dropped variables generate the
    # elimination ideal; eliminate presents it by its grevlex reduced basis
    dropped, kept = SYMBOLS[:drop], SYMBOLS[drop:]
    lex_basis = sympy.groebner([to_sympy(g) for g in gens], *SYMBOLS, order="lex", domain="QQ")
    free = [p.as_expr() for p in lex_basis.polys if not any(p.degree(s) for s in dropped)]
    theirs = sympy.groebner(free, *kept, order="grevlex", domain="QQ").polys if free else []
    ours = eliminate(Ideal.of(R3, gens), range(drop))
    assert ours.ring.names == R3.names[drop:]
    expected = {p.exquo_ground(p.LC(order="grevlex")) for p in theirs}
    assert {to_sympy(g, kept) for g in ours.generators} == expected
    assert len(ours.generators) == len(expected)
