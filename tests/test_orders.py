import itertools

import pytest

from helpers import all_power_products
from slicegb.orders import (
    DegLex,
    DegRevLex,
    Elim,
    Lex,
    PivotDegRev,
    order_by_name,
)
from slicegb.rings import pp_degree, pp_mul, ring


def unit_vectors(n):
    return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]


ORDERS_3 = [
    Lex(3),
    DegLex(3),
    DegRevLex(3),
    PivotDegRev(3, 0),
    PivotDegRev(3, 1),
    PivotDegRev(3, 2),
    Elim(3, [0]),
    Elim(3, [0, 1]),
]


@pytest.mark.parametrize("order", ORDERS_3, ids=lambda o: o.name)
def test_total_antisymmetric_and_one_minimal(order):
    terms = all_power_products(3, 4)
    one = (0, 0, 0)
    for s in terms:
        assert order.compare(one, s) <= 0
        for t in terms:
            c, c2 = order.compare(s, t), order.compare(t, s)
            assert c == -c2
            assert (c == 0) == (s == t)


# -- reference orderings ----------------------------------------------
# Each ordering as a sort key written from its definition, not from
# weight rows: the package derives its keys from the rows alone.


def _revneg(t):
    return tuple(-e for e in reversed(tuple(t)))


def lex_key(t):
    return t


def deglex_key(t):
    return (pp_degree(t), t)


def degrevlex_key(t):
    return (pp_degree(t), _revneg(t))


def pivot_degrev_key(pivot):
    def key(t):
        permuted = t[:pivot] + t[pivot + 1:] + (t[pivot],)
        return (pp_degree(t), _revneg(permuted))
    return key


def elim_key(front):
    def key(t):
        f = tuple(t[i] for i in front)
        b = tuple(e for i, e in enumerate(t) if i not in front)
        return (sum(f), _revneg(f), sum(b), _revneg(b))
    return key


REFERENCES = [
    (Lex(3), lex_key),
    (DegLex(3), deglex_key),
    (DegRevLex(3), degrevlex_key),
    *[(PivotDegRev(3, i), pivot_degrev_key(i)) for i in range(3)],
    *[(Elim(3, front), elim_key(front)) for front in [(0,), (0, 1), (1,), ()]],
]


@pytest.mark.parametrize("order, reference", REFERENCES, ids=[o.name for o, _ in REFERENCES])
def test_weight_rows_give_the_order(order, reference):
    rows = order.weights()
    assert len(rows) == order.n and all(a in (0, 1) for row in rows for a in row)
    terms = all_power_products(3, 4)
    for s, t in itertools.product(terms, repeat=2):
        assert (order.key(s) < order.key(t)) == (reference(s) < reference(t))
        assert (order.key(s) == order.key(t)) == (s == t)


@pytest.mark.parametrize("order", ORDERS_3, ids=lambda o: o.name)
def test_transitive_and_multiplicative(order):
    terms = all_power_products(3, 3)
    for s, t in itertools.combinations(terms, 2):
        c = order.compare(s, t)
        for u in terms:
            # multiplicativity: multiplying by u preserves the comparison
            assert order.compare(pp_mul(s, u), pp_mul(t, u)) == c
    for s, t, u in itertools.permutations(terms[:14], 3):
        if order.compare(s, t) <= 0 and order.compare(t, u) <= 0:
            assert order.compare(s, u) <= 0


@pytest.mark.parametrize("order", [Lex(4), DegLex(4), DegRevLex(4), Elim(4, [0, 1])], ids=lambda o: o.name)
def test_listed_precedence(order):
    # the listed ring order is the precedence order for these families
    vs = unit_vectors(4)
    for i in range(3):
        assert order.compare(vs[i], vs[i + 1]) > 0


@pytest.mark.parametrize("pivot", [0, 1, 2, 3])
def test_pivoted_precedence(pivot):
    # non-pivot variables keep their listed precedence; the pivot drops
    # below all of them
    order = PivotDegRev(4, pivot)
    vs = unit_vectors(4)
    rest = [v for i, v in enumerate(vs) if i != pivot]
    for a, b in zip(rest, rest[1:]):
        assert order.compare(a, b) > 0
    for v in rest:
        assert order.compare(v, vs[pivot]) > 0


def test_pivoted_tiebreak_prefers_smaller_pivot_exponent():
    order = PivotDegRev(4, 1)
    for s in all_power_products(4, 4):
        for t in all_power_products(4, 4):
            if sum(s) == sum(t) and s[1] < t[1]:
                assert order.compare(s, t) > 0


def test_last_pivot_is_degrevlex():
    a, b = DegRevLex(4), PivotDegRev(4, 3)
    for s in all_power_products(4, 4):
        for t in all_power_products(4, 4):
            assert a.compare(s, t) == b.compare(s, t)


def test_degrevlex_examples():
    order = DegRevLex(3)
    # degree decides first; equal degree prefers less weight on later variables
    assert order.compare((1, 0, 2), (0, 3, 0)) < 0
    assert order.compare((2, 0, 0), (1, 1, 0)) > 0
    assert order.compare((0, 2, 0), (1, 0, 1)) > 0


def test_lex_vs_deglex():
    assert Lex(2).compare((1, 0), (0, 100)) > 0
    assert DegLex(2).compare((1, 0), (0, 100)) < 0


def test_elim_front_dominates():
    order = Elim(3, [0])
    for s in all_power_products(3, 4):
        for t in all_power_products(3, 4):
            if s[0] > 0 and t[0] == 0:
                assert order.compare(s, t) > 0


def test_restrictions_agree_pointwise():
    # comparing pivot-free terms upstairs must match the restricted
    # ordering downstairs, for every deleted variable
    for order in ORDERS_3:
        for i in range(3):
            sub = order.restrict(i)
            for s in all_power_products(2, 4):
                for t in all_power_products(2, 4):
                    up_s = s[:i] + (0,) + s[i:]
                    up_t = t[:i] + (0,) + t[i:]
                    assert sub.compare(s, t) == order.compare(up_s, up_t), (order.name, i)


def test_restriction_kinds():
    assert DegRevLex(3).restrict(1) == DegRevLex(2)
    assert Lex(3).restrict(0) == Lex(2)
    assert PivotDegRev(3, 0).restrict(0) == DegRevLex(2)
    assert PivotDegRev(4, 2).restrict(0) == PivotDegRev(3, 1)
    assert Elim(4, [0, 2]).restrict(2) == Elim(3, [0])
    # the dropped row is neither zero nor a repeat: (0, 1) = (1, 1) - (1, 0)
    assert DegLex(3).restrict(2) == DegLex(2)
    assert Elim(3, [0]).restrict(0) == DegRevLex(2)
    # equality compares rows, not names
    assert PivotDegRev(3, 2) == DegRevLex(3) == Elim(3, [])
    assert len({PivotDegRev(3, 2), DegRevLex(3), Elim(3, [])}) == 1
    for order in ORDERS_3:
        for i in range(3):
            assert len(order.restrict(i).weights()) == order.n - 1


def test_order_by_name():
    R = ring("x", "y", "z")
    assert order_by_name(R, "lex") == Lex(3)
    assert order_by_name(R, "deglex") == DegLex(3)
    assert order_by_name(R, "degrevlex") == DegRevLex(3)
    assert order_by_name(R, "degrev:y") == PivotDegRev(3, 1)
    assert order_by_name(R, "elim:x,z") == Elim(3, [0, 2])
    with pytest.raises(ValueError):
        order_by_name(R, "weird")
    with pytest.raises(KeyError):
        order_by_name(R, "degrev:w")


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        DegRevLex(3).compare((1, 0), (0, 1))
