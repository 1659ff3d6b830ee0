"""Shared strategies and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: the
dimension oracle enumerates every variable subset, the membership
oracle solves a bounded-degree linear system for the cofactors, the
division oracle divides on exponent tuples instead of packed terms, and
the pair-queue oracle forms its lcms on exponent tuples.  The
S-polynomial, which the library forms only inside its packed kernel,
is here on polynomials.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from hypothesis import strategies as st

from slicegb.poly import Polynomial
from slicegb.orders import TermOrder
from slicegb.rings import PowerProduct, Ring, pp_degree, pp_mul


def all_power_products(n: int, max_degree: int) -> List[PowerProduct]:
    """Every exponent tuple in ``n`` variables of total degree <= max_degree."""
    out = []
    for degree in range(max_degree + 1):
        for bars in itertools.combinations(range(degree + n - 1), n - 1):
            prev = -1
            parts = []
            for b in bars:
                parts.append(b - prev - 1)
                prev = b
            parts.append(degree + n - 2 - prev)
            out.append(tuple(parts))
    return out


def from_terms(ring: Ring, terms: Dict[PowerProduct, object]) -> Polynomial:
    """The polynomial with these terms, zero coefficients dropped."""
    return Polynomial(ring, {t: c for t, c in terms.items() if c})


def fractions(max_num: int = 9, max_den: int = 4):
    return st.fractions(
        min_value=Fraction(-max_num), max_value=Fraction(max_num), max_denominator=max_den
    )


def power_products(n: int, max_degree: int = 4):
    return st.sampled_from(all_power_products(n, max_degree))


def polynomials(ring: Ring, max_degree: int = 4, max_terms: int = 6, coeffs=None):
    coeffs = fractions() if coeffs is None else coeffs
    return st.dictionaries(
        power_products(ring.arity, max_degree), coeffs, max_size=max_terms
    ).map(lambda d: from_terms(ring, d))


def nonzero_polynomials(ring: Ring, max_degree: int = 4, max_terms: int = 6, coeffs=None):
    return polynomials(ring, max_degree, max_terms, coeffs).filter(bool)


# -- independent oracles ---------------------------------------------


def pp_div(t: PowerProduct, s: PowerProduct) -> Optional[PowerProduct]:
    """t / s, or None when s does not divide t."""
    q = tuple(b - a for a, b in zip(s, t))
    if any(e < 0 for e in q):
        return None
    return q


def pp_lcm(s: PowerProduct, t: PowerProduct) -> PowerProduct:
    return tuple(max(a, b) for a, b in zip(s, t))


def spolynomial(order: TermOrder, f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial of f and g over a field: both leading terms
    lifted to their lcm and made monic, then subtracted."""
    cf, tf = f.leading_term(order)
    cg, tg = g.leading_term(order)
    l = pp_lcm(tf, tg)
    return f.mul_term(pp_div(l, tf), 1 / cf) - g.mul_term(pp_div(l, tg), 1 / cg)


def pp_coprime(s: PowerProduct, t: PowerProduct) -> bool:
    return all(a == 0 or b == 0 for a, b in zip(s, t))


def top_by_fields(pk, terms: Sequence[int]) -> int:
    """The field-wise largest of packed terms, one field at a time."""
    limit = pk.limit
    return sum(max([(u >> k) & limit for u in terms], default=0) << k for k in pk.shifts)


class ReferencePairs:
    """The Buchberger pair queue with its lcms, coprimality and degrees
    taken on exponent tuples: the same sugar strategy and Gebauer-Moeller
    update as ``slicegb.groebner._Pairs``, which must form the same pairs
    in the same order."""

    def __init__(self, pk):
        self.pk = pk
        self.lts: List[int] = []
        self.exps: List[PowerProduct] = []
        self.surplus: List[int] = []
        self.active: List[int] = []
        self.queue: List[tuple] = []

    def add(self, lt: int, sugar: int) -> None:
        pk, divisible = self.pk, self.pk.exp_guards
        h = len(self.lts)
        t = pk.unpack(lt)
        surplus = sugar - pp_degree(t)
        lcms = [pp_lcm(s, t) for s in self.exps]
        packed = [pk.pack(l) for l in lcms]
        self.queue = [
            pair for pair in self.queue
            if (pair[1] - lt) & divisible or pair[1] in (packed[pair[2]], packed[pair[3]])
        ]
        heapq.heapify(self.queue)
        classes: Dict[int, List[int]] = {}
        for i in self.active:
            classes.setdefault(packed[i], []).append(i)
        for l, members in classes.items():
            if any(m != l and not (l - m) & divisible for m in classes):
                continue
            if any(pp_coprime(self.exps[i], t) for i in members):
                continue
            i = members[0]
            pair_sugar = pp_degree(lcms[i]) + max(self.surplus[i], surplus)
            heapq.heappush(self.queue, (pair_sugar, l, i, h))
        self.active = [i for i in self.active if (self.lts[i] - lt) & divisible]
        self.active.append(h)
        self.lts.append(lt)
        self.exps.append(t)
        self.surplus.append(surplus)

    def __iter__(self):
        while self.queue:
            sugar, l, i, j = heapq.heappop(self.queue)
            yield i, j, l, sugar



def dimension_by_subset_search(n: int, generators: Sequence[PowerProduct]) -> int:
    """Largest variable subset containing no generator's support, by
    brute-force enumeration of all 2^n subsets; -1 when 1 is a generator."""
    supports = [frozenset(i for i, e in enumerate(t) if e) for t in generators]
    if any(not s for s in supports):
        return -1
    best = -1
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            chosen = frozenset(subset)
            if all(not s <= chosen for s in supports):
                return size
    return best


def solve_exact(rows: List[List[Fraction]], rhs: List[Fraction]) -> Optional[List[Fraction]]:
    """One solution of A x = b over Q by Gaussian elimination, or None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(n):
        sel = next((r for r in range(row, m) if a[r][col]), None)
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        inv = 1 / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for r in range(m):
            if r != row and a[r][col]:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if a[r][n]:
            return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = a[r][n]
    return x


def rank_exact(rows: List[List[Fraction]]) -> int:
    """The rank of a matrix over Q, by Gaussian elimination."""
    a = [list(r) for r in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        sel = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if sel is None:
            continue
        a[rank], a[sel] = a[sel], a[rank]
        for r in range(rank + 1, len(a)):
            factor = a[r][col] / a[rank][col]
            a[r] = [v - factor * w for v, w in zip(a[r], a[rank])]
        rank += 1
    return rank


def member_with_bound(generators: Sequence[Polynomial], f: Polynomial, degree_bound: int) -> bool:
    """Does f equal some combination sum h_i g_i with deg h_i <= bound?

    Solves for the cofactor coefficients as an exact linear system; a
    True answer is a certificate, False only rules out the given bound.
    """
    ring = f.ring
    cols: List[Tuple[int, PowerProduct]] = []
    pps = all_power_products(ring.arity, degree_bound)
    for gi in range(len(generators)):
        for t in pps:
            cols.append((gi, t))
    row_index = {}
    columns = []
    for gi, t in cols:
        col = {}
        for s, c in generators[gi].terms.items():
            u = pp_mul(s, t)
            col[u] = col.get(u, Fraction(0)) + c
            if u not in row_index:
                row_index[u] = len(row_index)
        columns.append(col)
    for u in f.terms:
        if u not in row_index:
            row_index[u] = len(row_index)
    nrows = len(row_index)
    rows = [[Fraction(0)] * len(columns) for _ in range(nrows)]
    for ci, col in enumerate(columns):
        for u, c in col.items():
            rows[row_index[u]][ci] = c
    rhs = [Fraction(0)] * nrows
    for u, c in f.terms.items():
        rhs[row_index[u]] = c
    return solve_exact(rows, rhs) is not None


class _TopTerm:
    """Max-heap adapter: heapq pops the entry with the largest key."""

    __slots__ = ("key", "term")

    def __init__(self, key, term: PowerProduct):
        self.key = key
        self.term = term

    def __lt__(self, other: "_TopTerm") -> bool:
        return self.key > other.key


def normal_form_reference(order: TermOrder, f: Polynomial, reducers: Sequence[Polynomial]) -> Polynomial:
    """Full remainder of ``f`` under division by ``reducers``, on
    exponent tuples and field arithmetic: the largest reducible term is
    rewritten by the first reducer in list order whose leading term
    divides it, as in ``slicegb.groebner.normal_form``.

    The pending terms sit in a max-heap with lazy deletion; rewriting
    only creates terms below the one being rewritten, so surviving pops
    come out in strictly decreasing order and the remainder never sees
    the same term twice.
    """
    red = []
    for g in reducers:
        if g:
            lc, lt = g.leading_term(order)
            red.append((lt, lc, g.terms))
    work = dict(f.terms)
    remainder: Dict[PowerProduct, object] = {}
    key = order.key
    heap = [_TopTerm(key(t), t) for t in work]
    heapq.heapify(heap)
    while heap:
        t = heapq.heappop(heap).term
        if t not in work:
            continue
        c = work.pop(t)
        quotient = None
        for lt, lc, gterms in red:
            q = pp_div(t, lt)
            if q is not None:
                quotient = (lt, lc, gterms, q)
                break
        if quotient is None:
            remainder[t] = c
            continue
        lt, lc, gterms, q = quotient
        factor = c / lc
        for s, cg in gterms.items():
            if s == lt:
                continue
            u = pp_mul(s, q)
            cur = work.get(u)
            if cur is None:
                value = -(factor * cg)
                if value:
                    work[u] = value
                    heapq.heappush(heap, _TopTerm(key(u), u))
            else:
                value = cur - factor * cg
                if value:
                    work[u] = value
                else:
                    del work[u]
    return Polynomial(f.ring, remainder)
