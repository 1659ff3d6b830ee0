"""Buchberger's algorithm and the ideal-level operations built on it.

Everything here is deterministic: pair selection follows the sugar
strategy (lowest sugar, ties by the lcm in the ordering, then by
index), pairs are pruned by the Gebauer-Moeller criteria, and division
always rewrites the largest reducible term using the first matching
reducer in list order.

References: A. Giovini, T. Mora, G. Niesi, L. Robbiano, C. Traverso,
"One sugar cube, please, or selection strategies in the Buchberger
algorithm", ISSAC 1991; R. Gebauer, H. M. Moeller, "On an installation
of Buchberger's algorithm", J. Symbolic Comput. 6 (1988).
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .orders import DegRevLex, Elim, TermOrder
from .poly import Polynomial, exact_divide, over_lcm
from .ratfunc import RationalFunction, polynomial_gcd, polynomial_lcm
from .rings import (
    PowerProduct,
    Ring,
    pp_divides,
    pp_one,
    pp_project,
    pp_support,
)


@dataclass(frozen=True)
class Ideal:
    ring: Ring
    generators: Tuple[Polynomial, ...]

    @classmethod
    def of(cls, ring: Ring, generators: Iterable[Polynomial]) -> "Ideal":
        gens = tuple(g for g in generators if g)
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        return cls(ring, gens)

    @property
    def is_zero(self) -> bool:
        return not self.generators


@dataclass(frozen=True)
class GroebnerBasis:
    """A basis under ``order``; whether it is minimal or reduced is
    read off the elements each time it is asked."""

    order: TermOrder
    elements: Tuple[Polynomial, ...]

    @property
    def is_minimal(self) -> bool:
        return check_minimal(self.order, self.elements)

    @property
    def is_reduced(self) -> bool:
        return check_reduced(self.order, self.elements)

    def leading_power_products(self) -> Tuple[PowerProduct, ...]:
        return tuple(g.leading_power_product(self.order) for g in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generators of a monomial ideal; an antichain under divisibility."""

    arity: int
    gens: Tuple[PowerProduct, ...]

    @classmethod
    def of(cls, arity: int, pps: Iterable[PowerProduct]) -> "MonomialIdeal":
        unique = sorted(set(pps))
        minimal = [t for t in unique if not any(s != t and pp_divides(s, t) for s in unique)]
        return cls(arity, tuple(sorted(minimal)))


# -- division --------------------------------------------------------


def integer_normalize(f: Polynomial, order: TermOrder) -> Polynomial:
    """Scale a rational-coefficient polynomial to integer coefficients with
    content 1 and a positive leading coefficient."""
    if not f:
        return f
    nums, den = over_lcm(f.terms.values())
    scale = Fraction(den, math.gcd(*nums))
    if f.leading_term(order)[0] < 0:
        scale = -scale
    return f.scale(scale)


# -- packed division kernel ------------------------------------------
#
# ``buchberger``, ``reduce_basis`` and ``normal_form`` all divide in one
# loop, ``_reduce``, on packed terms.  Reducers are tried in list order
# on the largest pending term.  What a division step does to the
# coefficients is set by one of two pseudo-division steps, which
# ``_step`` picks by the coefficient type:
#
# - ``_Integers``, over Q (every coefficient a ``Fraction``).
#   Coefficients are ints.  A remainder is rescaled to content 1 right
#   away, so any positive multiple of the normal form serves: instead of
#   dividing by a leading coefficient, the pending polynomial is scaled
#   up by the smallest factor making the division exact, which avoids
#   the gcd that every Fraction operation performs.
# - ``_Parameters``, over Q(params) (``RationalFunction`` coefficients).
#   The same pseudo-division one level up: coefficients are parameter
#   polynomials, a generator's denominators are cleared by their lcm,
#   the scale is the reducer's leading coefficient over its gcd with
#   the cancelled one, and a stored element is divided by its
#   polynomial content.  ``RationalFunction`` arithmetic, with a gcd on
#   every sum and product, stays out of the loop: each coefficient
#   becomes one ``RationalFunction`` at the end.
#
# Scaling the pending polynomial by a nonzero factor keeps its terms,
# so for each term both steps pick the reducer that division over the
# field picks, and they store the same elements up to units; the tests
# check them against a step that divides by leading coefficients.  ``normal_form`` needs the remainder itself, not a
# multiple: it starts the remainder with ``f``'s clearing factor under
# the key -1, below every packed term, so each rescale and content
# strip applies to that scale too, and divides by it at the end.
#
# A term is one plain int made of fields of ``bits`` value bits plus a
# guard bit each: the order's weight rows (most significant first),
# then the exponents.  Comparing two ints compares the terms in the
# order, and adding two ints multiplies the terms.  With guard bits
# clear in both, s divides t exactly when ``(t - s) & exp_guards`` is
# 0, since a negative exponent field borrows through its own guard bit.
# The same borrow gives the field-wise max: ``((a | guards) - b) &
# guards`` keeps the guard bit of each field where a >= b, and
# subtracting that mask shifted down by ``bits`` turns each kept guard
# bit into the value bits below it, which select a's field over b's.
# An lcm is the field-wise max of the exponents, with the weight rows
# recomputed from them.
#
# Every weight row is 0/1, so no field of a term exceeds its degree.
# ``bits`` holds four times the largest degree of an input term, rounded
# up to a power of two of at least 8.  Every product formed is checked for a
# set guard bit through the field-wise largest term of the
# multiplicand; a set bit means the width was too small, and the whole
# call reruns at twice the width.


class _WidthExceeded(Exception):
    pass


class _Packing:
    """Packed terms of one ordering at one field width."""

    __slots__ = ("units", "bits", "limit", "shifts", "exp_shifts", "guards", "values",
                 "exp_guards", "degree_shifts")

    def __init__(self, order: TermOrder, bits: int):
        n, rows = order.n, order.weights()
        width = bits + 1
        self.shifts = [width * k for k in range(len(rows) + n)]
        self.exp_shifts = self.shifts[:n]
        # variable i packed: column i of the rows above a 1 in field i
        self.units = [
            sum(row[i] << self.shifts[-1 - r] for r, row in enumerate(rows)) + (1 << self.shifts[i])
            for i in range(n)
        ]
        self.bits = bits
        self.limit = (1 << bits) - 1
        self.guards = sum(1 << (k + bits) for k in self.shifts)
        self.values = sum(self.limit << k for k in self.shifts)
        self.exp_guards = sum(1 << (k + bits) for k in self.exp_shifts)
        # the fields of rows whose supports partition the variables,
        # weight rows first, then exponents: their sum is the degree
        unit_rows = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        covered: set = set()
        self.degree_shifts = []
        for row, k in [*zip(rows, reversed(self.shifts)), *zip(unit_rows, self.exp_shifts)]:
            support = {i for i, w in enumerate(row) if w}
            if not support & covered:
                covered |= support
                self.degree_shifts.append(k)

    def pack(self, t: PowerProduct) -> int:
        if sum(t) > self.limit:
            raise _WidthExceeded
        return sum(map(operator.mul, self.units, t))

    def unpack(self, v: int) -> PowerProduct:
        limit = self.limit
        return tuple((v >> k) & limit for k in self.exp_shifts)

    def polynomial(self, ring: Ring, terms: Dict[int, object]) -> Polynomial:
        return Polynomial(ring, {self.unpack(u): c for u, c in terms.items()})

    def top(self, terms: Iterable[int]) -> int:
        """The field-wise largest of the terms, as a packed int."""
        bits, guards, values = self.bits, self.guards, self.values
        acc = 0
        for u in terms:
            # guard bit of each field where acc >= u, then that field's value bits
            m = ((acc | guards) - u) & guards
            m -= m >> bits
            acc = (acc & m) | (u & (values ^ m))
        return acc

    def degree(self, terms: Iterable[int]) -> int:
        """The largest total degree of the packed terms."""
        shifts = self.degree_shifts
        if shifts == self.shifts[-1:]:
            # the top weight row is the degree, so the largest term has it
            return max(terms) >> shifts[0]
        limit = self.limit
        return max(sum((u >> k) & limit for k in shifts) for u in terms)

    def reducer(self, terms: Dict[int, object]) -> tuple:
        lt = max(terms)
        tail = [(u, c) for u, c in terms.items() if u != lt]
        return lt, terms[lt], tail, self.top([u for u, _ in tail])


def _packed_call(order: TermOrder, polys: Sequence[Polynomial], run):
    """``run(packing)`` at the input's width, rerun wider until no
    product overflows."""
    largest = max((sum(t) for g in polys for t in g.terms), default=0)
    bits = 8
    while bits < (4 * largest).bit_length():
        bits *= 2
    while True:
        try:
            return run(_Packing(order, bits))
        except _WidthExceeded:
            bits *= 2


def _make_primitive(terms: Dict[int, int]) -> Dict[int, int]:
    """Divide out the integer content; the leading coefficient ends positive."""
    g = math.gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    if g == 1:
        return terms
    return {u: v // g for u, v in terms.items()}


def _strip_content(work: Dict[int, int], remainder: Dict[int, int]) -> None:
    g = 0
    for v in work.values():
        g = math.gcd(g, v)
        if g == 1:
            return
    for v in remainder.values():
        g = math.gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for u in work:
            work[u] //= g
        for u in remainder:
            remainder[u] //= g


class _Integers:
    """The pseudo-division step over Q: int coefficients, and stored
    elements of content 1 with a positive leading coefficient."""

    @staticmethod
    def pack(pk: _Packing, f: Polynomial) -> Tuple[Dict[int, int], int]:
        """The coefficients times the lcm of their denominators, and that lcm."""
        nums, den = over_lcm(f.terms.values())
        return dict(zip(map(pk.pack, f.terms), nums)), den

    @staticmethod
    def divide(c: int, lc: int) -> Tuple[int, int]:
        """The smallest ``scale > 0`` and the ``factor`` with
        ``scale * c == factor * lc``."""
        d = math.gcd(c, lc)
        factor = c // d
        return abs(lc // d), -factor if lc < 0 else factor

    # every 64 steps, to keep the integers from compounding
    strip = staticmethod(_strip_content)
    normalize = staticmethod(_make_primitive)

    @staticmethod
    def to_field(terms: Dict[int, int], lc: int = 1) -> Dict[int, Fraction]:
        """The coefficients divided by ``lc``, as Fractions."""
        return {u: Fraction(c, lc) for u, c in terms.items()}


class _Parameters:
    """The pseudo-division step over Q(params): parameter-polynomial
    coefficients, and stored elements of polynomial content 1."""

    @staticmethod
    def pack(pk: _Packing, f: Polynomial) -> Tuple[Dict[int, Polynomial], Polynomial]:
        """The coefficients times the lcm of their denominators, and that
        lcm; denominators are monic, so a constant one is 1."""
        dens = [c.den for c in f.terms.values()]
        lcm = reduce(polynomial_lcm, [d for d in dens if not d.is_constant()] or dens[:1])
        return {pk.pack(t): c.num if c.den == lcm else exact_divide(lcm, c.den) * c.num
                for t, c in f.terms.items()}, lcm

    @staticmethod
    def divide(c: Polynomial, lc: Polynomial) -> tuple:
        """A ``scale`` and the ``factor`` with ``scale * c == factor * lc``;
        the scale is 1 when ``lc`` divides ``c`` up to a constant."""
        if not lc.is_constant():
            g = polynomial_gcd(c, lc)
            if not g.is_constant():
                c, lc = exact_divide(c, g), exact_divide(lc, g)
            if not lc.is_constant():
                return lc, c
        return 1, c.scale(1 / lc.constant_value())

    @staticmethod
    def strip(work: Dict[int, Polynomial], remainder: Dict[int, Polynomial]) -> None:
        pass

    @staticmethod
    def normalize(terms: Dict[int, Polynomial]) -> Dict[int, Polynomial]:
        """Divide out the gcd of the coefficients."""
        g = Polynomial.zero(terms[max(terms)].ring)
        for c in terms.values():
            g = polynomial_gcd(g, c)
            if g.is_constant():
                return terms
        return {u: exact_divide(c, g) for u, c in terms.items()}

    @staticmethod
    def to_field(terms: Dict[int, Polynomial], lc: Polynomial = None) -> Dict[int, RationalFunction]:
        """The coefficients divided by ``lc``, by default the leading
        one, as RationalFunctions."""
        if lc is None:
            lc = terms[max(terms)]
        return {u: RationalFunction(c, lc) for u, c in terms.items()}


def _step(polys: Sequence[Polynomial]):
    """The division step by the coefficient type."""
    if all(isinstance(c, Fraction) for g in polys for c in g.terms.values()):
        return _Integers
    return _Parameters


def _subtract(step, work: dict, remainder: dict, heap: List[int], c, lc, tail, q: int) -> None:
    """One division step: the term ``c`` at ``lt + q``, already taken
    out of ``work``, cancels against the reducer ``lc * lt + tail``
    shifted by ``q``.  New terms of ``work`` are pushed on ``heap``."""
    scale, factor = step.divide(c, lc)
    if scale != 1:
        for u in work:
            work[u] *= scale
        for u in remainder:
            remainder[u] *= scale
    push = heapq.heappush
    for u, cg in tail:
        u += q
        cur = work.get(u)
        if cur is None:
            work[u] = -(factor * cg)
            push(heap, -u)
        else:
            value = cur - factor * cg
            if value:
                work[u] = value
            else:
                del work[u]


def _reduce(pk: _Packing, work: dict, remainder: dict, red: Sequence[tuple], step) -> dict:
    """A multiple of the remainder of the packed polynomial ``work``
    (which is consumed) by the reducers ``(lt, lc, tail, top)``, added
    to ``remainder``, whose entries are rescaled along with it."""
    divisible, guards = pk.exp_guards, pk.guards
    heap = [-t for t in work]
    heapq.heapify(heap)
    pop = heapq.heappop
    steps = 0
    while heap:
        t = -pop(heap)
        c = work.pop(t, 0)
        if not c:
            continue
        for lt, lc, tail, top in red:
            q = t - lt
            if not q & divisible:
                break
        else:
            remainder[t] = c
            continue
        if (top + q) & guards:
            raise _WidthExceeded
        _subtract(step, work, remainder, heap, c, lc, tail, q)
        steps += 1
        if steps % 64 == 0:
            step.strip(work, remainder)
    return remainder


def normal_form(order: TermOrder, f: Polynomial, reducers: Sequence[Polynomial]) -> Polynomial:
    """Full remainder of ``f`` under division by ``reducers``: the
    largest reducible term is rewritten by the first reducer in list
    order whose leading term divides it."""
    if not f:
        return f
    reducers = [g for g in reducers if g]
    step = _step([f] + reducers)

    def run(pk: _Packing) -> Polynomial:
        red = [pk.reducer(step.pack(pk, g)[0]) for g in reducers]
        work, scale = step.pack(pk, f)
        remainder = _reduce(pk, work, {-1: scale}, red, step)
        scale = remainder.pop(-1)
        return pk.polynomial(f.ring, step.to_field(remainder, scale))

    return _packed_call(order, [f] + reducers, run)


def _reduce_basis_packed(pk: _Packing, ring: Ring, elems: Iterable[dict], step) -> List[Polynomial]:
    """Minimalize the packed elements (which are consumed), then reduce
    each by the others, the earlier ones already reduced."""
    divisible = pk.exp_guards
    kept: List[dict] = []
    kept_lts: List[int] = []
    for terms in sorted(elems, key=max):
        lt = max(terms)
        if all((lt - s) & divisible for s in kept_lts):
            kept.append(terms)
            kept_lts.append(lt)
    red = [pk.reducer(terms) for terms in kept]
    for idx, terms in enumerate(kept):
        kept[idx] = _reduce(pk, terms, {}, red[:idx] + red[idx + 1:], step)
        red[idx] = pk.reducer(kept[idx])
    return [pk.polynomial(ring, step.to_field(terms, lc)) for terms, (_, lc, _, _) in zip(kept, red)]


# -- Buchberger ------------------------------------------------------


class _Pairs:
    """The pair queue of one Buchberger run under the sugar strategy,
    pruned by the Gebauer-Moeller update.

    A generator's sugar is its total degree; a pair's sugar is the
    larger of ``sugar_k + deg lcm - deg lt_k`` over its two elements;
    a stored remainder takes the sugar of its pair, or its own total
    degree when that is larger.  ``add`` stores a
    new leading term ``lt_h`` with its sugar and updates the queue:

    - B: an old pair goes when ``lt_h`` divides its lcm strictly, that
      is, differs from the lcms of ``lt_h`` with both elements;
    - M and F: of the new pairs, one per minimal lcm stays, the one
      with the lowest index, and none for an lcm that a coprime pair
      reaches (which also applies the product criterion);
    - an element whose leading term ``lt_h`` divides makes no further
      pairs, though it stays a reducer.

    Iterating pops pairs by ``(sugar, lcm, i, j)`` and yields
    ``(i, j, lcm, sugar)``, the lcm packed.
    """

    def __init__(self, pk: _Packing):
        self.pk = pk
        self.lts: List[int] = []
        self.exps: List[PowerProduct] = []
        self.surplus: List[int] = []  # sugar minus the degree of the leading term
        self.active: List[int] = []  # the elements that still make pairs
        self.queue: List[tuple] = []

    def add(self, lt: int, sugar: int) -> None:
        pk, divisible, units, guards = self.pk, self.pk.exp_guards, self.pk.units, self.pk.guards
        h = len(self.lts)
        t = pk.unpack(lt)
        surplus = sugar - sum(t)
        mul, exps = operator.mul, self.exps
        lcms: Dict[int, int] = {}

        def lcm(i: int) -> int:
            """The lcm of ``lt`` with element ``i``, formed once, when
            the update first reads it."""
            l = lcms.get(i)
            if l is None:
                l = lcms[i] = sum(map(mul, units, map(max, exps[i], t)))
                # a field of an lcm is at most the sum of two fields, so
                # an overflow shows as a set guard bit
                if l & guards:
                    raise _WidthExceeded
            return l

        self.queue = [
            pair for pair in self.queue
            if (pair[1] - lt) & divisible or pair[1] in (lcm(pair[2]), lcm(pair[3]))
        ]
        heapq.heapify(self.queue)
        classes: Dict[int, List[int]] = {}
        for i in self.active:
            classes.setdefault(lcm(i), []).append(i)
        # a proper divisor is smaller, and divisibility is transitive:
        # each lcm is checked against the smaller minimal ones
        minimal: List[int] = []
        for l in sorted(classes):
            if any(not (l - m) & divisible for m in minimal):
                continue
            minimal.append(l)
            members = classes[l]
            if any(l == self.lts[i] + lt for i in members):  # coprime
                continue
            i = members[0]
            pair_sugar = sum(map(max, self.exps[i], t)) + max(self.surplus[i], surplus)
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


def _buchberger_packed(pk: _Packing, gens: Sequence[Polynomial], step) -> List[dict]:
    """``buchberger`` on packed terms, in ``step``'s arithmetic; the
    stored elements, packed."""
    guards = pk.guards
    elems: List[dict] = []
    red: List[tuple] = []
    pairs = _Pairs(pk)

    def store(terms: dict, sugar: int) -> None:
        terms = step.normalize(terms)
        elems.append(terms)
        red.append(pk.reducer(terms))
        pairs.add(red[-1][0], sugar)

    for g in gens:
        store(step.pack(pk, g)[0], g.total_degree())
    for i, j, l, sugar in pairs:
        fi, fc, f_tail, fi_top = red[i]
        gj, gc, g_tail, gj_top = red[j]
        qf, qg = l - fi, l - gj
        if (fi_top + qf) & guards or (gj_top + qg) & guards:
            raise _WidthExceeded
        # a multiple of the S-polynomial: one division step of the lcm
        # term of f shifted by qf against g; _reduce builds its own heap
        spair = {u + qf: c for u, c in f_tail}
        _subtract(step, spair, {}, [], fc, gc, g_tail, qg)
        rem = _reduce(pk, spair, {}, red, step)
        if rem:
            # a reducer of high degree can leave a remainder above the
            # pair's sugar; the sugar never falls below the degree
            store(rem, max(sugar, pk.degree(rem)))
    return elems


def _generators(generators: Sequence[Polynomial]) -> List[Polynomial]:
    gens = [g for g in generators if g]
    if not gens:
        raise ValueError("Groebner basis of the zero ideal is undefined; no nonzero generators")
    return gens


def buchberger(order: TermOrder, generators: Sequence[Polynomial]) -> List[Polynomial]:
    """A Groebner basis containing the nonzero generators (rescaled).

    Pairs are taken by lowest sugar and pruned by the Gebauer-Moeller
    criteria (see ``_Pairs``); every stored element stays a reducer, so
    the result holds every remainder computed.  Over Q the elements are
    scaled to integer coefficients with content 1 and a positive leading
    coefficient; over Q(params) the division runs fraction-free on
    parameter polynomials (``_Parameters``), and the elements come out
    monic.
    """
    gens = _generators(generators)
    step, ring = _step(gens), gens[0].ring

    def run(pk: _Packing) -> List[Polynomial]:
        return [pk.polynomial(ring, step.to_field(e)) for e in _buchberger_packed(pk, gens, step)]

    return _packed_call(order, gens, run)


def reduce_basis(order: TermOrder, polys: Sequence[Polynomial]) -> GroebnerBasis:
    """Minimalize and interreduce a Groebner basis.

    The result is the unique reduced basis: monic, pairwise interreduced,
    sorted by ascending leading term.
    """
    nonzero = [g for g in polys if g]
    if not nonzero:
        return GroebnerBasis(order, ())
    # One pass suffices: leading terms are pairwise non-divisible, so
    # division never disturbs them, and the reduced basis is unique.
    step, ring = _step(nonzero), nonzero[0].ring

    def run(pk: _Packing) -> List[Polynomial]:
        return _reduce_basis_packed(pk, ring, [step.pack(pk, g)[0] for g in nonzero], step)

    return GroebnerBasis(order, tuple(_packed_call(order, nonzero, run)))


def groebner_basis(order: TermOrder, generators: Sequence[Polynomial]) -> GroebnerBasis:
    """The reduced basis of the ideal: ``reduce_basis`` of ``buchberger``,
    in one packed call, so the stored elements go to the interreduction
    as they are; a width that overflows in either phase reruns both."""
    gens = _generators(generators)
    step, ring = _step(gens), gens[0].ring

    def run(pk: _Packing) -> List[Polynomial]:
        return _reduce_basis_packed(pk, ring, _buchberger_packed(pk, gens, step), step)

    return GroebnerBasis(order, tuple(_packed_call(order, gens, run)))


def is_member(f: Polynomial, basis: GroebnerBasis) -> bool:
    return not normal_form(basis.order, f, basis.elements)


def check_minimal(order: TermOrder, polys: Sequence[Polynomial]) -> bool:
    """Structural check: monic with pairwise non-divisible leading terms."""
    lts = []
    for g in polys:
        lc, lt = g.leading_term(order)
        if lc != 1:
            return False
        lts.append(lt)
    return not any(i != j and pp_divides(lts[i], lts[j]) for i in range(len(lts)) for j in range(len(lts)))


def check_reduced(order: TermOrder, polys: Sequence[Polynomial]) -> bool:
    """Structural check: minimal, and no support term of one element is
    divisible by the leading term of another."""
    if not check_minimal(order, polys):
        return False
    lts = [g.leading_power_product(order) for g in polys]
    for i, g in enumerate(polys):
        for t in g.terms:
            for j, lt in enumerate(lts):
                if i != j and pp_divides(lt, t):
                    return False
    return True


# -- elimination, dimension, colon -----------------------------------


def eliminate(ideal: Ideal, drop: Sequence[int]) -> Ideal:
    """The ideal's intersection with the subring omitting the ``drop``
    variables, presented by its reduced basis there.

    Under ``Elim`` every term with a dropped variable lies above every
    term without one.  So the Buchberger elements whose leading term is
    free of the dropped variables are a Groebner basis of the
    intersection, and only they are minimalized and interreduced."""
    drop_set = sorted(set(drop))
    keep = [i for i in range(ideal.ring.arity) if i not in drop_set]
    sub = Ring(tuple(ideal.ring.names[i] for i in keep))
    if ideal.is_zero:
        return Ideal.of(sub, [])
    gens = _generators(ideal.generators)
    step = _step(gens)

    def run(pk: _Packing) -> List[Polynomial]:
        elems = _buchberger_packed(pk, gens, step)
        lts = [pk.unpack(max(e)) for e in elems]
        kept = [e for e, lt in zip(elems, lts) if not any(lt[i] for i in drop_set)]
        return _reduce_basis_packed(pk, ideal.ring, kept, step)

    basis = _packed_call(Elim(ideal.ring.arity, drop_set), gens, run)
    return Ideal.of(sub, [Polynomial(sub, {pp_project(t, keep): c for t, c in g.terms.items()}) for g in basis])


def _max_independent(supports: List[FrozenSet[int]], avail: FrozenSet[int], memo: Dict[FrozenSet[int], int]) -> int:
    live = [s for s in supports if s <= avail]
    if not live:
        return len(avail)
    cached = memo.get(avail)
    if cached is not None:
        return cached
    best = -1
    branch = min(live, key=len)
    for v in sorted(branch):
        best = max(best, _max_independent(live, avail - {v}, memo))
    memo[avail] = best
    return best


def monomial_dimension(m: MonomialIdeal) -> int:
    """Krull dimension of the quotient by a monomial ideal: the largest
    set of variables meeting no generator's support is independent."""
    if any(t == pp_one(m.arity) for t in m.gens):
        return -1
    supports = [frozenset(pp_support(t)) for t in m.gens]
    return _max_independent(supports, frozenset(range(m.arity)), {})


def basis_dimension(ideal: Ideal) -> int:
    """``dimension`` of an ideal whose generators are its Groebner basis
    under ``DegRevLex``, read off their leading terms.  ``eliminate``
    returns such an ideal: ``Elim`` orders the kept variables by
    ``DegRevLex`` in listed order."""
    order = DegRevLex(ideal.ring.arity)
    lts = [g.leading_power_product(order) for g in ideal.generators]
    return monomial_dimension(MonomialIdeal.of(ideal.ring.arity, lts))


def dimension(ideal: Ideal, order: TermOrder = None) -> int:
    if ideal.is_zero:
        return ideal.ring.arity
    if order is None:
        order = DegRevLex(ideal.ring.arity)
    basis = groebner_basis(order, ideal.generators)
    return monomial_dimension(MonomialIdeal.of(ideal.ring.arity, basis.leading_power_products()))


def intersect_principal(ideal: Ideal, f: Polynomial) -> Ideal:
    """Generators of the intersection with the principal ideal (f)."""
    if not f:
        return Ideal.of(ideal.ring, [])
    ring = ideal.ring
    tag = ring.fresh_name("t")
    big = Ring((tag,) + ring.names)
    lift = [g.embed_insert(0, tag) for g in ideal.generators]
    u = Polynomial.variable(big, tag)
    one = Polynomial.constant(big, 1)
    gens = [u * g for g in lift]
    gens.append((one - u) * f.embed_insert(0, tag))
    inner = Ideal.of(big, gens)
    return eliminate(inner, [0])


def colon_ideal(ideal: Ideal, f: Polynomial) -> Ideal:
    """The ideal of polynomials whose product with ``f`` lies in the ideal."""
    if not f:
        raise ValueError("colon by the zero polynomial")
    if ideal.is_zero:
        return Ideal.of(ideal.ring, [])
    meet = intersect_principal(ideal, f)
    return Ideal.of(ideal.ring, [exact_divide(g, f) for g in meet.generators])


def zero_divisor_witness(basis: GroebnerBasis, f: Polynomial) -> Optional[Polynomial]:
    """A polynomial outside the ideal of ``basis`` with product inside,
    or None when ``f`` is a non-zero-divisor on the quotient ring."""
    quotient = colon_ideal(Ideal.of(f.ring, basis.elements), f)
    return next((g for g in quotient.generators if not is_member(g, basis)), None)
