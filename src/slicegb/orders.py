"""Term orderings on power products.

An ordering is its weight rows: an invertible matrix W of 0s and 1s,
with ``s`` below ``t`` exactly when the vector W s is lexicographically
below W t (L. Robbiano, "Term orderings on the polynomial ring",
EUROCAL 85).  The rows are the one definition: the sort key, the
restriction to fewer variables and equality are read from them, and
the packed terms of ``groebner`` run on them.  All orderings here are
multiplicative total orders with 1 minimal.

For Lex, DegLex, and DegRevLex the listed ring order is the precedence
order, x1 > x2 > ... > xn.  A pivoted degree-reverse ordering
(``PivotDegRev``) is degree compatible and, among terms of equal degree,
prefers the one with the *smaller* pivot exponent.  This forces the pivot
below every other variable, so the precedence is
x1 > ... > (pivot omitted) > ... > xn > pivot; with pivot n-1 it
coincides with DegRevLex.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import compress
from typing import Iterable, Sequence, Tuple

from .rings import PowerProduct, Ring

Weights = Tuple[Tuple[int, ...], ...]


def _unit_rows(n: int, block: Iterable[int]) -> Weights:
    return tuple(tuple(int(i == j) for i in range(n)) for j in block)


@cache
def _revlex_rows(n: int, block: Sequence[int]) -> Weights:
    # (deg, deg - e_last, ...) on the block: prefix sums, longest first
    return tuple(tuple(int(i in block[:k]) for i in range(n)) for k in range(len(block), 0, -1))


class TermOrder:
    """The ordering of ``n`` variables given by ``n`` weight rows; ``name``
    is for display only."""

    def __init__(self, name: str, rows: Weights):
        self.name = name
        self.rows = rows
        self.n = len(rows)

    def key(self, t: PowerProduct):
        """The vector W t; keys compare as the terms do."""
        return tuple([sum(compress(t, row)) for row in self.rows])

    def weights(self) -> Weights:
        """The rows W; the packed terms of ``groebner`` rely on their 0/1
        entries."""
        return self.rows

    def compare(self, s: PowerProduct, t: PowerProduct) -> int:
        """-1, 0, or 1 as s is below, equal to, or above t."""
        if len(s) != self.n or len(t) != self.n:
            raise ValueError(f"arity mismatch: {s}, {t} under {self.name} on {self.n} variables")
        ks, kt = self.key(s), self.key(t)
        if ks < kt:
            return -1
        if ks > kt:
            return 1
        return 0

    def max_term(self, terms: Iterable[PowerProduct]) -> PowerProduct:
        return max(terms, key=self.key)

    def restrict(self, i: int) -> "TermOrder":
        """The induced ordering after deleting variable ``i`` from the ring:
        column ``i`` goes, and so does the one row that is then a
        combination of the rows above it, since it never breaks a tie."""
        rows = [row[:i] + row[i + 1:] for row in self.rows]
        echelon = []
        for k, row in enumerate(rows):
            v = list(map(Fraction, row))
            for p, b in echelon:
                c = v[p]
                if c:
                    v = [x - c * y for x, y in zip(v, b)]
            if not any(v):
                return TermOrder(f"{self.name}/{i}", tuple(rows[:k] + rows[k + 1:]))
            p = next(j for j, x in enumerate(v) if x)
            echelon.append((p, [x / v[p] for x in v]))
        raise ValueError(f"{self!r} has no variable {i}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TermOrder) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"<{self.name} on {self.n} vars>"


class Lex(TermOrder):
    def __init__(self, n: int):
        super().__init__("lex", _unit_rows(n, range(n)))


class DegLex(TermOrder):
    def __init__(self, n: int):
        # the degree row, then lex on all variables but the last
        super().__init__("deglex", _revlex_rows(n, range(n))[:1] + _unit_rows(n, range(n - 1)))


class DegRevLex(TermOrder):
    def __init__(self, n: int):
        super().__init__("degrevlex", _revlex_rows(n, range(n)))


class PivotDegRev(TermOrder):
    """Degree-compatible; equal degree is broken by smaller pivot exponent
    first, then reverse-lex on the remaining variables in listed order."""

    def __init__(self, n: int, pivot: int):
        if not 0 <= pivot < n:
            raise ValueError(f"pivot {pivot} out of range for {n} variables")
        block = tuple(range(pivot)) + tuple(range(pivot + 1, n)) + (pivot,)
        super().__init__(f"pivotdegrev({pivot})", _revlex_rows(n, block))


class Elim(TermOrder):
    """Block elimination ordering: the ``front`` variables dominate.

    Terms compare by the front sub-vector first (DegRevLex there), then
    by the remaining variables (DegRevLex again).  Any reduced basis
    element free of front variables lies in the elimination ideal.
    """

    def __init__(self, n: int, front: Iterable[int]):
        front_t = tuple(sorted(set(front)))
        if front_t and not (0 <= front_t[0] and front_t[-1] < n):
            raise ValueError(f"front block {front_t} out of range for {n} variables")
        back = tuple(i for i in range(n) if i not in front_t)
        super().__init__(f"elim({','.join(map(str, front_t))})",
                         _revlex_rows(n, front_t) + _revlex_rows(n, back))


def degrevlex(ring: Ring) -> DegRevLex:
    return DegRevLex(ring.arity)


def lex(ring: Ring) -> Lex:
    return Lex(ring.arity)


def deglex(ring: Ring) -> DegLex:
    return DegLex(ring.arity)


def pivot_degrev(ring: Ring, pivot: str) -> PivotDegRev:
    return PivotDegRev(ring.arity, ring.index(pivot))


def elim_order(ring: Ring, front_names: Iterable[str]) -> Elim:
    return Elim(ring.arity, [ring.index(v) for v in front_names])


def order_by_name(ring: Ring, spec: str) -> TermOrder:
    """Resolve an ordering name as used in files and on the command line.

    Accepted forms: ``lex``, ``deglex``, ``degrevlex``,
    ``degrev:<var>`` (pivoted), ``elim:<var>,<var>,...``.
    """
    spec = spec.strip()
    if spec == "lex":
        return Lex(ring.arity)
    if spec == "deglex":
        return DegLex(ring.arity)
    if spec == "degrevlex":
        return DegRevLex(ring.arity)
    if spec.startswith("degrev:"):
        return pivot_degrev(ring, spec.split(":", 1)[1].strip())
    if spec.startswith("elim:"):
        names = [v.strip() for v in spec.split(":", 1)[1].split(",") if v.strip()]
        return elim_order(ring, names)
    raise ValueError(f"unknown ordering {spec!r}")
