"""Term orderings on power products.

Every ordering compares exponent tuples of a fixed arity through a sort
key: ``key(s) < key(t)`` exactly when ``s`` is smaller in the ordering.
All orderings here are multiplicative total orders with 1 minimal.

For Lex, DegLex, and DegRevLex the listed ring order is the precedence
order, x1 > x2 > ... > xn.  A pivoted degree-reverse ordering
(``PivotDegRev``) is degree compatible and, among terms of equal degree,
prefers the one with the *smaller* pivot exponent.  This forces the pivot
below every other variable, so the precedence is
x1 > ... > (pivot omitted) > ... > xn > pivot; with pivot n-1 it
coincides with DegRevLex.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from .rings import PowerProduct, Ring, pp_degree


def _revneg(t: Iterable[int]) -> Tuple[int, ...]:
    return tuple(-e for e in reversed(tuple(t)))


Weights = Tuple[Tuple[int, ...], ...]


def _unit_rows(n: int, block: Iterable[int]) -> Weights:
    return tuple(tuple(int(i == j) for i in range(n)) for j in block)


def _revlex_rows(n: int, block: Sequence[int]) -> Weights:
    # (deg, deg - e_last, ...) on the block: prefix sums, longest first
    return tuple(tuple(int(i in block[:k]) for i in range(n)) for k in range(len(block), 0, -1))


class TermOrder:
    """Base class; subclasses define ``key`` and ``weights`` and carry
    the arity ``n``."""

    n: int
    name: str

    def key(self, t: PowerProduct):
        raise NotImplementedError

    def weights(self) -> Weights:
        """Rows W of 0s and 1s, invertible as a matrix, such that s is
        below t exactly when the vector W s is lexicographically below
        W t; the packed terms of ``groebner`` rely on the 0/1 entries."""
        raise NotImplementedError

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
        """The induced ordering after deleting variable ``i`` from the ring."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TermOrder) and self.name == other.name and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.name, self.n))

    def __repr__(self) -> str:
        return f"<{self.name} on {self.n} vars>"


class Lex(TermOrder):
    def __init__(self, n: int):
        self.n = n
        self.name = "lex"

    def key(self, t: PowerProduct):
        return t

    def weights(self) -> Weights:
        return _unit_rows(self.n, range(self.n))

    def restrict(self, i: int) -> "Lex":
        return Lex(self.n - 1)


class DegLex(TermOrder):
    def __init__(self, n: int):
        self.n = n
        self.name = "deglex"

    def key(self, t: PowerProduct):
        return (pp_degree(t), t)

    def weights(self) -> Weights:
        return ((1,) * self.n,) + _unit_rows(self.n, range(self.n - 1))

    def restrict(self, i: int) -> "DegLex":
        return DegLex(self.n - 1)


class DegRevLex(TermOrder):
    def __init__(self, n: int):
        self.n = n
        self.name = "degrevlex"

    def key(self, t: PowerProduct):
        return (pp_degree(t), _revneg(t))

    def weights(self) -> Weights:
        return _revlex_rows(self.n, range(self.n))

    def restrict(self, i: int) -> "DegRevLex":
        return DegRevLex(self.n - 1)


class PivotDegRev(TermOrder):
    """Degree-compatible; equal degree is broken by smaller pivot exponent
    first, then reverse-lex on the remaining variables in listed order."""

    def __init__(self, n: int, pivot: int):
        if not 0 <= pivot < n:
            raise ValueError(f"pivot {pivot} out of range for {n} variables")
        self.n = n
        self.pivot = pivot
        self.name = f"pivotdegrev({pivot})"

    def key(self, t: PowerProduct):
        i = self.pivot
        permuted = t[:i] + t[i + 1:] + (t[i],)
        return (pp_degree(t), _revneg(permuted))

    def weights(self) -> Weights:
        i = self.pivot
        return _revlex_rows(self.n, tuple(range(i)) + tuple(range(i + 1, self.n)) + (i,))

    def restrict(self, i: int) -> TermOrder:
        if i == self.pivot:
            return DegRevLex(self.n - 1)
        p = self.pivot if i > self.pivot else self.pivot - 1
        if p == self.n - 2:
            return DegRevLex(self.n - 1)
        return PivotDegRev(self.n - 1, p)


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
        self.n = n
        self.front = front_t
        self._back = tuple(i for i in range(n) if i not in set(front_t))
        self.name = f"elim({','.join(map(str, front_t))})"

    def key(self, t: PowerProduct):
        f = tuple(t[i] for i in self.front)
        b = tuple(t[i] for i in self._back)
        return (sum(f), _revneg(f), sum(b), _revneg(b))

    def weights(self) -> Weights:
        return _revlex_rows(self.n, self.front) + _revlex_rows(self.n, self._back)

    def restrict(self, i: int) -> "Elim":
        front = [j if j < i else j - 1 for j in self.front if j != i]
        return Elim(self.n - 1, front)


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
