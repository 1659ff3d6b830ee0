"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a dict mapping power products (exponent tuples) to
nonzero coefficients.  Coefficients are ``fractions.Fraction`` for
ordinary polynomials over Q; the parametric layer reuses this class with
rational-function coefficients, so arithmetic here only assumes field
operations and truthiness (nonzero) on the coefficient objects.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .orders import TermOrder
from .rings import (
    PowerProduct,
    Ring,
    pp_degree,
    pp_drop,
    pp_insert,
    pp_mul,
    pp_one,
)


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: Dict[PowerProduct, object]):
        """``terms`` must already be canonical: no zero coefficients."""
        self.ring = ring
        self.terms = terms

    # -- constructors ------------------------------------------------

    @classmethod
    def from_terms(cls, ring: Ring, terms: Dict[PowerProduct, object]) -> "Polynomial":
        return cls(ring, {t: c for t, c in terms.items() if c})

    @classmethod
    def zero(cls, ring: Ring) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: Ring, c) -> "Polynomial":
        if isinstance(c, int):
            c = Fraction(c)
        if not c:
            return cls(ring, {})
        return cls(ring, {pp_one(ring.arity): c})

    @classmethod
    def variable(cls, ring: Ring, name: str) -> "Polynomial":
        i = ring.index(name)
        t = tuple(1 if j == i else 0 for j in range(ring.arity))
        return cls(ring, {t: Fraction(1)})

    @classmethod
    def monomial(cls, ring: Ring, t: PowerProduct, c=Fraction(1)) -> "Polynomial":
        if isinstance(c, int):
            c = Fraction(c)
        if not c:
            return cls(ring, {})
        return cls(ring, {t: c})

    # -- structure ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(pp_degree(t) == 0 for t in self.terms)

    def constant_value(self):
        """The coefficient of the constant term (zero coefficient as 0)."""
        return self.terms.get(pp_one(self.ring.arity), Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(pp_degree(t) for t in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {pp_degree(t) for t in self.terms}
        return len(degs) == 1

    def degree_in(self, i: int) -> int:
        """Highest exponent of variable ``i``; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(t[i] for t in self.terms)

    def support(self, order: TermOrder = None) -> List[PowerProduct]:
        """Power products, descending in ``order`` when one is given."""
        if order is None:
            return sorted(self.terms)
        return order.sorted(self.terms, reverse=True)

    def leading_term(self, order: TermOrder) -> Tuple[object, PowerProduct]:
        if not self.terms:
            raise ValueError("leading term of the zero polynomial is undefined")
        t = order.max_term(self.terms)
        return self.terms[t], t

    def leading_power_product(self, order: TermOrder) -> PowerProduct:
        return self.leading_term(order)[1]

    def monic(self, order: TermOrder) -> "Polynomial":
        lc, _ = self.leading_term(order)
        if lc == 1:
            return self
        return self.scale(1 / lc)

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        _add_terms(terms, other.terms)
        return Polynomial(self.ring, terms)

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for t, c in other.terms.items():
            s = terms.get(t)
            if s is None:
                terms[t] = -c
            else:
                s = s - c
                if s:
                    terms[t] = s
                else:
                    del terms[t]
        return Polynomial(self.ring, terms)

    def __rsub__(self, other) -> "Polynomial":
        diff = self.__sub__(other)
        return NotImplemented if diff is NotImplemented else -diff

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {t: -c for t, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms: Dict[PowerProduct, object] = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                t = pp_mul(t1, t2)
                c = c1 * c2
                s = terms.get(t)
                if s is None:
                    terms[t] = c
                else:
                    s = s + c
                    if s:
                        terms[t] = s
                    else:
                        del terms[t]
        return Polynomial(self.ring, terms)

    def __rmul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        """Multiply every coefficient by the scalar ``c``."""
        if not c:
            return Polynomial.zero(self.ring)
        return Polynomial(self.ring, {t: co * c for t, co in self.terms.items()})

    def mul_term(self, t: PowerProduct, c) -> "Polynomial":
        if not c:
            return Polynomial.zero(self.ring)
        return Polynomial(self.ring, {pp_mul(s, t): co * c for s, co in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    __hash__ = None

    def __lt__(self, other) -> bool:
        # sign convention for printing, shared with RationalFunction: the
        # sign of the leading DegRevLex coefficient of the difference
        from .orders import DegRevLex

        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial) or other.ring != self.ring:
            return NotImplemented
        diff = self - other
        if diff.is_zero():
            return False
        return diff.leading_term(DegRevLex(self.ring.arity))[0] < 0

    # -- substitution and ring moves ---------------------------------

    def substitute(self, i: int, value: "Polynomial") -> "Polynomial":
        """Replace variable ``i`` by ``value`` (a polynomial in the same ring)."""
        self._check(value)
        powers = [Polynomial.constant(self.ring, 1)]
        for _ in range(self.degree_in(i)):
            powers.append(powers[-1] * value)
        terms: Dict[PowerProduct, object] = {}
        for t, c in self.terms.items():
            _add_terms(terms, powers[t[i]].mul_term(t[:i] + (0,) + t[i + 1:], c).terms)
        return Polynomial(self.ring, terms)

    def evaluate(self, values: Iterable) -> object:
        """Full evaluation at a point; returns a coefficient-field element."""
        vals = list(values)
        if len(vals) != self.ring.arity:
            raise ValueError("wrong number of values")
        total = Fraction(0)
        for t, c in self.terms.items():
            acc = c
            for v, e in zip(vals, t):
                if e:
                    acc = acc * v ** e
            total = total + acc
        return total

    def project_drop(self, i: int) -> "Polynomial":
        """Move into the ring without variable ``i`` (its exponent must be 0)."""
        if any(t[i] for t in self.terms):
            raise ValueError(f"polynomial involves {self.ring.names[i]}; cannot drop it")
        return Polynomial(self.ring.drop(i), {pp_drop(t, i): c for t, c in self.terms.items()})

    def embed_insert(self, i: int, name: str) -> "Polynomial":
        """Move into the ring with ``name`` inserted at position ``i``."""
        return Polynomial(self.ring.insert(i, name), {pp_insert(t, i, 0): c for t, c in self.terms.items()})

    def map_coefficients(self, func, ring: Ring = None) -> "Polynomial":
        target = ring if ring is not None else self.ring
        terms = {}
        for t, c in self.terms.items():
            v = func(c)
            if v:
                terms[t] = v
        return Polynomial(target, terms)

    def __repr__(self) -> str:
        from .parsing import format_polynomial
        from .orders import DegRevLex

        return format_polynomial(DegRevLex(self.ring.arity), self)


def compose(f: Polynomial, images: Iterable[Polynomial], target: Ring) -> Polynomial:
    """Apply the ring map sending each variable of ``f`` to the given
    image polynomial (all images living in ``target``)."""
    imgs = list(images)
    if len(imgs) != f.ring.arity:
        raise ValueError("one image per variable required")
    powers = [{0: Polynomial.constant(target, 1)} for _ in imgs]

    def power(i: int, e: int) -> Polynomial:
        cache = powers[i]
        if e not in cache:
            cache[e] = power(i, e - 1) * imgs[i]
        return cache[e]

    terms: Dict[PowerProduct, object] = {}
    for t, c in f.terms.items():
        acc = Polynomial.constant(target, 1).scale(c)
        for i, e in enumerate(t):
            if e:
                acc = acc * power(i, e)
        _add_terms(terms, acc.terms)
    return Polynomial(target, terms)


def _add_terms(terms: Dict[PowerProduct, object], more: Dict[PowerProduct, object]) -> None:
    """Add ``more`` into the dict ``terms`` in place; sums that vanish leave it."""
    for t, c in more.items():
        s = terms.get(t)
        if s is None:
            terms[t] = c
        elif s := s + c:
            terms[t] = s
        else:
            del terms[t]
