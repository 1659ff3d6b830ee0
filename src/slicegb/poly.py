"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a dict mapping power products (exponent tuples) to
nonzero coefficients.  Coefficients are ``fractions.Fraction`` for
polynomials over Q, or ``RationalFunction`` for polynomials over a field
of fractions Q(params); arithmetic here only assumes field operations
and truthiness (nonzero) on them.  Neither kind defines an ordering.

Substitution, composition and exact division over Q run on a private
integer kernel instead: each polynomial becomes integer numerators over
the lcm of its denominators, products and quotients are taken on int
dicts, and each coefficient of the result becomes a ``Fraction`` once,
at the end.  ``Fraction`` arithmetic would pay a gcd on every product
and sum.  ``over_lcm`` clears denominators for the whole package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from typing import Collection, Dict, Iterable, List, Optional, Tuple

from .orders import DegRevLex, TermOrder
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
    def monomial(cls, ring: Ring, t: PowerProduct) -> "Polynomial":
        return cls(ring, {t: Fraction(1)})

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

    def support(self, order: TermOrder) -> List[PowerProduct]:
        """Power products, descending in ``order``."""
        return sorted(self.terms, key=order.key, reverse=True)

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

    # -- substitution and ring moves ---------------------------------

    def substitute(self, i: int, value: "Polynomial") -> "Polynomial":
        """Replace variable ``i`` by ``value`` (a polynomial in the same ring)."""
        self._check(value)
        if _over_q(self) and _over_q(value):
            return self._substitute_q(i, value)
        powers = [Polynomial.constant(self.ring, 1)]
        for _ in range(self.degree_in(i)):
            powers.append(powers[-1] * value)
        terms: Dict[PowerProduct, object] = {}
        for t, c in self.terms.items():
            _add_terms(terms, powers[t[i]].mul_term(t[:i] + (0,) + t[i + 1:], c).terms)
        return Polynomial(self.ring, terms)

    def _substitute_q(self, i: int, value: "Polynomial") -> "Polynomial":
        """``substitute`` on the integer kernel: with ``value = V / d`` and
        top the degree in variable ``i``, ``x_i^k`` becomes
        ``V^k d^(top - k)`` over ``d^top``."""
        nums, den = over_lcm(self.terms.values())
        vnums, vden = over_lcm(value.terms.values())
        vterms = dict(zip(value.terms, vnums))
        top = max(self.degree_in(i), 0)
        powers = [{pp_one(self.ring.arity): 1}]
        for _ in range(top):
            powers.append(_int_mul(powers[-1], vterms))
        scales = [vden ** (top - k) for k in range(top + 1)]
        terms: Dict[PowerProduct, int] = {}
        for t, c in zip(self.terms, nums):
            k = t[i]
            c *= scales[k]
            rest = t[:i] + (0,) + t[i + 1:]
            for u, d in powers[k].items():
                u = tuple(map(add, rest, u))
                terms[u] = terms.get(u, 0) + c * d
        return _from_numerators(self.ring, terms, den * vden ** top)

    def evaluate(self, values: Iterable) -> object:
        """Full evaluation at a point: an element of the coefficient
        field."""
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

    def __repr__(self) -> str:
        from .parsing import format_polynomial

        return format_polynomial(DegRevLex(self.ring.arity), self)


def compose(f: Polynomial, images: Iterable[Polynomial], target: Ring) -> Polynomial:
    """Apply the ring map sending each variable of ``f`` to the given
    image polynomial (all images living in ``target``).

    Over Q only: every coefficient of ``f`` and of the images must be a
    ``Fraction``, or ``TypeError`` is raised.  With image ``j`` equal to
    ``N_j / d_j`` and ``D_j`` the degree of ``f`` in variable ``j``, the
    map is computed on the integer kernel over the one denominator
    ``den(f) * prod d_j^D_j``."""
    imgs = list(images)
    if len(imgs) != f.ring.arity:
        raise ValueError("one image per variable required")
    if not all(_over_q(g) for g in [f, *imgs]):
        raise TypeError("compose works over Q: every coefficient must be a Fraction")
    nums, den = over_lcm(f.terms.values())
    split = [over_lcm(g.terms.values()) for g in imgs]
    tops = [max(f.degree_in(j), 0) for j in range(f.ring.arity)]
    one = pp_one(target.arity)
    powers = [[{one: 1}, dict(zip(g.terms, g_nums))] for g, (g_nums, _) in zip(imgs, split)]

    def power(j: int, e: int) -> Dict[PowerProduct, int]:
        cache = powers[j]
        while len(cache) <= e:
            cache.append(_int_mul(cache[-1], cache[1]))
        return cache[e]

    terms: Dict[PowerProduct, int] = {}
    for t, c in zip(f.terms, nums):
        for (_, d), e, top in zip(split, t, tops):
            c *= d ** (top - e)
        acc = {one: c}
        for j, e in enumerate(t):
            if e:
                acc = _int_mul(acc, power(j, e))
        for u, c in acc.items():
            terms[u] = terms.get(u, 0) + c
    for (_, d), top in zip(split, tops):
        den *= d ** top
    return _from_numerators(target, terms, den)


# -- exact division --------------------------------------------------
#
# One integer quotient, ``_int_quotient``, serves ``exact_divide`` and
# the gcd's trial division in ``ratfunc``.  It works on exponent tuples,
# not on ``groebner``'s packed terms: most calls divide tiny polynomials,
# where building a packing per call costs more than the division itself.


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """The quotient f/g over Q: ``ValueError`` when g does not divide f,
    ``TypeError`` when a coefficient is not a ``Fraction``.  The
    numerators of f are divided over Z by the primitive part of g, which
    by Gauss's lemma divides them whenever g divides f over Q."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not (_over_q(f) and _over_q(g)):
        raise TypeError("exact_divide works over Q: every coefficient must be a Fraction")
    nums, den = over_lcm(f.terms.values())
    g_nums, g_den = over_lcm(g.terms.values())
    content = math.gcd(*g_nums)
    q = _int_quotient(dict(zip(f.terms, nums)), {t: c // content for t, c in zip(g.terms, g_nums)})
    if q is None:
        raise ValueError("not an exact division")
    # f = F / den and g = content * G / g_den
    return _from_numerators(f.ring, {t: c * g_den for t, c in q.items()}, den * content)


# -- the integer kernel over Q ---------------------------------------


def _over_q(f: Polynomial) -> bool:
    return all(type(c) is Fraction for c in f.terms.values())


def over_lcm(qs: Collection[Fraction]) -> Tuple[List[int], int]:
    """Rationals as integer numerators over the lcm of their
    denominators, in order, and that lcm (1 for no rationals)."""
    den = math.lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


def _int_mul(a: Dict[PowerProduct, int], b: Dict[PowerProduct, int]) -> Dict[PowerProduct, int]:
    """The product of two polynomials with int coefficients."""
    out: Dict[PowerProduct, int] = {}
    get = out.get
    for s, c in a.items():
        for t, d in b.items():
            u = tuple(map(add, s, t))
            out[u] = get(u, 0) + c * d
    return {u: c for u, c in out.items() if c}


def _int_quotient(a: Dict[PowerProduct, int], h: Dict[PowerProduct, int]) -> Optional[Dict[PowerProduct, int]]:
    """The quotient ``a / h`` over Z of int polynomials, by division
    under lex, or None when ``h`` does not divide ``a`` there."""
    lt = max(h)
    lc = h[lt]
    tail = [(t, x) for t, x in h.items() if t != lt]
    work = dict(a)
    out: Dict[PowerProduct, int] = {}
    while work:
        t = max(work)
        q = tuple(map(sub, t, lt))
        if min(q, default=0) < 0:
            return None
        x, r = divmod(work.pop(t), lc)
        if r:
            return None
        out[q] = x
        for s, y in tail:
            u = tuple(map(add, s, q))
            value = work.get(u, 0) - x * y
            if value:
                work[u] = value
            else:
                work.pop(u, None)
    return out


def _from_numerators(ring: Ring, terms: Dict[PowerProduct, int], den: int) -> Polynomial:
    """The polynomial with coefficients ``terms[t] / den``; one
    ``Fraction`` per nonzero coefficient."""
    return Polynomial(ring, {t: Fraction(c, den) for t, c in terms.items() if c})


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
