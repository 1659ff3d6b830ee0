"""Fractions of polynomials.

A :class:`RationalFunction` is a quotient of two rational-coefficient
polynomials from the same ring, kept in lowest terms with a monic
denominator.  The class implements enough arithmetic that it can serve
as the coefficient type of :class:`~slicegb.poly.Polynomial`, so
polynomials and the slicing layer work over a field of fractions.
Buchberger, the interreduction and ``normal_form`` do not divide
here: they clear denominators and pseudo-divide on the parameter
polynomials, with :func:`polynomial_gcd` keeping them small, and build
one fraction per coefficient at the end.

Where an input is a constant or a monomial, the gcd is read off the
exponents.  Otherwise it works on the integer numerators of the inputs
and first tries the heuristic gcd GCDHEU of B. W. Char, K. O. Geddes
and G. H. Gonnet (J. Symbolic Comput. 7, 1989): set the last variable
that occurs to an integer, take the gcd of the images one variable
down, and lift it back digit by digit.  A candidate counts only when
it divides both inputs over Z, by the same integer quotient,
``poly._int_quotient``, that ``exact_divide`` runs on.  After six failed
evaluation points the gcd falls back to the primitive remainder
sequence, recursing on the coefficients of the chosen main variable.
The monic gcd is unique, so both give the same result.
"""

import math
from fractions import Fraction
from typing import Dict, Optional

from .orders import DegRevLex
from .poly import Polynomial, PowerProduct, _int_quotient, exact_divide, over_lcm
from .rings import Ring


# -- the heuristic gcd -----------------------------------------------

_IntPoly = Dict[PowerProduct, int]


def _primitive(a: _IntPoly):
    """The integer content of ``a`` and ``a`` divided by it."""
    c = math.gcd(*a.values())
    return c, (a if c == 1 else {t: x // c for t, x in a.items()})


def _evaluate(a: _IntPoly, v: int, xi: int) -> _IntPoly:
    """``a`` with x_v set to ``xi``."""
    out: _IntPoly = {}
    for t, x in a.items():
        rest = t[:v] + (0,) + t[v + 1:]
        out[rest] = out.get(rest, 0) + x * xi ** t[v]
    return {t: x for t, x in out.items() if x}


def _lift(g: _IntPoly, v: int, xi: int) -> _IntPoly:
    """The polynomial in x_v whose value at ``xi`` is ``g``, with
    coefficients in the symmetric range of ``xi``."""
    out: _IntPoly = {}
    half = xi // 2
    for t, x in g.items():
        e = 0
        while x:
            r = x % xi
            if r > half:
                r -= xi
            if r:
                out[t[:v] + (e,) + t[v + 1:]] = r
            x = (x - r) // xi
            e += 1
    return out


def _heuristic_gcd(a: _IntPoly, b: _IntPoly) -> Optional[_IntPoly]:
    """A gcd over Z of two integer polynomials, content included and up
    to sign, or None when six evaluation points give no candidate."""
    if not a or not b:
        return a or b
    ca, a = _primitive(a)
    cb, b = _primitive(b)
    c = math.gcd(ca, cb)
    present = [i for i in range(len(next(iter(a)))) if any(t[i] for t in a) or any(t[i] for t in b)]
    if not present:
        return {next(iter(a)): c}
    v = present[-1]
    # the bound of Char, Geddes and Gonnet, under which a lifted
    # candidate that divides both inputs is their gcd
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    for _ in range(6):
        g = _heuristic_gcd(_evaluate(a, v, xi), _evaluate(b, v, xi))
        if g is not None:
            _, h = _primitive(_lift(g, v, xi))
            if _int_quotient(a, h) is not None and _int_quotient(b, h) is not None:
                return {t: c * x for t, x in h.items()}
        xi = xi * 73794 // 27011
    return None


# -- the primitive remainder sequence --------------------------------


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
    # unnormalised; polynomial_gcd rescales once at the end
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


def polynomial_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """The monic greatest common divisor; zero only when both inputs are."""
    order = DegRevLex(f.ring.arity)
    if not (f and g):
        h = f or g
        return h.monic(order) if h else h
    if f.is_constant() or g.is_constant():
        return Polynomial.constant(f.ring, 1)
    if len(f.terms) == 1 or len(g.terms) == 1:
        # a monomial's divisors are monomials: each variable to its
        # smallest exponent in either input
        return Polynomial.monomial(f.ring, tuple(map(min, *f.terms, *g.terms)))
    a, b = (dict(zip(p.terms, over_lcm(p.terms.values())[0])) for p in (f, g))
    h = _heuristic_gcd(a, b)
    if h is None:
        return _gcd(f, g).monic(order)
    lc = h[order.max_term(h)]
    return Polynomial(f.ring, {t: Fraction(x, lc) for t, x in h.items()})


def polynomial_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    """The monic least common multiple of two nonzero polynomials."""
    return exact_divide(f * g, polynomial_gcd(f, g)).monic(DegRevLex(f.ring.arity))


# -- the fraction type -----------------------------------------------


class RationalFunction:
    """A quotient of polynomials over Q in a common ring.

    Instances normalise on construction: a reduced pair with a monic
    denominator, and the canonical ``0/1`` for zero.  Equality
    cross-multiplies.
    """

    __slots__ = ("num", "den")
    __hash__ = None

    def __init__(self, num: Polynomial, den: Polynomial = None):
        if den is None:
            den = Polynomial.constant(num.ring, 1)
        if num.ring != den.ring:
            raise ValueError("numerator and denominator from different rings")
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = polynomial_gcd(num, den)
            if not g.is_constant():
                num = exact_divide(num, g)
                den = exact_divide(den, g)
        self._canonical(num, den)

    def _canonical(self, num: Polynomial, den: Polynomial) -> None:
        """Store a pair in lowest terms as ``0/1`` when zero, and
        otherwise with a monic denominator."""
        if not num:
            den = Polynomial.constant(num.ring, 1)
        else:
            lc = den.leading_term(DegRevLex(den.ring.arity))[0]
            if lc != 1:
                num = num.scale(1 / lc)
                den = den.scale(1 / lc)
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        # caller guarantees the pair is already in lowest terms
        self = object.__new__(cls)
        self._canonical(num, den)
        return self

    @classmethod
    def constant(cls, ring: Ring, c) -> "RationalFunction":
        return cls(Polynomial.constant(ring, c))

    @classmethod
    def zero(cls, ring: Ring) -> "RationalFunction":
        return cls(Polynomial.zero(ring))

    @classmethod
    def one(cls, ring: Ring) -> "RationalFunction":
        return cls(Polynomial.constant(ring, 1))

    @property
    def ring(self) -> Ring:
        return self.num.ring

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_polynomial(self) -> Polynomial:
        """The numerator, when the denominator is trivial."""
        if not self.den.is_constant():
            raise ValueError(f"{self!r} is not a polynomial")
        return self.num

    def evaluate(self, values) -> Fraction:
        bottom = self.den.evaluate(values)
        if not bottom:
            raise ZeroDivisionError("denominator vanishes at the point")
        return self.num.evaluate(values) / bottom

    # -- arithmetic --------------------------------------------------

    def _wrap(self, other):
        if isinstance(other, RationalFunction):
            if other.ring != self.ring:
                raise ValueError("mixing rational functions over different rings")
            return other
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("mixing rational functions over different rings")
            return RationalFunction._reduced(
                other, Polynomial.constant(other.ring, 1)
            )
        if isinstance(other, (int, Fraction)):
            return RationalFunction._reduced(
                Polynomial.constant(self.ring, other),
                Polynomial.constant(self.ring, 1),
            )
        return None

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        e = polynomial_gcd(b, d)
        if e.is_constant():
            return RationalFunction._reduced(a * d + c * b, b * d)
        bp = exact_divide(b, e)
        dp = exact_divide(d, e)
        num = a * dp + c * bp
        # a common factor of num and e*bp*dp must divide e
        g = polynomial_gcd(num, e)
        if g.is_constant():
            return RationalFunction._reduced(num, e * bp * dp)
        return RationalFunction._reduced(
            exact_divide(num, g), exact_divide(e, g) * bp * dp
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        if not (a and c):
            return RationalFunction._reduced(
                Polynomial.zero(self.ring), Polynomial.constant(self.ring, 1)
            )
        g1 = polynomial_gcd(a, d)
        g2 = polynomial_gcd(c, b)
        if not g1.is_constant():
            a = exact_divide(a, g1)
            d = exact_divide(d, g1)
        if not g2.is_constant():
            c = exact_divide(c, g2)
            b = exact_divide(b, g2)
        return RationalFunction._reduced(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by the zero rational function")
        return self * RationalFunction._reduced(o.den, o.num)

    def __rtruediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        if not self:
            raise ZeroDivisionError("division by the zero rational function")
        return o * RationalFunction._reduced(self.den, self.num)

    def __neg__(self):
        return RationalFunction._reduced(-self.num, self.den)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            if not self:
                raise ZeroDivisionError("zero to a negative power")
            return RationalFunction._reduced(self.den ** -e, self.num ** -e)
        return RationalFunction._reduced(self.num ** e, self.den ** e)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            if other.ring != self.ring:
                return False
            return self.num * other.den == other.num * self.den
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                return False
            return self.num == other * self.den
        if isinstance(other, (int, Fraction)):
            return self.num == self.den.scale(other)
        return NotImplemented

    def __lt__(self, other) -> bool:
        # sign convention for printing: compare by the leading numerator
        # coefficient of the difference (denominators are monic)
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        diff = self - o
        if not diff:
            return False
        return diff.num.leading_term(DegRevLex(self.ring.arity))[0] < 0

    def __repr__(self) -> str:
        from .parsing import format_polynomial

        order = DegRevLex(self.ring.arity)
        top = format_polynomial(order, self.num)
        if self.den.is_constant():
            return top
        if len(self.num.terms) > 1:
            top = f"({top})"
        return f"{top}/({format_polynomial(order, self.den)})"
