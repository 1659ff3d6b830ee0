"""Fractions of polynomials.

A :class:`RationalFunction` is a quotient of two rational-coefficient
polynomials from the same ring, kept in lowest terms with a monic
denominator.  The class implements enough arithmetic that it can serve
as the coefficient type of :class:`~slicegb.poly.Polynomial`, so
polynomials, ``normal_form`` and the slicing layer work over a field
of fractions.  Buchberger and the interreduction do not divide here:
they clear denominators and pseudo-divide on the parameter
polynomials, with :func:`polynomial_gcd` keeping them small, and build
one fraction per coefficient at the end.

The gcd underneath is the primitive remainder sequence, recursing on the
coefficients of the chosen main variable.
"""

from fractions import Fraction
from typing import Dict

from .orders import DegRevLex
from .poly import Polynomial, PowerProduct, exact_divide
from .rings import Ring


# -- polynomial gcd --------------------------------------------------


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
    h = _gcd(f, g)
    if not h:
        return h
    return h.monic(DegRevLex(h.ring.arity))


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
        if not num:
            den = Polynomial.constant(num.ring, 1)
        else:
            g = polynomial_gcd(num, den)
            if not g.is_constant():
                num = exact_divide(num, g)
                den = exact_divide(den, g)
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
        if not num:
            den = Polynomial.constant(num.ring, 1)
        else:
            lc = den.leading_term(DegRevLex(den.ring.arity))[0]
            if lc != 1:
                num = num.scale(1 / lc)
                den = den.scale(1 / lc)
        self.num = num
        self.den = den
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
