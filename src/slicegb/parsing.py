"""Text form of rings, polynomials, and ideal files.

Grammar (whitespace between tokens is ignored):

    poly     := term (("+" | "-") term)*
    term     := ["-"] factor ("*" factor)*
    factor   := rational | var ["^" nat] | "(" poly ")"
    rational := nat ["/" nat]

Products need an explicit "*"; "/" only joins two integer literals.
Parentheses nest at most ``MAX_NESTING`` deep.
``format_polynomial`` emits terms in descending order so that
``parse_polynomial(format_polynomial(order, f)) == f``.

The parser walks text positions and builds no token list.  One regular
expression match at the current position reads a whole run of
rationals and powers joined by "*", which is all of a term such as
``-3/2*x^9*y^2`` after its sign; only a "(" drops to factor-by-factor
descent.  A ``ParseError`` takes its span from the token pattern matched
at the failing position.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .orders import TermOrder, order_by_name
from .poly import Polynomial, _add_terms
from .rings import PowerProduct, Ring, pp_degree


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan, text: str):
        self.span = span
        self.text = text
        snippet = text[span.start:span.end] or "<end of input>"
        super().__init__(f"{message} at {span.start}..{span.end}: {snippet!r}")


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()^*+/-]))")

# A run of rational and power factors joined by "*": one match reads a
# whole flat term.  A "/" or "^" that lacks its integer still matches,
# so that the fold can report it at the right place.
_FACTOR = re.compile(r"\s*(?:(\d+)(\s*/(?:\s*(\d+))?)?|([A-Za-z_][A-Za-z_0-9]*)(\s*\^(?:\s*(\d+))?)?)")
_RUN = re.compile(rf"{_FACTOR.pattern}(?:\s*\*{_FACTOR.pattern})*")
_MINUS, _TIMES, _PLUS_MINUS = re.compile(r"\s*-"), re.compile(r"\s*\*"), re.compile(r"\s*([-+])")

# each level costs two frames of the recursive descent; this keeps a
# parse well inside Python's default recursion limit
MAX_NESTING = 100


class _Parser:
    """Recursive descent over text positions that builds each term as
    one monomial: only a parenthesised factor goes through
    ``Polynomial`` arithmetic, and a sum collects its terms in one dict.

    An error names the first character that starts no token, when the
    text has one anywhere, and otherwise the token where the grammar
    fails."""

    def __init__(self, ring: Ring, text: str):
        self.ring = ring
        self.text = text
        self.index = {name: i for i, name in enumerate(ring.names)}
        self.depth = 0

    def token(self, pos: int) -> Tuple[str, int]:
        """The text of the token at ``pos`` and its end, or "" when no
        token starts there."""
        m = _TOKEN.match(self.text, pos)
        return (m.group(m.lastindex), m.end()) if m else ("", pos)

    def fail(self, message: str, pos: int):
        text = self.text
        # a character that starts no token outranks any grammar error
        end = 0
        while (m := _TOKEN.match(text, end)) is not None:
            end = m.end()
        rest = text[end:].lstrip()
        if rest:
            first = len(text) - len(rest)
            raise ParseError("unexpected character", SourceSpan(first, first + 1), text)
        m = _TOKEN.match(text, pos)
        start, end = m.span(m.lastindex) if m else (len(text), len(text))
        raise ParseError(message, SourceSpan(start, end), text)

    # poly := term (("+" | "-") term)*
    def poly(self, pos: int) -> Tuple[Polynomial, int]:
        terms: Dict[PowerProduct, Fraction] = {}
        sign = 1
        while True:
            pos = self.term(pos, sign, terms)
            m = _PLUS_MINUS.match(self.text, pos)
            if m is None:
                return Polynomial(self.ring, terms), pos
            sign = 1 if m.group(1) == "+" else -1
            pos = m.end()

    # term := ["-"] factor ("*" factor)*
    # factor := rational | var ["^" nat] | "(" poly ")"
    def term(self, pos: int, sign: int, into: Dict[PowerProduct, Fraction]) -> int:
        """Parse a term, add ``sign`` times it into ``into`` and return
        the position after it."""
        text = self.text
        m = _MINUS.match(text, pos)
        if m is not None:
            sign = -sign
            pos = m.end()
        num, den = sign, 1
        exps = [0] * self.ring.arity
        product = None  # of the parenthesised factors
        while True:
            run = _RUN.match(text, pos)
            if run is not None:
                n, d = self.fold(pos, run.end(), exps)
                num *= n
                den *= d
                pos = run.end()
            else:
                value, after = self.token(pos)
                if value != "(":
                    self.fail("expected a rational, a variable, or '('", pos)
                if self.depth == MAX_NESTING:
                    self.fail(f"parentheses nested deeper than {MAX_NESTING}", pos)
                self.depth += 1
                inner, pos = self.poly(after)
                self.depth -= 1
                value, after = self.token(pos)
                if value != ")":
                    self.fail("expected ')'", pos)
                pos = after
                product = inner if product is None else product * inner
            m = _TIMES.match(text, pos)
            if m is None:
                break
            pos = m.end()
        if num:
            c, t = Fraction(num, den), tuple(exps)
            _add_terms(into, {t: c} if product is None else product.mul_term(t, c).terms)
        return pos

    def fold(self, start: int, end: int, exps: List[int]) -> Tuple[int, int]:
        """Add the exponents of the factor run ``text[start:end]`` into
        ``exps``; return the numerator and denominator of its rationals."""
        num = den = 1
        for m in _FACTOR.finditer(self.text, start, end):
            n, slash, d, name, caret, e = m.groups()
            if n is not None:
                num *= _integer(n)
                if slash is not None:
                    if d is None:
                        self.fail("expected integer denominator", m.end(2))
                    d = _integer(d)
                    if not d:
                        self.fail("zero denominator", m.start(3))
                    den *= d
            else:
                i = self.index.get(name)
                if i is None:
                    self.fail(f"unknown variable {name!r}", m.start(4))
                if caret is None:
                    exps[i] += 1
                elif e is None:
                    self.fail("expected integer exponent", m.end(5))
                else:
                    exps[i] += int(e)
        return num, den


def parse_polynomial(ring: Ring, text: str) -> Polynomial:
    parser = _Parser(ring, text)
    result, pos = parser.poly(0)
    if text[pos:].strip():
        parser.fail("trailing input after polynomial", pos)
    return result


_RING_RE = re.compile(r"\s*QQ\[\s*([^\]]*)\]\s*$")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def parse_ring(text: str) -> Ring:
    m = _RING_RE.match(text)
    if m is None:
        raise ParseError("expected a ring header like QQ[x,y,z]", SourceSpan(0, min(len(text), 8)), text)
    return _ring([v.strip() for v in m.group(1).split(",")] if m.group(1).strip() else [], text)


def _ring(names: list, value) -> Ring:
    if not names:
        raise _reject("ring needs at least one variable", value)
    for name in names:
        if not isinstance(name, str) or not _NAME.fullmatch(name):
            raise _reject(f"bad variable name {name!r}", value)
    if len(set(names)) < len(names):
        raise _reject("duplicate variable names", value)
    return Ring(tuple(names))


# -- printing --------------------------------------------------------

# Python refuses to turn an int of more than sys.get_int_max_str_digits()
# decimal digits (4300 by default) into text or back, and an unreduced
# lex basis reaches that; longer integers are converted in halves.
_DIGITS = 4000


def _integer(digits: str) -> int:
    """``int(digits)`` for a digit string of any length, signed by a
    leading "-" or not."""
    if len(digits) <= _DIGITS:
        return int(digits)
    if digits[0] == "-":
        return -_integer(digits[1:])
    k = len(digits) // 2
    return _integer(digits[:k]) * 10 ** (len(digits) - k) + _integer(digits[k:])


def _decimal(n: int) -> str:
    """``str(n)`` for an ``n >= 0`` of any length."""
    if n.bit_length() <= 3 * _DIGITS:  # under 0.302 * bits + 1 digits
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def format_rational(c: Fraction) -> str:
    """``str(c)`` for a ``c`` whose terms may be of any length."""
    if c < 0:
        return "-" + format_rational(-c)
    if c.denominator == 1:
        return _decimal(c.numerator)
    return f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"

def _format_power_product(ring: Ring, t: PowerProduct) -> str:
    parts = []
    for name, e in zip(ring.names, t):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _bare_sum(text: str) -> bool:
    # "a^2 -1" would read wrong glued to a power product; the separating
    # blank inside "a/(b +c)" sits at paren depth 1 and is harmless.
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == " " and depth == 0:
            return True
    return False


def format_polynomial(order: TermOrder, f: Polynomial) -> str:
    """Deterministic text form: terms in descending order, '+'/'-' glued
    to each coefficient, e.g. ``x^2 +2*x*y -1/3``."""
    if f.is_zero():
        return "0"
    pieces = []
    for i, t in enumerate(f.support(order)):
        c = f.terms[t]
        negative = c < 0
        mag = -c if negative else c
        body = _format_power_product(f.ring, t)
        head = format_rational(mag) if isinstance(mag, Fraction) else str(mag)
        if _bare_sum(head):
            head = f"({head})"
        if pp_degree(t) == 0:
            text = head
        elif mag == 1:
            text = body
        else:
            text = f"{head}*{body}"
        if i == 0:
            pieces.append(("-" if negative else "") + text)
        else:
            pieces.append(("-" if negative else "+") + text)
    return " ".join(pieces)


# -- input fields ----------------------------------------------------
# Every file format spells its fields with these readers, so a field
# reads the same in all of them; a rejection shows the offending value.


def _reject(message: str, value) -> ParseError:
    text = value[:60] if isinstance(value, str) else reprlib.repr(value)
    return ParseError(message, SourceSpan(0, len(text)), text)


def read_object(value, *keys: str) -> dict:
    """A JSON object that holds every one of ``keys``."""
    if not isinstance(value, dict):
        raise _reject("expected a JSON object", value)
    for key in keys:
        if key not in value:
            raise _reject(f"missing {key!r}", value)
    return value


def read_list(value, what: str, count: Optional[int] = None) -> list:
    """A JSON list, of ``count`` entries when given."""
    if not isinstance(value, list):
        raise _reject(f"{what} must be a JSON list", value)
    if count is not None and len(value) != count:
        raise _reject(f"{what} has the wrong number of entries ({count} expected)", value)
    return value


def read_rings(*values) -> List[Ring]:
    """Ring fields, each a header like ``QQ[x,y]`` or a list of names,
    no two of which share a name."""
    rings = [parse_ring(v) if isinstance(v, str) else _ring(read_list(v, "a ring"), v) for v in values]
    names = [v for r in rings for v in r.names]
    if len(set(names)) < len(names):
        raise _reject("the rings' variable names overlap", list(values))
    return rings


def read_order(value, ring: Ring) -> Optional[str]:
    """An optional ordering name that ``order_by_name`` resolves over ``ring``."""
    if value is not None:
        if not isinstance(value, str):
            raise _reject("an ordering must be a name", value)
        try:
            order_by_name(ring, value)
        except (ValueError, KeyError) as bad:
            raise _reject(bad.args[0], value) from None
    return value


def read_variable(value, ring: Ring, what: str, fresh: bool = False) -> str:
    """A variable name: one of ``ring``'s, or with ``fresh`` a new one
    outside it."""
    if not isinstance(value, str) or not _NAME.fullmatch(value):
        raise _reject(f"{what} must be a variable name", value)
    if (value in ring.names) == fresh:
        relation = "collides with" if fresh else "is not"
        raise _reject(f"{what} {value!r} {relation} a variable of {ring}", value)
    return value


# the integer, ratio and decimal spellings that ``Fraction`` reads; their
# digit runs are read with ``_integer``, so they may be of any length
_RATIO = re.compile(r"\s*([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|\.(\d*))?\s*")


def read_rational(value, what: str) -> Fraction:
    """A rational: a JSON number or a string like ``-3/4``, in any
    spelling ``Fraction`` reads."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, (float, str)):
        try:
            m = _RATIO.fullmatch(value) if isinstance(value, str) else None
            if m is None:
                return Fraction(str(value))
            sign, whole, den, decimals = m.groups()
            decimals = decimals or ""
            q = Fraction(_integer(whole + decimals), _integer(den) if den else 10 ** len(decimals))
            return -q if sign == "-" else q
        except (ValueError, ZeroDivisionError):
            pass
    raise _reject(f"bad {what}", value)


def read_polynomial(ring: Ring, value) -> Polynomial:
    """A polynomial: a string in the grammar above, or an integer."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Polynomial.constant(ring, value)
    if not isinstance(value, str):
        raise _reject("a polynomial must be a string", value)
    return parse_polynomial(ring, value)


def read_polynomials(ring: Ring, value, count: Optional[int] = None) -> List[Polynomial]:
    """A JSON list of polynomials, ``count`` of them when given."""
    return [read_polynomial(ring, v) for v in read_list(value, "a polynomial list", count)]


def read_slices(value, *keys: str) -> List[Tuple[Fraction, str, object]]:
    """A non-empty list of slices, each an object with a distinct
    rational ``gamma`` and exactly one of ``keys``, as triples of the
    gamma, the key present and its value."""
    if not read_list(value, "'slices'"):
        raise _reject("'slices' must not be empty", value)
    out = []
    for entry in value:
        if "gamma" not in read_object(entry):
            raise _reject("slice without 'gamma'", entry)
        gamma = read_rational(entry["gamma"], "slice constant")
        if any(gamma == g for g, _, _ in out):
            raise _reject(f"duplicate slice constant {gamma}", entry)
        present = [k for k in keys if k in entry]
        if len(present) != 1:
            raise _reject(f"each slice needs {' or '.join(map(repr, keys))}", entry)
        out.append((gamma, present[0], entry[present[0]]))
    return out


def scan_lines(text: str, headers: int) -> Tuple[List[Ring], Optional[str], List[str]]:
    """The text formats: ``headers`` ring header lines, an optional
    ``order:`` line checked against the last ring, then one polynomial
    per line.  Blank lines and ``#`` comments are skipped; the rings,
    the ordering name and the polynomial lines are returned."""
    lines = [s for s in (line.split("#", 1)[0].strip() for line in text.splitlines()) if s]
    if len(lines) < headers:
        raise ParseError("missing ring header", SourceSpan(0, 0), text)
    rings = read_rings(*lines[:headers])
    body = lines[headers:]
    order_name = None
    if body and body[0].startswith("order:"):
        order_name = read_order(body.pop(0)[len("order:"):].strip(), rings[-1])
    for line in body:
        if line.startswith(("order:", "QQ[")):
            raise _reject("ring headers and the order line must come before the polynomials", line)
    return rings, order_name, body


# -- ideal files -----------------------------------------------------


@dataclass
class IdealFile:
    ring: Ring
    order_name: Optional[str]
    generators: List[Polynomial]


def parse_ideal_text(text: str) -> IdealFile:
    """Ideal file: a ring header, an optional ``order:`` line, then one
    polynomial per line.  Blank lines and ``#`` comments are skipped."""
    (ring,), order_name, lines = scan_lines(text, 1)
    return IdealFile(ring, order_name, [parse_polynomial(ring, s) for s in lines])


def parse_ideal_json(data: dict) -> IdealFile:
    """``{"ring": ..., "generators": [...]}`` with an optional ``"order"``."""
    (ring,) = read_rings(read_object(data, "ring")["ring"])
    order_name = read_order(data.get("order"), ring)
    return IdealFile(ring, order_name, read_polynomials(ring, data.get("generators", [])))
