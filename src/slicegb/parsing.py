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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .orders import TermOrder
from .poly import Polynomial
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

Token = Tuple[str, str, SourceSpan]  # kind, value, span

# each level costs three frames of the recursive descent; this keeps a
# parse well inside Python's default recursion limit
MAX_NESTING = 100


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        span = SourceSpan(m.start(m.lastindex), m.end(m.lastindex))
        if m.group(1) is not None:
            tokens.append(("num", m.group(1), span))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), span))
        else:
            tokens.append(("op", m.group(3), span))
        pos = m.end()
    rest = text[pos:]
    if rest.strip():
        first = pos + (len(rest) - len(rest.lstrip()))
        raise ParseError("unexpected character", SourceSpan(first, first + 1), text)
    tokens.append(("end", "", SourceSpan(len(text), len(text))))
    return tokens


class _Parser:
    def __init__(self, ring: Ring, text: str):
        self.ring = ring
        self.text = text
        self.tokens = _tokenize(text)
        self.depth = 0

    def peek(self, pos: int) -> Token:
        return self.tokens[pos]

    def fail(self, message: str, pos: int):
        raise ParseError(message, self.tokens[pos][2], self.text)

    # poly := term (("+" | "-") term)*
    def poly(self, pos: int) -> Tuple[Polynomial, int]:
        result, pos = self.term(pos)
        while True:
            kind, value, _ = self.peek(pos)
            if kind == "op" and value in "+-":
                rhs, pos = self.term(pos + 1)
                result = result + rhs if value == "+" else result - rhs
            else:
                return result, pos

    # term := ["-"] factor ("*" factor)*
    def term(self, pos: int) -> Tuple[Polynomial, int]:
        negate = False
        kind, value, _ = self.peek(pos)
        if kind == "op" and value == "-":
            negate = True
            pos += 1
        result, pos = self.factor(pos)
        while True:
            kind, value, _ = self.peek(pos)
            if kind == "op" and value == "*":
                rhs, pos = self.factor(pos + 1)
                result = result * rhs
            else:
                break
        return (-result if negate else result), pos

    # factor := rational | var ["^" nat] | "(" poly ")"
    def factor(self, pos: int) -> Tuple[Polynomial, int]:
        kind, value, span = self.peek(pos)
        if kind == "num":
            num = int(value)
            pos += 1
            kind, value, span2 = self.peek(pos)
            if kind == "op" and value == "/":
                dkind, dvalue, dspan = self.peek(pos + 1)
                if dkind != "num":
                    self.fail("expected integer denominator", pos + 1)
                den = int(dvalue)
                if den == 0:
                    raise ParseError("zero denominator", dspan, self.text)
                return Polynomial.constant(self.ring, Fraction(num, den)), pos + 2
            return Polynomial.constant(self.ring, Fraction(num)), pos
        if kind == "name":
            if value not in self.ring.names:
                raise ParseError(f"unknown variable {value!r}", span, self.text)
            var = Polynomial.variable(self.ring, value)
            pos += 1
            kind, value, _ = self.peek(pos)
            if kind == "op" and value == "^":
                ekind, evalue, _ = self.peek(pos + 1)
                if ekind != "num":
                    self.fail("expected integer exponent", pos + 1)
                return var ** int(evalue), pos + 2
            return var, pos
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner, pos = self.poly(pos + 1)
            self.depth -= 1
            kind, value, _ = self.peek(pos)
            if not (kind == "op" and value == ")"):
                self.fail("expected ')'", pos)
            return inner, pos + 1
        self.fail("expected a rational, a variable, or '('", pos)


def parse_polynomial(ring: Ring, text: str) -> Polynomial:
    parser = _Parser(ring, text)
    result, pos = parser.poly(0)
    kind, _, span = parser.peek(pos)
    if kind != "end":
        raise ParseError("trailing input after polynomial", span, text)
    return result


_RING_RE = re.compile(r"\s*QQ\[\s*([^\]]*)\]\s*$")


def parse_ring(text: str) -> Ring:
    m = _RING_RE.match(text)
    if m is None:
        raise ParseError("expected a ring header like QQ[x,y,z]", SourceSpan(0, min(len(text), 8)), text)
    body = m.group(1)
    names = tuple(v.strip() for v in body.split(",")) if body.strip() else ()
    if not names:
        raise ParseError("ring needs at least one variable", SourceSpan(0, len(text)), text)
    for name in names:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
            raise ParseError(f"bad variable name {name!r}", SourceSpan(0, len(text)), text)
    try:
        return Ring(names)
    except ValueError as exc:
        raise ParseError(str(exc), SourceSpan(0, len(text)), text) from None


# -- printing --------------------------------------------------------


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
        head = str(mag)
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


# -- ideal files -----------------------------------------------------


@dataclass
class IdealFile:
    ring: Ring
    order_name: Optional[str]
    generators: List[Polynomial]


def parse_ideal_text(text: str) -> IdealFile:
    """Ideal file: a ring header, an optional ``order:`` line, then one
    polynomial per line.  Blank lines and ``#`` comments are skipped."""
    lines = text.splitlines()
    ring = None
    order_name = None
    generators: List[Polynomial] = []
    for line in lines:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if ring is None:
            ring = parse_ring(stripped)
            continue
        if stripped.startswith("order:"):
            if order_name is not None or generators:
                raise ParseError("order line must directly follow the ring header",
                                 SourceSpan(0, len(stripped)), stripped)
            order_name = stripped.split(":", 1)[1].strip()
            continue
        generators.append(parse_polynomial(ring, stripped))
    if ring is None:
        raise ParseError("missing ring header", SourceSpan(0, 0), text)
    return IdealFile(ring, order_name, generators)


def parse_ideal_json(data: dict) -> IdealFile:
    if not isinstance(data, dict) or "ring" not in data:
        raise ParseError("ideal JSON needs a 'ring' list", SourceSpan(0, 0), str(data)[:40])
    names = data["ring"]
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise ParseError("'ring' must be a list of variable names", SourceSpan(0, 0), str(names)[:40])
    ring = Ring(tuple(names))
    order_name = data.get("order")
    gens = [parse_polynomial(ring, s) for s in data.get("generators", [])]
    return IdealFile(ring, order_name, gens)
