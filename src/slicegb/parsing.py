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
from typing import Dict, List, Optional, Tuple

from .orders import TermOrder
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
_KINDS = (None, "num", "name", "op")  # by the group that matched

Token = Tuple[str, str, int, int]  # kind, value, start, end

# each level costs two frames of the recursive descent; this keeps a
# parse well inside Python's default recursion limit
MAX_NESTING = 100


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    match = _TOKEN.match
    pos = 0
    while pos < len(text):
        m = match(text, pos)
        if m is None:
            break
        group = m.lastindex
        start, end = m.span(group)
        tokens.append((_KINDS[group], text[start:end], start, end))
        pos = m.end()
    rest = text[pos:]
    if rest.strip():
        first = pos + (len(rest) - len(rest.lstrip()))
        raise ParseError("unexpected character", SourceSpan(first, first + 1), text)
    tokens.append(("end", "", len(text), len(text)))
    return tokens


class _Parser:
    """Recursive descent that builds each term as one monomial: only a
    parenthesised factor goes through ``Polynomial`` arithmetic, and a
    sum collects its terms in one dict."""

    def __init__(self, ring: Ring, text: str):
        self.ring = ring
        self.text = text
        self.tokens = _tokenize(text)
        self.depth = 0

    def fail(self, message: str, pos: int):
        _, _, start, end = self.tokens[pos]
        raise ParseError(message, SourceSpan(start, end), self.text)

    # poly := term (("+" | "-") term)*
    def poly(self, pos: int) -> Tuple[Polynomial, int]:
        terms: Dict[PowerProduct, Fraction] = {}
        sign = 1
        while True:
            pos = self.term(pos, sign, terms)
            kind, value, _, _ = self.tokens[pos]
            if kind != "op" or value not in "+-":
                return Polynomial(self.ring, terms), pos
            sign = 1 if value == "+" else -1
            pos += 1

    # term := ["-"] factor ("*" factor)*
    # factor := rational | var ["^" nat] | "(" poly ")"
    def term(self, pos: int, sign: int, into: Dict[PowerProduct, Fraction]) -> int:
        """Parse a term, add ``sign`` times it into ``into`` and return
        the position after it."""
        tokens = self.tokens
        kind, value, _, _ = tokens[pos]
        if kind == "op" and value == "-":
            sign = -sign
            pos += 1
        num, den = sign, 1
        exps = [0] * self.ring.arity
        product = None  # of the parenthesised factors
        while True:
            kind, value, _, _ = tokens[pos]
            if kind == "num":
                num *= int(value)
                pos += 1
                if tokens[pos][:2] == ("op", "/"):
                    dkind, dvalue, _, _ = tokens[pos + 1]
                    if dkind != "num":
                        self.fail("expected integer denominator", pos + 1)
                    d = int(dvalue)
                    if d == 0:
                        self.fail("zero denominator", pos + 1)
                    den *= d
                    pos += 2
            elif kind == "name":
                if value not in self.ring.names:
                    self.fail(f"unknown variable {value!r}", pos)
                i = self.ring.index(value)
                pos += 1
                if tokens[pos][:2] == ("op", "^"):
                    if tokens[pos + 1][0] != "num":
                        self.fail("expected integer exponent", pos + 1)
                    exps[i] += int(tokens[pos + 1][1])
                    pos += 2
                else:
                    exps[i] += 1
            elif kind == "op" and value == "(":
                if self.depth == MAX_NESTING:
                    self.fail(f"parentheses nested deeper than {MAX_NESTING}", pos)
                self.depth += 1
                inner, pos = self.poly(pos + 1)
                self.depth -= 1
                if tokens[pos][:2] != ("op", ")"):
                    self.fail("expected ')'", pos)
                pos += 1
                product = inner if product is None else product * inner
            else:
                self.fail("expected a rational, a variable, or '('", pos)
            if tokens[pos][:2] != ("op", "*"):
                break
            pos += 1
        if num:
            c, t = Fraction(num, den), tuple(exps)
            _add_terms(into, {t: c} if product is None else product.mul_term(t, c).terms)
        return pos


def parse_polynomial(ring: Ring, text: str) -> Polynomial:
    parser = _Parser(ring, text)
    result, pos = parser.poly(0)
    if parser.tokens[pos][0] != "end":
        parser.fail("trailing input after polynomial", pos)
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
