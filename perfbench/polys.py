"""Sparse polynomials over Q for making benchmark inputs.

The benchmark writes its inputs with this module rather than with
slicegb, so that the program under test only ever sees the files.  A
polynomial is a dict from exponent tuples to nonzero Fractions.
"""

from fractions import Fraction
from itertools import product


def monomials(nvars, max_degree):
    """Every exponent tuple of total degree at most ``max_degree``."""
    return [e for e in product(range(max_degree + 1), repeat=nvars) if sum(e) <= max_degree]


def add_into(acc, poly, scale=1):
    for t, c in poly.items():
        v = acc.get(t, 0) + scale * c
        if v:
            acc[t] = v
        else:
            acc.pop(t, None)
    return acc


def mul(f, g):
    out = {}
    for s, a in f.items():
        for t, b in g.items():
            u = tuple(i + j for i, j in zip(s, t))
            v = out.get(u, 0) + a * b
            if v:
                out[u] = v
            else:
                out.pop(u, None)
    return out


def substitute(f, var, value):
    """Replace variable ``var`` by the polynomial ``value`` (same number
    of variables, ``var`` itself absent from it)."""
    nvars = len(next(iter(f)))
    powers = [{(0,) * nvars: Fraction(1)}]
    out = {}
    for t, c in f.items():
        while len(powers) <= t[var]:
            powers.append(mul(powers[-1], value))
        rest = {t[:var] + (0,) + t[var + 1:]: c}
        add_into(out, mul(rest, powers[t[var]]))
    return out


def drop(f, var):
    """Move into the ring without ``var``, which must not occur."""
    assert all(t[var] == 0 for t in f)
    return {t[:var] + t[var + 1:]: c for t, c in f.items()}


def scale(f, c):
    return {t: v * c for t, v in f.items()}


def fmt(f, names):
    """slicegb's input syntax; terms in any order."""
    if not f:
        return "0"
    pieces = []
    for t in sorted(f, reverse=True):
        c = Fraction(f[t])
        body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, t) if e)
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        pieces.append(("-" if c < 0 else "+") + text)
    return " ".join(pieces).lstrip("+")


def parse(text, names):
    """Read an expanded polynomial such as ``x^2 -3*a1*y +1/2`` (no
    parentheses) over the given variable names."""
    index = {n: i for i, n in enumerate(names)}
    out = {}
    for raw in text.replace("-", " -").replace("+", " +").split():
        sign = -1 if raw[0] == "-" else 1
        body = raw.lstrip("+-")
        coeff = Fraction(sign)
        exps = [0] * len(names)
        for factor in body.split("*"):
            name, _, power = factor.partition("^")
            if name in index:
                exps[index[name]] += int(power or 1)
            else:
                coeff *= Fraction(name)
        add_into(out, {tuple(exps): coeff})
    return out


def rescale(f, factors):
    """``f`` with variable i replaced by ``factors[i]`` times itself."""
    out = {}
    for t, c in f.items():
        for v, e in zip(factors, t):
            c *= Fraction(v) ** e
        out[t] = c
    return out


def evaluate(f, point):
    total = Fraction(0)
    for t, c in f.items():
        for v, e in zip(point, t):
            c *= Fraction(v) ** e
        total += c
    return total


def unit(nvars, i):
    return tuple(1 if k == i else 0 for k in range(nvars))


def rank(rows):
    """Rank of a matrix of Fractions, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    found = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(found, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        for r in range(found + 1, len(rows)):
            factor = rows[r][col] / rows[found][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[found])]
        found += 1
    return found
