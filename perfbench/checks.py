"""Output checks that use sympy and never slicegb.

Each function below returns a check: a function of one CLI call's
stdout and of the outputs of the other calls in the same pass (by
problem name), which returns a list of faults, empty when the output
is right.
sympy is imported on first use, after the timed passes, so that it
adds neither to the measured time nor to the measured memory.
"""

from fractions import Fraction


def _sympy():
    import sympy

    return sympy


def _symbols(names):
    sp = _sympy()
    return [sp.Symbol(n) for n in names]


def expr(text, names):
    """A slicegb polynomial (or rational function) as a sympy expression."""
    from sympy.parsing.sympy_parser import parse_expr

    local = {n: s for n, s in zip(names, _symbols(names))}
    return parse_expr(text.replace("^", "**"), local_dict=local)


def _poly(e, names):
    sp = _sympy()
    return sp.Poly(e, *_symbols(names))


def _rational(value):
    sp = _sympy()
    value = Fraction(value)
    return sp.Rational(value.numerator, value.denominator)


def _at(point, params):
    return {s: _rational(v) for s, v in zip(_symbols(params), point)}


def _normal_set(polys):
    """Polynomials up to a nonzero scalar, as a comparable set."""
    out = set()
    for p in polys:
        if not p.is_zero:
            out.add(tuple(sorted(p.monic().terms())))
    return out


def _lines(out):
    return [line for line in out.strip().splitlines() if line.strip()]


# -- implicit equations ----------------------------------------------


def implicit_equation(images, params, coords, pivot):
    """The one polynomial that vanishes on the parametrisation, is
    irreducible over Q, has integer content 1 and a positive leading
    coefficient in degrevlex with the pivot cheapest."""

    def check(out, outputs):
        sp = _sympy()
        lines = _lines(out)
        if len(lines) != 1:
            return [f"expected one polynomial, got {len(lines)} lines"]
        f = expr(lines[0], coords)
        faults = []
        subs = {s: expr(img, params) for s, img in zip(_symbols(coords), images)}
        if sp.Poly(f.xreplace(subs), *_symbols(params)).as_expr() != 0:
            faults.append("does not vanish on the parametrisation")
        ranked = [c for c in coords if c != pivot] + [pivot]
        p = _poly(f, ranked)
        if p.total_degree() < 1:
            return faults + ["constant output"]
        coeffs = p.coeffs()
        if not all(c.is_integer for c in coeffs):
            faults.append("a coefficient is not an integer")
        elif sp.gcd_list(coeffs) != 1:
            faults.append("integer content is not 1")
        if p.LC(order="grevlex") <= 0:
            faults.append("leading coefficient is not positive")
        _, factors = sp.factor_list(f)
        real = [(g, m) for g, m in factors if _poly(g, coords).total_degree() > 0]
        if len(real) != 1 or real[0][1] != 1:
            faults.append(f"not irreducible: {len(real)} factor(s)")
        return faults

    return check


# -- rebuilt surfaces ------------------------------------------------


def equals(expected, names):
    """The output is exactly the expected polynomial."""

    def check(out, outputs):
        lines = _lines(out)
        if len(lines) != 1:
            return [f"expected one polynomial, got {len(lines)} lines"]
        got = _poly(expr(lines[0], names), names)
        want = _poly(expr(expected, names), names)
        if got != want:
            diff = (got - want).terms()
            return [f"differs from the expected polynomial in {len(diff)} term(s)"]
        return []

    return check


# -- families over Q(params) -----------------------------------------


def _family_lines(out, params, names):
    return [expr(line, params + names) for line in _lines(out)]


def _denominators(elements, names):
    sp = _sympy()
    dens = []
    for e in elements:
        for c in _poly(e, names).coeffs():
            dens.append(sp.denom(sp.together(c)))
    return dens


def _specialised_match(elements, generators, params, names, points, cut=None):
    """Compare the printed basis with sympy's reduced grevlex basis of
    the specialised generators at every point where no printed
    denominator vanishes; returns (points used, faults)."""
    sp = _sympy()
    keep = [n for n in names if cut is None or n != cut[0]]
    dens = _denominators(elements, keep)
    used, faults = 0, []
    for point in points:
        at = _at(point, params)
        if any(d.xreplace(at) == 0 for d in dens):
            continue
        used += 1
        gens = [expr(g, params + names).xreplace(at) for g in generators]
        if cut is not None:
            gens = [g.xreplace({sp.Symbol(cut[0]): _rational(cut[1])}) for g in gens]
        gens = [g for g in gens if sp.expand(g) != 0]
        want = sp.groebner(gens, *_symbols(keep), order="grevlex")
        got = [_poly(sp.expand(e.xreplace(at)), keep) for e in elements]
        if _normal_set(got) != _normal_set([_poly(g.as_expr(), keep) for g in want.exprs]):
            faults.append(f"specialised basis differs from sympy's at {point}")
    return used, faults


def _monic(elements, names):
    sp = _sympy()
    return all(sp.simplify(_poly(e, names).LC(order="grevlex") - 1) == 0 for e in elements)


def family_basis(generators, params, names, points):
    """The universal basis specialises to sympy's reduced basis."""

    def check(out, outputs):
        elements = _family_lines(out, params, names)
        if not elements:
            return ["empty basis"]
        faults = [] if _monic(elements, names) else ["an element is not monic"]
        used, bad = _specialised_match(elements, generators, params, names, points)
        if not used:
            faults.append("every sample point hits a printed denominator")
        return faults + bad

    return check


def _nonconstant(out, params, names):
    """Coefficients of the printed basis that involve the parameters,
    element by element, each from its top term down."""
    coeffs = []
    for e in _family_lines(out, params, names):
        for _, c in _poly(e, names).terms(order="grevlex"):
            if c.free_symbols:
                coeffs.append(c)
    return coeffs


def nonconstant_coefficients(params, names, basis_problem):
    """The listed coefficients are those of the checked basis, in order."""

    def check(out, outputs):
        sp = _sympy()
        want = _nonconstant(outputs[basis_problem], params, names)
        got = [expr(line, params) for line in _lines(out)]
        if len(got) != len(want):
            return [f"{len(got)} coefficients listed, the basis has {len(want)}"]
        if any(sp.cancel(a - b) != 0 for a, b in zip(got, want)):
            return ["a listed coefficient differs from the basis"]
        return []

    return check


def coefficient_scheme(params, names, basis_problem, point):
    """Every printed generator vanishes on the coefficient map, and the
    dimension is the rank of its Jacobian at a sample point."""

    def check(out, outputs):
        sp = _sympy()
        lines = _lines(out)
        values = _nonconstant(outputs[basis_problem], params, names)
        ys = [f"y{j + 1}" for j in range(len(values))]
        if not lines or lines[0] != f"QQ[{','.join(ys)}]":
            return ["ring line does not match the basis coefficients"]
        if not lines[-1].startswith("dimension: "):
            return ["missing dimension line"]
        faults = []
        on_map = {s: v for s, v in zip(_symbols(ys), values)}
        for line in lines[1:-1]:
            if sp.cancel(sp.together(expr(line, ys).xreplace(on_map))) != 0:
                faults.append(f"generator {line!r} does not vanish on the coefficient map")
        jac = sp.Matrix(values).jacobian(_symbols(params)).xreplace(_at(point, params))
        if int(lines[-1].split(":")[1]) != jac.rank():
            faults.append(f"dimension is not the Jacobian rank {jac.rank()}")
        return faults

    return check


def family_section(generators, params, names, cut, points):
    """The sliced universal basis specialises to sympy's reduced basis
    of the sliced fibre, and the parameters stay independent."""

    def check(out, outputs):
        lines = _lines(out)
        if not lines or lines[-1] != "parameters: independent":
            return ["missing 'parameters: independent'"]
        elements = [expr(line, params + names) for line in lines[:-1]]
        used, bad = _specialised_match(elements, generators, params, names, points, cut)
        return bad + ([] if used else ["every sample point hits a printed denominator"])

    return check


# -- point loci ------------------------------------------------------


def text(expected):
    def check(out, outputs):
        got = out.strip()
        return [] if got == expected else [f"expected {expected!r}, got {got!r}"]

    return check


def point_locus(params, truth, dimension):
    """The locus of one point has the given dimension and contains the
    parameters the point was sampled from."""

    def check(out, outputs):
        lines = _lines(out)
        faults = []
        if f"dimension: {dimension}" not in lines:
            faults.append(f"dimension is not {dimension}")
        at = _at(truth, params)
        for line in lines:
            if line.startswith(("dimension:", "solution:")):
                continue
            if expr(line, params).xreplace(at) != 0:
                faults.append(f"locus generator {line!r} misses the true parameters")
        return faults

    return check


def detection(truth):
    """The detected member is the one the points were sampled from."""

    def check(out, outputs):
        lines = _lines(out)
        if not lines or not lines[-1].startswith("solution: "):
            return ["no unique solution"]
        got = [Fraction(v.strip()) for v in lines[-1][len("solution: "):].split(",")]
        want = [Fraction(v) for v in truth]
        return [] if got == want else [f"detected {got}, sampled {want}"]

    return check
