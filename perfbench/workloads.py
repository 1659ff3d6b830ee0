"""The benchmark's workloads: seeded input files and the CLI calls on them.

``WORKLOADS[name](seed, directory)`` writes one workload's inputs into
the directory and returns the problems of one pass.  A problem is one call
of ``slicegb.cli.main`` and the check its stdout must pass.  The seed
only changes values (coefficients, sample points, rescalings), never
the shape of a problem, so every seed asks for about the same work.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

import checks
import polys


@dataclass
class Problem:
    name: str
    argv: List[str]
    check: Callable


# -- implicit, implicit-j2 -------------------------------------------

# Fixed on purpose: a small coefficient change can move a surface from
# seconds to many minutes of slice eliminations.
SURFACES = [
    "s^3 -s*t^2 -t, s*t^2 -s, s^4 -t^2",
    "s^3 -s*t^2 -t, s*t^2 -s +t, s^4 -t^2",
    "s^3 -t, s*t^2 -s, s^4 -t^2",
    "s^3 +t^2, s*t -1, s^4 -t^2 +s",
    "s^4 -s*t^2 -t, s*t^2 -s, s^3 -t^2",
]


def implicit(seed, directory, jobs=1):
    problems = []
    for k, text in enumerate(SURFACES):
        images = [s.strip() for s in text.split(",")]
        path = directory / f"surface{k + 1}.json"
        path.write_text(json.dumps(
            {"params": "QQ[s,t]", "coords": "QQ[x,y,z]", "images": images, "pivot": "z"}
        ))
        problems.append(Problem(
            f"surface{k + 1}",
            ["implicitize", "--mode", "slice", "--jobs", str(jobs), str(path)],
            checks.implicit_equation(images, ("s", "t"), ("x", "y", "z"), "z"),
        ))
    return problems


# -- tomography ------------------------------------------------------

SURFACE_DEGREE = 12     # dense below the leading term: 364 + 1 terms
SCAN_SLICES = 16        # parallel slices per scan, above the pivot degree
OBLIQUE_TAIL = {"y": Fraction(1, 2), "z": Fraction(-1)}
CURVE_TEMPLATE = "x^5 -y -a1*x^2*y -a2*x*y +a3*x^4 +a4*x^3 +a5*x^2 +a6*x +a7"
CURVE_PARAMS = 7
CURVE_Z_DEGREE = 4      # each template parameter is a polynomial in z
CURVE_SLICES = 6
CURVE_POINTS = 9        # sampled points per slice, two more than parameters

COEFFS = [c for c in range(-9, 10) if c]


def _random_surface(rng, lead):
    """Every monomial in x, y, z below the total degree with a seeded
    coefficient, plus one leading monomial of full degree.  The leading
    coefficient, which every slice is divided by, keeps its size (6)
    and only takes a seeded sign, so that each seed costs the same."""
    f = {t: Fraction(rng.choice(COEFFS)) for t in polys.monomials(3, SURFACE_DEGREE - 1)}
    f[lead] = Fraction(rng.choice((6, -6)))
    return f


def _scan(f, pivot, names, gammas):
    """Slices of ``f`` at pivot = gamma (plus the oblique tail when the
    pivot is x), each divided by the leading coefficient."""
    lead = max(f, key=sum)
    if pivot == "x":
        shift = {(1, 0, 0): Fraction(1)}
        shift.update({polys.unit(3, names.index(v)): c for v, c in OBLIQUE_TAIL.items()})
        f = polys.substitute(f, 0, shift)
    i = names.index(pivot)
    sub = [n for n in names if n != pivot]
    slices = []
    for g in gammas:
        cut = polys.drop(polys.substitute(f, i, {(0, 0, 0): g} if g else {}), i)
        slices.append({"gamma": str(g), "generators": [polys.fmt(polys.scale(cut, 1 / f[lead]), sub)]})
    return slices


def _sample_curve(rng, a):
    """Rational points on the template curve at the parameters ``a``,
    with distinct x and a full-rank detection system."""
    while True:
        xs = rng.sample([Fraction(n, d) for n in range(-9, 10) for d in (1, 2, 3)], CURVE_POINTS + 4)
        rows, points = [], []
        for x in xs:
            den = 1 + a[0] * x ** 2 + a[1] * x
            if not den or len(points) == CURVE_POINTS:
                continue
            y = (x ** 5 + a[2] * x ** 4 + a[3] * x ** 3 + a[4] * x ** 2 + a[5] * x + a[6]) / den
            points.append((x, y))
            rows.append([-x * x * y, -x * y, x ** 4, x ** 3, x ** 2, x, Fraction(1)])
        if len(points) == CURVE_POINTS and polys.rank(rows) == CURVE_PARAMS:
            return points


def tomography(seed, directory):
    rng = random.Random(seed)
    names = ["x", "y", "z"]
    gammas = [Fraction(k) for k in range(-(SCAN_SLICES // 2), SCAN_SLICES - SCAN_SLICES // 2)]
    problems = []
    for pivot, lead, extra in (
        ("z", (SURFACE_DEGREE - 3, 3, 0), {}),
        ("x", (0, 3, SURFACE_DEGREE - 3), {"tail": {v: str(c) for v, c in OBLIQUE_TAIL.items()}}),
    ):
        f = _random_surface(rng, lead)
        data = {"ring": "QQ[x,y,z]", "order": "degrevlex", "pivot": pivot, **extra,
                "slices": _scan(f, pivot, names, gammas)}
        path = directory / f"scan_{pivot}.json"
        path.write_text(json.dumps(data))
        expected = polys.fmt(polys.scale(f, 1 / f[lead]), names)
        kind = "axis" if pivot == "z" else "oblique"
        problems.append(Problem(f"reconstruct-{kind}", ["reconstruct", str(path)],
                                checks.equals(expected, names)))

    # curves detected from sampled points on each slice z = gamma
    params = [f"a{j + 1}" for j in range(CURVE_PARAMS)]
    along_z = [[Fraction(rng.choice(COEFFS), rng.choice((1, 2))) for _ in range(CURVE_Z_DEGREE + 1)]
               for _ in params]
    slices = []
    for g in range(CURVE_SLICES):
        values = [sum(c * Fraction(g) ** k for k, c in enumerate(cs)) for cs in along_z]
        points = _sample_curve(rng, values)
        slices.append({"gamma": str(g), "points": [[str(x), str(y)] for x, y in points]})
    template = polys.parse(CURVE_TEMPLATE, params + ["x", "y"])
    surface = {}
    for t, c in template.items():
        # parameter a_j times its polynomial in z, or a constant
        j = next((j for j, e in enumerate(t[:CURVE_PARAMS]) if e), None)
        xy = t[CURVE_PARAMS:]
        for k, a in enumerate(along_z[j] if j is not None else [Fraction(1)]):
            polys.add_into(surface, {xy + (k,): c * a})
    data = {"template": {"params": params, "vars": ["x", "y"], "generators": [CURVE_TEMPLATE]},
            "pivot": "z", "slices": slices}
    path = directory / "curves.json"
    path.write_text(json.dumps(data))
    problems.append(Problem("reconstruct-surface",
                            ["reconstruct-surface", "--order", "lex", str(path)],
                            checks.equals(polys.fmt(surface, names), names)))
    return problems


# -- families --------------------------------------------------------

# (name, params, variables, generators, subcommands); the seed rescales
# every variable and parameter by a factor of fixed size and seeded sign,
# which keeps the shape and the cost of each computation and changes
# its numbers.
FAMILIES = [
    ("quadrics", ["a1", "a2", "a3"], ["x", "y", "z", "w"],
     ["a1*x*y -a2*y^2 -w", "a2*x^2 +a3*y^2 +z^2"],
     ("family-gb", "ncc", "sigma-scheme", "family-section")),
    ("conics", ["a1", "a2"], ["x", "y"],
     ["x^2 +a1*y^2 +a2*x -1", "x*y +a2*y^2 +a1 -2"],
     ("family-gb", "ncc", "sigma-scheme")),
    ("cubics", ["a1", "a2"], ["x", "y"],
     ["x^3 +a1*y^2 +a2*x -1", "x*y^2 +a2*y +a1*x -2"],
     ("family-gb", "ncc", "sigma-scheme")),
    ("nodal", ["a1", "a2"], ["x", "y"],
     ["x^2*y +a1*y^2 +a2*x", "x*y^2 +a2*x^2 +a1*y -1"],
     ("family-gb", "ncc", "sigma-scheme")),
    ("space", ["a1", "a2"], ["x", "y", "z"],
     ["x^2 +a1*y*z -z", "y^2 +a2*x*z -x", "x*y +z^2 -a1 +a2"],
     ("family-gb", "ncc")),
]
FAMILY_COPIES = 3       # rescaled copies of each family per pass
SCALES = (2, 3)          # sizes of the factors, taken in turn

# the rose family of the acceptance suite, a sextic against a plane
ROSE = {
    "params": ["a1", "a2"], "vars": ["z", "y", "x"],
    "generators": [
        "-a1^2*x^4 -2*a1^2*x^2*y^2 -a1^2*y^4 +2*a1*a2*x^5 -4*a1*a2*x^3*y^2 "
        "-6*a1*a2*x*y^4 -a2^2*x^6 +6*a2^2*x^4*y^2 -9*a2^2*x^2*y^4 +x^6 "
        "+3*x^4*y^2 +3*x^2*y^4 +y^6",
        "a1*z -a2*x",
    ],
}

# families linear in their parameters, detected from sampled points;
# the last variable is solved for, the others are sampled
GRAPHS = [
    ("cubic", ["a1", "a2", "a3", "a4"], ["x", "y"], "y -a1*x^3 -a2*x^2 -a3*x -a4", 6),
    ("quadric", ["a1", "a2", "a3", "a4", "a5", "a6"], ["x", "y", "z"],
     "z -a1*x^2 -a2*x*y -a3*y^2 -a4*x -a5*y -a6", 8),
]


def _param_point(rng, count):
    return [Fraction(rng.choice(range(-40, 41)) or 1, rng.randint(1, 7)) for _ in range(count)]


def _family_problems(rng, directory, copy):
    problems = []
    for name, params, names, gens, commands in FAMILIES:
        factors = [rng.choice((1, -1)) * SCALES[k % 2] for k in range(len(params + names))]
        scaled = [polys.fmt(polys.rescale(polys.parse(g, params + names), factors), params + names)
                  for g in gens]
        path = directory / f"{name}{copy}.txt"
        path.write_text(f"QQ[{','.join(params)}]\nQQ[{','.join(names)}]\n" + "\n".join(scaled) + "\n")
        points = [_param_point(rng, len(params)) for _ in range(2)]
        gb = f"{name}{copy}-family-gb"
        for command in commands:
            argv = [command, str(path)]
            if command == "family-gb":
                check = checks.family_basis(scaled, params, names, points)
            elif command == "ncc":
                check = checks.nonconstant_coefficients(params, names, gb)
            elif command == "sigma-scheme":
                check = checks.coefficient_scheme(params, names, gb, points[0])
            else:
                gamma = rng.choice([c for c in range(-5, 6) if c])
                argv = [command, "--cut", f"{names[-1]} {-gamma:+d}", str(path)]
                check = checks.family_section(scaled, params, names, (names[-1], gamma), points)
            problems.append(Problem(f"{name}{copy}-{command}", argv, check))
    return problems


def _graph_problems(rng, directory, copy):
    problems = []
    for name, params, names, gen, count in GRAPHS:
        path = directory / f"{name}{copy}.txt"
        path.write_text(f"QQ[{','.join(params)}]\nQQ[{','.join(names)}]\n{gen}\n")
        truth = _param_point(rng, len(params))
        f = polys.parse(gen, params + names)
        zero = [Fraction(0)] * len(params)
        units = [zero[:j] + [Fraction(1)] + zero[j + 1:] for j in range(len(params))]
        while True:
            free = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2))) for _ in names[:-1]]
                    for _ in range(count)]
            points = [p + [-polys.evaluate(f, truth + p + [0])] for p in free]
            # the detection system: one row per point, the coefficient of
            # each parameter there
            rows = [[polys.evaluate(f, u + p) - polys.evaluate(f, zero + p) for u in units]
                    for p in points]
            if polys.rank(rows) == len(params):
                break
        text = ";".join(",".join(str(v) for v in p) for p in points)
        problems.append(Problem(f"{name}{copy}-detect", ["detect", f"--points={text}", str(path)],
                                checks.detection(truth)))
        problems.append(Problem(f"{name}{copy}-hough", ["hough", f"--point={text.split(';')[0]}", str(path)],
                                checks.point_locus(params, truth, len(params) - 1)))
    return problems


def families(seed, directory):
    rng = random.Random(seed)
    problems = []
    for copy in range(1, FAMILY_COPIES + 1):
        problems += _family_problems(rng, directory, copy)
        problems += _graph_problems(rng, directory, copy)
    rose = directory / "rose.json"
    rose.write_text(json.dumps(ROSE))
    problems.append(Problem("rose-hough", ["hough", str(rose)], checks.text("0")))
    return problems


WORKLOADS = {
    "implicit": lambda seed, directory: implicit(seed, directory, jobs=1),
    "implicit-j2": lambda seed, directory: implicit(seed, directory, jobs=2),
    "tomography": tomography,
    "families": families,
}
