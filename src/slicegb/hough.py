"""Recovering the parameters of a family from points on its fibers.

Fixing a point and letting the parameters vary turns each family
generator into a condition on the parameters alone; the conditions cut
out the locus of members whose fiber passes through the point.  This is
the algebra behind a Hough transform, kept exact: the locus is held as
an ideal over Q, by its reduced degrevlex basis, which names the member
when the locus is a single rational point; several points intersect
their loci by summing ideals.  Every question of the module reads that
one basis, and for a family linear in its parameters it is the reduced
echelon form of the conditions.  The last step rebuilds a surface from
curves recovered on parallel slices, one interpolation per coefficient.
"""

from __future__ import annotations

import json
from contextlib import closing
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import Inconsistent, MembershipFailed, NotLinearInParams, Underdetermined
from .families import Family, parse_family_json, specialize_family
from .groebner import Ideal, basis_dimension, dimension, eliminate, groebner_basis
from .orders import DegRevLex, TermOrder
from .parsing import read_list, read_object, read_polynomial, read_rational, read_slices, read_variable
from .poly import Polynomial
from .rings import Ring, pp_degree, pp_one
from .sections import SliceFamily, map_slices, reconstruct_basis

Point = Tuple[Fraction, ...]


@dataclass(frozen=True)
class HoughResult:
    """The parameter locus of one point: its ideal as a reduced basis,
    the dimension (-1 when the locus is empty), and the coordinates
    when the locus is a single rational point."""

    ideal: Ideal
    dimension: int
    solution: Optional[Point]

    @property
    def empty(self) -> bool:
        return self.dimension == -1


def _at_point(g: Polynomial, point: Point, params: Ring) -> Polynomial:
    """Evaluate the variable part of a split generator, leaving a
    polynomial in the parameters."""
    total = Polynomial.zero(params)
    for t, c in g.terms.items():
        scale = Fraction(1)
        for v, e in zip(point, t):
            if e:
                scale = scale * v ** e
        if scale:
            total = total + c.scale(scale)
    return total


def _rational_point(params: Ring, basis) -> Optional[Point]:
    # a single rational point shows up as the reduced basis
    # {a_1 - c_1, ..., a_m - c_m}
    if len(basis) != params.arity:
        return None
    unit = pp_one(params.arity)
    values: List[Optional[Fraction]] = [None] * params.arity
    for g in basis:
        c, t = g.leading_term(basis.order)
        if pp_degree(t) != 1 or set(g.terms) - {t, unit}:
            return None
        i = t.index(1)
        if values[i] is not None:
            return None
        values[i] = -g.terms.get(unit, Fraction(0)) / c
    return tuple(values)


def _parameter_locus(params: Ring, generators: Sequence[Polynomial]) -> HoughResult:
    order = DegRevLex(params.arity)
    gens = [g for g in generators if g]
    if not gens:
        # every condition vanished: the whole parameter space qualifies,
        # which is a single point only when there are no parameters
        return HoughResult(Ideal(params, ()), params.arity, () if not params.arity else None)
    basis = groebner_basis(order, gens)
    ideal = Ideal(params, basis.elements)
    if len(basis) == 1 and basis.elements[0].is_constant():
        return HoughResult(ideal, -1, None)
    return HoughResult(ideal, basis_dimension(ideal), _rational_point(params, basis))


def _check_point(fam: Family, point) -> Point:
    p = tuple(Fraction(v) for v in point)
    if len(p) != fam.ring.arity:
        raise ValueError(
            f"point has {len(p)} coordinates but the family has "
            f"{fam.ring.arity} variables"
        )
    return p


def hough_ideal(fam: Family, point) -> HoughResult:
    """The locus of parameter choices whose fiber contains the point."""
    p = _check_point(fam, point)
    return _parameter_locus(fam.params, [_at_point(g, p, fam.params) for g in fam.generators])


def generic_hough_dimension(fam: Family) -> int:
    """Dimension of the parameter locus of a generic point on the swept
    set: the dimension of the incidence variety minus the dimension of
    its projection to the variable space.

    The projection closure is taken as a whole; on smaller components
    of it the actual locus can be larger.
    """
    combined = fam.combined_ideal()
    image = eliminate(combined, range(fam.params.arity))
    return dimension(combined) - basis_dimension(image)


# -- the linear case -------------------------------------------------


def _assert_linear(fam: Family) -> None:
    for k, g in enumerate(fam.generators):
        worst = max(c.total_degree() for c in g.terms.values())
        if worst > 1:
            raise NotLinearInParams(
                f"generator {k + 1} has degree {worst} in the parameters"
            )


def solve_linear_hough(fam: Family, point) -> Point:
    """The unique member through the point, for a family linear in its
    parameters.  The conditions are linear, so the reduced basis of the
    locus is their reduced echelon form: Underdetermined when it leaves
    a positive-dimensional set, Inconsistent when it is empty."""
    _assert_linear(fam)
    locus = hough_ideal(fam, point)
    if locus.empty:
        raise Inconsistent("no parameter choice puts the point on a fiber")
    if locus.solution is None:
        raise Underdetermined(
            "the parameter locus of this point has positive dimension"
        )
    return locus.solution


def detect(fam: Family, points) -> HoughResult:
    """The parameter locus of several points at once: the sum of their
    ideals, in the form :func:`hough_ideal` gives for one point.  When
    the locus is a single member its parameters are the solution,
    checked against every input point; when no member passes through
    every point the locus is empty."""
    pts = [_check_point(fam, p) for p in points]
    conditions = [
        _at_point(g, p, fam.params) for p in pts for g in fam.generators
    ]
    locus = _parameter_locus(fam.params, conditions)
    if locus.solution is not None:
        fiber = specialize_family(fam, locus.solution)
        for p in pts:
            for g in fiber.generators:
                if g.evaluate(p) != 0:
                    raise MembershipFailed(
                        f"detected parameters miss the input point {p}"
                    )
    return locus


# -- surface reconstruction from sliced detections -------------------


def _slice_curve(args) -> Polynomial:
    """Detect one slice curve from ``(template, gamma, data)``; top level
    so worker processes can import it."""
    template, gamma, data = args
    if isinstance(data, Polynomial):
        if data.ring != template.ring:
            raise ValueError(f"slice at {gamma}: curve from a different ring")
        if data.is_zero():
            raise ValueError(f"slice at {gamma}: zero curve")
        g = template.generators[0]
        locus = _parameter_locus(template.params, [
            g.terms.get(t, Polynomial.zero(template.params))
            - Polynomial.constant(template.params, data.terms.get(t, 0))
            for t in set(g.terms) | set(data.terms)
        ])
        no_member = "the curve does not have the template shape"
        many = "several parameter choices give this curve"
    else:
        locus = detect(template, data)
        no_member = "no curve of the template shape passes through the data"
        many = "the data pins a positive-dimensional set of curves"
    if locus.empty:
        raise Inconsistent(f"slice at {gamma}: {no_member}")
    if locus.solution is None:
        raise Underdetermined(f"slice at {gamma}: {many}")
    fiber = specialize_family(template, locus.solution)
    if len(fiber.generators) != 1:
        raise ValueError(
            f"slice at {gamma}: the detected parameters annihilate the template"
        )
    return fiber.generators[0]


def reconstruct_surface(
    template: Family,
    pivot: str,
    slices: Sequence[Tuple[Fraction, object]],
    order: TermOrder = None,
    jobs: int = 1,
) -> Polynomial:
    """Rebuild a surface from its curves on parallel slices.

    The template describes the slice curves, linear in its parameters;
    the pivot is the new variable along which the slices stack, added
    after the template variables.  Each slice carries either the curve
    polynomial itself or a list of points to detect it from.  The
    per-coefficient interpolation is exact when the surface's pivot
    degree is below the number of slices, and every slice equation is
    re-verified on the result; the surface itself is not checked for
    membership in any ideal.
    """
    if len(template.generators) != 1:
        raise ValueError("surface reconstruction needs a single-generator template")
    _assert_linear(template)
    full = Ring(template.ring.names + (pivot,))
    data = [(Fraction(g), d) for g, d in slices]
    family = SliceFamily.of(full, pivot, [g for g, _ in data])
    if order is None:
        order = DegRevLex(full.arity)
    with closing(map_slices(_slice_curve, [(template, *s) for s in data], jobs)) as found:
        curves = [[c] for c in found]
    return reconstruct_basis(family, curves, order).elements[0]


# -- detection files -------------------------------------------------


@dataclass
class DetectionFile:
    template: Family
    order_name: Optional[str]
    pivot: str
    slices: List[Tuple[Fraction, object]]


def parse_detection_json(data: dict) -> DetectionFile:
    """``{"template": {...}, "pivot": name, "slices": [{"gamma": "p/q",
    "points": [[...], ...]}, ...]}``; a slice may carry a ``"curve"``
    string instead of points."""
    ff = parse_family_json(read_object(data, "template", "pivot", "slices")["template"])
    fam = ff.family
    pivot = read_variable(data["pivot"], fam.params.concat(fam.ring), "pivot", fresh=True)
    slices: List[Tuple[Fraction, object]] = []
    for gamma, key, value in read_slices(data["slices"], "points", "curve"):
        if key == "curve":
            slices.append((gamma, read_polynomial(fam.ring, value)))
        else:
            points = [read_list(p, "a point", fam.ring.arity) for p in read_list(value, "'points'")]
            slices.append((gamma, [tuple(read_rational(v, "coordinate") for v in p) for p in points]))
    return DetectionFile(fam, ff.order_name, pivot, slices)


def load_detection_file(text: str) -> DetectionFile:
    return parse_detection_json(json.loads(text))
