"""Ideals whose coefficients depend on parameters.

A :class:`Family` stores generators as polynomials in the main variables
whose coefficients are themselves polynomials in a separate parameter
ring.  Treating those coefficients as a field of fractions, the ordinary
basis engine produces a single reduced basis valid for every parameter
point where no denominator vanishes; everything downstream (the common
denominator, the list of varying coefficients, the scheme those
coefficients trace out, specialization, sections) reads off that basis.

JSON and text descriptions of families are parsed here as well.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DenominatorVanishes, DependentParameters, HypothesisViolation
from .groebner import (
    GroebnerBasis,
    Ideal,
    basis_dimension,
    eliminate,
    groebner_basis,
    integer_normalize,
)
from .orders import DegRevLex, TermOrder
from .parsing import parse_polynomial, read_object, read_order, read_polynomials, read_rings, scan_lines
from .poly import Polynomial, PowerProduct
from .ratfunc import RationalFunction, polynomial_lcm
from .rings import Ring
from .sections import LinearForm, _eliminate_params, section_basis


def _is_scalar(c: RationalFunction) -> bool:
    return c.den.is_constant() and c.num.is_constant()


# -- the family type -------------------------------------------------


def split_parameters(f: Polynomial, params: Ring, variables: Ring) -> Polynomial:
    """Rewrite a polynomial from the combined ring (parameters listed
    first) as a polynomial in the main variables whose coefficients are
    parameter polynomials."""
    if f.ring != params.concat(variables):
        raise ValueError("expected a polynomial in the combined ring")
    m = params.arity
    grouped: Dict[PowerProduct, Dict[PowerProduct, object]] = {}
    for t, c in f.terms.items():
        grouped.setdefault(t[m:], {})[t[:m]] = c
    return Polynomial(
        variables, {t: Polynomial(params, d) for t, d in grouped.items()}
    )


def merge_parameters(f: Polynomial, params: Ring) -> Polynomial:
    """The inverse of :func:`split_parameters`."""
    combined = params.concat(f.ring)
    terms: Dict[PowerProduct, object] = {}
    for t, c in f.terms.items():
        for s, q in c.terms.items():
            terms[s + t] = q
    return Polynomial(combined, terms)


@dataclass(frozen=True)
class Family:
    """Generators over the main ring with parameter-polynomial coefficients."""

    params: Ring
    ring: Ring
    generators: Tuple[Polynomial, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.ring != self.ring:
                raise ValueError("generator from a different ring")
            for c in g.terms.values():
                if not isinstance(c, Polynomial) or c.ring != self.params:
                    raise ValueError(
                        "generator coefficients must be parameter polynomials"
                    )

    @classmethod
    def of(cls, params: Ring, variables: Ring, combined: Sequence[Polynomial]) -> "Family":
        gens = tuple(
            split_parameters(g, params, variables) for g in combined if g
        )
        return cls(params, variables, gens)

    @classmethod
    def parse(cls, params: Ring, variables: Ring, texts: Sequence[str]) -> "Family":
        big = params.concat(variables)
        return cls.of(params, variables, [parse_polynomial(big, s) for s in texts])

    def combined_ideal(self) -> Ideal:
        """The generators, moved back into the combined ring."""
        return Ideal.of(
            self.params.concat(self.ring),
            [merge_parameters(g, self.params) for g in self.generators],
        )

    def over_field(self) -> List[Polynomial]:
        """Generators with coefficients promoted to rational functions."""
        return [
            g.map_coefficients(RationalFunction) for g in self.generators if g
        ]


# -- the universal basis and what it carries -------------------------


def family_basis(fam: Family, order: TermOrder = None) -> GroebnerBasis:
    """The reduced basis of the family over the fraction field of the
    parameters: one basis that specializes to the reduced basis of every
    fiber off the vanishing locus of :func:`basis_denominator`.  It is
    computed fraction-free on the parameter polynomials; each
    coefficient becomes a RationalFunction once, at the end.

    Raises DependentParameters when the basis collapses to {1}, which
    happens exactly when the parameters satisfy a polynomial relation
    forced by the generators.
    """
    if order is None:
        order = DegRevLex(fam.ring.arity)
    gens = fam.over_field()
    if not gens:
        return GroebnerBasis(order, ())
    basis = groebner_basis(order, gens)
    if len(basis) == 1 and basis.elements[0].is_constant():
        raise DependentParameters(
            "the basis collapses to {1}: parameters are dependent; "
            "parameters_independent produces a witness relation"
        )
    return basis


def basis_denominator(params: Ring, basis: GroebnerBasis) -> Polynomial:
    """Monic least common multiple of every coefficient denominator;
    its non-vanishing marks the parameter points where the universal
    basis specializes cleanly."""
    dens = [c.den for g in basis for c in g.terms.values() if not c.den.is_constant()]
    return reduce(polynomial_lcm, dens, Polynomial.constant(params, 1))


def nonconstant_coefficients(basis: GroebnerBasis) -> List[RationalFunction]:
    """Every coefficient that is not a plain rational number, walking
    elements by ascending leading term and each support from the top
    down in the basis's ordering.  Repeats are kept; the list is what
    the fibers are classified by, not a set of values."""
    out: List[RationalFunction] = []
    for g in basis:
        for t in g.support(basis.order):
            c = g.terms[t]
            if not _is_scalar(c):
                out.append(c)
    return out


def specialize_polynomial(f: Polynomial, values: Sequence[Fraction]) -> Polynomial:
    """Evaluate the parametric coefficients of ``f`` at a point."""
    terms: Dict[PowerProduct, Fraction] = {}
    for t, c in f.terms.items():
        try:
            v = c.evaluate(values)
        except ZeroDivisionError:
            raise DenominatorVanishes(
                f"coefficient {c!r} has no value at {tuple(values)}"
            ) from None
        if v:
            terms[t] = v
    return Polynomial(f.ring, terms)


def specialize_basis(basis: GroebnerBasis, values: Sequence[Fraction]) -> GroebnerBasis:
    """The fiber basis at a parameter point.  Off the vanishing locus of
    the common denominator this is again reduced: specializing keeps
    every leading term (they are monic) and can only shrink supports."""
    return GroebnerBasis(basis.order, tuple(specialize_polynomial(g, values) for g in basis))


def specialize_family(fam: Family, values: Sequence[Fraction]) -> Ideal:
    """The fiber ideal: generators with parameters evaluated at a point."""
    return Ideal.of(
        fam.ring, [specialize_polynomial(g, values) for g in fam.generators]
    )


# -- parameter independence ------------------------------------------


@dataclass(frozen=True)
class IndependenceReport:
    witness: Optional[Polynomial]

    @property
    def independent(self) -> bool:
        return self.witness is None


def parameters_independent(fam: Family) -> IndependenceReport:
    """Whether the generators force no polynomial relation among the
    parameters alone.  When they do, the witness is the smallest element
    of the relation ideal's reduced basis, scaled to integer content."""
    m = fam.params.arity
    ideal = fam.combined_ideal()
    relations = eliminate(ideal, range(m, m + fam.ring.arity))
    if relations.is_zero:
        return IndependenceReport(None)
    return IndependenceReport(integer_normalize(relations.generators[0], DegRevLex(m)))


# -- the scheme traced by the coefficients ---------------------------


@dataclass(frozen=True)
class SchemeDescription:
    ideal: Ideal
    dimension: int


def coefficient_scheme(
    params: Ring, values: Sequence[RationalFunction]
) -> SchemeDescription:
    """The closure of the image of the parameter space under the given
    rational functions, as an ideal in fresh coordinates y1..ys.

    This is implicitization's elimination, with one tag variable
    inverting the least common multiple of the denominators, so points
    where some denominator vanishes never leak into the image.
    """
    yring = Ring(tuple(f"y{j + 1}" for j in range(len(values))))
    implicit = _eliminate_params(params, yring, zip(yring.names, values))
    return SchemeDescription(implicit, basis_dimension(implicit))


# -- hyperplane sections of families ---------------------------------


@dataclass(frozen=True)
class FamilySectionReport:
    family: Family
    basis: GroebnerBasis
    witness: Optional[Polynomial]

    @property
    def independent(self) -> bool:
        return self.witness is None


def _section_generator(g: Polynomial, form: LinearForm) -> Polynomial:
    # parameter coefficients survive substitution untouched, so the cut
    # can act on the promoted copy and the result demotes cleanly
    image = form.apply(g.map_coefficients(RationalFunction))
    return image.map_coefficients(lambda c: c.as_polynomial())


def family_section(
    fam: Family, basis: GroebnerBasis, form: LinearForm
) -> FamilySectionReport:
    """Cut every member of the family with the same hyperplane.

    When no basis leading term involves the cut variable, the sectioned
    basis is again a basis for every fiber at once and the parameters
    stay independent.  Otherwise HypothesisViolation reports the
    blocking elements, and carries a dependence witness when the cut
    actually entangles the parameters (which the theorem no longer
    forbids).
    """
    sectioned = Family(
        fam.params,
        form.sub_ring(),
        tuple(_section_generator(g, form) for g in fam.generators),
    )
    indep = parameters_independent(sectioned)
    try:
        sliced = section_basis(basis, form)
    except HypothesisViolation as failure:
        raise HypothesisViolation(
            str(failure),
            offending=failure.offending,
            dependence=indep.witness,
        ) from None
    return FamilySectionReport(sectioned, sliced, indep.witness)


# -- file formats ----------------------------------------------------


@dataclass
class FamilyFile:
    family: Family
    order_name: Optional[str]


def parse_family_json(data: dict) -> FamilyFile:
    """``{"params": [...], "vars": [...], "generators": [...]}`` with an
    optional ``"order"`` name; generators use both variable sets."""
    read_object(data, "params", "vars", "generators")
    params, variables = read_rings(data["params"], data["vars"])
    fam = Family.of(params, variables, read_polynomials(params.concat(variables), data["generators"]))
    return FamilyFile(fam, read_order(data.get("order"), variables))


def parse_family_text(text: str) -> FamilyFile:
    """Two ring headers (parameters first), an optional ``order:`` line,
    then one generator per line.  Blank lines and ``#`` comments are
    skipped."""
    (params, variables), order_name, lines = scan_lines(text, 2)
    return FamilyFile(Family.parse(params, variables, lines), order_name)
