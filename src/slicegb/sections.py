"""Cutting ideals with hyperplanes and putting them back together.

A cut substitutes one variable (the pivot) by a combination of other
variables plus a constant.  When no leading term of a basis involves the
pivot, the substituted basis stays a basis on the slice; running this
across many parallel slices and interpolating along the pivot recovers
polynomials upstairs, one degree of freedom per slice.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    HypothesisViolation,
    LTDrift,
    NonGenericSlices,
    NonPrincipal,
    RetryLimitExceeded,
    ZeroDivisor,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    eliminate,
    groebner_basis,
    integer_normalize,
    is_member,
    zero_divisor_witness,
)
from .orders import DegRevLex, PivotDegRev, TermOrder
from .parsing import (
    read_object,
    read_order,
    read_polynomials,
    read_rational,
    read_rings,
    read_slices,
    read_variable,
)
from .poly import Polynomial, compose, over_lcm
from .ratfunc import RationalFunction, polynomial_lcm
from .rings import PowerProduct, Ring, pp_divides, pp_drop, pp_insert

# -- linear forms ----------------------------------------------------


@dataclass(frozen=True)
class LinearForm:
    """A cut ``x_i = sum c_j x_j + gamma`` whose tail may use any
    variable but the pivot; with ``gamma = 0`` it is homogeneous.  Where
    a basis is sliced, the tail must sit below the pivot in its ordering
    (``compatible_with``)."""

    ring: Ring
    pivot: int
    tail: Tuple[Tuple[int, Fraction], ...]
    gamma: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        """Store the tail sorted by variable and every number as a
        ``Fraction``, so that one cut is one value.  Reject a pivot or
        tail index that names no variable of the ring, and a tail that
        uses the pivot or a variable twice or has a zero coefficient."""
        object.__setattr__(self, "tail", tuple(sorted((j, Fraction(c)) for j, c in self.tail)))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if not 0 <= self.pivot < self.ring.arity:
            raise ValueError("pivot index out of range")
        if len({j for j, _ in self.tail}) != len(self.tail):
            raise ValueError("repeated tail variable")
        for j, c in self.tail:
            if not 0 <= j < self.ring.arity:
                raise ValueError("variable index out of range")
            if j == self.pivot:
                raise ValueError("tail must avoid the pivot")
            if not c:
                raise ValueError("zero tail coefficient")

    @classmethod
    def of(cls, ring: Ring, pivot: str, tail: Optional[Dict[str, Fraction]] = None,
           gamma=Fraction(0)) -> "LinearForm":
        pairs = tuple((ring.index(v), c) for v, c in (tail or {}).items())
        return cls(ring, ring.index(pivot), pairs, gamma)

    @classmethod
    def from_polynomial(cls, f: Polynomial) -> "LinearForm":
        """Read a cut off a degree-one polynomial; the earliest variable
        present becomes the pivot and everything else moves to the
        right-hand side."""
        if not f or f.total_degree() != 1:
            raise ValueError("a cut needs a polynomial of degree exactly 1")
        ring = f.ring
        coeffs = [Fraction(0)] * ring.arity
        gamma = Fraction(0)
        for t, c in f.terms.items():
            if sum(t) == 0:
                gamma = c
            else:
                coeffs[t.index(1)] = c
        pivot = next(i for i, c in enumerate(coeffs) if c)
        lead = coeffs[pivot]
        tail = tuple((j, -coeffs[j] / lead) for j in range(pivot + 1, ring.arity) if coeffs[j])
        return cls(ring, pivot, tail, -gamma / lead)

    def replacement(self) -> Polynomial:
        """The right-hand side the pivot is replaced with."""
        n = self.ring.arity
        terms: Dict[PowerProduct, Fraction] = {
            tuple(1 if k == j else 0 for k in range(n)): c for j, c in self.tail
        }
        if self.gamma:
            terms[(0,) * n] = self.gamma
        return Polynomial(self.ring, terms)

    def as_polynomial(self) -> Polynomial:
        return Polynomial.variable(self.ring, self.ring.names[self.pivot]) - self.replacement()

    def apply(self, f: Polynomial) -> Polynomial:
        """Substitute the pivot and land in the ring without it."""
        return f.substitute(self.pivot, self.replacement()).project_drop(self.pivot)

    def sub_ring(self) -> Ring:
        return self.ring.drop(self.pivot)

    def compatible_with(self, order: TermOrder) -> bool:
        """Every tail variable must sit strictly below the pivot."""
        n = self.ring.arity
        unit = lambda i: tuple(1 if k == i else 0 for k in range(n))
        return all(order.compare(unit(j), unit(self.pivot)) < 0 for j, _ in self.tail)


# -- slicing a known basis -------------------------------------------


def _check_hypothesis(order: TermOrder, polys: Sequence[Polynomial], form: LinearForm,
                      what: str) -> None:
    """The preconditions for slicing ``polys`` along ``form``: the cut's
    tail sits below its pivot in the ordering, every element is monic,
    and no leading term involves the pivot."""
    if not form.compatible_with(order):
        raise ValueError("tail variables must be below the pivot in this ordering")
    for g in polys:
        if g.leading_term(order)[0] != 1:
            raise ValueError(f"{what} must be monic")
    blockers = [g for g in polys if g.leading_power_product(order)[form.pivot] != 0]
    if blockers:
        name = form.ring.names[form.pivot]
        raise HypothesisViolation(
            f"{len(blockers)} leading term(s) involve {name}", offending=blockers
        )


def section_basis(gb: GroebnerBasis, form: LinearForm) -> GroebnerBasis:
    """Slice a monic basis along a cut.

    When no leading term involves the pivot, the substituted elements
    form a basis of the sliced ideal under the restricted ordering and
    the cut is a non-zero-divisor on the quotient.  Leading terms
    survive the substitution unchanged, so minimality carries over; the
    sliced basis need not be reduced, because a non-axis tail can
    introduce new lower terms.
    """
    _check_hypothesis(gb.order, gb.elements, form, "basis")
    sub_order = gb.order.restrict(form.pivot)
    images = sorted((form.apply(g) for g in gb.elements),
                    key=lambda g: sub_order.key(g.leading_power_product(sub_order)))
    return GroebnerBasis(sub_order, tuple(images))


def homogeneous_section_basis(ideal: Ideal, form: LinearForm, order: TermOrder) -> GroebnerBasis:
    """Reduced basis of the slice of a homogeneous ideal by any
    hyperplane through the origin, via shift, reduce, and project.

    Requires a cut with ``gamma = 0`` and the degree-reverse ordering
    pivoted at the cut variable (the plain one is equal to it when that
    variable is listed last).  For such an ordering a homogeneous
    reduced-basis element whose leading term involves the pivot is
    divisible by it outright, so projecting the shifted basis and
    dropping zeros yields the reduced basis downstairs.
    """
    i = form.pivot
    if form.gamma:
        raise ValueError("a homogeneous cut has no constant term")
    if order != PivotDegRev(ideal.ring.arity, i):
        raise ValueError("ordering must be degree-reverse pivoted at the cut variable")
    for g in ideal.generators:
        if not g.is_homogeneous():
            raise ValueError("generators must be homogeneous")
    # the triangular coordinate change sending the pivot to pivot + tail
    shift = Polynomial.variable(ideal.ring, ideal.ring.names[i]) + form.replacement()
    basis = groebner_basis(order, [g.substitute(i, shift) for g in ideal.generators])
    sub_order = order.restrict(i)
    # setting the pivot to zero keeps the terms free of it
    images = [Polynomial(form.sub_ring(), {pp_drop(t, i): c for t, c in g.terms.items() if not t[i]})
              for g in basis]
    images = sorted((g for g in images if g),
                    key=lambda g: sub_order.key(g.leading_power_product(sub_order)))
    return GroebnerBasis(sub_order, tuple(images))


def verify_lifting(ideal: Ideal, candidate: Sequence[Polynomial], form: LinearForm,
                   order: TermOrder) -> GroebnerBasis:
    """Certify that a candidate set is a basis of the ideal upstairs
    from its behaviour on a single slice.

    Checks, in order: leading terms avoid the pivot; the sliced
    candidate covers every leading term of the sliced ideal; the cut is
    a non-zero-divisor modulo the ideal; the candidate lies inside the
    ideal.  Together these force the candidate to be a basis upstairs.
    One reduced basis of the ideal serves the last two checks.
    """
    cand = [g for g in candidate if g]
    _check_hypothesis(order, cand, form, "candidate")
    if not cand:
        raise ValueError("empty candidate")
    sub_order = order.restrict(form.pivot)
    sliced_gens = [form.apply(g) for g in ideal.generators]
    downstairs = groebner_basis(sub_order, sliced_gens)
    cand_lts = [form.apply(g).leading_power_product(sub_order) for g in cand]
    for d in downstairs:
        lt = d.leading_power_product(sub_order)
        if not any(pp_divides(c, lt) for c in cand_lts):
            raise HypothesisViolation(
                "sliced candidate misses a leading term of the sliced ideal", offending=[d]
            )
    upstairs = groebner_basis(order, ideal.generators)
    witness = zero_divisor_witness(upstairs, form.as_polynomial())
    if witness is not None:
        raise ZeroDivisor("the cut divides zero modulo the ideal", witness=witness)
    outside = [g for g in cand if not is_member(g, upstairs)]
    if outside:
        raise ValueError(f"{len(outside)} candidate element(s) lie outside the ideal")
    ordered = sorted(cand, key=lambda g: order.key(g.leading_power_product(order)))
    return GroebnerBasis(order, tuple(ordered))


# -- interpolation across parallel slices ----------------------------


def _lagrange_basis(xs: Sequence[Fraction]) -> Tuple[List[List[int]], int]:
    """The Lagrange basis polynomials prod_{j != i} (x - xj) / (xi - xj)
    of the distinct nodes ``xs``, as integer rows over one denominator:
    row k holds the degree-k coefficient of every basis polynomial, in
    node order, times that denominator.

    With B the lcm of the node denominators and X_j = B xj, basis
    polynomial i is prod_{j != i} (B x - X_j) over the integer
    prod_{j != i} (X_i - X_j); the denominator is the lcm of those."""
    nodes, scale = over_lcm(xs)
    nums, weights = [], []
    for i, xi in enumerate(nodes):
        num, weight = [1], 1
        for j, xj in enumerate(nodes):
            if j != i:
                num = [scale * a - xj * b for a, b in zip([0] + num, num + [0])]
                weight *= xi - xj
        nums.append(num)
        weights.append(weight)
    den = math.lcm(*weights)
    rows = [[num[k] * (den // w) for num, w in zip(nums, weights)] for k in range(len(xs))]
    return rows, den


def _interpolate(rows: List[List[int]], ys: Sequence[int]) -> List[int]:
    """Coefficients, low degree first and as numerators over the basis
    denominator, of the polynomial taking the values ``ys`` at the nodes
    of the Lagrange basis ``rows``: one integer dot product each."""
    coeffs = [sum(map(operator.mul, ys, row)) for row in rows]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def lagrange_coefficients(points: Sequence[Tuple[Fraction, Fraction]]) -> List[Fraction]:
    """Coefficients, low degree first, of the unique polynomial of
    degree < len(points) through the given (x, y) pairs."""
    ys, den = over_lcm([y for _, y in points])
    rows, den_basis = _lagrange_basis([x for x, _ in points])
    return [Fraction(c, den * den_basis) for c in _interpolate(rows, ys)]


def _columns(values: Sequence[Polynomial]) -> Tuple[List[PowerProduct], List[List[int]], int]:
    """The terms of the slice ``values``, sorted; for each term its
    column, the term's coefficient in every value in order; and the one
    denominator that all columns are integer numerators over."""
    nums, den = over_lcm([c for v in values for c in v.terms.values()])
    rest = iter(nums)
    # zip stops at the end of v.terms before it draws from rest
    rows = [dict(zip(v.terms, rest)) for v in values]
    terms = sorted(set().union(*rows))
    return terms, [[row.get(t, 0) for row in rows] for t in terms], den


def _agrees(cuts: Sequence[LinearForm], values: Sequence[Polynomial]) -> bool:
    """True when, term by term, the interpolant along the pivot of all
    but the last slice already takes the last slice value ``values[-1]``
    at the constant of ``cuts[-1]``.  That holds exactly when the
    interpolant of all the slices has no term of degree ``len(cuts) - 1``
    in the pivot, whose coefficient is the top divided difference of
    Newton's form: the last row of the Lagrange basis dotted with each
    column.  A single nonzero slice value never agrees."""
    top = _lagrange_basis([cut.gamma for cut in cuts])[0][-1]
    _, columns, _ = _columns(values)
    return not any(sum(map(operator.mul, top, col)) for col in columns)


def _shared_cut(cuts: Sequence[LinearForm]) -> Tuple[LinearForm, List[Fraction]]:
    """The cut that parallel slices share, with constant 0, and their
    constants in order.  Refuses no cuts, cuts that differ in ring, pivot
    or tail, and a repeated constant."""
    if not cuts:
        raise ValueError("no slices given")
    shared = {(cut.ring, cut.pivot, cut.tail) for cut in cuts}
    if len(shared) != 1:
        raise ValueError("parallel slices must share one ring, pivot and tail")
    gammas = [cut.gamma for cut in cuts]
    if len(set(gammas)) != len(gammas):
        raise ValueError("slice constants must be distinct")
    ((ring, pivot, tail),) = shared
    return LinearForm(ring, pivot, tail), gammas


def common_lifting(cuts: Sequence[LinearForm], values: Sequence[Polynomial]) -> Polynomial:
    """The unique polynomial of pivot-degree < N restricting to the
    given value on each of the N parallel slices, slice k being the cut
    ``cuts[k]``: x_i = tail + gamma_k.

    The shared tail is absorbed into a triangular change of coordinates,
    after which each slice pins the pivot to a constant and every
    coefficient of the lifting is a univariate interpolation along the
    pivot.  The interpolation runs on integers: the slice values become
    numerators over one shared denominator and each coefficient is a dot
    product with a row of the integer Lagrange basis, made a ``Fraction``
    once.  Each slice equation is re-verified rather than assumed, on
    those integers and before the shear is undone: with the nodes X_k / S
    over their lcm S, the Horner value at X_k of a column's interpolated
    numerators, scaled by S^top, must be the slice numerator times the
    basis denominator times S^top.  Undoing the shear maps the slice
    pivot = gamma onto the cut pivot = tail + gamma exactly.
    """
    if len(values) != len(cuts):
        raise ValueError("one slice value per cut required")
    cut, gammas = _shared_cut(cuts)
    sub = cut.sub_ring()
    for v in values:
        if v.ring != sub:
            raise ValueError("slice values must live in the ring without the pivot")
    ring = cut.ring
    i = cut.pivot
    rows, den_basis = _lagrange_basis(gammas)
    nodes, scale = over_lcm(gammas)
    slice_terms, columns, den = _columns(values)
    whole = den * den_basis
    terms: Dict[PowerProduct, Fraction] = {}
    for t, col in zip(slice_terms, columns):
        coeffs = _interpolate(rows, col)
        target = den_basis * scale ** max(len(coeffs) - 1, 0)
        for x, y in zip(nodes, col):
            value, power = 0, 1
            for c in reversed(coeffs):
                value = value * x + c * power
                power *= scale
            if value != y * target:
                raise AssertionError("lifting failed to restrict to a slice value; this is a bug")
        for d, c in enumerate(coeffs):
            if c:
                terms[pp_insert(t, i, d)] = Fraction(c, whole)
    lifted = Polynomial(ring, terms)
    if cut.tail:
        # undo the coordinate change: the pivot goes back to pivot - tail
        pivot_var = Polynomial.variable(ring, ring.names[i])
        lifted = lifted.substitute(i, pivot_var - cut.replacement())
    return lifted


def reconstruct_basis(
    slices: Sequence[Tuple[LinearForm, Sequence[Polynomial]]],
    order: TermOrder,
) -> GroebnerBasis:
    """Rebuild a basis upstairs from reduced bases of parallel slices,
    given as pairs of each slice's cut and its basis.

    Slice bases are matched up by their shared leading terms, each group
    is lifted by interpolation, and every lifted element must keep its
    slice leading term upstairs.  The lift is returned unchecked: that it
    lands in the intended ideal is the caller's to certify, for instance
    with ``is_member`` against a basis of that ideal.
    """
    if not slices or not all(base for _, base in slices):
        raise ValueError("empty slice basis")
    cuts = [cut for cut, _ in slices]
    cut, _ = _shared_cut(cuts)
    sub_order = order.restrict(cut.pivot)
    rows: List[List[Polynomial]] = []
    lt_rows = set()
    for _, base in slices:
        pairs = sorted(((g.leading_power_product(sub_order), g) for g in base),
                       key=lambda pair: sub_order.key(pair[0]))
        rows.append([g for _, g in pairs])
        lt_rows.add(tuple(lt for lt, _ in pairs))
    if len(lt_rows) != 1:
        raise NonGenericSlices("slice bases have different leading-term multisets")
    (shared_lts,) = lt_rows
    lifted: List[Polynomial] = []
    for j, lt in enumerate(shared_lts):
        g = common_lifting(cuts, [row[j] for row in rows])
        if g.leading_power_product(order) != pp_insert(lt, cut.pivot, 0):
            raise LTDrift(
                f"lifted element {j} has a larger leading term than its slices; "
                "more slices or a different ordering needed"
            )
        lifted.append(g)
    lifted.sort(key=lambda g: order.key(g.leading_power_product(order)))
    return GroebnerBasis(order, tuple(lifted))


# -- implicitization -------------------------------------------------


def gamma_stream() -> Iterator[Fraction]:
    """Deterministic slice constants 2, -2, 3, -3, ...; the environment
    variable SLICEGB_SEED shifts the starting point."""
    k = 2 + max(0, int(os.environ.get("SLICEGB_SEED", "0")))
    while True:
        yield Fraction(k)
        yield Fraction(-k)
        k += 1


def _eliminate_params(param_ring: Ring, keep: Ring, pairs, extra=()) -> Ideal:
    """The closure of the image of the parameter space: eliminate the
    parameters from (name - image) for each pair of a kept name and its
    image, plus parameter-only constraints; the result lives in the kept
    ring.

    A rational image num/den gives den*name - num instead.  When some
    denominator is not constant, a tag variable u listed after the
    parameters inverts their least common multiple by 1 - u*lcm, so
    points where a denominator vanishes never leak into the image.  The
    eliminated block is renamed apart from the kept names.
    """
    pairs = list(pairs)
    dens = [image.den for _, image in pairs
            if isinstance(image, RationalFunction) and not image.den.is_constant()]
    common = functools.reduce(polynomial_lcm, dens, Polynomial.constant(param_ring, 1))
    tagged = not common.is_constant()
    block: Tuple[str, ...] = ()
    for name in param_ring.names + ("u",) * tagged:
        block += (Ring(block + keep.names).fresh_name(name),)
    combined = Ring(block + keep.names)
    pad = (0,) * (combined.arity - param_ring.arity)
    embed = lambda f: Polynomial(combined, {t + pad: c for t, c in f.terms.items()})
    gens = []
    for name, image in pairs:
        y = Polynomial.variable(combined, name)
        if isinstance(image, RationalFunction):
            gens.append(y * embed(image.den) - embed(image.num))
        else:
            gens.append(y - embed(image))
    gens.extend(embed(e) for e in extra)
    if tagged:
        u = Polynomial.variable(combined, block[-1])
        gens.append(Polynomial.constant(combined, 1) - u * embed(common))
    return eliminate(Ideal.of(combined, gens), range(len(block)))


def map_slices(job, work, jobs: int = 1) -> Iterator:
    """Yield ``job(w)`` for each item ``w`` of ``work``, in order.

    Above one job, the calls run on ``jobs`` worker processes, but on no
    more than one per CPU, with one call in flight per worker.  An item
    is drawn only when a call may start.  Closing the generator or an
    error in it cancels the pending calls, kills the running ones without
    waiting for them and reaps every worker before it returns.
    """
    if not jobs or jobs <= 1:
        for w in work:
            yield job(w)
        return
    workers = min(jobs, os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers)
    running = []
    try:
        for w in work:
            running.append(pool.submit(job, w))
            if len(running) == workers:
                yield running[0].result()
                running.pop(0)
        while running:
            yield running[0].result()
            running.pop(0)
    finally:
        if not all(f.done() for f in running):
            # Python 3.11 has no public call that ends busy workers
            for process in pool._processes.values():
                process.terminate()
        pool.shutdown(cancel_futures=True)


def _slice_curve_job(args):
    """Implicitize one plane slice; top level so worker processes can
    import it."""
    param_ring, sub_ring, sub_pairs, pivot_image, sub_order, gamma = args
    out = _eliminate_params(
        param_ring, sub_ring, sub_pairs,
        [pivot_image - Polynomial.constant(param_ring, gamma)],
    )
    good = len(out.generators) == 1 and not out.generators[0].is_constant()
    return out.generators[0].monic(sub_order) if good else None


def implicitize(
    param_ring: Ring,
    coord_ring: Ring,
    images: Sequence[Polynomial],
    mode: str = "eliminate",
    pivot: Optional[str] = None,
    order: Optional[TermOrder] = None,
    jobs: int = 1,
) -> Polynomial:
    """Implicit equation of a parametrized hypersurface, normalized to
    integer coefficients with content 1 and a positive leading one.

    ``eliminate`` mode performs one block elimination of the parameters.
    ``slice`` mode fixes a pivot coordinate to a stream of constants,
    implicitizes each plane slice separately, and rebuilds the equation
    by interpolation along the pivot.  It reads the slices one at a time
    and stops at the first slice on which the interpolant of the slices
    before it already takes the slice curve, once pivot degree + 2
    slices are in (early termination, as in sparse interpolation).  The
    rebuilt equation is accepted only once it vanishes under the
    parametrization, which certifies it exactly; past a Bezout-style
    degree bound on the pivot degree, plus two, it gives up.
    """
    if len(images) != coord_ring.arity:
        raise ValueError("one coordinate image per variable required")
    if coord_ring.arity != param_ring.arity + 1:
        raise ValueError("a hypersurface needs one more coordinate than parameters")
    for img in images:
        if img.ring != param_ring:
            raise ValueError("coordinate images must live in the parameter ring")
    if set(param_ring.names) & set(coord_ring.names):
        raise ValueError("parameter and coordinate names must differ")

    if mode == "eliminate":
        if order is None:
            order = DegRevLex(coord_ring.arity)
        out = _eliminate_params(param_ring, coord_ring, zip(coord_ring.names, images))
        if len(out.generators) != 1:
            raise NonPrincipal("the eliminated ideal is not principal")
        return integer_normalize(out.generators[0], order)

    if mode != "slice":
        raise ValueError(f"unknown mode {mode!r}")
    if pivot is None:
        raise ValueError("slice mode needs a pivot coordinate")
    i = coord_ring.index(pivot)
    if order is None:
        order = PivotDegRev(coord_ring.arity, i)
    pivot_image = images[i]
    if not pivot_image or pivot_image.is_constant():
        raise ValueError("the pivot coordinate image must be nonconstant")
    sub_ring = coord_ring.drop(i)
    sub_pairs = [(name, img) for name, img in zip(coord_ring.names, images) if name != pivot]
    sub_order = order.restrict(i)

    # By Perron's theorem the pivot degree is at most this product, so the
    # stop rule needs at most cap slices of the generic leading term.
    degrees = sorted((img.total_degree() for img in images if img and not img.is_constant()),
                     reverse=True)
    bound = 1
    for d in degrees[: param_ring.arity]:
        bound *= d
    cap = bound + 2
    gammas = list(itertools.islice(gamma_stream(), 4 * cap + 16))
    work = ((param_ring, sub_ring, sub_pairs, pivot_image, sub_order, g) for g in gammas)
    best_lt: Optional[PowerProduct] = None
    with closing(map_slices(_slice_curve_job, work, jobs)) as slices:
        for gamma, curve in zip(gammas, slices):
            if curve is None:
                continue  # degenerate slice, e.g. a lower-dimensional fiber
            lt = curve.leading_power_product(sub_order)
            if best_lt is None or sub_order.compare(lt, best_lt) > 0:
                best_lt, cuts, curves = lt, [], []
            if lt != best_lt:
                continue
            cuts.append(LinearForm(coord_ring, i, (), gamma))
            curves.append(curve)
            if _agrees(cuts, curves):
                surface = common_lifting(cuts, curves)
                # Vanishing under the parametrization is a full certificate
                # here: any surplus factor would have to be constant on every
                # slice yet scale the shared monic leading coefficient, which
                # pins it to 1.
                if not compose(surface, images, param_ring):
                    return integer_normalize(surface, order)
            if len(cuts) == cap:
                raise RetryLimitExceeded(
                    f"{cap} slices gave no verified equation, and the pivot degree "
                    f"is at most {bound}; try another pivot or ordering"
                )
    raise RetryLimitExceeded("too many degenerate slices")


# -- slice files -----------------------------------------------------


@dataclass
class SliceFile:
    slices: List[Tuple[LinearForm, List[Polynomial]]]
    order_name: Optional[str]


def parse_slice_json(data: dict) -> SliceFile:
    """Slice collection: {"ring": "QQ[x,y,z]", "order": "degrevlex",
    "pivot": "x", "tail": {"y": "1/2"}, "slices": [{"gamma": "2",
    "generators": ["y^2 -2"]}, ...]}.  Generators are read in the ring
    without the pivot; "tail" and "order" are optional, and the tail
    variables come after the pivot in the ring listing."""
    (ring,) = read_rings(read_object(data, "ring", "pivot", "slices")["ring"])
    order_name = read_order(data.get("order"), ring)
    pivot = read_variable(data["pivot"], ring, "pivot")
    tail = {read_variable(v, ring, "tail variable"): read_rational(c, "tail coefficient")
            for v, c in read_object(data.get("tail") or {}).items()}
    slices = read_slices(data["slices"], "generators")
    bases = [read_polynomials(ring.drop(ring.index(pivot)), gens) for _, _, gens in slices]
    forms = [LinearForm.of(ring, pivot, tail, gamma) for gamma, _, _ in slices]
    if any(j < forms[0].pivot for j, _ in forms[0].tail):
        raise ValueError("tail variables must come after the pivot")
    return SliceFile(list(zip(forms, bases)), order_name)


# -- parametrization files -------------------------------------------


@dataclass
class MapFile:
    param_ring: Ring
    coord_ring: Ring
    images: List[Polynomial]
    pivot: Optional[str]
    order_name: Optional[str]


def parse_map_json(data: dict) -> MapFile:
    """Polynomial map: {"params": "QQ[s,t]", "coords": "QQ[x,y,z]",
    "images": ["s", "t", "s^2 +t^3"]}.  Ring fields also accept plain
    name lists; "pivot" and "order" are optional."""
    read_object(data, "params", "coords", "images")
    param_ring, coord_ring = read_rings(data["params"], data["coords"])
    images = read_polynomials(param_ring, data["images"], coord_ring.arity)
    pivot = None if data.get("pivot") is None else read_variable(data["pivot"], coord_ring, "pivot")
    return MapFile(param_ring, coord_ring, images, pivot, read_order(data.get("order"), coord_ring))
