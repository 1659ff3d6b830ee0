import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    ReferencePairs,
    all_power_products,
    dimension_by_subset_search,
    fractions,
    member_with_bound,
    nonzero_polynomials,
    normal_form_reference,
    polynomials,
    pp_coprime,
    pp_lcm,
    spolynomial,
    top_by_fields,
)
from slicegb.groebner import (
    GroebnerBasis,
    Ideal,
    MonomialIdeal,
    buchberger,
    check_minimal,
    check_reduced,
    colon_ideal,
    dimension,
    eliminate,
    exact_divide,
    groebner_basis,
    integer_normalize,
    intersect_principal,
    is_member,
    monomial_dimension,
    normal_form,
    reduce_basis,
)
from slicegb import groebner
from slicegb.families import Family
from slicegb.orders import DegLex, DegRevLex, Elim, Lex, PivotDegRev
from slicegb.parsing import format_polynomial, parse_polynomial
from slicegb.poly import Polynomial
from slicegb.ratfunc import RationalFunction
from slicegb.rings import pp_degree, pp_divides, ring

R2 = ring("x", "y")
R3 = ring("x", "y", "z")
O2 = DegRevLex(2)
O3 = DegRevLex(3)


def p(text, r=R3):
    return parse_polynomial(r, text)


def basis_strings(gb):
    return [format_polynomial(gb.order, g) for g in gb]


# -- division --------------------------------------------------------


def test_normal_form_example():
    # x^2*y -> y*y after rewriting by x^2 - y
    r = normal_form(O2, p("x^2*y", R2), [p("x^2-y", R2)])
    assert r == p("y^2", R2)


def test_normal_form_is_full():
    # every term of the remainder must be irreducible, not just the head
    r = normal_form(O2, p("x^3 + x^2 + x", R2), [p("x^2-y", R2)])
    assert r == p("x*y + y + x", R2)


def test_normal_form_uses_reducers_in_list_order():
    f = p("x^2", R2)
    assert normal_form(O2, f, [p("x^2-y", R2), p("x^2-x", R2)]) == p("y", R2)
    assert normal_form(O2, f, [p("x^2-x", R2), p("x^2-y", R2)]) == p("x", R2)


def test_normal_form_zero_input():
    assert normal_form(O2, Polynomial.zero(R2), [p("x", R2)]).is_zero()


def test_spolynomial():
    f, g = p("x^2 + y", R2), p("x*y + x", R2)
    # lcm x^2*y; y*f - x*g = y^2 - x^2
    assert spolynomial(O2, f, g) == p("y^2 - x^2", R2)


def test_exact_divide():
    f = p("x^2 - y^2")
    assert exact_divide(f, p("x - y")) == p("x + y")
    assert exact_divide(f, f) == p("1")
    with pytest.raises(ValueError):
        exact_divide(p("x^2 + 1"), p("x + 1"))


# -- Buchberger and reduction ---------------------------------------

# Expected bases below were cross-checked against an independent
# computer algebra system before being frozen here.

CYCLIC3 = ["x+y+z", "x*y+y*z+z*x", "x*y*z-1"]


def test_cyclic3_degrevlex():
    gb = groebner_basis(O3, [p(s) for s in CYCLIC3])
    assert basis_strings(gb) == ["x +y +z", "y^2 +y*z +z^2", "z^3 -1"]
    assert gb.is_minimal and gb.is_reduced


def test_cyclic3_lex():
    gb = groebner_basis(Lex(3), [p(s) for s in CYCLIC3])
    assert basis_strings(gb) == ["z^3 -1", "y^2 +y*z +z^2", "x +y +z"]


def test_katsura3_degrevlex():
    rk = ring("u0", "u1", "u2")
    gens = [
        p("u0+2*u1+2*u2-1", rk),
        p("u0^2+2*u1^2+2*u2^2-u0", rk),
        p("2*u0*u1+2*u1*u2-u1", rk),
    ]
    gb = groebner_basis(DegRevLex(3), gens)
    assert basis_strings(gb) == [
        "u0 +2*u1 +2*u2 -1",
        "u1*u2 +6/5*u2^2 -1/10*u1 -2/5*u2",
        "u1^2 -3/5*u2^2 -1/5*u1 +1/5*u2",
        "u2^3 -79/210*u2^2 +1/30*u1 +1/70*u2",
    ]


def test_unit_ideal():
    gb = groebner_basis(O2, [p("x", R2), p("x+1", R2)])
    assert basis_strings(gb) == ["1"]


def test_buchberger_rejects_no_generators():
    with pytest.raises(ValueError):
        buchberger(O2, [Polynomial.zero(R2)])


def small_ideals(r, count=3):
    return st.lists(nonzero_polynomials(r, max_degree=3, max_terms=3), min_size=1, max_size=count)


ORDERS3 = [
    Lex(3), DegLex(3), DegRevLex(3),
    PivotDegRev(3, 0), PivotDegRev(3, 1),
    Elim(3, [0]), Elim(3, [0, 1]),
]


def assert_groebner_by_reference(order, basis):
    """Buchberger's criterion by the tuple-based reference division: the
    S-polynomial of every pair of elements reduces to zero, also the
    pairs that the Gebauer-Moeller update never formed."""
    for i in range(len(basis)):
        for j in range(i):
            assert not normal_form_reference(order, spolynomial(order, basis[i], basis[j]), basis)


@settings(max_examples=25, deadline=None)
@given(small_ideals(R3))
def test_spolynomials_reduce_to_zero(gens):
    # the defining property, checked after the fact
    for order in ORDERS3:
        assert_groebner_by_reference(order, buchberger(order, gens))


def recorded_pairs(order, gens, queue=None):
    """``buchberger(order, gens)`` with the pair queue class ``queue``
    (by default the library's), and the queue of the last packing
    width, the one that held; it keeps the pairs it yields as
    ``yielded``."""
    queues = []

    class Recording(queue or groebner._Pairs):
        def __init__(self, pk):
            super().__init__(pk)
            self.yielded = []
            queues.append(self)

        def __iter__(self):
            for pair in super().__iter__():
                self.yielded.append(pair)
                yield pair

    with mock.patch.object(groebner, "_Pairs", Recording):
        basis = buchberger(order, gens)
    return basis, queues[-1]


@settings(max_examples=25, deadline=None)
@given(small_ideals(R3))
# under lex and the eliminations the remainder z^8 arose from a pair of
# sugar 7; stored with that sugar, it made a pair below its lcm degree
@example(gens=[p("x^3"), p("x*y +z^2"), p("y*z +z +1")])
def test_pairs_come_by_rising_sugar_and_never_coprime(gens):
    for order in ORDERS3:
        basis, pairs = recorded_pairs(order, gens)
        sugars = [sugar for _, _, _, sugar in pairs.yielded]
        assert sugars == sorted(sugars)
        for i, j, lcm, sugar in pairs.yielded:
            assert not pp_coprime(pairs.exps[i], pairs.exps[j])
            assert pairs.pk.unpack(lcm) == pp_lcm(pairs.exps[i], pairs.exps[j])
            assert sugar >= pp_degree(pairs.pk.unpack(lcm))
        # a generator's sugar is its total degree
        for g, lt, surplus in zip(gens, pairs.exps, pairs.surplus):
            assert g.total_degree() == pp_degree(lt) + surplus


def test_cyclic4_lex_unchanged_by_the_pair_strategy():
    # frozen from a run under the normal strategy with a chain criterion;
    # the reduced basis is unique, so no pair strategy may change it
    r4 = ring("a", "b", "c", "d")
    gens = [p(g, r4) for g in ["a+b+c+d", "a*b+b*c+c*d+d*a", "a*b*c+b*c*d+c*d*a+d*a*b", "a*b*c*d-1"]]
    basis, pairs = recorded_pairs(Lex(4), gens)
    assert len(pairs.yielded) < len(basis) * (len(basis) - 1) // 2
    assert basis_strings(reduce_basis(Lex(4), basis)) == [
        "c^2*d^6 -c^2*d^2 -d^4 +1",
        "c^3*d^2 +c^2*d^3 -c -d",
        "b*d^4 -b +d^5 -d",
        "b*c -b*d +c^2*d^4 +c*d -2*d^2",
        "b^2 +2*b*d +d^2",
        "a +b +c +d",
    ]


def assert_pairs_match_the_reference(order, gens):
    """The library's pair queue forms the pairs of ``ReferencePairs``,
    which takes lcms, coprimality and degrees on exponent tuples, in the
    same order, and Buchberger stores the same elements."""
    basis, pairs = recorded_pairs(order, gens)
    expected, reference = recorded_pairs(order, gens, ReferencePairs)
    assert basis == expected
    assert repr(basis) == repr(expected)

    def unpacked(queue):
        return [(i, j, queue.pk.unpack(l), sugar) for i, j, l, sugar in queue.yielded]

    assert unpacked(pairs) == unpacked(reference)
    assert (pairs.exps, pairs.surplus, pairs.active) == (reference.exps, reference.surplus, reference.active)


@pytest.mark.parametrize("order", ORDERS3, ids=lambda o: o.name)
@settings(max_examples=10, deadline=None)
@given(small_ideals(R3))
# x is coprime to y, so the lcm x*y makes no pair, yet it still rules
# out its multiple x*y*z, the lcm of x with the second generator
@example(gens=[p("y +1"), p("x*y*z +1"), p("x +1")])
def test_pair_queue_matches_the_reference(order, gens):
    assert_pairs_match_the_reference(order, gens)


def test_pair_queue_matches_the_reference_past_the_first_width(widths):
    # an lcm of two stored leading terms overflows the degree field of
    # the first packing, and the call reruns wider
    r = ring("x", "y", "z", "t")
    gens = [p(g, r) for g in ["x^17 - y*z^15*t", "x*y^15 - z^16", "x^16*z - y^16*t"]]
    assert_pairs_match_the_reference(DegRevLex(4), gens)
    assert len(set(widths)) > 1


@pytest.mark.parametrize("bits", [8, 16])
@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 85)] * 3), max_size=12))
def test_top_is_the_field_wise_largest_term(bits, exps):
    # degrees up to 255 fill the widest field of the 8-bit packing
    for order in ORDERS3:
        pk = groebner._Packing(order, bits)
        terms = [pk.pack(t) for t in exps]
        for part in (terms, terms[:1], []):
            assert pk.top(part) == top_by_fields(pk, part)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 85)] * 3), min_size=1, max_size=12))
def test_degree_is_the_largest_total_degree(exps):
    for order in ORDERS3:
        pk = groebner._Packing(order, 8)
        assert pk.degree([pk.pack(t) for t in exps]) == max(map(pp_degree, exps))


@settings(max_examples=25, deadline=None)
@given(small_ideals(R2))
def test_reduce_is_idempotent_and_canonical(gens):
    gb = groebner_basis(O2, gens)
    again = reduce_basis(O2, list(gb.elements))
    assert again.elements == gb.elements
    assert check_reduced(O2, gb.elements)


@settings(max_examples=20, deadline=None)
@given(small_ideals(R2), st.randoms(use_true_random=False))
def test_reduced_basis_ignores_generator_presentation(gens, rng):
    gb = groebner_basis(O2, gens)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    scaled = [g.scale(Fraction(rng.randint(1, 5), rng.randint(1, 3))) for g in shuffled]
    assert groebner_basis(O2, scaled).elements == gb.elements


class FieldStep:
    """The division step over a field: divide by the leading
    coefficient, and store monic elements."""

    @staticmethod
    def pack(pk, f):
        return {pk.pack(t): c for t, c in f.terms.items()}, 1

    @staticmethod
    def divide(c, lc):
        return 1, c / lc

    @staticmethod
    def strip(work, remainder):
        pass

    @staticmethod
    def normalize(terms):
        inv = 1 / terms[max(terms)]
        return {u: c * inv for u, c in terms.items()}


def field_buchberger(order, generators):
    """Buchberger with the field division step, which divides by leading
    coefficients; the reference for the integer and parameter steps."""
    gens = [g for g in generators if g]

    def run(pk):
        return [pk.polynomial(gens[0].ring, e) for e in groebner._buchberger_packed(pk, gens, FieldStep)]

    return groebner._packed_call(order, gens, run)


def interreduce_by_normal_form(order, polys):
    """The reduced basis by the tuple-based reference division, which
    the packed kernel must agree with."""
    kept = []
    for g in sorted(polys, key=lambda g: order.key(g.leading_power_product(order))):
        if not any(pp_divides(h.leading_power_product(order), g.leading_power_product(order)) for h in kept):
            kept.append(g)
    for idx, g in enumerate(kept):
        kept[idx] = normal_form_reference(order, g, kept[:idx] + kept[idx + 1:]).monic(order)
    return kept


def assert_paths_agree(order, gens):
    packed = buchberger(order, gens)
    generic = field_buchberger(order, gens)
    # same pairs, same reducers: the stored elements agree up to a constant
    assert packed == [integer_normalize(g, order) for g in generic]
    a = groebner_basis(order, gens)
    assert a.elements == reduce_basis(order, generic).elements
    assert list(a.elements) == interreduce_by_normal_form(order, generic)


@settings(max_examples=15, deadline=None)
@given(small_ideals(R2))
def test_content_normalization_flag_changes_nothing(gens):
    assert_paths_agree(O2, gens)


# a draw whose lex basis took 17 s under the normal strategy (224 s
# without normalization) and takes milliseconds under sugar
SLOW_UNDER_NORMAL_STRATEGY = ["7/2*x^3 -23/4*x*y +11/2*x", "y^2*z -13/2*z^2 -13/2*y", "-3/2*x*y^2 -5*z^3 +5*x^2"]


@pytest.mark.parametrize("order", ORDERS3, ids=lambda o: o.name)
@settings(max_examples=10, deadline=None)
@given(small_ideals(R3))
@example(gens=[p(g) for g in SLOW_UNDER_NORMAL_STRATEGY])
def test_content_normalization_flag_changes_nothing_across_orders(order, gens):
    assert_paths_agree(order, gens)


PARAMS = ring("a", "b")


def parameter_fractions():
    """Nonzero elements of Q(a, b) of degree at most 1 over at most 1."""
    small = nonzero_polynomials(PARAMS, max_degree=1, max_terms=2)
    return st.builds(RationalFunction, small, small)


FIELDS = {"Q": fractions(), "Q(a,b)": parameter_fractions()}


def over_ab(*terms):
    """A polynomial over Q(a, b) in x, y, z from ``(numerator,
    denominator, monomial)`` strings."""
    return Polynomial(R3, {
        p(mono).leading_power_product(O3): RationalFunction(p(num, PARAMS), p(den, PARAMS))
        for num, den, mono in terms
    })


def normal_form_inputs(coeffs):
    return st.tuples(
        polynomials(R3, max_degree=4, max_terms=5, coeffs=coeffs),
        st.lists(polynomials(R3, max_degree=2, max_terms=3, coeffs=coeffs), max_size=3),
    )


# under elim(0) this draw ran for minutes while the polynomial gcd was
# the primitive remainder sequence
SLOW_NORMAL_FORM = (
    over_ab(("-(35/19*b +13/19)", "a", "x^3*y"), ("-(2/3*a -2/3)", "b -14/9", "x^2*y*z"),
            ("9", "1", "y^3*z"), ("-4/9", "1", "x*y"), ("-13/15", "a +4/15*b", "x*z")),
    [over_ab(("-(5/9*a -17/18*b)", "b", "z^2"), ("-(8/7*a +25/21)", "a +13/14", "z")),
     over_ab(("-(28/29*b -92/87)", "a +22/29", "z^2"), ("-(44/27*b -52/27)", "a +14/9*b", "x"),
             ("19*a +8/3", "b +28", "1")),
     over_ab(("8/11*b -15/22", "a", "x*y"))],
)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("order", ORDERS3, ids=lambda o: o.name)
@settings(max_examples=10, deadline=None)
@given(inputs=st.fixed_dictionaries({field: normal_form_inputs(c) for field, c in FIELDS.items()}))
@example(inputs={"Q": (Polynomial.zero(R3), []), "Q(a,b)": SLOW_NORMAL_FORM})
def test_normal_form_matches_the_reference(order, field, inputs):
    f, reducers = inputs[field]
    got, expected = normal_form(order, f, reducers), normal_form_reference(order, f, reducers)
    assert got == expected and repr(got) == repr(expected)


# inputs whose remainder scale ``normal_form`` must carry: over Q the
# clearing factor is 3, and the 64th division step strips a content of 3
# from the pending terms and the scale alike; over Q(a, b) every step
# scales by ``a``, so the scale grows to a^65
CARRIED_SCALE = {
    "Q": lambda: (p("1/3*x^130 +1"), [p("x^2 -3*y")]),
    "Q(a,b)": lambda: (over_ab(("1", "1", "x^130"), ("1", "1", "1")),
                       [over_ab(("a", "1", "x^2"), ("-(b +1)", "1", "y"))]),
}


@pytest.mark.parametrize("field", CARRIED_SCALE)
@pytest.mark.parametrize("order", [Lex(3), DegRevLex(3)], ids=lambda o: o.name)
def test_normal_form_carries_its_scale(order, field):
    f, reducers = CARRIED_SCALE[field]()
    got, expected = normal_form(order, f, reducers), normal_form_reference(order, f, reducers)
    assert got == expected and repr(got) == repr(expected)
    assert len(got.terms) == 2


def parameter_ideals():
    return st.lists(
        nonzero_polynomials(R3, max_degree=2, max_terms=3, coeffs=parameter_fractions()),
        min_size=1, max_size=2,
    )


@pytest.mark.parametrize("order", ORDERS3, ids=lambda o: o.name)
@settings(max_examples=5, deadline=None)
@given(parameter_ideals())
def test_pair_queue_matches_the_reference_over_parameters(order, gens):
    assert_pairs_match_the_reference(order, gens)


# three generators whose reduced basis took seconds to turn into
# fractions while the polynomial gcd was the primitive remainder
# sequence; the basis below is that run's output
SLOW_FRACTIONS = [
    over_ab(("7/4*a", "b", "y^2"), ("1/2*b", "a -3*b", "y"), ("-4/3", "1", "z")),
    over_ab(("1", "1", "y^2"), ("-(3/2*a -2*b)", "1", "x*z"), ("-1/2*b", "a", "y*z")),
    over_ab(("-2*a", "1", "x*y"), ("1/9", "b", "y"), ("-(3/4*a -7/8)", "b +5/4", "1")),
]
SLOW_FRACTIONS_BASIS = [
    '-(9/16*a*b^3 -3/4*b^4)/(a*b^2 -3*b^3 -7/64*a^2 +91/192*a*b -7/16*b^2)*x +y -1/2*b^3/(a*b^2 -7/64*a^2 +7/48*a*b)*z +(189/256*a^2*b -63/64*a*b^2 -441/512*a*b +147/128*b^2)/(b^3 -7/64*a*b +67/48*b^2 -35/256*a +35/192*b)',
    'x^2 -(21/16*a^3*b^2 -63/16*a^2*b^3 +63/256*a*b^4 -147/1024*a^4 +637/1024*a^3*b -539/256*a^2*b^2 +147/32*a*b^3 -1067/4608*b^4 +343/2048*a^3 -4459/6144*a^2*b +3059/4608*a*b^2 +67/864*b^3 -35/4608*a*b +35/3456*b^2)/(a*b^5 -7/64*a^2*b^3 +67/48*a*b^4 -35/256*a^2*b^2 +35/192*a*b^3)*x -(7/32*a^2*b^2 -21/32*a*b^3 -49/192*a*b^2 +49/64*b^3)/(a^3*b^3 -4/3*a^2*b^4 -7/64*a^4*b +37/24*a^3*b^2 -67/36*a^2*b^3 -35/256*a^4 +35/96*a^3*b -35/144*a^2*b^2)*z +(1323/4096*a^5*b -5733/4096*a^4*b^2 +6017/3072*a^3*b^3 -2*a^2*b^4 -1/8*a*b^5 -10157/12288*a^4*b +162761/36864*a^3*b^2 -60553/9216*a^2*b^3 +829/384*a*b^4 +7/48*b^5 -35/384*a^4 +135611/147456*a^3*b -1589623/442368*a^2*b^2 +183463/36864*a*b^3 +469/2304*b^4 +245/2304*a^3 -3185/6912*a^2*b +14945/36864*a*b^2 +245/9216*b^3)/(a^3*b^5 -4/3*a^2*b^6 -7/64*a^4*b^3 +67/24*a^3*b^4 -127/36*a^2*b^5 -35/128*a^4*b^2 +55/24*a^3*b^3 -185/72*a^2*b^4 -175/1024*a^4*b +175/384*a^3*b^2 -175/576*a^2*b^3)',
    'x*z +(567/2048*a^2*b^2 -189/512*a*b^3 -1323/4096*a*b^2 +441/1024*b^3)/(a*b^3 -3*b^4 -7/64*a^2*b +331/192*a*b^2 -67/16*b^3 -35/256*a^2 +455/768*a*b -35/64*b^2)*x +(63/256*a*b^3 -1579/4608*b^3 +7/1152*a*b -67/864*b^2 +35/4608*a -35/3456*b)/(a*b^4 -7/64*a^2*b^2 +67/48*a*b^3 -35/256*a^2*b +35/192*a*b^2)*z -(11907/32768*a^5 -51597/32768*a^4*b +11907/8192*a^3*b^2 -9/64*a*b^4 -27783/32768*a^4 +120393/32768*a^3*b -27657/8192*a^2*b^2 -201/1024*a*b^3 +21/128*b^4 +64827/131072*a^3 -278397/131072*a^2*b +63399/32768*a*b^2 +469/2048*b^3 -735/32768*a*b +245/8192*b^2)/(a^2*b^4 -3*a*b^5 -7/64*a^3*b^2 +571/192*a^2*b^3 -127/16*a*b^4 -35/128*a^3*b +1055/384*a^2*b^2 -185/32*a*b^3 -175/1024*a^3 +2275/3072*a^2*b -175/256*a*b^2)',
    'z^2 -(1701/1024*a^6*b^2 -9639/1024*a^5*b^3 +271215/16384*a^4*b^4 -19845/2048*a^3*b^5 -639/7168*a^2*b^6 +6/7*a*b^7 -11907/65536*a^7 +83349/65536*a^6*b -83349/16384*a^5*b^2 +58653/4096*a^4*b^3 -672867/32768*a^3*b^4 +295719/28672*a^2*b^5 +7891/14336*a*b^6 +27783/131072*a^6 -194481/131072*a^5*b +120393/32768*a^4*b^2 -31179/8192*a^3*b^3 +2607/2048*a^2*b^4 +5/32*a*b^5)/(a^2*b^5 -6*a*b^6 +9*b^7 -7/64*a^3*b^3 +197/96*a^2*b^4 -599/64*a*b^5 +201/16*b^6 -35/256*a^3*b^2 +385/384*a^2*b^3 -595/256*a*b^4 +105/64*b^5)*x -(189/64*a^4*b^5 -819/64*a^3*b^6 +651011/43008*a^2*b^7 -34091/3584*a*b^8 -4/7*b^9 -1323/4096*a^5*b^3 +7497/4096*a^4*b^4 -3893/512*a^3*b^5 +44433/1792*a^2*b^6 -846765/28672*a*b^7 -2033/7168*b^8 +3983/8192*a^4*b^3 -98431/24576*a^3*b^4 +23449/2304*a^2*b^5 -3897/512*a*b^6 +7/576*b^7 -49/12288*a^5*b +2023/12288*a^4*b^2 -7777/9216*a^3*b^3 +470659/331776*a^2*b^4 -10787/13824*a*b^5 +35/2304*b^6 -245/49152*a^5 +1715/49152*a^4*b -3185/36864*a^3*b^2 +7595/82944*a^2*b^3 -245/6912*a*b^4)/(a*b^8 -3*b^9 -7/64*a^2*b^6 +331/192*a*b^7 -67/16*b^8 -35/256*a^2*b^5 +455/768*a*b^6 -35/64*b^7)*z +(35721/16384*a^8*b^2 -154791/8192*a^7*b^3 +15411627/262144*a^6*b^4 -20420505/262144*a^5*b^5 +1218753/32768*a^4*b^6 +84087/16384*a^3*b^7 -3537/512*a^2*b^8 +27/128*a*b^9 -250047/1048576*a^9 +1250235/524288*a^8*b -14919471/1048576*a^7*b^2 +15956703/262144*a^6*b^3 -39777507/262144*a^5*b^4 +48017205/262144*a^4*b^5 -1259739/16384*a^3*b^6 -222855/16384*a^2*b^7 +17109/2048*a*b^8 -63/256*b^9 +583443/1048576*a^8 -2917215/524288*a^7*b +25466427/1048576*a^6*b^2 -16897041/262144*a^5*b^3 +117632403/1048576*a^4*b^4 -115360105/1048576*a^3*b^5 +4863243/131072*a^2*b^6 +584703/65536*a*b^7 -1407/4096*b^8 -1361367/4194304*a^7 +6780375/2097152*a^6*b -51765903/4194304*a^5*b^2 +23210859/1048576*a^4*b^3 -4580177/262144*a^3*b^4 +2080295/786432*a^2*b^5 +75509/32768*a*b^6 -735/16384*b^7 +15435/1048576*a^5*b -108045/1048576*a^4*b^2 +66885/262144*a^3*b^3 -53165/196608*a^2*b^4 +1715/16384*a*b^5)/(a^2*b^8 -6*a*b^9 +9*b^10 -7/64*a^3*b^6 +317/96*a^2*b^7 -1079/64*a*b^8 +381/16*b^9 -35/128*a^3*b^5 +685/192*a^2*b^6 -1795/128*a*b^7 +555/32*b^8 -175/1024*a^3*b^4 +1925/1536*a^2*b^5 -2975/1024*a*b^6 +525/256*b^7)',
]


def test_basis_over_parameters_with_large_fractions():
    assert list(map(repr, SLOW_FRACTIONS)) == [
        "7/4*a/(b)*y^2 +1/2*b/(a -3*b)*y -4/3*z",
        "y^2 -(3/2*a -2*b)*x*z -1/2*b/(a)*y*z",
        "-2*a*x*y +1/9/(b)*y -(3/4*a -7/8)/(b +5/4)",
    ]
    gb = groebner_basis(PivotDegRev(3, 0), SLOW_FRACTIONS)
    assert list(map(repr, gb)) == SLOW_FRACTIONS_BASIS


@pytest.mark.parametrize("order", ORDERS3, ids=lambda o: o.name)
@settings(max_examples=10, deadline=None)
@given(parameter_ideals())
def test_buchberger_over_parameters_matches_the_field_step(order, gens):
    generic = field_buchberger(order, gens)
    # same pairs, same reducers: the stored elements agree up to a unit
    assert buchberger(order, gens) == [g.monic(order) for g in generic]
    gb = groebner_basis(order, gens)
    reference = reduce_basis(order, generic)
    assert gb.elements == reference.elements
    assert list(map(repr, gb)) == list(map(repr, reference))


@pytest.fixture
def widths(monkeypatch):
    """The field widths of the packings built, in order."""
    seen = []
    packing = groebner._Packing

    def record(order, bits):
        seen.append(bits)
        return packing(order, bits)

    monkeypatch.setattr(groebner, "_Packing", record)
    return seen


@pytest.mark.parametrize("order", [Lex(2), DegRevLex(2)], ids=lambda o: o.name)
def test_exponent_wider_than_32_bits(order, widths):
    # the coprime criterion skips the only pair
    gens = [p("x^4294967296 - y", R2), p("y^2 - 1", R2)]
    gb = groebner_basis(order, gens)
    assert min(widths) > 32
    assert basis_strings(gb) == ["y^2 -1", "x^4294967296 -y"]
    assert gb.elements == reduce_basis(order, field_buchberger(order, gens)).elements


@pytest.mark.parametrize("order, gens, last", [
    # x^7 -> y^49 -> z^343 inside the reduction of the S-polynomial
    (Lex(3), ["x^7 - 1", "x - y^7", "y - z^7"], "z^343 -1"),
    # z^(n^2+1) - y^(n^2)*t in the degrevlex basis, n = 16
    (DegRevLex(4), ["x^17 - y*z^15*t", "x*y^15 - z^16", "x^16*z - y^16*t"], "z^257 -y^256*t"),
], ids=["lex", "degrevlex"])
def test_products_wider_than_the_initial_packing(order, gens, last, widths):
    r = ring(*("x", "y", "z", "t")[:order.n])
    polys = [p(g, r) for g in gens]
    basis = buchberger(order, polys)
    assert len(set(widths)) > 1  # the first width overflowed and the call reran
    assert last in basis_strings(reduce_basis(order, basis))
    generic = field_buchberger(order, polys)
    assert basis == [integer_normalize(g, order) for g in generic]
    assert groebner_basis(order, polys).elements == reduce_basis(order, generic).elements


def test_interreduction_products_wider_than_the_initial_packing(widths):
    # w - x^7 reduces through x - z^49 to w - z^343
    r = ring("w", "x", "y", "z")
    polys = [p(g, r) for g in ["y - z^7", "x - y^7", "w - x^7"]]
    gb = reduce_basis(Lex(4), polys)
    assert len(widths) > 1  # the first width overflowed and the call reran
    assert basis_strings(gb) == ["y -z^7", "x -z^49", "w -z^343"]
    assert list(gb.elements) == interreduce_by_normal_form(Lex(4), polys)


def test_width_rerun_spans_generators_to_reduced_basis(widths):
    # the leading terms are pairwise coprime, so Buchberger forms no
    # S-pair and only the interreduction overflows the first width
    r = ring("w", "x", "y", "z")
    polys = [p(g, r) for g in ["y - z^7", "x - y^7", "w - x^7"]]
    gb = groebner_basis(Lex(4), polys)
    assert len(set(widths)) > 1  # the first width overflowed and the call reran
    assert basis_strings(gb) == ["y -z^7", "x -z^49", "w -z^343"]


A = ring("a")


def over_a(text, r):
    """A polynomial over Q(a) in the ring ``r``, written with ``a``."""
    return Family.parse(A, r, [text]).over_field()[0]


@pytest.mark.parametrize("order", [Lex(2), DegRevLex(2)], ids=lambda o: o.name)
def test_exponent_wider_than_32_bits_over_parameters(order, widths):
    gens = [over_a("x^4294967296 - a*y", R2), over_a("y^2 - a", R2)]
    basis = buchberger(order, gens)
    assert min(widths) > 32
    assert_groebner_by_reference(order, basis)
    gb = reduce_basis(order, basis)
    assert list(gb.elements) == interreduce_by_normal_form(order, basis)
    f = over_a("x^4294967297*y + a*x*y^3", R2)
    got = normal_form(order, f, gb.elements)
    assert got == normal_form_reference(order, f, gb.elements)
    assert repr(got) == "a^2*x*y +a^2*x"


def test_products_wider_than_the_initial_packing_over_parameters(widths):
    # x^7 -> a^7*y^49 -> a^7*z^343 inside the reduction of the S-polynomial
    gens = [over_a(g, R3) for g in ["x^7 - a", "x - a*y^7", "y - z^7"]]
    basis = buchberger(Lex(3), gens)
    assert len(set(widths)) > 1  # the first width overflowed and the call reran
    assert_groebner_by_reference(Lex(3), basis)
    gb = reduce_basis(Lex(3), basis)
    assert list(gb.elements) == interreduce_by_normal_form(Lex(3), basis)
    assert "z^343 -1/(a^6)" in basis_strings(gb)
    assert groebner_basis(Lex(3), gens).elements == gb.elements


@settings(max_examples=25, deadline=None)
@given(small_ideals(R2), polynomials(R2, max_degree=2, max_terms=3), polynomials(R2, max_degree=2, max_terms=3))
def test_membership_of_constructed_combinations(gens, h1, h2):
    f = gens[0] * h1 + gens[-1] * h2
    gb = groebner_basis(O2, gens)
    assert is_member(f, gb)


def test_membership_refuted_by_evaluation():
    # generators vanish at (1, 2); anything nonzero there is no member
    gens = [p("x*y - 2", R2), p("x^2 + y - 3", R2)]
    gb = groebner_basis(O2, gens)
    f = p("x + y", R2)
    assert f.evaluate([Fraction(1), Fraction(2)]) != 0
    assert not is_member(f, gb)
    assert is_member(gens[0] * p("x - 5", R2) + gens[1], gb)


@settings(max_examples=20, deadline=None)
@given(small_ideals(R2, count=2), polynomials(R2, max_degree=2, max_terms=2))
def test_membership_agrees_with_bounded_solver(gens, h):
    f = gens[0] * h
    assert member_with_bound(gens, f, h.total_degree() if h else 0)
    gb = groebner_basis(O2, gens)
    assert is_member(f, gb)


# -- elimination -----------------------------------------------------


def test_eliminate_twisted_cubic():
    rt = ring("t", "x", "y")
    ideal = Ideal.of(rt, [p("x - t^2", rt), p("y - t^3", rt)])
    out = eliminate(ideal, [0])
    assert out.ring == R2
    assert [format_polynomial(O2, g) for g in out.generators] == ["x^3 -y^2"]


def test_eliminate_nothing_left():
    rt = ring("t", "x")
    out = eliminate(Ideal.of(rt, [p("x - t", rt)]), [0])
    assert out.is_zero


def test_eliminate_keeps_members():
    rt = ring("t", "x", "y")
    gens = [p("x - t^2", rt), p("y*t - 1", rt)]
    ideal = Ideal.of(rt, gens)
    out = eliminate(ideal, [0])
    gb = groebner_basis(DegRevLex(3), gens)
    for g in out.generators:
        assert all(t_[0] == 0 for t_ in g.embed_insert(0, "t").terms)
        assert is_member(g.embed_insert(0, "t"), gb)


@settings(max_examples=25, deadline=None)
@given(small_ideals(R3))
def test_eliminate_is_the_projection_of_the_full_reduced_basis(gens):
    # eliminate interreduces only the elements free of the dropped
    # variables; the full reduced basis under Elim has the same survivors
    ideal = Ideal.of(R3, gens)
    for drop in ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]):
        keep = [i for i in range(3) if i not in drop]
        full = groebner_basis(Elim(3, drop), gens)
        survivors = [g for g in full if all(t[i] == 0 for t in g.terms for i in drop)]
        out = eliminate(ideal, drop)
        assert out.ring.names == tuple(R3.names[i] for i in keep)
        assert [g.terms for g in out.generators] == [
            {tuple(t[i] for i in keep): c for t, c in g.terms.items()} for g in survivors
        ]


# -- dimension -------------------------------------------------------


def test_monomial_ideal_minimal_generators():
    m = MonomialIdeal.of(2, [(2, 0), (2, 1), (0, 3), (4, 4)])
    assert m.gens == ((0, 3), (2, 0))


def test_dimension_examples():
    assert dimension(Ideal.of(R3, [])) == 3
    assert dimension(Ideal.of(R3, [p("x*y"), p("y*z")])) == 2
    assert dimension(Ideal.of(R3, [p("x^2+y^2+z^2-1")])) == 2
    assert dimension(Ideal.of(R3, [p("x"), p("y"), p("z")])) == 0
    assert dimension(Ideal.of(R3, [p("3")])) == -1
    assert dimension(Ideal.of(R2, [p("x*y - 1", R2)])) == 1


def test_monomial_dimension_against_subset_search():
    rng = random.Random(7)
    pps = all_power_products(4, 3)
    for _ in range(120):
        gens = [rng.choice(pps) for _ in range(rng.randint(1, 5))]
        m = MonomialIdeal.of(4, gens)
        assert monomial_dimension(m) == dimension_by_subset_search(4, gens)


# -- colon ideals ----------------------------------------------------


def monomial_colon(arity, gens, t):
    # (m_1, ..., m_k) : t = (m_i / gcd(m_i, t)), minimalized
    out = [tuple(e - min(e, f) for e, f in zip(m, t)) for m in gens]
    return MonomialIdeal.of(arity, out)


def test_colon_monomial_cases():
    rng = random.Random(11)
    pps = [t for t in all_power_products(3, 3) if sum(t) > 0]
    for _ in range(40):
        gens = [rng.choice(pps) for _ in range(rng.randint(1, 4))]
        t = rng.choice(pps)
        ideal = Ideal.of(R3, [Polynomial.monomial(R3, m) for m in gens])
        f = Polynomial.monomial(R3, t)
        got = groebner_basis(O3, colon_ideal(ideal, f).generators)
        expected = monomial_colon(3, gens, t)
        assert sorted(got.leading_power_products()) == list(expected.gens)
        assert all(len(g.terms) == 1 for g in got)


def test_colon_definition_holds():
    ideal = Ideal.of(R2, [p("x^2 - y^3", R2), p("x*y - x", R2)])
    f = p("x - 1", R2)
    quotient = colon_ideal(ideal, f)
    gb = groebner_basis(O2, ideal.generators)
    for g in quotient.generators:
        assert is_member(g * f, gb)


def test_intersect_principal_example():
    ideal = Ideal.of(R2, [p("x", R2)])
    meet = intersect_principal(ideal, p("y", R2))
    got = groebner_basis(O2, meet.generators)
    assert basis_strings(got) == ["x*y"]


def test_colon_rejects_zero():
    with pytest.raises(ValueError):
        colon_ideal(Ideal.of(R2, [p("x", R2)]), Polynomial.zero(R2))


# -- misc ------------------------------------------------------------


def test_integer_normalize():
    f = p("2/3*x^2 - 4/9*y")
    g = integer_normalize(f, O3)
    assert g == p("3*x^2 - 2*y")
    assert integer_normalize(p("-x + y"), O3) == p("x - y")


def test_check_minimal_and_reduced():
    good = [p("x^2 - y", R2), p("x*y - 1", R2)]
    assert check_minimal(O2, good)
    # minimal, but x^2 sits in the second support under the first head
    bad = [p("x^2 - y", R2), p("y^3 + x^2", R2)]
    assert check_minimal(O2, bad)
    assert not check_reduced(O2, bad)
    assert check_reduced(O2, good)
    assert not check_minimal(O2, [p("x", R2), p("x^2", R2)])
    assert not check_minimal(O2, [p("2*x", R2)])
