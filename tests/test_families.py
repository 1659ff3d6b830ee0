from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import fractions, polynomials, spolynomial
from slicegb.errors import (
    DenominatorVanishes,
    DependentParameters,
    HypothesisViolation,
)
from slicegb.families import (
    Family,
    basis_denominator,
    coefficient_scheme,
    family_basis,
    family_section,
    merge_parameters,
    nonconstant_coefficients,
    parameters_independent,
    parse_family_json,
    parse_family_text,
    specialize_basis,
    specialize_family,
    split_parameters,
)
from slicegb.groebner import (
    buchberger,
    normal_form,
    reduce_basis,
)
from slicegb.orders import DegRevLex
from slicegb.parsing import ParseError, parse_polynomial
from slicegb.poly import Polynomial
from slicegb.ratfunc import RationalFunction
from slicegb.rings import ring
from slicegb.sections import LinearForm

P2 = ring("a1", "a2")
P3 = ring("a1", "a2", "a3")
X4 = ring("x", "y", "z", "w")


def p(text, r):
    return parse_polynomial(r, text)


def quadric_family():
    """Two quadrics whose universal basis needs one new cubic element."""
    return Family.parse(P3, X4, ["a1*x*y -a2*y^2 -w", "a2*x^2 +a3*y^2 +z^2"])


# -- splitting coefficients from variables ---------------------------


def test_split_groups_by_variable_part():
    f = p("a1*x*y -a2*y^2 +a1*a2 -w", P2.concat(ring("x", "y", "w")))
    split = split_parameters(f, P2, ring("x", "y", "w"))
    assert split.ring == ring("x", "y", "w")
    assert split.terms[(1, 1, 0)] == p("a1", P2)
    assert split.terms[(0, 2, 0)] == p("-a2", P2)
    assert split.terms[(0, 0, 1)] == p("-1", P2)
    assert split.terms[(0, 0, 0)] == p("a1*a2", P2)


def test_split_rejects_foreign_ring():
    with pytest.raises(ValueError):
        split_parameters(p("x", ring("x")), P2, ring("y"))


@given(polynomials(ring("a", "b", "x", "y"), max_degree=3))
@settings(max_examples=30, deadline=None)
def test_split_then_merge_is_identity(f):
    a, x = ring("a", "b"), ring("x", "y")
    assert merge_parameters(split_parameters(f, a, x), a) == f


def test_family_construction_and_combined_ideal():
    fam = quadric_family()
    assert fam.params == P3 and fam.ring == X4
    combined = fam.combined_ideal()
    assert combined.ring == P3.concat(X4)
    assert list(combined.generators) == [
        p("a1*x*y -a2*y^2 -w", P3.concat(X4)),
        p("a2*x^2 +a3*y^2 +z^2", P3.concat(X4)),
    ]


def test_family_rejects_overlapping_names():
    with pytest.raises(ValueError):
        Family.parse(ring("a"), ring("a", "x"), ["x"])


# -- the universal basis over the parameter field --------------------


def test_quadric_family_universal_basis():
    fam = quadric_family()
    gb = family_basis(fam)
    assert gb.is_minimal and gb.is_reduced
    # the cubic is the reduced S-polynomial of the two quadrics; the
    # post hoc reductions below certify the basis property, the frozen
    # strings pin the exact coefficients
    assert [repr(g) for g in gb] == [
        "x*y -a2/(a1)*y^2 -1/(a1)*w",
        "x^2 +a3/(a2)*y^2 +1/(a2)*z^2",
        "y^3 +a1^2/(a2^3 +a1^2*a3)*y*z^2 +a1*a2/(a2^3 +a1^2*a3)*x*w"
        " +a2^2/(a2^3 +a1^2*a3)*y*w",
    ]
    elements = list(gb)
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            s = spolynomial(gb.order, elements[i], elements[j])
            assert normal_form(gb.order, s, elements).is_zero()
    for g in fam.over_field():
        assert normal_form(gb.order, g, elements).is_zero()


def test_quadric_family_denominator():
    fam = quadric_family()
    d = basis_denominator(P3, family_basis(fam))
    # lcm of the three element denominators a1, a2, a2^3 +a1^2*a3,
    # which are pairwise coprime
    assert d == p("a1", P3) * p("a2", P3) * p("a2^3 +a1^2*a3", P3)
    assert d == p("a1*a2^4 +a1^3*a2*a3", P3)


def test_quadric_family_coefficient_list():
    # element order first, then descending terms inside each element
    gb = family_basis(quadric_family())
    coefficients = nonconstant_coefficients(gb)
    assert [repr(c) for c in coefficients] == [
        "-a2/(a1)",
        "-1/(a1)",
        "a3/(a2)",
        "1/(a2)",
        "a1^2/(a2^3 +a1^2*a3)",
        "a1*a2/(a2^3 +a1^2*a3)",
        "a2^2/(a2^3 +a1^2*a3)",
    ]


def test_quadric_family_parameters_independent():
    report = parameters_independent(quadric_family())
    assert report.independent and report.witness is None


def test_interreduction_rewrites_the_coefficients():
    # the second input generator carries (a3^2 +1)*x1^2, which head
    # reduction by the first generator folds into the lower terms
    fam = Family.parse(
        P3,
        ring("x1", "x2"),
        ["x1^2 +a1^2*x2 -a2", "x2^3 +(a3^2 +1)*x1^2 +x1 +a1*a3*x2 -1"],
    )
    gb = family_basis(fam)
    assert [repr(g) for g in gb] == [
        "x1^2 +a1^2*x2 -a2",
        "x2^3 +x1 -(a1^2*a3^2 +a1^2 -a1*a3)*x2 +(a2*a3^2 +a2 -1)",
    ]
    combined = P3.concat(ring("x1", "x2"))
    f1 = p("x1^2 +a1^2*x2 -a2", combined)
    f2 = p("x2^3 +(a3^2 +1)*x1^2 +x1 +a1*a3*x2 -1", combined)
    assert merge_parameters(
        gb.elements[1].map_coefficients(lambda c: c.as_polynomial()), P3
    ) == f2 - p("a3^2 +1", combined) * f1
    assert [repr(c) for c in nonconstant_coefficients(gb)] == [
        "a1^2",
        "-a2",
        "-a1^2*a3^2 -a1^2 +a1*a3",
        "a2*a3^2 +a2 -1",
    ]


def test_sextic_rose_family_basis():
    # (x^2 +y^2)^3 = (a1*(x^2 +y^2) -a2*(x^3 -3*x*y^2))^2 together with
    # the plane a1*z = a2*x, listed with z first so the plane's leading
    # term is z
    V = ring("z", "y", "x")
    combined = P2.concat(V)
    radius = p("x^2 +y^2", combined)
    rose = radius ** 3 - (p("a1", combined) * radius - p("a2", combined) * p("x^3 -3*x*y^2", combined)) ** 2
    fam = Family.of(P2, V, [rose, p("a1*z -a2*x", combined)])
    gb = family_basis(fam)
    assert gb.is_minimal and gb.is_reduced
    assert repr(gb.elements[0]) == "z -a2/(a1)*x"
    # the sextic is monic in y^6 and free of z, so it survives unchanged
    assert gb.elements[1] == fam.over_field()[0]
    assert basis_denominator(P2, gb) == p("a1", P2)
    assert parameters_independent(fam).independent


def test_collapsing_family_is_rejected():
    fam = Family.parse(ring("a1"), ring("x"), ["a1*x -1", "x"])
    with pytest.raises(DependentParameters):
        family_basis(fam)


def test_collapse_and_dependence_witness_agree():
    # generic fibers are empty exactly when the parameters satisfy a
    # relation, so the two diagnostics must fire together
    fam = Family.parse(P2, ring("x"), ["a1 -x", "a2 -x"])
    with pytest.raises(DependentParameters):
        family_basis(fam)
    report = parameters_independent(fam)
    assert not report.independent
    assert report.witness == p("a1 -a2", P2)


# -- specialization --------------------------------------------------


def test_specialize_matches_recomputation():
    fam = quadric_family()
    gb = family_basis(fam)
    point = [Fraction(1), Fraction(1), Fraction(1)]
    spec = specialize_basis(gb, point)
    assert spec.is_minimal and spec.is_reduced
    direct = reduce_basis(
        spec.order,
        buchberger(spec.order, list(specialize_family(fam, point).generators)),
    )
    assert list(spec) == list(direct)


def test_specialize_family_returns_plain_ideal():
    fam = quadric_family()
    ideal = specialize_family(fam, [Fraction(1)] * 3)
    assert ideal.ring == X4
    assert list(ideal.generators) == [
        p("x*y -y^2 -w", X4),
        p("x^2 +y^2 +z^2", X4),
    ]


def test_specialize_reports_vanishing_denominator():
    gb = family_basis(quadric_family())
    with pytest.raises(DenominatorVanishes):
        specialize_basis(gb, [Fraction(1), Fraction(0), Fraction(1)])
    # a2^3 +a1^2*a3 = 0 kills only the cubic element's coefficients
    with pytest.raises(DenominatorVanishes):
        specialize_basis(gb, [Fraction(1), Fraction(1), Fraction(-1)])


@given(st.tuples(fractions(4, 2), fractions(4, 2), fractions(4, 2)))
@settings(max_examples=50, deadline=None)
def test_specialization_coherence(point):
    fam = quadric_family()
    gb = family_basis(fam)
    denominator = basis_denominator(P3, gb)
    assume(denominator.evaluate(point) != 0)
    spec = specialize_basis(gb, point)
    direct = reduce_basis(
        spec.order,
        buchberger(spec.order, list(specialize_family(fam, point).generators)),
    )
    assert list(spec) == list(direct)


# -- cutting a whole family with one hyperplane ----------------------


def test_family_section_keeps_basis_and_independence():
    fam = quadric_family()
    gb = family_basis(fam)
    # the cut z = w -1 stays clear of every leading term
    form = LinearForm.of(X4, "z", {"w": Fraction(1)}, Fraction(-1))
    rep = family_section(fam, gb, form)
    assert rep.basis.is_minimal and rep.basis.is_reduced
    assert [repr(g) for g in rep.basis] == [
        "x*y -a2/(a1)*y^2 -1/(a1)*w",
        "x^2 +a3/(a2)*y^2 +1/(a2)*w^2 -2/(a2)*w +1/(a2)",
        "y^3 +a1^2/(a2^3 +a1^2*a3)*y*w^2 +a1*a2/(a2^3 +a1^2*a3)*x*w"
        " -(2*a1^2 -a2^2)/(a2^3 +a1^2*a3)*y*w +a1^2/(a2^3 +a1^2*a3)*y",
    ]
    assert rep.independent and rep.witness is None
    assert rep.family.ring == ring("x", "y", "w")
    sectioned = rep.family.generators
    assert merge_parameters(sectioned[1], P3) == p(
        "a2*x^2 +a3*y^2 +w^2 -2*w +1", P3.concat(ring("x", "y", "w"))
    )


def test_family_section_coefficient_list_grows():
    # substituting z = w -1 expands the z^2 term of the second element
    # into three, so its coefficient list gains two entries
    fam = quadric_family()
    rep = family_section(
        fam,
        family_basis(fam),
        LinearForm.of(X4, "z", {"w": Fraction(1)}, Fraction(-1)),
    )
    assert [repr(c) for c in nonconstant_coefficients(rep.basis)] == [
        "-a2/(a1)",
        "-1/(a1)",
        "a3/(a2)",
        "1/(a2)",
        "-2/(a2)",
        "1/(a2)",
        "a1^2/(a2^3 +a1^2*a3)",
        "a1*a2/(a2^3 +a1^2*a3)",
        "(-2*a1^2 +a2^2)/(a2^3 +a1^2*a3)",
        "a1^2/(a2^3 +a1^2*a3)",
    ]


def test_cut_that_entangles_the_parameters():
    # on the cut x = y the fibers force y^2 = a2 and a1*y = a2, hence
    # a1^2*a2 = (a1*y)^2 = a2^2: a relation appears even though the
    # uncut family's parameters are independent
    X2 = ring("x", "y")
    fam = Family.parse(P2, X2, ["x^2 -a1*y", "y^2 -a2"])
    assert parameters_independent(fam).independent
    gb = family_basis(fam)
    form = LinearForm.of(X2, "x", {"y": Fraction(1)}, Fraction(0))
    with pytest.raises(HypothesisViolation) as caught:
        family_section(fam, gb, form)
    assert [repr(g) for g in caught.value.offending] == ["x^2 -a1*y"]
    assert caught.value.dependence == p("a1^2*a2 -a2^2", P2)


# -- the scheme swept out by the coefficients ------------------------


def test_coefficient_scheme_of_three_squares():
    # coefficients a1^2, a1*a2, a2^2 sweep the rank-one quadric
    # y1*y3 = y2^2, a surface in three coordinates
    fam = Family.parse(P2, ring("x", "y"), ["x^2 +a1^2*x +a1*a2*y +a2^2"])
    coefficients = nonconstant_coefficients(family_basis(fam))
    assert [repr(c) for c in coefficients] == ["a1^2", "a1*a2", "a2^2"]
    scheme = coefficient_scheme(P2, coefficients)
    assert scheme.ideal.ring == ring("y1", "y2", "y3")
    assert list(scheme.ideal.generators) == [
        p("y2^2 -y1*y3", ring("y1", "y2", "y3"))
    ]
    assert scheme.dimension == 2


def test_coefficient_scheme_with_denominators():
    # seven coordinates, but the parameter triple can be read back off
    # the first two coefficients and the denominator, so the image
    # keeps all three dimensions
    fam = quadric_family()
    coefficients = nonconstant_coefficients(family_basis(fam))
    scheme = coefficient_scheme(P3, coefficients)
    assert scheme.ideal.ring.arity == 7
    assert scheme.dimension == 3


@pytest.mark.parametrize("names", [("u", "v"), ("y1", "y2"), ("u", "u1")])
def test_coefficient_scheme_ignores_parameter_names(names):
    # the basis has denominators, so the scheme needs its tag variable;
    # neither the tag nor the coordinates y1..ys may collide with a
    # parameter name
    def scheme(params):
        a, b = params.names
        fam = Family.parse(params, ring("x", "y"), [f"{a}*x^2 +{b}*y -1", f"x*y -{a}"])
        return coefficient_scheme(params, nonconstant_coefficients(family_basis(fam)))

    renamed, plain = scheme(ring(*names)), scheme(P2)
    assert plain.ideal.ring == renamed.ideal.ring == ring("y1", "y2", "y3", "y4", "y5")
    assert renamed.ideal == plain.ideal
    assert renamed.dimension == plain.dimension == 2


def test_coefficient_scheme_of_nothing():
    scheme = coefficient_scheme(P2, [])
    assert scheme.dimension == 0
    assert scheme.ideal.is_zero


# -- family files ----------------------------------------------------


def test_parse_family_json():
    ff = parse_family_json(
        {
            "params": ["a1", "a2"],
            "vars": ["x", "y"],
            "order": "degrevlex",
            "generators": ["x^2 -a1*y", "y^2 -a2"],
        }
    )
    assert ff.family.params == P2
    assert ff.family.ring == ring("x", "y")
    assert ff.order_name == "degrevlex"
    assert [repr(g) for g in ff.family.generators] == ["x^2 -a1*y", "y^2 -a2"]


@pytest.mark.parametrize(
    "data, message",
    [
        ({"vars": ["x"], "generators": []}, "missing 'params'"),
        ({"params": ["a"], "generators": []}, "missing 'vars'"),
        ({"params": ["a"], "vars": ["a"], "generators": []}, "overlap"),
        ({"params": ["a"], "vars": ["x"], "generators": ["x +"]}, "expected"),
        ({"params": ["a"], "vars": ["x"], "order": "mystery", "generators": []},
         "unknown ordering"),
        ({"params": ["a"], "vars": ["x"], "order": 5, "generators": []}, "ordering must be a name"),
        ({"params": "ab", "vars": ["x"], "generators": ["x -a*b"]}, "ring header"),
        ({"params": [], "vars": ["x"], "generators": ["x"]}, "at least one variable"),
        ({"params": ["a"], "vars": ["x"], "generators": "x"}, "must be a JSON list"),
        ({"params": ["a"], "vars": ["x"], "generators": "x-a"}, "must be a JSON list"),
        ({"params": ["a"], "vars": ["x"], "generators": {"x": 1}}, "must be a JSON list"),
        ({"params": ["a"], "vars": ["x"], "generators": [["x"]]}, "must be a string"),
    ],
)
def test_parse_family_json_rejects(data, message):
    with pytest.raises(ParseError, match=message):
        parse_family_json(data)


def test_parse_family_text():
    ff = parse_family_text(
        """# a family over two parameters
        QQ[a1, a2]
        QQ[x, y]
        order: degrevlex

        x^2 -a1*y
        y^2 -a2   # second generator
        """
    )
    assert ff.family.params == P2
    assert ff.order_name == "degrevlex"
    assert [repr(g) for g in ff.family.generators] == ["x^2 -a1*y", "y^2 -a2"]


def test_parse_family_text_needs_both_headers():
    with pytest.raises(ParseError, match="header"):
        parse_family_text("QQ[a]\nx\n")
    with pytest.raises(ParseError, match="unknown ordering"):
        parse_family_text("QQ[a]\nQQ[x]\norder: sideways\nx\n")


@pytest.mark.parametrize("text, message", [
    ("QQ[a]\nx\nQQ[x]\n", "header"),
    ("QQ[a]\nQQ[a,x]\nx\n", "overlap"),
    ("QQ[a]\nQQ[x]\nx\norder: lex\n", "must come before the polynomials"),
    ("QQ[a]\nQQ[x]\nQQ[y]\nx\n", "must come before the polynomials"),
])
def test_parse_family_text_rejects(text, message):
    with pytest.raises(ParseError, match=message):
        parse_family_text(text)
