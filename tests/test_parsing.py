import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import polynomials
from slicegb.orders import DegRevLex, Lex
from slicegb.parsing import (
    MAX_NESTING,
    IdealFile,
    ParseError,
    format_polynomial,
    parse_ideal_json,
    parse_ideal_text,
    parse_polynomial,
    parse_ring,
    read_rational,
)
from slicegb.poly import Polynomial
from slicegb.rings import ring

R = ring("x", "y", "z")
O = DegRevLex(3)


def test_parse_ring():
    assert parse_ring("QQ[x,y,z]") == R
    assert parse_ring("QQ[ a1 , a2 ]") == ring("a1", "a2")
    for bad in ["QQ[]", "ZZ[x]", "QQ[x,x]", "QQ[x y]", "QQ[1x]", "x,y"]:
        with pytest.raises(ParseError):
            parse_ring(bad)


def test_parse_simple():
    f = parse_polynomial(R, "x^2 + 2*x*y + y^2")
    assert f.terms == {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}


def test_parse_rationals_and_signs():
    f = parse_polynomial(R, "-x + 1/2*y - 3")
    assert f.terms == {(1, 0, 0): -1, (0, 1, 0): Fraction(1, 2), (0, 0, 0): -3}
    assert parse_polynomial(R, "x - -y") == parse_polynomial(R, "x + y")


def test_parse_parentheses():
    assert parse_polynomial(R, "(x+y)*(x-y)") == parse_polynomial(R, "x^2 - y^2")
    assert parse_polynomial(R, "2*(x + (y - z))") == parse_polynomial(R, "2*x + 2*y - 2*z")


def test_parse_zero_and_constants():
    assert parse_polynomial(R, "0").is_zero()
    assert parse_polynomial(R, "x - x").is_zero()
    assert parse_polynomial(R, "7/3").constant_value() == Fraction(7, 3)


@pytest.mark.parametrize("bad", [
    "", "2x", "x y", "x/2", "x^", "x^y", "2/0", "1/x", "(x", "x)", "x + ", "* x",
    "x ** 2", "w + 1", "x^-1", "x..y", "3 % 4",
    "2*x*/3", "2*x^y", "3/0*x", "2*x*nope", "x*(y+1)*/2", "x*(y", "x*y^",
])
def test_parse_errors_have_spans(bad):
    with pytest.raises(ParseError) as info:
        parse_polynomial(R, bad)
    span = info.value.span
    assert 0 <= span.start <= span.end <= len(bad)


@pytest.mark.parametrize("bad, message, snippet", [
    ("2*x*/3", "expected a rational, a variable, or '('", "/"),
    ("2*x^y", "expected integer exponent", "y"),
    ("3/0*x", "zero denominator", "0"),
    ("2*x*nope", "unknown variable 'nope'", "nope"),
    ("1/x*y", "expected integer denominator", "x"),
    ("x*(y", "expected ')'", ""),
    ("x*y/2", "trailing input after polynomial", "/"),
])
def test_errors_inside_a_product_point_at_the_token(bad, message, snippet):
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        parse_polynomial(R, bad)
    span = info.value.span
    assert bad[span.start:span.end] == snippet


# an expression of the grammar as text, with its value built by
# Polynomial arithmetic; "-" separators before negated terms give "x - -y"
SEPARATORS = ("+", "-", " + ", " - ")


def _term(negate, factors):
    text = ("-" if negate else "") + "*".join(t for t, _ in factors)
    value = Polynomial.constant(R, 1)
    for _, v in factors:
        value = value * v
    return text, -value if negate else value


def _sum(terms, separators):
    text, value = terms[0]
    for sep, (t, v) in zip(separators, terms[1:]):
        text += sep + t
        value = value + v if sep.strip() == "+" else value - v
    return text, value


def _sums_of(factors):
    terms = st.builds(_term, st.booleans(), st.lists(factors, min_size=1, max_size=3))
    return st.builds(_sum, st.lists(terms, min_size=1, max_size=3),
                     st.lists(st.sampled_from(SEPARATORS), min_size=2, max_size=2))


RATIONALS = st.builds(
    lambda n, d: (str(n) if d is None else f"{n}/{d}", Polynomial.constant(R, Fraction(n, d or 1))),
    st.integers(0, 12), st.none() | st.integers(1, 6),
)
POWERS = st.builds(
    lambda v, k: (v if k is None else f"{v}^{k}", Polynomial.variable(R, v) ** (1 if k is None else k)),
    st.sampled_from(R.names), st.none() | st.integers(0, 4),
)
EXPRESSIONS = _sums_of(st.recursive(
    RATIONALS | POWERS,
    lambda inner: _sums_of(inner).map(lambda tv: (f"({tv[0]})", tv[1])),
    max_leaves=6,
))


@settings(max_examples=100, deadline=None)
@given(EXPRESSIONS)
@example(("x - -y", Polynomial.variable(R, "x") + Polynomial.variable(R, "y")))
@example(("2*x*3/4*x*y^0 -x^2*3/2", Polynomial.zero(R)))
def test_parse_agrees_with_polynomial_arithmetic(expression):
    text, value = expression
    parsed = parse_polynomial(R, text)
    assert parsed == value
    assert all(parsed.terms.values())


# the grammar's tokens, with blanks, a leading zero, a non-ASCII digit
# (a number to \d) and characters that start no token
FUZZ_PIECES = ["x", "y", "z", "w", "x1", "0", "1", "2", "12", "007", "\u0663",
               "(", ")", "^", "*", "+", "-", "/", " ", "\t", "%", ".", "\u00e9"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(FUZZ_PIECES), max_size=16).map("".join))
@example("2*x*/3 %")
@example("-(x +1)*y^2*(z -3/4) +x*y -7")
def test_random_token_streams_parse_or_raise_parse_error(text):
    try:
        parsed = parse_polynomial(R, text)
    except ParseError as error:
        assert 0 <= error.span.start <= error.span.end <= len(text)
        if str(error).startswith("unexpected character"):
            assert text[error.span.start] in "%.\u00e9"
        return
    assert all(parsed.terms.values())
    for order in (O, Lex(3)):
        assert parse_polynomial(R, format_polynomial(order, parsed)) == parsed


def test_nesting_depth_is_bounded():
    assert parse_polynomial(R, "(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == parse_polynomial(R, "x")
    deep = "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ParseError) as info:
        parse_polynomial(R, deep)
    assert info.value.span.start == MAX_NESTING
    with pytest.raises(ParseError):
        parse_polynomial(R, "(" * 3000 + "x" + ")" * 3000)


def test_unknown_variable_span_points_at_it():
    text = "x + nope*y"
    with pytest.raises(ParseError) as info:
        parse_polynomial(R, text)
    assert text[info.value.span.start:info.value.span.end] == "nope"


def test_format_examples():
    assert format_polynomial(O, parse_polynomial(R, "x^2+2*x*y+y^2")) == "x^2 +2*x*y +y^2"
    assert format_polynomial(O, parse_polynomial(R, "y - x")) == "-x +y"
    assert format_polynomial(O, Polynomial.zero(R)) == "0"
    assert format_polynomial(O, parse_polynomial(R, "-1/2")) == "-1/2"
    assert format_polynomial(O, parse_polynomial(R, "z + x*y^3*z^2 - 1")) == "x*y^3*z^2 +z -1"
    assert format_polynomial(Lex(3), parse_polynomial(R, "y^3 + x")) == "x +y^3"


@settings(max_examples=120)
@given(polynomials(R, max_degree=5, max_terms=8))
def test_round_trip(f):
    for order in (O, Lex(3)):
        assert parse_polynomial(R, format_polynomial(order, f)) == f


@pytest.mark.parametrize("digits", [4299, 4301, 9000, 20001])
def test_round_trip_past_the_int_text_limit(digits):
    # Python converts at most 4300 decimal digits between int and text by
    # default; an unreduced lex basis can hold longer coefficients
    n = 10 ** (digits - 1) + 12345
    f = Polynomial(R, {(1, 0, 0): Fraction(-n, 7**9000), (0, 0, 0): Fraction(n)})
    text = format_polynomial(O, f)
    assert text.endswith(" +1" + "0" * (digits - 6) + "12345")
    assert parse_polynomial(R, text) == f


@settings(max_examples=60)
@given(polynomials(R), polynomials(R))
def test_format_injective(f, g):
    if f != g:
        assert format_polynomial(O, f) != format_polynomial(O, g)


IDEAL_TEXT = """
# twisted cubic slice
QQ[x,y,z]
order: lex
x^2 - y   # inline comment
y*z - 1

x + y + z
"""


def test_parse_ideal_text():
    parsed = parse_ideal_text(IDEAL_TEXT)
    assert parsed.ring == R
    assert parsed.order_name == "lex"
    assert parsed.generators == [
        parse_polynomial(R, "x^2-y"),
        parse_polynomial(R, "y*z-1"),
        parse_polynomial(R, "x+y+z"),
    ]


def test_parse_ideal_text_errors():
    with pytest.raises(ParseError):
        parse_ideal_text("# only a comment\n")
    with pytest.raises(ParseError):
        parse_ideal_text("QQ[x]\nx^2\norder: lex\n")
    with pytest.raises(ParseError):
        parse_ideal_text("QQ[x]\ny + 1\n")


def test_parse_ideal_json():
    data = json.loads('{"ring": ["x","y","z"], "order": "degrevlex", "generators": ["x^2-y", "z"]}')
    parsed = parse_ideal_json(data)
    assert parsed.ring == R
    assert parsed.order_name == "degrevlex"
    assert parsed.generators == [parse_polynomial(R, "x^2-y"), parse_polynomial(R, "z")]
    with pytest.raises(ParseError):
        parse_ideal_json({"generators": ["x"]})
    with pytest.raises(ParseError):
        parse_ideal_json({"ring": "xyz"})


@pytest.mark.parametrize("data, message", [
    ([], "expected a JSON object"),
    ({"generators": ["x"]}, "missing 'ring'"),
    ({"ring": []}, "at least one variable"),
    ({"ring": ["x", "x"]}, "duplicate"),
    ({"ring": ["x", "1y"]}, "bad variable name '1y'"),
    ({"ring": ["x", 2]}, "bad variable name 2"),
    ({"ring": {"x": 1}}, "must be a JSON list"),
    ({"ring": ["x", "y"], "order": 5}, "ordering must be a name"),
    ({"ring": ["x", "y"], "order": "sideways"}, "unknown ordering"),
    ({"ring": ["x", "y"], "order": "degrev:w"}, "no variable 'w'"),
    ({"ring": ["x", "y"], "generators": "x"}, "must be a JSON list"),
    ({"ring": ["x", "y"], "generators": "x-y"}, "must be a JSON list"),
    ({"ring": ["x", "y"], "generators": [None]}, "must be a string"),
    ({"ring": ["x", "y"], "generators": [True]}, "must be a string"),
])
def test_parse_ideal_json_rejects(data, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_ideal_json(data)


def test_json_errors_show_the_offending_value():
    with pytest.raises(ParseError) as info:
        parse_ideal_json({"ring": ["x", "y"], "order": "sideways"})
    assert str(info.value).endswith("at 0..8: 'sideways'")
    with pytest.raises(ParseError) as info:
        parse_ideal_json({"ring": ["x", "y"], "generators": ["x", 0.5]})
    assert info.value.text == "0.5"
    # a deep value is shown cut short
    with pytest.raises(ParseError) as info:
        parse_ideal_json({"ring": ["x"], "order": [[[[[[[["x"]]]]]]]]})
    assert "..." in info.value.text and len(info.value.text) < 40


def test_json_reads_integer_polynomials_and_numeric_rationals():
    parsed = parse_ideal_json({"ring": "QQ[x]", "generators": [3, "x"]})
    assert parsed.generators == [parse_polynomial(ring("x"), "3"), parse_polynomial(ring("x"), "x")]
    assert read_rational(0.5, "constant") == Fraction(1, 2)
    assert read_rational("-3/4", "constant") == Fraction(-3, 4)
    for bad in (True, None, [1], "1/0", "nan", float("inf")):
        with pytest.raises(ParseError, match="bad constant"):
            read_rational(bad, "constant")


@pytest.mark.parametrize("text, message", [
    ("QQ[x]\norder: sideways\nx\n", "unknown ordering"),
    ("QQ[x]\norder:\nx\n", "unknown ordering"),
    ("QQ[x]\norder: degrev:y\nx\n", "no variable 'y'"),
    ("QQ[x]\norder: lex\norder: lex\nx\n", "must come before the polynomials"),
    ("x\nQQ[x]\n", "ring header"),
])
def test_parse_ideal_text_rejects(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_ideal_text(text)
