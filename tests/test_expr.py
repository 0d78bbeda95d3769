from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgla import expr
from dgla.errors import GrammarError


def test_parse_simple():
    terms = expr.parse_expression("[a,b]")
    assert terms == [(Fraction(1), ("a", "b"))]
    terms = expr.parse_expression("3/2*[a,[a,b]]-1*b")
    assert terms == [
        (Fraction(3, 2), ("a", ("a", "b"))),
        (Fraction(-1), "b"),
    ]
    assert expr.parse_expression("x'") == [(Fraction(1), "x'")]


def test_whitespace_insignificant():
    a = expr.parse_expression("2*[ a , b ] + c")
    b = expr.parse_expression("2*[a,b]+c")
    assert a == b


def test_leading_negative_needs_rational():
    assert expr.parse_expression("-1*a") == [(Fraction(-1), "a")]
    with pytest.raises(GrammarError):
        expr.parse_expression("-a")


def test_grammar_errors_carry_offsets():
    with pytest.raises(GrammarError) as e:
        expr.parse_expression("[x")
    assert e.value.offset == 2
    with pytest.raises(GrammarError) as e:
        expr.parse_expression("1/0*x")
    assert e.value.offset > 0
    with pytest.raises(GrammarError):
        expr.parse_expression("a b")


def test_digits_are_ascii_and_a_rational_is_one_token():
    # str.isdigit() holds for a superscript two and an Arabic-Indic three, and
    # int() reads the latter as 3: neither is a digit of the grammar
    for text in ("\u00b2*[a,a]", "\u0663*a", "2*[a,a]+\u0663*a", "1/\u0663*a"):
        with pytest.raises(GrammarError):
            expr.parse_expression(text)
    # whitespace separates tokens but never splits a rational
    for text in ("1 / 2*a", "- 3*a", "1/ 2*a"):
        with pytest.raises(GrammarError):
            expr.parse_expression(text)
    assert expr.parse_expression(" 1/2 * a ") == [(Fraction(1, 2), "a")]
    # a number past the interpreter's digit limit is malformed, not a ValueError
    with pytest.raises(GrammarError):
        expr.parse_expression("1" * 5000 + "*a")
    # a JSON rational string is the whole of one such token
    assert expr.parse_rational("-3/6") == Fraction(-1, 2)
    assert expr.parse_rational("007") == 7 and type(expr.parse_rational("4/2")) is int
    for text in ("", "1_0", " 3", "3 ", "+3", "1/ 2", "1/-2", "1/0", "\u0663", "3*a"):
        with pytest.raises(GrammarError):
            expr.parse_rational(text)


def test_serializer_emits_grammar():
    terms = [(Fraction(-1), "a"), (Fraction(1, 2), ("a", "b")), (Fraction(-3), "c")]
    s = expr.terms_to_str(terms)
    assert s == "-1*a+1/2*[a,b]-3*c"
    assert expr.parse_expression(s) == terms
    assert expr.terms_to_str([]) is None
    assert expr.terms_to_str([(Fraction(0), "a")]) is None


_names = st.sampled_from(["a", "b", "c", "x'", "y_1"])


def _trees(depth):
    if depth == 0:
        return _names
    sub = _trees(depth - 1)
    return st.one_of(_names, st.tuples(sub, sub))


_rationals = st.builds(
    Fraction, st.integers(-30, 30).filter(lambda n: n != 0), st.integers(1, 12)
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_rationals, _trees(2)), min_size=1, max_size=4))
def test_roundtrip(terms):
    s = expr.terms_to_str(terms)
    assert s is not None
    assert expr.parse_expression(s) == [(c, t) for c, t in terms]
