"""Grammar conformance, error positions, and print/parse round trips."""

import random

import pytest

from dirackit import PhaseSpace, parse_expression
from dirackit.errors import (
    DivisionByZeroError,
    ExpressionSyntaxError,
    UnknownSymbolError,
)

from conftest import random_polynomial, random_rational_expr


@pytest.fixture
def ps():
    return PhaseSpace(2, parameters=("r",))


def test_polynomial_parse(ps):
    e = parse_expression("x1^2 + p1*x2", ps)
    assert len(e.num.terms) == 2
    assert e.is_polynomial


def test_denominator_normalization(ps):
    # den gets a positive leading coefficient under graded lex, so
    # 1 - x1 flips sign on both sides of the quotient
    e = parse_expression("(x1+p1)/(1-x1)", ps)
    assert str(e) == "(-x1 - p1)/(x1 - 1)"
    assert e == parse_expression("-(x1+p1)/(x1-1)", ps)


def test_syntax_error_position(ps):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x1 +", ps)
    assert err.value.position == 4


def test_unknown_symbol(ps):
    with pytest.raises(UnknownSymbolError):
        parse_expression("x1 + y1", ps)


def test_implicit_multiplication_rejected(ps):
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("2x1", ps)


def test_rational_literal(ps):
    e = parse_expression("3/2", ps)
    assert str(e) == "3/2"
    assert parse_expression("1 / 2", ps) == parse_expression("1/2", ps)


def test_zero_denominator_literal(ps):
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("1/0", ps)
    with pytest.raises(DivisionByZeroError):
        parse_expression("x1/(x1 - x1)", ps)


def test_caret_binds_tighter_than_unary_minus(ps):
    e = parse_expression("-x1^2", ps)
    assert e == -parse_expression("x1^2", ps)
    assert str(e) == "-x1^2"


def test_negative_exponent(ps):
    e = parse_expression("x1^-2", ps)
    assert e == parse_expression("1/(x1^2)", ps)


def test_trailing_garbage(ps):
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x1 x2", ps)


def test_unbalanced_paren(ps):
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(x1 + p1", ps)


@pytest.mark.parametrize("text", ["(" * 2000 + "x1" + ")" * 2000, "-" * 5000 + "x1"],
                         ids=["parentheses", "unary_minus"])
def test_deep_nesting_is_a_syntax_error(ps, text):
    with pytest.raises(ExpressionSyntaxError, match="nested too deeply"):
        parse_expression(text, ps)


def test_print_zero(ps):
    assert str(parse_expression("0", ps)) == "0"


def test_print_declaration_order(ps):
    assert str(parse_expression("p1*x1", ps)) == "x1*p1"


def test_no_gcd_cancellation(ps):
    e = parse_expression("(x1^2-1)/(x1-1)", ps)
    assert str(e) == "(x1^2 - 1)/(x1 - 1)"
    # still equal to the cancelled form under canonical equality
    assert e == parse_expression("x1 + 1", ps)


def test_roundtrip_random_polynomials():
    ps = PhaseSpace(3, parameters=("r",))
    rng = random.Random(20240817)
    for _ in range(1000):
        e = random_polynomial(ps, rng, max_degree=4, max_terms=6)
        text = str(e)
        back = parse_expression(text, ps)
        assert back.num.terms == e.num.terms
        assert back.den.terms == e.den.terms
        assert str(back) == text


def test_roundtrip_random_rationals():
    ps = PhaseSpace(2, parameters=("r",))
    rng = random.Random(99)
    for _ in range(200):
        e = random_rational_expr(ps, rng)
        back = parse_expression(str(e), ps)
        assert back.num.terms == e.num.terms
        assert back.den.terms == e.den.terms
