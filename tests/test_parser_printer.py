"""Grammar conformance, error positions, and print/parse round trips."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirackit import PhaseSpace, parse_expression, parser
from dirackit.errors import (
    DiracKitError,
    DivisionByZeroError,
    ExpressionSyntaxError,
    UnknownSymbolError,
)

from conftest import fold_parse, random_polynomial, random_rational_expr


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


@pytest.mark.parametrize("text, offset", [("x1 + \u0663", 5), ("x1^\u0662", 3)])
def test_numbers_are_ascii_digits(ps, text, offset):
    """Other Unicode digits are not numbers: ARABIC-INDIC THREE and TWO."""
    with pytest.raises(ExpressionSyntaxError, match="unexpected character") as err:
        parse_expression(text, ps)
    assert err.value.position == offset


@pytest.mark.parametrize("text", ["x1 + " + "7" * 5000, "x1^" + "7" * 5000,
                                  "1/" + "7" * 5000])
def test_integer_literal_too_long(ps, text):
    """Past the interpreter's limit on converting digit strings, a literal
    is a syntax error at its offset rather than a ValueError."""
    with pytest.raises(ExpressionSyntaxError, match="too long"):
        parse_expression(text, ps)


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


# -- the parser against the RationalExpr fold ---------------------------------

SYMBOLS = ("x1", "x2", "p1", "p2", "r")


def _atom(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.45:
        return rng.choice(SYMBOLS)
    if roll < 0.75:
        return str(rng.randint(0, 12))
    if roll < 0.95:
        return f"{rng.randint(0, 9)}/{rng.randint(1, 6)}"
    return rng.choice(["0/0", "y1", "3/0"])


def _expression(rng: random.Random, depth: int) -> str:
    """Random text of the grammar: sums, products, divisions by constants
    and by non-constants, powers (negative ones too), parentheses and
    chains of unary minus."""
    roll = rng.random() if depth < 3 else 1.0
    if roll < 0.25:
        parts = [_expression(rng, depth + 1) for _ in range(rng.randint(2, 4))]
        text = parts[0]
        for part in parts[1:]:
            text += rng.choice([" + ", " - ", "+", "-"]) + part
        return text
    if roll < 0.5:
        text = _expression(rng, depth + 1)
        for _ in range(rng.randint(1, 3)):
            text += rng.choice(["*", "*", " * ", "/", " / "]) + _expression(rng, depth + 1)
        return text
    if roll < 0.65:
        return f"({_expression(rng, depth + 1)})"
    if roll < 0.75:
        return "-" * rng.randint(1, 4) + _expression(rng, depth + 1)
    if roll < 0.9:
        base = _atom(rng) if rng.random() < 0.6 else f"({_expression(rng, depth + 1)})"
        return f"{base}^{rng.choice(['0', '1', '2', '3', '4', '-1', '-2', '-3'])}"
    return _atom(rng)


def _malformed(rng: random.Random, text: str) -> str:
    """text with one character deleted, inserted or replaced."""
    at = rng.randrange(len(text) + 1)
    junk = rng.choice("+-*/^() 19xp.,\u0663")
    edit = rng.randrange(3)
    if edit == 0:
        return text[:at] + text[at + 1:]
    if edit == 1:
        return text[:at] + junk + text[at:]
    return text[:at] + junk + text[at + 1:]


def _outcome(parse, text: str, ps):
    """str and stored form of num and den, or the exception's type and message."""
    try:
        e = parse(text, ps)
    except DiracKitError as exc:
        return type(exc), str(exc)
    return (str(e),) + tuple((p._n, p._d, p._t, p._lead) for p in (e.num, e.den))


def _monomial(rng: random.Random) -> str:
    factors = [rng.choice(["1", "2", "3", "5", "1/2", "2/3", "7/4"])]
    for _ in range(rng.randint(0, 2)):
        symbol = rng.choice(SYMBOLS)
        factors.append(symbol if rng.random() < 0.7 else f"{symbol}^{rng.randint(2, 3)}")
    return "*".join(factors)


def _sum_product(rng: random.Random) -> str:
    """(<sum>)*(<sum>) with 2 to 4 terms per sum: at most 16 terms and
    small coefficients, far inside the `*` budget (the fold has none)."""
    def sum_text():
        terms = [_monomial(rng) for _ in range(rng.randint(2, 4))]
        text = terms[0]
        for term in terms[1:]:
            text += rng.choice([" + ", " - ", "+", "-"]) + term
        return text
    return f"({sum_text()}){rng.choice(['*', ' * '])}({sum_text()})"


def test_parser_matches_the_fold(monkeypatch):
    """On 3,200 seeded texts, and 400 products of two sums, the parser
    gives the fold's printed form, its stored num and den, or its
    exception type and message."""
    ps = PhaseSpace(2, parameters=("r",))
    rng = random.Random(20260615)
    texts = [_expression(rng, 0) for _ in range(2400)]
    texts += [_malformed(rng, rng.choice(texts)) for _ in range(800)]
    products = random.Random(20261019)
    texts += [_sum_product(products) for _ in range(400)]
    multi_term, check_product = set(), parser._check_product

    def counted(a, b):
        if len(a) > 1 and len(b) > 1:
            multi_term.add(text)
        return check_product(a, b)

    monkeypatch.setattr(parser, "_check_product", counted)
    results = {"parsed": 0, "rational": 0, "error": 0}
    for text in texts:
        expected = _outcome(fold_parse, text, ps)
        assert _outcome(parse_expression, text, ps) == expected, text
        if isinstance(expected[0], type):
            results["error"] += 1
        else:
            results["parsed"] += 1
            results["rational"] += expected[0].startswith("(") and ")/(" in expected[0]
    # the sweep reaches every kind of outcome in quantity
    assert min(results.values()) > 300, results
    # and multiplies two sums in at least one text per hundred
    assert len(multi_term) >= len(texts) // 100, len(multi_term)


TOKENS = ("x1", "x2", "p1", "p2", "r", "y", "_", "0", "1", "2", "3", "12", "1/2", "2/0",
          "+", "-", "*", "/", "^", "(", ")", " ", "\u0663")


@given(st.lists(st.sampled_from(TOKENS), max_size=30).map("".join))
def test_fuzz_parse_or_dirackit_error(text):
    """Text over the token alphabet parses or raises a DiracKitError."""
    ps = PhaseSpace(2, parameters=("r",))
    try:
        parse_expression(text, ps)
    except DiracKitError:
        pass
