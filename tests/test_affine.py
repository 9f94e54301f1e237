"""Affine constraint sets: Delta and the trace from integer coefficient rows.

When every constraint is a polynomial of total degree at most 1,
`delta_matrix` reads Delta from the constraints' coefficient rows and
`trace_identity` sums the trace over Python ints.  The oracles are the
bracket path every other set takes: `bracket_table` for Delta and the
sum of `dirac_bracket(x_i, p_i)` for the trace.
"""

import functools
import random
import sys
from fractions import Fraction

import pytest

from dirackit import (
    PhaseSpace,
    RationalExpr,
    bracket_table,
    delta_matrix,
    dirac_bracket,
    make_context,
    parse_expression,
    trace_identity,
)
from dirackit.errors import NotSecondClassError
from dirackit.sysfile import parse_system

from conftest import mix_text, replace_everywhere

MIX_SIZES = ((2, 2), (2, 4), (6, 6), (6, 8), (10, 10))  # (m, n)


def _coefficient(rng: random.Random) -> str:
    while True:
        value = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        if value:
            return str(value)


def _term(rng: random.Random, variable: str) -> str:
    roll = rng.random()
    if roll < 0.4:
        return f"({_coefficient(rng)})*{variable}"
    if roll < 0.7:
        return f"{variable}/{rng.randint(1, 5)}"
    return f"{rng.randint(1, 4)}*{variable}"


def random_affine_texts(rng: random.Random, n: int, m: int) -> list[str]:
    """2m constraints on n pairs, each 1 to 3 terms over x1..xn, p1..pn
    with integer or fractional coefficients, plus now and then a constant
    or the parameter r."""
    variables = [f"x{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)]
    texts = []
    for _ in range(2 * m):
        picked = rng.sample(variables, rng.randint(1, min(3, len(variables))))
        text = " + ".join(_term(rng, v) for v in picked)
        extra = rng.random()
        if extra < 0.2:
            text += " - r"
        elif extra < 0.4:
            text += f" + {_coefficient(rng)}"
        texts.append(text)
    return texts


def affine_sets() -> list[tuple[PhaseSpace, list]]:
    """Seeded affine sets: linear mixes, random rows with fractional
    coefficients and constant terms (n = m and n > m), and fixed cases."""
    sets = []
    for m, n in MIX_SIZES:
        for seed in (1, 2, 3):
            spec = parse_system(mix_text(n, m, random.Random(seed)))
            sets.append((spec.ps, list(spec.constraints)))
    rng = random.Random(20261019)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, n)
        ps = PhaseSpace(n, parameters=("r",))
        sets.append((ps, [parse_expression(t, ps) for t in random_affine_texts(rng, n, m)]))
    ps = PhaseSpace(2, parameters=("r",))
    for texts in (["x1/2 - 3*p2", "p1 + 1/3", "x2 - r", "2*p2 - x1"],
                  ["x1 - r", "p1"],
                  ["r", "x1"],
                  ["x1", "p1", "r", "p2"]):
        sets.append((ps, [parse_expression(t, ps) for t in texts]))
    return sets


def test_affine_delta_and_trace_match_the_bracket_path():
    outcomes = {"second_class": 0, "singular": 0}
    for ps, chis in affine_sets():
        delta, expected = delta_matrix(chis, ps), bracket_table(chis, ps)
        for row, expected_row in zip(delta, expected):
            assert list(row) == list(expected_row)
            assert list(map(str, row)) == list(map(str, expected_row))
        try:
            ctx = make_context(ps, chis)
        except NotSecondClassError:
            outcomes["singular"] += 1
            continue
        outcomes["second_class"] += 1
        value = trace_identity(ctx).value
        oracle = RationalExpr.zero(ps)
        for i in range(ps.n):
            oracle = oracle + dirac_bracket(
                RationalExpr.symbol(ps, ps.coordinates[i]),
                RationalExpr.symbol(ps, ps.momenta[i]), ctx)
        oracle = oracle.cancel()
        assert value == oracle and str(value) == str(oracle)
        assert value == RationalExpr.constant(ps, ps.n - ctx.m)
    assert min(outcomes.values()) >= 10, outcomes


def test_a_constraint_free_of_variables_leaves_delta_singular():
    ps = PhaseSpace(2, parameters=("r",))
    chis = [parse_expression(t, ps) for t in ("r", "x1")]
    assert all(e.is_zero for row in delta_matrix(chis, ps) for e in row)
    with pytest.raises(NotSecondClassError):
        make_context(ps, chis)


@pytest.fixture
def poisson_calls(monkeypatch):
    calls = [0]
    original = sys.modules["dirackit.brackets"].poisson_bracket

    @functools.wraps(original)
    def counted(*args):
        calls[0] += 1
        return original(*args)

    replace_everywhere(monkeypatch, original, counted)
    return calls


@pytest.mark.parametrize("texts", [
    ["x2 + p2", "x2 - p2", "p1", "r*x1"],
    ["x1^2 + p1", "x1", "p2", "x2"],
    ["x1/(1 + x2^2)", "p1", "x2", "p2"],
    ["x1^2 + x2^2 + x3^2 - r^2", "p1*x1 + p2*x2 + p3*x3"],
])
def test_a_non_affine_set_takes_the_brackets(poisson_calls, texts):
    """One constraint of degree 2 or a denominator sends the whole set to
    Delta's k(k - 1)/2 Poisson brackets; the trace makes none."""
    ps = PhaseSpace(3, parameters=("r",))
    chis = [parse_expression(t, ps) for t in texts]
    k = len(chis)
    delta_matrix(chis, ps)
    assert poisson_calls[0] == k * (k - 1) // 2
    ctx = make_context(ps, chis)
    assert poisson_calls[0] == k * (k - 1)
    assert trace_identity(ctx).holds
    assert poisson_calls[0] == k * (k - 1)
