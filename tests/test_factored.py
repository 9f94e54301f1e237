"""Dirac brackets over a factor table of Delta^-1's denominators.

The entries of a context's Delta^-1 carry their denominators as powers
of the distinct denominators of those entries.  Brackets computed that
way must equal the ones the opaque arithmetic (cross-multiplied
denominators, no cancellation) builds, agree with finite-difference
Dirac brackets, and come out as reduced as sympy.cancel leaves them.
"""

import random

import pytest

from dirackit import (
    DiracContext,
    PhaseSpace,
    RationalExpr,
    SamplerConfig,
    dirac_bracket,
    make_context,
    parse_expression,
    sample_on_shell,
)
from dirackit.expr import FactorTable, over_factor_table
from dirackit.matrix import invert_matrix
from dirackit.sysfile import parse_system

from conftest import (
    fd_dirac,
    linear_mix_constraints,
    random_polynomial,
    tower_text,
)


def sphere_context():
    ps = PhaseSpace(3, parameters=("r",))
    return make_context(ps, [parse_expression("x1^2 + x2^2 + x3^2 - r^2", ps),
                             parse_expression("p1*x1 + p2*x2 + p3*x3", ps)])


def tower_context():
    spec = parse_system(tower_text(2, sampler_seed=1))
    return make_context(spec.ps, spec.constraints)


CONTEXTS = {"sphere": sphere_context, "tower_k2": tower_context}


def opaque(ctx):
    """The same context with Delta^-1's entries as the inversion left them."""
    return DiracContext(ctx.ps, ctx.constraints, ctx.delta, invert_matrix(ctx.delta))


def triple(ctx, seed):
    rng = random.Random(seed)
    return [random_polynomial(ctx.ps, rng, max_degree=2, max_terms=3, variables_only=True)
            for _ in range(3)]


def brackets(ctx, f, g, h):
    """{f, g}_D and {f, {g, h}_D}_D."""
    return dirac_bracket(f, g, ctx), dirac_bracket(f, dirac_bracket(g, h, ctx), ctx)


def cancelled_denominator_degree(e: RationalExpr) -> int:
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(f"s0:{e.ps.nsyms}")

    def to_sympy(poly):
        return sympy.Poly.from_dict(
            {m: sympy.Rational(c.numerator, c.denominator) for m, c in poly.terms.items()},
            *gens, domain="QQ")

    _, _, den = to_sympy(e.num).cancel(to_sympy(e.den))
    return den.total_degree()


def test_tables_hold_one_factor_per_sphere():
    for make, count in ((sphere_context, 1), (tower_context, 2)):
        entries = [e for row in make().delta_inv for e in row if not e.is_polynomial]
        assert len({id(e._table) for e in entries}) == 1
        assert len(entries[0]._table.factors) == count


def test_constant_delta_has_no_table():
    ps = PhaseSpace(4)
    ctx = make_context(ps, linear_mix_constraints(ps, 2, random.Random(1)))
    assert all(e._table is None for row in ctx.delta_inv for e in row)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_factored_brackets_equal_opaque_ones(name, seed):
    ctx = CONTEXTS[name]()
    f, g, h = triple(ctx, seed)
    for factored, plain in zip(brackets(ctx, f, g, h), brackets(opaque(ctx), f, g, h)):
        assert factored == plain
        assert factored.den.total_degree() <= plain.den.total_degree()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_factored_brackets_are_reduced_like_sympy_cancel(name, seed):
    ctx = CONTEXTS[name]()
    f, g, h = triple(ctx, seed)
    for e in brackets(ctx, f, g, h):
        assert e.den.total_degree() == cancelled_denominator_degree(e)


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_factored_brackets_match_finite_differences(name):
    ctx = CONTEXTS[name]()
    f, g, h = triple(ctx, 7)
    fg, f_gh = brackets(ctx, f, g, h)
    inner = dirac_bracket(g, h, ctx)
    cfg = SamplerConfig(seed=5, point_count=3, parameter_bindings={"r": 1.0})
    for point in sample_on_shell(ctx, cfg):
        assert fg.evaluate(point) == pytest.approx(fd_dirac(f, g, ctx, point),
                                                   rel=1e-5, abs=1e-6)
        assert f_gh.evaluate(point) == pytest.approx(fd_dirac(f, inner, ctx, point),
                                                     rel=1e-5, abs=1e-6)


class TestFactoredArithmetic:
    """Operations over a table equal the opaque ones on the same values."""

    @pytest.fixture
    def ps(self):
        return PhaseSpace(2)

    @pytest.fixture
    def table_exprs(self, ps):
        """a/D, b/D and c/E, opaque and over the table (D, E)."""
        texts = ["(x1*p2 - 3)/(x1^2 + x2^2)", "(p1 + 2*x2)/(x1^2 + x2^2)",
                 "(x2 - p2)/(x1 + p1)"]
        plain = [parse_expression(t, ps) for t in texts]
        factored = over_factor_table(plain)
        return plain, factored

    def test_entries_share_one_table(self, table_exprs):
        _, (a, b, c) = table_exprs
        assert a._table is b._table is c._table
        assert a._exps == b._exps == (1, 0) and c._exps == (0, 1)

    def test_ring_operations_match_opaque(self, ps, table_exprs):
        plain, factored = table_exprs
        poly = parse_expression("x1*p1 - 2", ps)
        rng = random.Random(3)
        for _ in range(20):
            i, j = rng.randrange(3), rng.randrange(3)
            for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
                       lambda u, v: u * v * poly + v.scale(3)):
                got, want = op(factored[i], factored[j]), op(plain[i], plain[j])
                assert got == want
                assert got.den.total_degree() <= want.den.total_degree()

    def test_sum_takes_the_lcm(self, table_exprs):
        _, (a, b, c) = table_exprs
        assert (a + b)._exps == (1, 0)
        assert (a * b + c)._exps == (2, 1)
        assert (a * b + c).den.total_degree() == 5

    def test_partials_match_opaque_and_raise_exponents_once(self, ps, table_exprs):
        plain, factored = table_exprs
        e, want = factored[0] * factored[2], plain[0] * plain[2]
        for var in ps.symbols:
            d = e.diff(var)
            assert d == want.diff(var)
        assert e.diff("x1")._exps == (2, 2)
        assert e.diff("x2")._exps == (2, 1)
        assert e.diff("p2")._exps == (1, 1)

    def test_cancel_divides_out_exact_factors(self, ps, table_exprs):
        _, (a, b, c) = table_exprs
        d_over_d = (a - a.scale(2)) * parse_expression("x1^2 + x2^2", ps)
        assert str(d_over_d.cancel()) == "-x1*p2 + 3"
        assert d_over_d.cancel() == d_over_d
        assert (a * c).cancel()._exps == (1, 1)

    def test_sum_to_polynomial_drops_the_table(self, ps, table_exprs):
        _, (a, _, _) = table_exprs
        assert (a - a).is_zero and (a - a)._table is None
        d = (a * parse_expression("x1^2 + x2^2", ps)).cancel()
        assert d._table is None and d.is_polynomial

    def test_opaque_operand_falls_back_to_cross_multiplication(self, ps, table_exprs):
        plain, factored = table_exprs
        other = parse_expression("1/(x1^2 + x2^2)", ps)
        got, want = factored[0] + other, plain[0] + other
        assert got._table is None
        assert (str(got), got.den) == (str(want), want.den)
        got, want = factored[1] * other, plain[1] * other
        assert got._table is None and str(got) == str(want)

    def test_parse_results_never_cancel(self, ps):
        e = parse_expression("(x1^2 - 1)/(x1 - 1)", ps)
        assert e._table is None and e.cancel() is e

    def test_table_products_are_normalized_denominators(self, ps):
        d = parse_expression("x1^2 + x2^2", ps).num
        table = FactorTable([d])
        assert table.product((3,)) == d ** 3
        assert table.product((3,)) is table.product((3,))

