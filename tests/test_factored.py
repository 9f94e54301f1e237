"""Denominators as products of powers of interned atoms.

Every non-polynomial denominator is a product of powers of atoms:
interned primitive polynomials with positive leading coefficients.
Sums, products, partials and Dirac brackets computed that way must equal
the ones the opaque arithmetic (`conftest.Opaque`: cross-multiplied
denominators, no cancellation) builds, with a denominator of no higher
degree; Dirac brackets must agree with finite-difference ones and, on
polynomial constraints, come out as reduced as sympy.cancel leaves them.
"""

import contextlib
import io
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dirackit import (
    PhaseSpace,
    RationalExpr,
    SamplerConfig,
    dirac_bracket,
    make_context,
    parse_expression,
    poisson_bracket,
    sample_on_shell,
)
from dirackit import expr
from dirackit.cli import main
from dirackit.sysfile import parse_system

from conftest import (
    Opaque,
    fd_dirac,
    full_rows,
    linear_mix_constraints,
    mix_text,
    opaque_dirac,
    opaque_inverse,
    opaque_poisson,
    random_polynomial,
    random_rational_expr,
    tower_text,
)

ROOT = Path(__file__).resolve().parent.parent


def sphere_context():
    ps = PhaseSpace(3, parameters=("r",))
    return make_context(ps, [parse_expression("x1^2 + x2^2 + x3^2 - r^2", ps),
                             parse_expression("p1*x1 + p2*x2 + p3*x3", ps)])


def tower_context():
    spec = parse_system(tower_text(2, sampler_seed=1))
    return make_context(spec.ps, spec.constraints)


def constant_context():
    ps = PhaseSpace(4)
    return make_context(ps, linear_mix_constraints(ps, 2, random.Random(1)))


def rational_context(texts):
    def make():
        ps = PhaseSpace(3)
        return make_context(ps, [parse_expression(t, ps) for t in texts])
    return make


CONTEXTS = {"sphere": sphere_context, "tower_k2": tower_context}
ORACLE_CONTEXTS = {
    **CONTEXTS,
    "constant": constant_context,
    "rational_a": rational_context(["x1/(1+x2^2)", "p1"]),
    "rational_b": rational_context(["x1^2+x2^2-1", "(x1*p1+x2*p2)/(1+x3^2)"]),
}


def triple(ctx, seed):
    rng = random.Random(seed)
    return [random_polynomial(ctx.ps, rng, max_degree=2, max_terms=3, variables_only=True)
            for _ in range(3)]


def brackets(ctx, f, g, h):
    """{f, g}_D and {f, {g, h}_D}_D."""
    return dirac_bracket(f, g, ctx), dirac_bracket(f, dirac_bracket(g, h, ctx), ctx)


def degree(e) -> int:
    return e.den.total_degree()


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
    """Delta^-1 has one atom per sphere, shared by its entries."""
    for make, count in ((sphere_context, 1), (tower_context, 2)):
        entries = [e for row in full_rows(make().delta_inv) for e in row if not e.is_polynomial]
        assert all(len(e.atoms) == 1 for e in entries)
        assert len({id(atom) for e in entries for atom, _ in e.atoms}) == count


def test_constant_delta_has_no_table():
    assert all(not e.atoms for row in full_rows(constant_context().delta_inv) for e in row)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_factored_brackets_equal_opaque_ones(name, seed):
    ctx = CONTEXTS[name]()
    f, g, h = triple(ctx, seed)
    chis = [Opaque.of(chi) for chi in ctx.constraints]
    inverse = opaque_inverse(chis)
    fg, f_gh = brackets(ctx, f, g, h)
    want_fg = opaque_dirac(Opaque.of(f), Opaque.of(g), chis, inverse)
    want_f_gh = opaque_dirac(Opaque.of(f), Opaque.of(dirac_bracket(g, h, ctx)), chis, inverse)
    for got, want in ((fg, want_fg), (f_gh, want_f_gh)):
        assert got == want.expr()
        assert degree(got) <= degree(want)


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


class TestOracle:
    """Seeded operations on rational operands equal the opaque ones,
    over denominators of no higher degree, in every kind of context."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", sorted(ORACLE_CONTEXTS))
    def test_dirac_brackets_of_rational_operands(self, name, seed):
        ctx = ORACLE_CONTEXTS[name]()
        rng = random.Random(seed)
        f = random_rational_expr(ctx.ps, rng)
        g = random_polynomial(ctx.ps, rng, max_degree=2, max_terms=3) \
            / random_polynomial(ctx.ps, rng, max_degree=1, max_terms=2, variables_only=True)
        chis = [Opaque.of(chi) for chi in ctx.constraints]
        got = dirac_bracket(f, g, ctx)
        want = opaque_dirac(Opaque.of(f), Opaque.of(g), chis, opaque_inverse(chis))
        assert got == want.expr()
        assert degree(got) <= degree(want)

    @pytest.mark.parametrize("name", sorted(ORACLE_CONTEXTS))
    def test_inverse_of_delta(self, name):
        ctx = ORACLE_CONTEXTS[name]()
        inverse = opaque_inverse([Opaque.of(chi) for chi in ctx.constraints])
        for got_row, want_row in zip(full_rows(ctx.delta_inv), inverse):
            for got, want in zip(got_row, want_row):
                assert got == want.expr()
                assert degree(got) <= degree(want)

    @pytest.mark.parametrize("seed", range(6))
    def test_sums_products_quotients_and_partials(self, seed):
        ps = PhaseSpace(2)
        rng = random.Random(40 + seed)
        exprs = [random_rational_expr(ps, rng) for _ in range(4)]
        # Shared denominators: the lcm is below the cross product.
        exprs += [exprs[0] * exprs[1], exprs[1].int_pow(2) + exprs[2], exprs[3] / exprs[0]]
        for _ in range(12):
            a, b = rng.choice(exprs), rng.choice(exprs)
            oa, ob = Opaque.of(a), Opaque.of(b)
            for got, want in ((a + b, oa + ob), (a - b, oa - ob), (a * b, oa * ob),
                              (poisson_bracket(a, b, ps), opaque_poisson(oa, ob))):
                assert got == want.expr()
                assert degree(got) <= degree(want)
            if not b.is_zero:
                assert a / b == (oa / ob).expr()
                assert degree(a / b) <= degree(oa / ob)
            index = rng.randrange(2 * ps.n)
            assert a.diff_index(index) == oa.diff_index(index).expr()
            assert degree(a.diff_index(index)) <= degree(oa.diff_index(index))


class TestFactoredArithmetic:
    """Operations over atoms equal the opaque ones on the same values."""

    @pytest.fixture
    def ps(self):
        return PhaseSpace(2)

    @pytest.fixture
    def table_exprs(self, ps):
        """a/D, b/D and c/E as parsed, and as opaque pairs."""
        texts = ["(x1*p2 - 3)/(x1^2 + x2^2)", "(p1 + 2*x2)/(x1^2 + x2^2)",
                 "(x2 - p2)/(x1 + p1)"]
        exprs = [parse_expression(t, ps) for t in texts]
        return [Opaque.of(e) for e in exprs], exprs

    def test_entries_share_one_table(self, table_exprs):
        """Equal denominators are one interned atom."""
        _, (a, b, c) = table_exprs
        assert a.atoms == b.atoms and a.atoms[0][0] is b.atoms[0][0]
        assert [e for _, e in a.atoms] == [1] and len(c.atoms) == 1
        assert c.atoms[0][0] is not a.atoms[0][0]

    def test_ring_operations_match_opaque(self, ps, table_exprs):
        plain, factored = table_exprs
        poly = parse_expression("x1*p1 - 2", ps)
        rng = random.Random(3)
        for _ in range(20):
            i, j = rng.randrange(3), rng.randrange(3)
            for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
                got, want = op(factored[i], factored[j]), op(plain[i], plain[j])
                assert got == want.expr()
                assert degree(got) <= degree(want)
            got = factored[i] * factored[j] * poly + factored[j].scale(3)
            want = plain[i] * plain[j] * Opaque.of(poly) + Opaque.of(factored[j].scale(3))
            assert got == want.expr() and degree(got) <= degree(want)

    def test_sum_takes_the_lcm(self, table_exprs):
        _, (a, b, c) = table_exprs
        d, e = a.atoms[0][0], c.atoms[0][0]
        assert (a + b).atoms == ((d, 1),)
        assert dict((a * b + c).atoms) == {d: 2, e: 1}
        assert (a * b + c).den.total_degree() == 5

    def test_partials_match_opaque_and_raise_exponents_once(self, ps, table_exprs):
        plain, factored = table_exprs
        e, want = factored[0] * factored[2], plain[0] * plain[2]
        d, f = factored[0].atoms[0][0], factored[2].atoms[0][0]
        for index in range(2 * ps.n):
            assert e.diff_index(index) == want.diff_index(index).expr()
        assert dict(e.diff_index(ps.index_of("x1")).atoms) == {d: 2, f: 2}
        assert dict(e.diff_index(ps.index_of("x2")).atoms) == {d: 2, f: 1}
        assert dict(e.diff_index(ps.index_of("p2")).atoms) == {d: 1, f: 1}

    def test_cancel_divides_out_exact_factors(self, ps, table_exprs):
        _, (a, b, c) = table_exprs
        d_over_d = (a - a.scale(2)) * parse_expression("x1^2 + x2^2", ps)
        assert str(d_over_d.cancel()) == "-x1*p2 + 3"
        assert d_over_d.cancel() == d_over_d
        assert [e for _, e in (a * c).cancel().atoms] == [1, 1]

    def test_sum_to_polynomial_drops_the_table(self, ps, table_exprs):
        _, (a, _, _) = table_exprs
        assert (a - a).is_zero and (a - a).atoms == ()
        d = (a * parse_expression("x1^2 + x2^2", ps)).cancel()
        assert d.atoms == () and d.is_polynomial

    def test_parsed_operand_shares_the_atoms(self, ps, table_exprs):
        """An expression parsed on its own adds over the lcm with the
        others; nothing falls back to cross-multiplication."""
        plain, factored = table_exprs
        other = parse_expression("1/(x1^2 + x2^2)", ps)
        d = factored[0].atoms[0][0]
        got = factored[0] + other * other
        want = plain[0] + Opaque.of(other) * Opaque.of(other)
        assert got.atoms == ((d, 2),)
        assert got == want.expr() and degree(got) == 4 < degree(want) == 6
        assert str(got) == "(x1^3*p2 + x1*x2^2*p2 - 3*x1^2 - 3*x2^2 + 1)/" \
            "(x1^4 + 2*x1^2*x2^2 + x2^4)"

    def test_atoms_with_one_product_add_over_the_fewer(self, ps):
        """Distinct atoms that expand to the same denominator add their
        numerators over the shorter tuple, the left one on a tie; an
        lcm over them would treat x1*p1 and x1, p1 as coprime."""
        whole = parse_expression("1/(x1*p1)", ps)
        split = parse_expression("1/x1", ps) * parse_expression("1/p1", ps)
        assert whole.den == split.den and len(split.atoms) == 2
        plain = Opaque.of(whole), Opaque.of(split)
        for got, want in ((whole + split, plain[0] + plain[1]),
                          (split + whole, plain[1] + plain[0]),
                          (whole - split.scale(3), plain[0] - Opaque.of(split.scale(3)))):
            assert got.atoms == whole.atoms
            assert got == want.expr() and degree(got) == degree(want) == 2
        assert str(whole + split) == str(split + whole) == "(2)/(x1*p1)"
        assert str(whole - split.scale(3)) == "(-2)/(x1*p1)"
        again = parse_expression("1/x1", ps) * parse_expression("1/p1", ps)
        assert (split + again).atoms == split.atoms

    def test_parse_results_never_cancel(self, ps):
        """Parsing keeps the numerator as written; cancel() applies to
        every expression."""
        e = parse_expression("(x1^2 - 1)/(x1 - 1)", ps)
        assert str(e) == "(x1^2 - 1)/(x1 - 1)"
        assert str(e.cancel()) == "x1 + 1"

    def test_table_products_are_normalized_denominators(self, ps):
        d = parse_expression("1/(x1^2 + x2^2)", ps).int_pow(3)
        atom = d.atoms[0][0]
        assert d.den == atom.poly ** 3
        assert expr._product(d.atoms) is expr._product(((atom, 3),))


def test_opaque_operands_bracket_at_once(tmp_path):
    """The Dirac bracket of two rational functions in a context with
    m = 2 prints 0 at once; cross-multiplying the corrections' unequal
    denominators took about 16 s."""
    path = tmp_path / "mix.system"
    path.write_text(mix_text(4, 2, random.Random(510)))
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["bracket", str(path), "--f", "(x1 + p1)/(x2 - 3)",
                     "--g", "p2/(1 + x1^2 + p1^2)", "--mode", "dirac"])
    assert time.perf_counter() - start < 2.0
    assert (code, out.getvalue()) == (0, "0\n")


class TestInterning:
    def test_second_pass_interns_no_atom(self, tmp_path):
        tower = tmp_path / "tower.system"
        tower.write_text(tower_text(3, sampler_seed=1))
        for path in (ROOT / "systems" / "sphere.system", tower):
            argv = ["analyze", str(path), "--format", "json"]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0
                before = len(expr._ATOMS)
                assert main(argv) == 0
            assert before and len(expr._ATOMS) == before

    def test_printed_forms_do_not_depend_on_what_was_interned_first(self):
        """-x2*(x1 + 1)^2 over (x1*x2 + x2)*(x1 + 1)^2 cancels to
        -1/(x1 + 1) dividing by the greater atom first, and to
        -x2/(x1*x2 + x2) the other way round; a fresh process interns the
        two atoms in either order before it takes the bracket."""
        script = (
            "import sys\n"
            "from dirackit import PhaseSpace, dirac_bracket, make_context, parse_expression\n"
            "ps = PhaseSpace(3)\n"
            "for text in sys.argv[1:]:\n"
            "    parse_expression(text, ps)\n"
            "ctx = make_context(ps, [parse_expression(t, ps) for t in ('x3', 'p3')])\n"
            "f = parse_expression('p1*x2/(x1*x2 + x2)', ps)\n"
            "g = parse_expression('(x1^2 + x1)/(x1 + 1)', ps)\n"
            "print(dirac_bracket(f, g, ctx))\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        printed = [subprocess.run([sys.executable, "-c", script, *order], env=env,
                                  capture_output=True, text=True, check=True).stdout
                   for order in (["1/(x1*x2 + x2)", "1/(x1 + 1)"],
                                 ["1/(x1 + 1)", "1/(x1*x2 + x2)"])]
        assert printed == ["(-1)/(x1 + 1)\n"] * 2
