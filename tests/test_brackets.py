"""Poisson and Dirac brackets: canonical relations, contexts, axioms."""

import random
from pathlib import Path

import pytest

from dirackit import (
    PhaseSpace,
    RationalExpr,
    SamplerConfig,
    bracket_table,
    classify_constraints,
    delta_matrix,
    dirac_bracket,
    make_context,
    parse_expression,
    poisson_bracket,
)
from dirackit.errors import (
    NotSecondClassError,
    OddConstraintCountError,
    TooManyConstraintsError,
)
from dirackit import brackets
from dirackit.sysfile import parse_system

from conftest import (Opaque, fd_poisson, full_rows, is_skew_symmetric, matmul, opaque_dirac,
                      opaque_inverse, random_point, random_polynomial, random_rational_expr,
                      tower_text)
from test_sum_of_products import poisson_loop


SYSTEMS = Path(__file__).resolve().parent.parent / "systems"


def E(text, ps):
    return parse_expression(text, ps)


@pytest.fixture
def ps3():
    return PhaseSpace(3)


class TestPoissonBracket:
    def test_canonical_relations(self, ps3):
        for i in range(3):
            for j in range(3):
                xi = E(ps3.coordinates[i], ps3)
                pj = E(ps3.momenta[j], ps3)
                expected = E("1" if i == j else "0", ps3)
                assert poisson_bracket(xi, pj, ps3) == expected

    def test_coordinates_commute(self, ps3):
        assert poisson_bracket(E("x1", ps3), E("x2", ps3), ps3).is_zero

    def test_sphere_pair_bracket(self, ps3):
        # {sum x_i^2, sum p_i x_i} = 2 sum x_i^2; cross-checked by the
        # finite-difference oracle at random points
        f = E("x1^2 + x2^2 + x3^2", ps3)
        g = E("p1*x1 + p2*x2 + p3*x3", ps3)
        result = poisson_bracket(f, g, ps3)
        assert result == E("2*x1^2 + 2*x2^2 + 2*x3^2", ps3)
        rng = random.Random(5)
        for _ in range(10):
            point = random_point(ps3, rng)
            assert result.evaluate(point) == pytest.approx(
                fd_poisson(f, g, ps3, point), abs=1e-5, rel=1e-5)


def dense_poisson(f, g, ps):
    """The bracket summed over every canonical pair, skipping none."""
    acc = RationalExpr.zero(ps)
    for i in range(1, ps.n + 1):
        xi = ps.coordinate_index(i)
        pi = ps.momentum_index(i)
        acc = acc + f.diff_index(xi) * g.diff_index(pi) \
                  - f.diff_index(pi) * g.diff_index(xi)
    return acc


class TestSparsePoissonBracket:
    """Skipping the pairs outside the supports of f and g changes no
    printed form: the skipped terms are exact zeros."""

    @pytest.mark.parametrize("seed", range(4))
    def test_polynomials_print_as_dense(self, seed):
        ps = PhaseSpace(4, parameters=("r",))
        rng = random.Random(seed)
        for _ in range(40):
            f = random_polynomial(ps, rng, max_degree=3, max_terms=3)
            g = random_polynomial(ps, rng, max_degree=3, max_terms=3)
            assert str(poisson_bracket(f, g, ps)) == str(dense_poisson(f, g, ps))

    @pytest.mark.parametrize("seed", range(4))
    def test_rationals_print_as_dense(self, seed):
        ps = PhaseSpace(3)
        rng = random.Random(100 + seed)
        for _ in range(30):
            f = random_rational_expr(ps, rng)
            g = rng.choice([random_rational_expr, random_polynomial])(ps, rng)
            assert str(poisson_bracket(f, g, ps)) == str(dense_poisson(f, g, ps))
            assert str(poisson_bracket(g, f, ps)) == str(dense_poisson(g, f, ps))


class TestPairsFromSupports:
    """`poisson_bracket` reads the shared canonical pairs off the two
    supports, with parameters in them: each result prints as the n-loop
    references print it, and operands that share no pair give the exact
    zero with no sum at all."""

    @pytest.mark.parametrize("parameters", [("r", "s"), ()])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_prints_as_the_loops(self, n, parameters):
        """Polynomials, quotients, and their sums and products: operands over
        shared denominators, whose fold order can show in the printed form
        (without parameters, n = 3 has such pairs)."""
        ps = PhaseSpace(n, parameters=parameters)
        rng = random.Random(200 + n)
        pool = [random_polynomial(ps, rng) for _ in range(3)] \
            + [random_rational_expr(ps, rng) for _ in range(3)]
        pool += [pool[3] * pool[4], pool[4].int_pow(2) + pool[5], pool[0] / pool[3]]
        for _ in range(40):
            f, g = rng.choice(pool), rng.choice(pool)
            printed = str(poisson_bracket(f, g, ps))
            assert printed == str(poisson_loop(f, g, ps)) == str(dense_poisson(f, g, ps))

    @pytest.mark.parametrize("f, g", [
        ("r*x1", "s*x2 + r"),          # a parameter only
        ("r^2 + s", "r*s*p3"),
        ("x1*r + x2", "x1^2*s"),        # x_i on both sides only
        ("p2/(1 + r)", "p2^2 + x3"),    # p_i on both sides only
        ("x1*p1", "x2*p2 + s"),         # each pair on one side only
        ("x3*s/(x1 + r)", "x1*x3"),
    ])
    def test_no_shared_pair_is_the_exact_zero_without_a_sum(self, monkeypatch, f, g):
        """A bracket with a shared pair makes one sum: one kernel sum of two
        polynomials, else one `add_products`."""
        ps = PhaseSpace(3, parameters=("r", "s"))
        calls = []
        for name in ("add_products", "sum_of_products"):
            monkeypatch.setattr(brackets, name, lambda *args, _name=name,
                                _original=getattr(brackets, name):
                                calls.append(_name) or _original(*args))
        f, g = E(f, ps), E(g, ps)
        assert poisson_bracket(f, g, ps).is_zero and poisson_bracket(g, f, ps).is_zero
        assert calls == []
        assert not poisson_bracket(f + E("x1", ps), g + E("p1", ps), ps).is_zero
        polynomials = f.is_polynomial and g.is_polynomial
        assert calls == ["sum_of_products" if polynomials else "add_products"]


class TestOtherPhaseSpaces:
    """An operand over another phase space than the bracket's is refused
    before either support is read: the spaces number their symbols
    differently, so the supports would pair the wrong symbols."""

    @pytest.mark.parametrize("f_space, g_space, space", [
        (PhaseSpace(2), PhaseSpace(3), PhaseSpace(2)),    # g over another n
        (PhaseSpace(2), PhaseSpace(2), PhaseSpace(3)),    # both over another space
        (PhaseSpace(2), PhaseSpace(2, parameters=("r",)), PhaseSpace(2)),  # a shared pair
    ], ids=["other_n", "both_other", "other_parameters"])
    def test_refused(self, f_space, g_space, space):
        f, g = E("x1", f_space), E("p1", g_space)
        with pytest.raises(ValueError, match="^operands belong to different phase spaces$"):
            poisson_bracket(f, g, space)
        with pytest.raises(ValueError, match="^operands belong to different phase spaces$"):
            poisson_bracket(g, f, space)

    def test_equal_spaces_bracket(self):
        f, g = E("x1", PhaseSpace(2)), E("p1", PhaseSpace(2))
        assert str(poisson_bracket(f, g, PhaseSpace(2))) == "1"
        assert str(poisson_bracket(g, f, PhaseSpace(2))) == "-1"


def to_sympy(e, names):
    """A polynomial expression as a sympy expression in names."""
    import sympy
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(v ** k for v, k in zip(names, mono)))
                for mono, c in e.as_polynomial().terms.items()), sympy.Integer(0))


def sympy_poisson(f, g, ps):
    """The bracket built by sympy's `diff` from the operands' terms."""
    import sympy
    names = sympy.symbols(ps.symbols)
    sf, sg = to_sympy(f, names), to_sympy(g, names)
    return sum(sympy.diff(sf, names[i]) * sympy.diff(sg, names[ps.n + i])
               - sympy.diff(sf, names[ps.n + i]) * sympy.diff(sg, names[i])
               for i in range(ps.n))


def polynomial_operands(ps, rng):
    """Polynomial pairs (f, g) over ps: on all symbols, on a random few
    (some pairs on one side only), and f = g or f and g times functions
    of the parameters alone, whose brackets are exact zeros."""
    symbols = list(ps.symbols)
    for _ in range(12):
        f = random_polynomial(ps, rng, max_terms=4)
        g = random_polynomial(ps, rng, max_terms=4,
                              symbols=rng.sample(symbols, rng.randint(1, len(symbols))))
        yield f, g
        yield g, f
        yield f, f
        if ps.parameters:
            a = random_polynomial(ps, rng, max_terms=2, symbols=ps.parameters)
            b = random_polynomial(ps, rng, max_terms=2, symbols=ps.parameters)
            yield f * a, f * b


class TestPolynomialPath:
    """Two polynomials are bracketed by one kernel sum of their partials'
    numerators: it gives exactly the left fold of `RationalExpr` products
    over every pair (`dense_poisson`) and sympy's bracket."""

    @pytest.mark.parametrize("parameters", [(), ("r", "s")])
    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_the_fold_and_sympy(self, n, parameters):
        import sympy
        ps = PhaseSpace(n, parameters=parameters)
        rng = random.Random(3800 + 10 * n + len(parameters))
        zeros = 0
        for f, g in polynomial_operands(ps, rng):
            bracket = poisson_bracket(f, g, ps)
            expected = dense_poisson(f, g, ps)
            assert bracket.atoms == expected.atoms == ()
            assert bracket.num == expected.num and str(bracket) == str(expected)
            names = sympy.symbols(ps.symbols)
            assert sympy.expand(sympy_poisson(f, g, ps) - to_sympy(bracket, names)) == 0
            reverse = poisson_bracket(g, f, ps)
            assert reverse.num == (-bracket).num and str(reverse) == str(-bracket)
            zeros += bracket.is_zero
        assert zeros >= 12  # f = g at least

    @pytest.mark.parametrize("n", range(1, 5))
    def test_operands_differing_only_in_parameters_bracket_to_zero(self, n):
        ps = PhaseSpace(n, parameters=("r", "s"))
        rng = random.Random(3900 + n)
        for _ in range(10):
            h = random_polynomial(ps, rng, max_terms=4, variables_only=True)
            a = random_polynomial(ps, rng, max_terms=2, symbols=ps.parameters)
            b = random_polynomial(ps, rng, max_terms=2, symbols=ps.parameters)
            for f, g in ((h * a, h * b), (h + a, h + b), (a, b)):
                bracket = poisson_bracket(f, g, ps)
                assert bracket.is_zero and bracket.atoms == () and str(bracket) == "0"


class TestDeltaMatrix:
    def test_canonical_pair(self, ps3):
        delta = delta_matrix([E("x1", ps3), E("p1", ps3)], ps3)
        assert delta[0, 1] == E("1", ps3)
        assert delta[1, 0] == E("-1", ps3)
        assert delta[0, 0].is_zero and delta[1, 1].is_zero

    def test_sphere_pair(self, ps3):
        chi1 = E("x1^2 + x2^2 + x3^2", ps3)  # radius folded into a constant shift
        chi2 = E("p1*x1 + p2*x2 + p3*x3", ps3)
        delta = delta_matrix([chi1, chi2], ps3)
        assert delta[0, 1] == E("2*x1^2 + 2*x2^2 + 2*x3^2", ps3)
        assert is_skew_symmetric(delta)

    def test_commuting_pair_is_zero(self, ps3):
        delta = delta_matrix([E("x1", ps3), E("x2", ps3)], ps3)
        assert all(e.is_zero for row in full_rows(delta) for e in row)

    def test_odd_count_rejected(self, ps3):
        with pytest.raises(OddConstraintCountError):
            delta_matrix([E("x1", ps3)], ps3)


class TestMakeContext:
    def test_canonical_pair_context(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        assert ctx.m == 1
        assert is_skew_symmetric(ctx.delta)
        assert is_skew_symmetric(ctx.delta_inv)

    def test_inverse_is_exactly_skew(self):
        """`trace_identity` sums Delta^-1 above the diagonal only, so it
        must be exactly skew: on every shipped second-class system and
        tower k = 1..4."""
        texts = [path.read_text(encoding="utf-8") for path in sorted(SYSTEMS.glob("*.system"))
                 if path.name != "degenerate.system"]
        texts += [tower_text(k, sampler_seed=1) for k in (1, 2, 3, 4)]
        for text in texts:
            spec = parse_system(text)
            inv = make_context(spec.ps, spec.constraints).delta_inv
            assert is_skew_symmetric(inv)
            assert all(str(inv[a, b]) == str(-inv[b, a])
                       for a in range(len(inv)) for b in range(len(inv)))

    def test_not_second_class(self, ps3):
        with pytest.raises(NotSecondClassError):
            make_context(ps3, [E("x1", ps3), E("x2", ps3)])

    def test_too_many_constraints(self):
        ps = PhaseSpace(1)
        cs = [E("x1", ps), E("p1", ps), E("x1 + p1", ps), E("x1 - p1", ps)]
        with pytest.raises(TooManyConstraintsError):
            make_context(ps, cs)
        with pytest.raises(TooManyConstraintsError, match="4 constraints exceed 2n = 2"):
            classify_constraints(ps, cs, SamplerConfig())

    def test_sphere_context(self):
        ps = PhaseSpace(3, parameters=("r",))
        ctx = make_context(ps, [E("x1^2 + x2^2 + x3^2 - r^2", ps),
                                E("p1*x1 + p2*x2 + p3*x3", ps)])
        # delta * delta_inv = identity exactly
        prod = matmul(ctx.delta, ctx.delta_inv)
        one = RationalExpr.constant(ps, 1)
        assert (prod[0][0] - one).is_zero
        assert prod[0][1].is_zero
        assert (prod[1][1] - one).is_zero


class TestDiracBracket:
    def test_constraints_are_casimirs(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        rng = random.Random(31)
        for _ in range(30):
            f = random_polynomial(ps3, rng)
            for chi in ctx.constraints:
                assert dirac_bracket(f, chi, ctx).is_zero
                assert dirac_bracket(chi, f, ctx).is_zero

    def test_unconstrained_pair_untouched(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        assert dirac_bracket(E("x2", ps3), E("p2", ps3), ctx) == E("1", ps3)

    def test_sphere_trace(self):
        ps = PhaseSpace(3, parameters=("r",))
        ctx = make_context(ps, [E("x1^2 + x2^2 + x3^2 - r^2", ps),
                                E("p1*x1 + p2*x2 + p3*x3", ps)])
        total = RationalExpr.zero(ps)
        for i in range(1, 4):
            total = total + dirac_bracket(E(f"x{i}", ps), E(f"p{i}", ps), ctx)
        assert total == E("2", ps)

    def test_sphere_position_brackets_vanish(self):
        ps = PhaseSpace(3, parameters=("r",))
        ctx = make_context(ps, [E("x1^2 + x2^2 + x3^2 - r^2", ps),
                                E("p1*x1 + p2*x2 + p3*x3", ps)])
        assert dirac_bracket(E("x1", ps), E("x2", ps), ctx).is_zero

    def test_matches_poisson_when_corrections_vanish(self, ps3):
        # every bracket with the constraints is zero, so the Dirac
        # bracket must coincide with the Poisson bracket
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        rng = random.Random(8)
        ps_reduced_vars = ("x2", "x3", "p2", "p3")
        for _ in range(20):
            f = E("+".join(f"{rng.randint(1, 3)}*{rng.choice(ps_reduced_vars)}"
                           for _ in range(2)), ps3)
            g = E("*".join(rng.choice(ps_reduced_vars) for _ in range(2)), ps3)
            assert dirac_bracket(f, g, ctx) == poisson_bracket(f, g, ps3)


class TestBracketTable:
    def test_canonical_block_table(self, ps3):
        items = [E(s, ps3) for s in ps3.coordinates + ps3.momenta]
        table = bracket_table(items, ps3)
        n = 3
        for a in range(2 * n):
            for b in range(2 * n):
                if b == a + n:
                    assert table[a, b] == E("1", ps3)
                elif a == b + n:
                    assert table[a, b] == E("-1", ps3)
                else:
                    assert table[a, b].is_zero

    def test_single_item(self, ps3):
        table = bracket_table([E("x1^2", ps3)], ps3)
        assert len(table) == len(full_rows(table)[0]) == 1
        assert table[0, 0].is_zero

    @pytest.mark.parametrize("seed", range(4))
    def test_the_space_picks_the_bracket(self, sphere_ctx, seed):
        ps = sphere_ctx.ps
        rng = random.Random(seed)
        items = [random_polynomial(ps, rng, max_degree=2, max_terms=2) for _ in range(3)]
        poisson = bracket_table(items, ps)
        dirac = bracket_table(items, sphere_ctx)
        for a in range(3):
            for b in range(3):
                assert poisson[a, b] == poisson_bracket(items[a], items[b], ps)
                assert dirac[a, b] == dirac_bracket(items[a], items[b], sphere_ctx)

    def test_dirac_mode(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        table = bracket_table([E("x2", ps3), E("p2", ps3)], ctx)
        assert table[0, 1] == E("1", ps3)
        assert table[1, 0] == E("-1", ps3)

    def test_dirac_entries_print_as_dirac_bracket(self, sphere_ctx):
        # Above the diagonal an entry is {items[a], items[b]}_D with the
        # constraint rows shared between pairs; below it is the negation.
        ps = sphere_ctx.ps
        rng = random.Random(606)
        for _ in range(6):
            items = [random_polynomial(ps, rng, max_degree=2, max_terms=2,
                                       variables_only=True) for _ in range(3)]
            items.append(random_rational_expr(ps, rng, max_degree=1, max_terms=2))
            table = bracket_table(items, sphere_ctx)
            for a in range(len(items)):
                for b in range(a + 1, len(items)):
                    expected = str(dirac_bracket(items[a], items[b], sphere_ctx))
                    assert str(table[a, b]) == expected
                    assert str(-table[b, a]) == expected


    def test_dirac_table_makes_no_product_with_an_exact_zero(self, monkeypatch):
        # The Dirac correction skips a pair before multiplying when
        # {f, chi_a}, (Delta^-1)_ab or {g, chi_b} is an exact zero.
        spec = parse_system(tower_text(2, sampler_seed=1))
        ctx = make_context(spec.ps, spec.constraints)
        items = list(spec.primaries.exprs) + [spec.primaries.hamiltonian]
        zero_operands = []
        multiply = RationalExpr.__mul__

        def recording(self, other):
            if self.is_zero or other.is_zero:
                zero_operands.append((str(self), str(other)))
            return multiply(self, other)

        monkeypatch.setattr(RationalExpr, "__mul__", recording)
        table = bracket_table(items, ctx)
        monkeypatch.undo()
        assert zero_operands == []
        assert str(table[0, 1]) == str(dirac_bracket(items[0], items[1], ctx))

    def test_sparse_rows_equal_the_opaque_dirac_bracket(self, sphere_ctx):
        # Items of three kinds: first class (the L_a, whose rows {L_a, chi}
        # are all zero), second class (x1, p1, H) and rational.  A table
        # keeps only the nonzero row entries; every entry is still the
        # Dirac bracket of its pair.
        ps = sphere_ctx.ps
        items = [E(s, ps) for s in ("x2*p3 - x3*p2", "x3*p1 - x1*p3", "x1*p2 - x2*p1",
                                    "x1", "p1", "(p1^2 + p2^2 + p3^2)/2",
                                    "x1*p2/(1 + x3^2)")]
        chis = [Opaque.of(chi) for chi in sphere_ctx.constraints]
        inverse = opaque_inverse(chis)
        table = bracket_table(items, sphere_ctx)
        for a, f in enumerate(items):
            for b, g in enumerate(items):
                if a != b:
                    assert table[a, b] == opaque_dirac(Opaque.of(f), Opaque.of(g), chis,
                                                       inverse).expr()
                    assert str(table[a, b]) == str(dirac_bracket(f, g, sphere_ctx))


class TestBracketAxioms:
    def test_skew_symmetry_both_modes(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        rng = random.Random(202)
        for _ in range(200):
            f = random_polynomial(ps3, rng)
            g = random_polynomial(ps3, rng)
            assert (poisson_bracket(f, g, ps3) + poisson_bracket(g, f, ps3)).is_zero
            assert (dirac_bracket(f, g, ctx) + dirac_bracket(g, f, ctx)).is_zero

    def test_leibniz_both_modes(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        rng = random.Random(303)
        for _ in range(100):
            f = random_polynomial(ps3, rng, max_degree=2, max_terms=3)
            g = random_polynomial(ps3, rng, max_degree=2, max_terms=3)
            h = random_polynomial(ps3, rng, max_degree=2, max_terms=3)
            lhs = poisson_bracket(f, g * h, ps3)
            rhs = poisson_bracket(f, g, ps3) * h + g * poisson_bracket(f, h, ps3)
            assert (lhs - rhs).is_zero
            lhs_d = dirac_bracket(f, g * h, ctx)
            rhs_d = dirac_bracket(f, g, ctx) * h + g * dirac_bracket(f, h, ctx)
            assert (lhs_d - rhs_d).is_zero

    def test_poisson_jacobi(self, ps3):
        rng = random.Random(404)
        for _ in range(100):
            f = random_polynomial(ps3, rng, max_degree=2, max_terms=3)
            g = random_polynomial(ps3, rng, max_degree=2, max_terms=3)
            h = random_polynomial(ps3, rng, max_degree=2, max_terms=3)
            cyc = poisson_bracket(f, poisson_bracket(g, h, ps3), ps3) \
                + poisson_bracket(g, poisson_bracket(h, f, ps3), ps3) \
                + poisson_bracket(h, poisson_bracket(f, g, ps3), ps3)
            assert cyc.is_zero

    def test_dirac_jacobi_on_shell(self, sphere_ctx):
        from dirackit import SamplerConfig, sample_on_shell
        cfg = SamplerConfig(seed=17, point_count=4, parameter_bindings={"r": 1.0})
        points = sample_on_shell(sphere_ctx, cfg)
        ps = sphere_ctx.ps
        rng = random.Random(505)
        for _ in range(5):
            f = random_polynomial(ps, rng, max_degree=2, max_terms=2,
                                  variables_only=True)
            g = random_polynomial(ps, rng, max_degree=2, max_terms=2,
                                  variables_only=True)
            h = random_polynomial(ps, rng, max_degree=2, max_terms=2,
                                  variables_only=True)
            cyc = dirac_bracket(f, dirac_bracket(g, h, sphere_ctx), sphere_ctx) \
                + dirac_bracket(g, dirac_bracket(h, f, sphere_ctx), sphere_ctx) \
                + dirac_bracket(h, dirac_bracket(f, g, sphere_ctx), sphere_ctx)
            for point in points:
                assert abs(cyc.evaluate(point)) <= 1e-8
