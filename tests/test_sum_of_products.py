"""The fused sum-of-products kernel and the expression fold over it.

`poly.sum_of_products` must store exactly what folding `*` and `+`
stores, and `expr.add_products` must print what the hand-written
accumulation loops it replaced printed: on polynomials through the
kernel, on operands with denominators through its own fold.
"""

import random
from fractions import Fraction

import pytest

from dirackit import (
    PhaseSpace,
    RationalExpr,
    make_context,
    parse_expression,
    poisson_bracket,
)
from dirackit.errors import DegreeOverflowError
from dirackit.expr import add_products
from dirackit.poly import MAX_DEGREE, Polynomial, sum_of_products

from conftest import random_polynomial, random_rational_expr


def stored(p: Polynomial):
    return p._n, p._d, p._t, p._lead


def folded(nsyms, pairs) -> Polynomial:
    acc = Polynomial.zero(nsyms)
    for f, g in pairs:
        acc = acc + f * g
    return acc


def random_poly(rng, nsyms, max_terms=4, max_degree=3) -> Polynomial:
    """A polynomial with a Fraction content; at times a single term or zero."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = [0] * nsyms
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(nsyms)] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return Polynomial(nsyms, terms)


class TestKernel:
    @pytest.mark.parametrize("seed", range(30))
    def test_stored_form_equals_the_fold(self, seed):
        rng = random.Random(700 + seed)
        nsyms = 1 + seed % 7
        pairs = [(random_poly(rng, nsyms), random_poly(rng, nsyms))
                 for _ in range(rng.randint(1, 8))]
        assert stored(sum_of_products(nsyms, pairs)) == stored(folded(nsyms, pairs))

    def test_products_that_cancel_give_zero(self):
        rng = random.Random(5)
        f, g, h = (random_poly(rng, 3, max_terms=5) for _ in range(3))
        pairs = [(f, g), (h, f), (-g, f), (f.scale(Fraction(-1, 1)), h)]
        total = sum_of_products(3, pairs)
        assert total.is_zero
        assert stored(total) == stored(Polynomial.zero(3)) == stored(folded(3, pairs))

    def test_empty_list_and_zero_operands(self):
        x = Polynomial.variable(2, 0)
        assert stored(sum_of_products(2, [])) == stored(Polynomial.zero(2))
        zero = Polynomial.zero(2)
        assert stored(sum_of_products(2, [(zero, x), (x, zero)])) == stored(zero)
        assert stored(sum_of_products(2, [(zero, x), (x, x)])) == stored(x * x)

    def test_single_term_operands(self):
        x, p = Polynomial.variable(2, 0), Polynomial.variable(2, 2)
        half = Polynomial.constant(2, Fraction(1, 2))
        two_terms = x * x.scale(3) + p.scale(Fraction(-5, 4))
        pairs = [(x, p), (half, two_terms), (two_terms, x.scale(Fraction(2, 3))),
                 (half, half), (p.scale(-7), x)]
        for k in range(len(pairs) + 1):
            assert stored(sum_of_products(2, pairs[:k])) == stored(folded(2, pairs[:k]))

    def test_product_past_the_degree_limit_raises(self):
        x2 = Polynomial.variable(3, 1)
        top = x2 ** MAX_DEGREE
        assert stored(sum_of_products(3, [(top, Polynomial.constant(3, 2))])) \
            == stored(top.scale(2))
        with pytest.raises(DegreeOverflowError):
            sum_of_products(3, [(x2, x2), (top, x2)])
        with pytest.raises(DegreeOverflowError):
            sum_of_products(3, [(Polynomial.variable(3, 2), top)])


# -- the accumulation loops add_products replaced, kept here as oracles ------

def poisson_loop(f, g, ps):
    """The bracket as poisson_bracket summed it: acc + a*b and acc - a*b
    in pair order, only where both partials can be nonzero."""
    def support(e):
        return e.num.symbols_used() | e.den.symbols_used()
    f_has, g_has = support(f), support(g)
    acc = RationalExpr.zero(ps)
    for i in range(1, ps.n + 1):
        xi, pi = ps.coordinate_index(i), ps.momentum_index(i)
        if xi in f_has and pi in g_has:
            acc = acc + f.diff_index(xi) * g.diff_index(pi)
        if pi in f_has and xi in g_has:
            acc = acc - f.diff_index(pi) * g.diff_index(xi)
    return acc


def trace_pair_loop(one, u, inverse, w):
    """One Pi_D[x_i, p_i] as trace_identity summed it."""
    pair = one
    for ua, row in zip(u, inverse):
        if ua.is_zero:
            continue
        terms = [entry * wb for entry, wb in zip(row, w)
                 if not (wb.is_zero or entry.is_zero)]
        if terms:
            pair = pair - ua * sum(terms[1:], terms[0])
    return pair


def trace_pair_fold(one, u, inverse, w):
    zero = RationalExpr.zero(one.ps)
    return add_products(one, [(-ua, add_products(zero, zip(row, w)))
                              for ua, row in zip(u, inverse) if not ua.is_zero])


def printed(e: RationalExpr):
    return str(e), stored(e.num), stored(e.den), e.atoms


def operand(ps, rng, kind):
    if kind == "rational":
        return random_rational_expr(ps, rng)
    e = random_polynomial(ps, rng, max_degree=2, max_terms=3)
    return RationalExpr.zero(ps) if kind == "zero" else e


KINDS = ("rational", "polynomial", "zero")


class TestFold:
    @pytest.mark.parametrize("seed", range(25))
    def test_poisson_bracket_prints_as_the_loop(self, seed):
        ps = PhaseSpace(3)
        rng = random.Random(seed)
        f, g = (operand(ps, rng, rng.choice(KINDS[:2])) for _ in range(2))
        assert printed(poisson_bracket(f, g, ps)) == printed(poisson_loop(f, g, ps))

    @pytest.mark.parametrize("seed", range(25))
    def test_opaque_sums_print_as_the_loop(self, seed):
        ps = PhaseSpace(2)
        rng = random.Random(100 + seed)
        k = rng.randint(1, 4)
        one = RationalExpr.constant(ps, 1)
        u = [operand(ps, rng, rng.choice(KINDS)) for _ in range(k)]
        w = [operand(ps, rng, rng.choice(KINDS)) for _ in range(k)]
        inverse = [[operand(ps, rng, rng.choice(KINDS)) for _ in range(k)] for _ in range(k)]
        assert printed(trace_pair_fold(one, u, inverse, w)) \
            == printed(trace_pair_loop(one, u, inverse, w))

    @pytest.mark.parametrize("seed", range(10))
    def test_factor_table_sums_print_as_the_loop(self, seed):
        """Delta^-1 of the sphere is over one atom; seeded rationals over
        a shared denominator are over theirs."""
        rng = random.Random(200 + seed)
        ps = PhaseSpace(3, parameters=("r",))
        ctx = make_context(ps, [parse_expression("x1^2 + x2^2 + x3^2 - r^2", ps),
                                parse_expression("p1*x1 + p2*x2 + p3*x3", ps)])
        shared = random_rational_expr(ps, rng)
        tables = [ctx.delta_inv,
                  [[random_rational_expr(ps, rng) * shared for _ in range(2)]
                   for _ in range(2)]]
        one = RationalExpr.constant(ps, 1)
        for inverse in tables:
            assert any(e.atoms for row in inverse for e in row)
            u = [operand(ps, rng, rng.choice(KINDS[1:])) for _ in range(2)]
            w = [operand(ps, rng, rng.choice(KINDS[1:])) for _ in range(2)]
            assert printed(trace_pair_fold(one, u, inverse, w)) \
                == printed(trace_pair_loop(one, u, inverse, w))

    def test_polynomial_sum_takes_the_kernel(self, monkeypatch):
        from dirackit import expr
        ps = PhaseSpace(2)
        calls = []
        kernel = expr.sum_of_products
        monkeypatch.setattr(expr, "sum_of_products",
                            lambda *args: calls.append(1) or kernel(*args))
        x, p = RationalExpr.symbol(ps, "x1"), RationalExpr.symbol(ps, "p1")
        assert str(add_products(x, [(x, p), (-p, x), (p, p)])) == "p1^2 + x1"
        assert calls == [1]
        assert str(add_products(x, [(x, p.int_pow(-1))])) == "(x1*p1 + x1)/(p1)"
        assert calls == [1]

    def test_operands_of_another_phase_space_raise(self):
        ps, other = PhaseSpace(2), PhaseSpace(3)
        x = RationalExpr.symbol(ps, "x1")
        with pytest.raises(ValueError, match="different phase spaces"):
            add_products(RationalExpr.zero(ps), [(x, RationalExpr.symbol(other, "x1"))])
