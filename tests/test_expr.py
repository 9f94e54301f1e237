"""Exact arithmetic, differentiation, evaluation, identity testing."""

import random
from fractions import Fraction

import pytest

from dirackit import PhaseSpace, RationalExpr, parse_expression
from dirackit.errors import (
    DivisionByZeroError,
    PoleAtPointError,
    ZeroDenominatorOnShellError,
)
from dirackit.poly import Polynomial

from conftest import fd_partial, random_point, random_polynomial, random_rational_expr


@pytest.fixture
def ps():
    return PhaseSpace(2, parameters=("r",))


def E(text, ps):
    return parse_expression(text, ps)


class TestArithmetic:
    def test_cancellation_to_zero(self, ps):
        a = E("x1 + p1", ps)
        assert (a - a).is_zero

    def test_mul_inverse(self, ps):
        assert E("x1/p1", ps) * E("p1/x1", ps) == E("1", ps)

    def test_int_pow(self, ps):
        assert E("x1 + 1", ps).int_pow(2) == E("x1^2 + 2*x1 + 1", ps)

    def test_negative_pow_of_zero(self, ps):
        with pytest.raises(DivisionByZeroError):
            E("0", ps).int_pow(-1)

    def test_division_by_zero(self, ps):
        with pytest.raises(DivisionByZeroError):
            E("x1", ps) / E("x1 - x1", ps)

    def test_dispatch(self, ps):
        a, b = E("x1", ps), E("p1", ps)
        assert a + b == E("x1 + p1", ps)
        assert a - b == E("x1 - p1", ps)
        assert a * b == E("x1*p1", ps)
        assert -a == E("-x1", ps)

    def test_field_axioms_random(self):
        ps = PhaseSpace(2, parameters=("r",))
        rng = random.Random(4242)
        for _ in range(50):
            a = random_rational_expr(ps, rng)
            b = random_rational_expr(ps, rng)
            c = random_rational_expr(ps, rng)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a


class TestDifferentiate:
    def test_power_rule(self, ps):
        assert E("x1^2*p2", ps).diff_index(ps.index_of("x1")) == E("2*x1*p2", ps)

    def test_quotient_rule(self, ps):
        assert E("x1/p1", ps).diff_index(ps.index_of("p1")) == E("-x1/p1^2", ps)

    def test_parameter_is_constant(self, ps):
        assert E("r^2", ps).diff_index(ps.index_of("x2")).is_zero

    def test_linearity_and_leibniz_random(self):
        ps = PhaseSpace(2)
        rng = random.Random(77)
        for _ in range(50):
            f = random_rational_expr(ps, rng)
            g = random_rational_expr(ps, rng)
            var = ps.index_of(rng.choice(ps.symbols))
            assert (f + g).diff_index(var) == f.diff_index(var) + g.diff_index(var)
            assert (f * g).diff_index(var) == f.diff_index(var) * g + f * g.diff_index(var)

    def test_numeric_consistency_with_finite_differences(self):
        ps = PhaseSpace(2, parameters=("r",))
        rng = random.Random(512)
        checked = 0
        while checked < 40:
            e = random_rational_expr(ps, rng)
            point = random_point(ps, rng)
            var = rng.choice(ps.coordinates + ps.momenta)
            try:
                exact = e.diff_index(ps.index_of(var)).evaluate(point)
                approx = fd_partial(e, point, var)
            except PoleAtPointError:
                continue
            if abs(exact) > 1e4:  # near-pole second derivative blowup
                continue
            assert abs(exact - approx) <= 1e-4 * (1 + abs(exact))
            checked += 1


class TestEvaluate:
    def test_simple(self, ps):
        assert E("x1*p1", ps).evaluate(
            {"x1": 2, "x2": 0, "p1": 3, "p2": 0, "r": 0}) == 6

    def test_pole(self, ps):
        with pytest.raises(PoleAtPointError):
            E("1/x1", ps).evaluate({"x1": 0, "x2": 1, "p1": 1, "p2": 1, "r": 1})

    def test_removable_singularity_not_removed(self, ps):
        point = {"x1": 3, "x2": 0, "p1": 0, "p2": 0, "r": 0}
        assert E("(x1^2-1)/(x1-1)", ps).evaluate(point) == pytest.approx(4.0)


class TestIsZero:
    def test_expanded_square(self, ps):
        e = E("(x1+p1)^2 - x1^2 - 2*x1*p1 - p1^2", ps)
        assert e.is_zero

    def test_nonzero(self, ps):
        assert not E("x1 - p1", ps).is_zero

    def test_zero_over_nontrivial_denominator(self, ps):
        assert E("0/(x1-1)", ps).is_zero


class TestConstantDenominatorIsOne:
    """`is_polynomial` reads only `den.is_constant`: every constructor
    must leave a constant denominator as exactly 1."""

    @staticmethod
    def assert_one(e):
        one = Polynomial.constant(e.ps.nsyms, 1)
        assert (e.den._n, e.den._d, e.den._t) == (one._n, one._d, one._t)
        assert e.is_polynomial

    def test_init_scales_a_constant_denominator(self, ps):
        num = E("x1 + 2*p1", ps).num
        for value in (Fraction(-3, 7), 5, Fraction(1, 4), -1):
            e = RationalExpr(ps, num, Polynomial.constant(ps.nsyms, value))
            self.assert_one(e)
            assert e == E("x1 + 2*p1", ps).scale(1 / Fraction(value))
        self.assert_one(RationalExpr(ps, Polynomial.zero(ps.nsyms),
                                     Polynomial.constant(ps.nsyms, 9)))

    def test_over_with_no_factor(self, ps):
        atoms = E("1/(x1^2 + p1^2)", ps).atoms
        self.assert_one(RationalExpr._build(ps, E("x1 - 3", ps).num, ()))
        self.assert_one(RationalExpr._build(ps, Polynomial.zero(ps.nsyms), atoms))
        self.assert_one(E("x1/(x1^2 + p1^2)", ps).int_pow(0))

    def test_negative_power_of_a_constant(self, ps):
        for text in ("-2/3", "5", "(x1 - x1 + 7/2)"):
            for k in (1, 2, 3):
                self.assert_one(E(text, ps).int_pow(-k))

    def test_division_by_a_constant(self, ps):
        self.assert_one(E("x1*p1", ps) / E("-5/2", ps))
        self.assert_one(E("2/3", ps) / E("-6", ps))
        self.assert_one(E("x1 - x1", ps) / E("x1 + 1", ps))

    def test_parse(self, ps):
        for text in ("x1/(-4)", "(x1 + p1)/(2/3)", "r/(r - r + 6)", "1/(3*(1/2))"):
            self.assert_one(E(text, ps))
        assert not E("x1/(x1 + 1)", ps).is_polynomial


class TestReduceModConstraints:
    def test_zero_denominator_on_shell(self):
        ps = PhaseSpace(3, parameters=("r",))
        chi = E("x1^2 + x2^2 + x3^2 - r^2", ps).as_polynomial()
        e = E("p1/(x1^2 + x2^2 + x3^2 - r^2)", ps)
        with pytest.raises(ZeroDenominatorOnShellError):
            e.reduce_mod([chi])

    def test_zero_denominator_of_a_polynomial(self, ps):
        """A constant rule reduces the denominator 1 to 0, also under the
        zero polynomial, whose numerator it leaves as it is."""
        one = E("2/3", ps).as_polynomial()
        for text in ("0", "x1*p1 + r", "5"):
            with pytest.raises(ZeroDenominatorOnShellError):
                E(text, ps).reduce_mod([one])

    def test_unreduced_polynomial_is_self(self, ps):
        chi = E("x1^2 - r", ps).as_polynomial()
        e = E("x1*p1 + p2^2 - r", ps)
        assert e.reduce_mod([chi]) is e
        reduced = E("x1^3 + p1", ps).reduce_mod([chi])
        assert str(reduced) == "x1*r + p1"

    def test_atom_powers_are_rebuilt(self, ps):
        """A denominator with an atom power above 1 becomes one atom, as the
        constructor makes it, even when no rule reduces anything."""
        e = E("p1", ps) * E("1/x1", ps).int_pow(2) * E("1/(x2 + r)", ps)
        assert sorted(exponent for _, exponent in e.atoms) == [1, 2]
        reduced = e.reduce_mod([E("p2^2 - r", ps).as_polynomial()])
        assert reduced is not e
        assert [(str(RationalExpr.from_polynomial(ps, atom.poly)), exponent)
                for atom, exponent in reduced.atoms] == [("x1^2*x2 + x1^2*r", 1)]
        assert str(reduced) == str(e) == "(p1)/(x1^2*x2 + x1^2*r)"
        assert reduced == e

    def test_rational_reduction(self):
        ps = PhaseSpace(3, parameters=("r",))
        chi = E("x1^2 + x2^2 + x3^2 - r^2", ps).as_polynomial()
        e = E("x1^2/(x1^2 + x2^2 + x3^2)", ps)
        reduced = e.reduce_mod([chi])
        assert reduced == E("(r^2 - x2^2 - x3^2)/(r^2)", ps)

    def test_weak_equality_random(self):
        ps = PhaseSpace(3, parameters=("r",))
        chi = E("x1^2 + x2^2 + x3^2 - r^2", ps).as_polynomial()
        rng = random.Random(2024)
        for _ in range(20):
            e = random_polynomial(ps, rng)
            reduced = e.reduce_mod([chi])
            # on-shell point: unit sphere with r = 1
            u = [rng.gauss(0, 1) for _ in range(3)]
            norm = sum(v * v for v in u) ** 0.5
            point = {"x1": u[0] / norm, "x2": u[1] / norm, "x3": u[2] / norm,
                     "p1": rng.uniform(-1, 1), "p2": rng.uniform(-1, 1),
                     "p3": rng.uniform(-1, 1), "r": 1.0}
            assert abs(reduced.evaluate(point) - e.evaluate(point)) <= 1e-8
