"""Classification, on-shell sampling, trace identity, reduction check."""

import ctypes
import random

import pytest

from dirackit import (
    ConstraintSystem,
    DiracContext,
    ExprMatrix,
    PhaseSpace,
    RationalExpr,
    SamplerConfig,
    classify_constraints,
    delta_matrix,
    dirac_bracket,
    dof_count,
    make_context,
    parse_expression,
    reduction_check,
    sample_on_shell,
    trace_identity,
)
from dirackit.errors import (
    InvalidCountsError,
    NoOnShellPointError,
    NotSecondClassError,
    PreconditionViolatedError,
    ValidationError,
)

from dirackit import analysis
from dirackit.sysfile import parse_system

from conftest import (linear_mix_constraints, random_polynomial, random_rational_expr,
                      tower_text)


def E(text, ps):
    return parse_expression(text, ps)


@pytest.fixture
def ps3():
    return PhaseSpace(3)


class TestSampler:
    def test_sphere_points_on_shell(self, sphere_ctx):
        cfg = SamplerConfig(seed=42, point_count=16, parameter_bindings={"r": 1.0})
        points = sample_on_shell(sphere_ctx, cfg)
        assert len(points) == 16
        for z in points:
            for chi in sphere_ctx.constraints:
                assert abs(chi.evaluate(z)) <= cfg.tolerance

    def test_determinism(self, sphere_ctx):
        cfg = SamplerConfig(seed=42, point_count=8, parameter_bindings={"r": 1.0})
        a = sample_on_shell(sphere_ctx, cfg)
        b = sample_on_shell(sphere_ctx, cfg)
        assert a == b  # bit-identical

    def test_different_seed_different_points(self, sphere_ctx):
        a = sample_on_shell(sphere_ctx, SamplerConfig(
            seed=1, point_count=2, parameter_bindings={"r": 1.0}))
        b = sample_on_shell(sphere_ctx, SamplerConfig(
            seed=2, point_count=2, parameter_bindings={"r": 1.0}))
        assert a != b

    def test_empty_real_variety(self, ps3):
        ctx = make_context(ps3, [E("x1^2 + 1", ps3), E("p1", ps3)])
        cfg = SamplerConfig(seed=5, point_count=1, max_retries=5,
                            max_newton_iters=25)
        with pytest.raises(NoOnShellPointError):
            sample_on_shell(ctx, cfg)

    def test_canonical_pair_points_at_origin(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        for z in sample_on_shell(ctx, SamplerConfig(seed=9, point_count=4)):
            assert abs(z["x1"]) <= 1e-10
            assert abs(z["p1"]) <= 1e-10

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_binding_counts_as_failed_attempts(self, sphere_ctx, value):
        cfg = SamplerConfig(seed=1, point_count=1, max_retries=3,
                            parameter_bindings={"r": value})
        with pytest.raises(NoOnShellPointError):
            sample_on_shell(sphere_ctx, cfg)

    def test_non_finite_values_never_reach_lapack(self, sphere_ctx, capfd):
        cfg = SamplerConfig(seed=1, point_count=1, max_retries=3,
                            parameter_bindings={"r": float("nan")})
        with pytest.raises(NoOnShellPointError):
            sample_on_shell(sphere_ctx, cfg)
        # LAPACK complains about a non-finite input through C stdio, below
        # Python's sys.stdout/sys.stderr; flush it so that capfd sees it.
        libc = ctypes.CDLL(None)
        libc.fflush.argtypes = [ctypes.c_void_p]
        libc.fflush.restype = ctypes.c_int
        libc.fflush(None)
        captured = capfd.readouterr()
        assert "DLASCL" not in captured.out + captured.err

    def test_singular_delta_system(self, ps3):
        constraints = (E("x1", ps3), E("x2", ps3))
        system = ConstraintSystem(ps3, constraints, delta_matrix(constraints, ps3))
        for z in sample_on_shell(system, SamplerConfig(seed=3, point_count=2)):
            assert abs(z["x1"]) <= 1e-10 and abs(z["x2"]) <= 1e-10

    @pytest.mark.parametrize("texts", [("x1", "2*x1"),
                                       ("x1^2 + x2^2 - 1", "3*x1^2 + 3*x2^2 - 3")])
    def test_dependent_constraints(self, ps3, texts):
        # J has rank 1: the step solves the independent equation only.
        constraints = tuple(E(t, ps3) for t in texts)
        system = ConstraintSystem(ps3, constraints, delta_matrix(constraints, ps3))
        for z in sample_on_shell(system, SamplerConfig(seed=4, point_count=4)):
            for chi in constraints:
                assert abs(chi.evaluate(z)) <= 1e-10

    def test_overflow_counts_as_failed_attempt(self):
        ps = PhaseSpace(1)
        ctx = make_context(ps, [E("x1^200 - 1", ps), E("p1", ps)])
        for z in sample_on_shell(ctx, SamplerConfig(seed=1, point_count=8)):
            assert abs(abs(z["x1"]) - 1.0) <= 1e-12

    def test_missing_parameter_binding(self, sphere_ctx):
        with pytest.raises(ValidationError):
            sample_on_shell(sphere_ctx, SamplerConfig(seed=1, point_count=1))


class TestClassification:
    def test_canonical_pair(self, ps3):
        c = classify_constraints(ps3, [E("x1", ps3), E("p1", ps3)],
                                 SamplerConfig(seed=2, point_count=4))
        assert c.verdict == "second_class"
        assert c.m == 1
        assert c.symbolic_det_nonzero
        assert c.on_shell_rank == 2
        assert c.dof_pairs == 2

    def test_degenerate(self, ps3):
        c = classify_constraints(ps3, [E("x1", ps3), E("x2", ps3)],
                                 SamplerConfig(seed=2, point_count=4))
        assert c.verdict == "degenerate"
        assert not c.symbolic_det_nonzero
        assert c.on_shell_rank == 0

    def test_context_rides_along(self, ps3):
        cfg = SamplerConfig(seed=2, point_count=4)
        c = classify_constraints(ps3, [E("x1", ps3), E("p1", ps3)], cfg)
        assert isinstance(c.context, DiracContext)
        assert c.context.delta.matmul(c.context.delta_inv) == ExprMatrix.identity(2, ps3)
        assert classify_constraints(ps3, [E("x1", ps3), E("x2", ps3)], cfg).context is None

    def test_sphere(self):
        ps = PhaseSpace(3, parameters=("r",))
        c = classify_constraints(
            ps,
            [E("x1^2 + x2^2 + x3^2 - r^2", ps), E("p1*x1 + p2*x2 + p3*x3", ps)],
            SamplerConfig(seed=2, point_count=8, parameter_bindings={"r": 1.0}))
        assert c.verdict == "second_class"
        assert c.dof_pairs == 2

    def test_delta_is_evaluated_once_per_point(self, monkeypatch):
        """The rank check reuses the values of Delta the sampler computed
        to accept each point."""
        spec = parse_system(tower_text(2, sampler_seed=3))
        calls = [0]
        plan_delta = analysis._delta_plan

        class Counted:
            def __init__(self, delta):
                self.plan = plan_delta(delta)

            def __call__(self, values):
                calls[0] += 1
                return self.plan(values)

        monkeypatch.setattr(analysis, "_delta_plan", Counted)
        c = classify_constraints(spec.ps, spec.constraints, spec.sampler)
        assert c.on_shell_rank == 4
        assert calls[0] == spec.sampler.point_count

    def test_delta_values_come_with_the_points(self, sphere_ctx):
        cfg = SamplerConfig(seed=6, point_count=3, parameter_bindings={"r": 1.0})
        at = []
        points = sample_on_shell(sphere_ctx, cfg, at)
        assert points == sample_on_shell(sphere_ctx, cfg)
        assert len(at) == len(points)
        for point, values in zip(points, at):
            assert values == [e.evaluate(point) for e in sphere_ctx.delta.entries]


class TestTraceIdentity:
    def test_canonical_pair(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        t = trace_identity(ctx)
        assert t.expected == 2
        assert t.holds
        assert t.value == E("2", ps3)

    def test_sphere(self, sphere_ctx):
        t = trace_identity(sphere_ctx)
        assert t.expected == 2
        assert t.holds
        assert t.value_text == "2"

    def test_trivial_full_constraint_set(self):
        ps = PhaseSpace(2)
        ctx = make_context(ps, [E("x1", ps), E("p1", ps),
                                E("x2", ps), E("p2", ps)])
        t = trace_identity(ctx)
        assert t.expected == 0
        assert t.holds
        assert t.value.is_zero

    def test_generated_family(self):
        # pair-elimination and random invertible linear mixes across
        # n in 2..6, m in 1..n
        rng = random.Random(60)
        for n in range(2, 7):
            ps = PhaseSpace(n)
            for m in range(1, n + 1):
                pairs = []
                for k in range(1, m + 1):
                    pairs.append(E(ps.coordinates[k - 1], ps))
                    pairs.append(E(ps.momenta[k - 1], ps))
                t = trace_identity(make_context(ps, pairs))
                assert t.holds and t.expected == n - m
                mixed = linear_mix_constraints(ps, m, rng)
                t = trace_identity(make_context(ps, mixed))
                assert t.holds and t.expected == n - m


def dirac_trace_text(ctx) -> str:
    """The trace as a sum of Dirac brackets {x_i, p_i}_D, cancelled: the
    reference for trace_identity, which reads Pi_D's diagonal."""
    ps = ctx.ps
    total = RationalExpr.zero(ps)
    for x, p in zip(ps.coordinates, ps.momenta):
        total = total + dirac_bracket(E(x, ps), E(p, ps), ctx)
    return str(total.cancel())


def _rational_pair_contexts(count: int):
    """Seeded second-class pairs of random rational expressions."""
    rng = random.Random(31)
    ps = PhaseSpace(2)
    contexts = []
    while len(contexts) < count:
        pair = [random_rational_expr(ps, rng, max_degree=2, max_terms=2) for _ in range(2)]
        try:
            contexts.append(make_context(ps, pair))
        except NotSecondClassError:
            continue
    return contexts


class TestTraceMatchesDiracBrackets:
    def test_sphere_and_towers(self, sphere_ctx):
        contexts = [sphere_ctx]
        for k in (1, 2, 3):
            spec = parse_system(tower_text(k, sampler_seed=1))
            contexts.append(make_context(spec.ps, spec.constraints))
        for ctx in contexts:
            assert trace_identity(ctx).value_text == dirac_trace_text(ctx)

    def test_seeded_mixes(self):
        rng = random.Random(8)
        for m, n in ((1, 1), (2, 3), (3, 3), (4, 6), (6, 6)):
            ps = PhaseSpace(n)
            ctx = make_context(ps, linear_mix_constraints(ps, m, rng))
            assert trace_identity(ctx).value_text == dirac_trace_text(ctx)

    @pytest.mark.parametrize("texts,printed", [
        (["x1/(1+x2^2)", "p1"], "2"),
        (["x1^2+x2^2-1", "(x1*p1+x2*p2)/(1+x3^2)"],
         "(2*x1^2*x3^2 + 2*x2^2*x3^2 + 2*x1^2 + 2*x2^2)/(x1^2*x3^2 + x2^2*x3^2 + x1^2 + x2^2)"),
        (["x1/(1+x2^2)", "p1*(1+x2^2)", "x3", "p3 + x1*x2/(2+x3^2)"], "1"),
    ])
    def test_non_polynomial_constraints(self, ps3, texts, printed):
        ctx = make_context(ps3, [E(t, ps3) for t in texts])
        assert trace_identity(ctx).value_text == dirac_trace_text(ctx) == printed

    def test_seeded_rational_pairs(self):
        for ctx in _rational_pair_contexts(20):
            assert trace_identity(ctx).value_text == dirac_trace_text(ctx)


class TestReductionCheck:
    def test_paper_example(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        assert reduction_check(ctx, {1}, E("x2*p3", ps3), E("p2", ps3))

    def test_both_brackets_zero(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        assert reduction_check(ctx, {1}, E("x2^2", ps3), E("x3", ps3))

    def test_two_pairs_eliminated(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3),
                                 E("x2", ps3), E("p2", ps3)])
        assert reduction_check(ctx, {1, 2}, E("x3", ps3), E("p3", ps3))

    def test_mentioning_eliminated_variable_rejected(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        with pytest.raises(PreconditionViolatedError):
            reduction_check(ctx, {1}, E("x1*x2", ps3), E("p2", ps3))

    def test_wrong_constraint_set_rejected(self, ps3):
        ctx = make_context(ps3, [E("x2", ps3), E("p2", ps3)])
        with pytest.raises(PreconditionViolatedError):
            reduction_check(ctx, {1}, E("x3", ps3), E("p3", ps3))

    def test_random_functions(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        rng = random.Random(70)
        reduced = PhaseSpace(2, coordinates=("x2", "x3"), momenta=("p2", "p3"))
        done = 0
        while done < 100:
            f_red = random_polynomial(reduced, rng)
            g_red = random_polynomial(reduced, rng)
            f = E(str(f_red), ps3) if not f_red.is_zero else E("0", ps3)
            g = E(str(g_red), ps3) if not g_red.is_zero else E("0", ps3)
            assert reduction_check(ctx, {1}, f, g)
            done += 1


class TestDofCount:
    def test_values(self):
        assert dof_count(3, 1) == 2
        assert dof_count(4, 4) == 0
        assert dof_count(5, 0) == 5

    def test_invalid(self):
        with pytest.raises(InvalidCountsError):
            dof_count(2, 3)
