"""Classification, on-shell sampling, trace identity, reduction check."""

import contextlib
import ctypes
import io
import random
from pathlib import Path

import pytest

from dirackit import (
    ConstraintSystem,
    DiracContext,
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
from dirackit.cli import main
from dirackit.errors import (
    DiracKitError,
    InvalidCountsError,
    NoOnShellPointError,
    NotSecondClassError,
    PreconditionViolatedError,
    ValidationError,
)

from dirackit import analysis
from dirackit.sysfile import parse_system

from conftest import (fd_poisson, identity, linear_mix_constraints, matmul, mix_text,
                      random_point, random_polynomial, random_rational_expr, tower_text)
from test_golden import family_files

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
SPHERE = (SYSTEMS / "sphere.system").read_text(encoding="utf-8")


def E(text, ps):
    return parse_expression(text, ps)


# A 4 x 4 Delta with rational entries: its rank is decided numerically.
RATIONAL_4X4 = """[system]
n = 2
[constraints]
chi1 = x1/(1 + x2^2)
chi2 = p1
chi3 = x2
chi4 = p2
"""


# Delta = [[0, x2], [-x2, 0]]: its entry stays x2 on the shell x1*x2 = 1.
HYPERBOLA = """[system]
n = 2
[constraints]
chi1 = x1*x2 - 1
chi2 = p1
"""
# The row of chi2 has two nonzero entries, 1 and -(1 + 2*x1); Pf = 1.
TWO_IN_A_ROW = """[system]
n = 2
[constraints]
chi1 = x1
chi2 = p1 + p2
chi3 = x2 + x1^2
chi4 = p2
"""


@pytest.fixture
def delta_evaluations(monkeypatch):
    """[number of values of Delta the sampler computes while the test runs]"""
    calls = [0]
    plan_delta = analysis._delta_plan

    class Counted:
        def __init__(self, delta):
            self.plan = plan_delta(delta)

        def __call__(self, values):
            calls[0] += 1
            return self.plan(values)

    monkeypatch.setattr(analysis, "_delta_plan", Counted)
    return calls


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
        assert matmul(c.context.delta, c.context.delta_inv) == identity(2, ps3)
        assert classify_constraints(ps3, [E("x1", ps3), E("x2", ps3)], cfg).context is None

    def test_sphere(self):
        ps = PhaseSpace(3, parameters=("r",))
        c = classify_constraints(
            ps,
            [E("x1^2 + x2^2 + x3^2 - r^2", ps), E("p1*x1 + p2*x2 + p3*x3", ps)],
            SamplerConfig(seed=2, point_count=8, parameter_bindings={"r": 1.0}))
        assert c.verdict == "second_class"
        assert c.dof_pairs == 2

    def test_delta_is_evaluated_once_per_point(self, delta_evaluations):
        """A numeric rank decision reuses the values of Delta the sampler
        computed to accept each point.  A rational constraint keeps it
        numeric."""
        spec = parse_system(RATIONAL_4X4)
        assert spec.sampler.point_count == 16
        c = classify_constraints(spec.ps, spec.constraints, spec.sampler)
        assert c.on_shell_rank == 4
        assert delta_evaluations[0] == spec.sampler.point_count

    def test_constant_delta_is_evaluated_once(self, delta_evaluations):
        ps = PhaseSpace(4)
        cfg = SamplerConfig(seed=5, point_count=16)
        c = classify_constraints(ps, linear_mix_constraints(ps, 3, random.Random(2)), cfg)
        assert c.on_shell_rank == 6
        assert delta_evaluations[0] == 1

    def test_certified_delta_is_evaluated_once(self, delta_evaluations):
        spec = parse_system(tower_text(2, sampler_seed=3))
        c = classify_constraints(spec.ps, spec.constraints, spec.sampler)
        assert c.on_shell_rank == 4
        assert delta_evaluations[0] == 1

    def test_delta_values_come_with_the_points(self, sphere_ctx):
        cfg = SamplerConfig(seed=6, point_count=3, parameter_bindings={"r": 1.0})
        at = []
        points = sample_on_shell(sphere_ctx, cfg, at)
        assert points == sample_on_shell(sphere_ctx, cfg)
        assert len(at) == len(points)
        for point, values in zip(points, at):
            assert values == [e.evaluate(point) for row in sphere_ctx.delta for e in row]


def _classified(text: str):
    """The classification of a `.system` text, or the error it raises."""
    spec = parse_system(text)
    try:
        c = classify_constraints(spec.ps, spec.constraints, spec.sampler)
    except DiracKitError as error:
        return type(error), str(error)
    return c.verdict, c.m, c.symbolic_det_nonzero, c.on_shell_rank, c.dof_pairs


def _values_needed(text: str):
    spec = parse_system(text)
    return analysis._values_needed(spec.ps, spec.constraints,
                                   delta_matrix(spec.constraints, spec.ps), spec.sampler)


def _two_spheres(s: str) -> str:
    """A tower of two spheres, of radii r = 1 and s."""
    text = tower_text(2, sampler_seed=1).replace("parameters = r", "parameters = r, s")
    text = text.replace("bind r = 1.0", f"bind r = 1.0\nbind s = {s}")
    return text.replace("x6^2 - r^2", "x6^2 - s^2")


def _agreement_texts() -> dict[str, str]:
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(SYSTEMS.glob("*.system"))}
    texts.update(family_files())
    texts.update((f"tower_k{k}_s3", tower_text(k, sampler_seed=3)) for k in (1, 2, 3, 4))
    for seed, (m, n) in enumerate(((1, 1), (1, 3), (2, 2), (3, 4), (4, 4), (5, 6), (7, 7))):
        texts[f"mix_m{m}_n{n}_s{seed}"] = mix_text(n, m, random.Random(seed))
    texts["sphere_r0"] = SPHERE.replace("bind r = 1.0", "bind r = 0.0")
    texts.update(rational_4x4=RATIONAL_4X4, hyperbola=HYPERBOLA, two_in_a_row=TWO_IN_A_ROW)
    return texts


AGREEMENT_TEXTS = _agreement_texts()


class TestOnePointCertificate:
    """A constant Delta is decided by one value, a certified one by none;
    either way the sampler draws one point."""

    @pytest.mark.parametrize("name", sorted(AGREEMENT_TEXTS))
    def test_agrees_with_the_numeric_rank(self, monkeypatch, name):
        text = AGREEMENT_TEXTS[name]
        certified = _classified(text)
        monkeypatch.setattr(analysis, "_values_needed", lambda *args: None)
        assert certified == _classified(text)

    def test_shipped_spheres_towers_and_mixes_need_at_most_one_value(self):
        needed = {name: _values_needed(text) for name, text in AGREEMENT_TEXTS.items()}
        assert needed["sphere.system"] == 0
        assert all(needed[name] == 0 for name in needed if name.startswith("tower"))
        assert all(needed[name] == 1 for name in needed if name.startswith("mix"))
        assert [needed[p.name] for p in SYSTEMS.glob("*.system")].count(1) == 4

    def test_zero_radius_is_not_certified(self, tmp_path):
        """The sphere's entry reduces to 2*r^2, 0 at r = 0: the numeric
        rank decides, as it did before the certificate."""
        text = SPHERE.replace("bind r = 1.0", "bind r = 0.0")
        assert _values_needed(text) is None
        assert _classified(text) == ("second_class", 1, True, 2, 2)
        path = tmp_path / "sphere_r0.system"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["analyze", str(path)]) == 0

    @pytest.mark.parametrize("text,rank", [(HYPERBOLA, 2), (TWO_IN_A_ROW, 4)],
                             ids=["non_constant_remainder", "two_entries_in_a_row"])
    def test_stays_numeric(self, delta_evaluations, text, rank):
        spec = parse_system(text)
        assert _values_needed(text) is None
        c = classify_constraints(spec.ps, spec.constraints, spec.sampler)
        assert c.on_shell_rank == rank
        assert delta_evaluations[0] == spec.sampler.point_count == 16

    def test_every_reduced_entry_must_be_nonzero(self):
        assert _values_needed(_two_spheres("0.0")) is None
        assert _values_needed(_two_spheres("0.5")) == 0

    def test_zero_radius_beside_a_unit_sphere_is_degenerate(self, tmp_path):
        """Radii 1 and 0: the second block's entry reduces to 2*s^2 = 0, so
        it is not certified, and Delta vanishes there on the shell.  The
        numeric rank, read relative to the first block, calls it zero."""
        text = _two_spheres("0.0")
        assert _classified(text) == ("degenerate", 2, True, 2, 4)
        path = tmp_path / "two_spheres_s0.system"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["analyze", str(path)]) == 3

    def test_certified_blocks_of_unlike_scale(self, monkeypatch):
        """Radii 1 and 1e-5 give blocks 2 and 2e-10, exactly nonzero on the
        shell: certified, Delta has full rank.  The numeric rank is read
        relative to the largest value and calls the smaller block zero, a
        limit of the numeric path that the certificate does not share."""
        text = _two_spheres("1e-5")
        assert _values_needed(text) == 0
        assert _classified(text) == ("second_class", 2, True, 4, 4)
        monkeypatch.setattr(analysis, "_values_needed", lambda *args: None)
        assert _classified(text) == ("degenerate", 2, True, 2, 4)

    @pytest.mark.parametrize("bindings", [{}, {"r": float("nan")}, {"r": float("inf")}],
                             ids=["missing", "nan", "inf"])
    def test_unusable_binding_is_not_certified(self, sphere_ctx, monkeypatch, bindings):
        """The sampler reports a missing binding and fails every attempt
        with a non-finite one, as it did before the certificate."""
        cfg = SamplerConfig(seed=1, max_retries=3, parameter_bindings=bindings)
        args = sphere_ctx.ps, sphere_ctx.constraints, sphere_ctx.delta, cfg
        assert analysis._values_needed(*args) is None
        with pytest.raises((ValidationError, NoOnShellPointError)) as error:
            classify_constraints(*args[:2], cfg)
        assert error.type is (NoOnShellPointError if bindings else ValidationError)

    @pytest.mark.parametrize("constraints,needed", [
        ("chi1 = x1^2 + x2^2 + 1\nchi2 = x1*p1 + x2*p2", 0),  # the entry reduces to -2
        ("chi1 = x2^2 + 1\nchi2 = x3\nchi3 = x1\nchi4 = p1", 1),
    ], ids=["certified", "constant"])
    def test_one_point_still_needs_a_nonempty_shell(self, constraints, needed):
        text = f"[system]\nn = 3\n[constraints]\n{constraints}\n"
        assert _values_needed(text) == needed
        assert _classified(text) == (NoOnShellPointError, "no on-shell point after 50 retries")


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
        (["x1^2+x2^2-1", "(x1*p1+x2*p2)/(1+x3^2)"], "2"),
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
        kept = ("x2", "x3", "p2", "p3")
        point = random_point(ps3, random.Random(71))
        for _ in range(100):
            f = random_polynomial(ps3, rng, symbols=kept)
            g = random_polynomial(ps3, rng, symbols=kept)
            assert reduction_check(ctx, {1}, f, g)
            # An oracle that does not go through poisson_bracket.
            assert abs(dirac_bracket(f, g, ctx).evaluate(point)
                       - fd_poisson(f, g, ps3, point)) <= 1e-6


class TestDofCount:
    def test_values(self):
        assert dof_count(3, 1) == 2
        assert dof_count(4, 4) == 0
        assert dof_count(5, 0) == 5

    def test_invalid(self):
        with pytest.raises(InvalidCountsError):
            dof_count(2, 3)
