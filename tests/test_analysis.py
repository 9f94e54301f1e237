"""Classification, on-shell sampling, trace identity, reduction check."""

import contextlib
import ctypes
import io
import math
import random
from collections import Counter
from fractions import Fraction
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

from conftest import (fd_poisson, identity, is_skew_symmetric, linear_mix_constraints, matmul,
                      mix_text, random_point, random_polynomial, random_rational_expr,
                      replace_everywhere, tower_text, trace_by_partials)
from test_affine import affine_sets
from test_golden import family_files

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
SPHERE = (SYSTEMS / "sphere.system").read_text(encoding="utf-8")


def E(text, ps):
    return parse_expression(text, ps)


# A 4 x 4 Delta with rational entries; its atom 1 + x2^2 reduces to 1 by chi3.
RATIONAL_4X4 = """[system]
n = 2
[constraints]
chi1 = x1/(1 + x2^2)
chi2 = p1
chi3 = x2
chi4 = p2
"""


# Delta = [[0, x2], [-x2, 0]]: the atom x2 of Delta^-1 stays x2 on the shell x1*x2 = 1.
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


def test_constants_are_planned_without_an_evaluation_plan():
    """A constant's planned float is num / den, bit for bit what
    `Polynomial.evaluate(())` gives; one too large for a float is inf,
    where evaluate raises OverflowError; and no evaluation plan is built."""
    ps = PhaseSpace(2)
    rng = random.Random(23)
    values = [Fraction(rng.randint(-10 ** rng.randint(1, 320), 10 ** 320),
                       rng.randint(1, 10 ** rng.randint(1, 320))) for _ in range(200)]
    values += [Fraction(1, 3), Fraction(10) ** 400, -Fraction(10) ** 400 / 7]
    entries = [RationalExpr.constant(ps, v) for v in values]
    plan = analysis._Plan(len(entries), enumerate(entries))
    assert plan.varying == []
    assert all(e.num._plan is None for e in entries)
    for base, e in zip(plan.base, entries):
        try:
            value = e.num.evaluate(())
        except OverflowError:
            assert base == math.inf
            continue
        assert base.hex() == value.hex()
    assert plan.base[-2:] == [math.inf, math.inf]


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

    def test_delta_is_evaluated_once_per_point(self, delta_evaluations, monkeypatch):
        """A numeric rank decision reuses the values of Delta the sampler
        computed to accept each point.  Both exact readings refused, the
        sphere at r = 0 is read by the QRs (as full rank, their limit)."""
        spec = parse_system(SPHERE.replace("bind r = 1.0", "bind r = 0.0"))
        assert spec.sampler.point_count == 16
        _numeric(monkeypatch)
        c = classify_constraints(spec.ps, spec.constraints, spec.sampler)
        assert c.on_shell_rank == 2
        assert delta_evaluations[0] == spec.sampler.point_count

    def test_constant_delta_is_never_evaluated(self, delta_evaluations):
        """An affine set is ranked from its coefficient rows with no point;
        with the certificate alone it drew one point and evaluated Delta once."""
        ps = PhaseSpace(4)
        cfg = SamplerConfig(seed=5, point_count=16)
        c = classify_constraints(ps, linear_mix_constraints(ps, 3, random.Random(2)), cfg)
        assert c.on_shell_rank == 6
        assert delta_evaluations[0] == 0

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


def _inverse(text: str):
    """The rows of Delta^-1 of a `.system` text, or None when Delta is singular."""
    spec = parse_system(text)
    try:
        return make_context(spec.ps, spec.constraints).delta_inv
    except NotSecondClassError:
        return None


def _exact_rank(text: str) -> int | None:
    """`exact_rank` of a `.system` text: with the inverse of Delta when
    it has one, else without."""
    spec = parse_system(text)
    system = ConstraintSystem(spec.ps, spec.constraints, delta_matrix(spec.constraints, spec.ps))
    return analysis.exact_rank(system, _inverse(text), spec.sampler)


def _certified(text: str) -> bool:
    """True when the first clause of `exact_rank`, the certificate, gives
    Delta full rank: its constant reading of Delta on the shell refused.
    A singular Delta has no certificate."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_shell_matrix", lambda *args: None)
        return _exact_rank(text) == len(parse_system(text).constraints)


def _numeric(monkeypatch):
    """Refuse the exact reading of an affine set's shell and every exact
    rank, so that the rank is read by the QRs."""
    monkeypatch.setattr(analysis, "_affine_shell", lambda *args: False)
    monkeypatch.setattr(analysis, "exact_rank", lambda *args: None)


def _constant_on_shell(text: str):
    """The exact constant value of Delta on the shell of a `.system` text,
    or None, as `exact_rank` reads it."""
    spec = parse_system(text)
    delta = delta_matrix(spec.constraints, spec.ps)
    return analysis._shell_matrix(delta, analysis._on_shell(spec.ps, spec.constraints,
                                                            spec.sampler))


def _two_spheres(s: str) -> str:
    """A tower of two spheres, of radii r = 1 and s."""
    text = tower_text(2, sampler_seed=1).replace("parameters = r", "parameters = r, s")
    text = text.replace("bind r = 1.0", f"bind r = 1.0\nbind s = {s}")
    return text.replace("x6^2 - r^2", "x6^2 - s^2")


# Delta is constant and exactly invertible, with blocks 1 and 1e-9.
UNLIKE_SCALE = """[system]
n = 2
[constraints]
chi1 = x1
chi2 = p1
chi3 = x2/1000000000
chi4 = p2
"""


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
    """Delta Delta^-1 = I wherever no atom of their denominators
    vanishes, so an atom that is exactly nonzero on the shell certifies
    the rank.  Then the sampler draws one point and no QR is taken."""

    @pytest.mark.parametrize("name", sorted(AGREEMENT_TEXTS))
    def test_agrees_with_the_numeric_rank(self, monkeypatch, name):
        """Except at r = 0, where Delta is 0 on the whole shell and the
        QRs, relative to its largest value, read a tiny Delta as full rank."""
        text = AGREEMENT_TEXTS[name]
        exact = _classified(text)
        _numeric(monkeypatch)
        if name == "sphere_r0":
            assert exact == ("degenerate", 1, True, 0, 2)
            assert _classified(text) == ("second_class", 1, True, 2, 2)
        else:
            assert exact == _classified(text)

    def test_delta_is_a_constant_on_each_shell_but_the_hyperbola(self):
        """Each entry's numerator and atoms reduce to constants on the
        shell, with every atom nonzero; on x1*x2 = 1 the entry x2 does not."""
        for name, text in AGREEMENT_TEXTS.items():
            assert (_constant_on_shell(text) is None) == (name == "hyperbola"), name
        zero = _constant_on_shell(AGREEMENT_TEXTS["sphere_r0"])
        assert zero == [[0, 0], [0, 0]]
        assert _constant_on_shell(RATIONAL_4X4) == [
            [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]

    def test_shipped_spheres_towers_and_mixes_need_at_most_one_value(self):
        """Each is certified: the sampler draws one point and computes
        Delta there once, only to accept it."""
        certified = {name: _certified(text) for name, text in AGREEMENT_TEXTS.items()}
        assert certified["sphere.system"]
        assert all(certified[name] for name in certified if name.startswith(("tower", "mix")))
        assert [p.name for p in SYSTEMS.glob("*.system") if not certified[p.name]] \
            == ["degenerate.system"]
        # Pf = 1, so Delta^-1 is polynomial; 1 + x2^2 reduces to 1 by chi3 = x2
        assert certified["two_in_a_row"] and certified["rational_4x4"]

    def test_zero_radius_is_not_certified(self, tmp_path):
        """The sphere's atom reduces to r^2, 0 at r = 0, so it is not
        certified.  Delta_12 = 2(x1^2 + x2^2 + x3^2) reduces to 2r^2 = 0:
        Delta is exactly 0 on the shell, rank 0, degenerate.  Dirac
        brackets have a pole on the whole shell, so closure in the Dirac
        space refuses the set too; the Poisson closure needs no Delta."""
        text = SPHERE.replace("bind r = 1.0", "bind r = 0.0")
        assert _certified(text) is False
        assert _classified(text) == ("degenerate", 1, True, 0, 2)
        path = tmp_path / "sphere_r0.system"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["analyze", str(path)]) == 3
            assert main(["verdict", str(path)]) == 3
            assert main(["closure", str(path), "--mode", "dirac"]) == 3
            assert main(["closure", str(path), "--mode", "poisson"]) == 0

    @pytest.mark.parametrize("text,rank", [(HYPERBOLA, 2)], ids=["non_constant_remainder"])
    def test_stays_numeric(self, delta_evaluations, text, rank):
        spec = parse_system(text)
        assert _exact_rank(text) is None
        c = classify_constraints(spec.ps, spec.constraints, spec.sampler)
        assert c.on_shell_rank == rank
        assert delta_evaluations[0] == spec.sampler.point_count == 16

    def test_every_reduced_entry_must_be_nonzero(self):
        assert _certified(_two_spheres("0.0")) is False
        assert _certified(_two_spheres("0.5")) is True

    def test_zero_radius_beside_a_unit_sphere_is_degenerate(self, tmp_path):
        """Radii 1 and 0: the second block's atom reduces to s^2 = 0, so
        it is not certified, and Delta vanishes there on the shell.  Delta
        is the constant diag-block matrix of 2 and 0 there: rank 2."""
        text = _two_spheres("0.0")
        assert _classified(text) == ("degenerate", 2, True, 2, 4)
        path = tmp_path / "two_spheres_s0.system"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["analyze", str(path)]) == 3
            assert main(["closure", str(path)]) == 3

    def test_certified_blocks_of_unlike_scale(self, monkeypatch):
        """Radii 1 and 1e-5 give blocks 2 and 2e-10, exactly nonzero on the
        shell: certified, Delta has full rank.  The numeric rank is read
        relative to the largest value and calls the smaller block zero, a
        limit of the numeric path that the certificate does not share."""
        text = _two_spheres("1e-5")
        assert _certified(text) is True
        assert _classified(text) == ("second_class", 2, True, 4, 4)
        _numeric(monkeypatch)
        assert _classified(text) == ("degenerate", 2, True, 2, 4)

    def test_constant_delta_of_unlike_scale(self, monkeypatch, tmp_path):
        """A constant Delta with blocks 1 and 1e-9 has no atom, so it is
        certified with no work, and the affine set is ranked exactly.  The
        numeric rank calls the small block zero, the same limit as with
        spheres."""
        assert _certified(UNLIKE_SCALE) is True
        assert _classified(UNLIKE_SCALE) == ("second_class", 2, True, 4, 0)
        path = tmp_path / "unlike_scale.system"
        path.write_text(UNLIKE_SCALE, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["analyze", str(path)]) == 0
        _numeric(monkeypatch)
        assert _classified(UNLIKE_SCALE) == ("degenerate", 2, True, 2, 0)

    @pytest.mark.parametrize("bindings", [{}, {"r": float("nan")}, {"r": float("inf")}],
                             ids=["missing", "nan", "inf"])
    def test_unusable_binding_is_not_certified(self, sphere_ctx, monkeypatch, bindings):
        """The sampler reports a missing binding and fails every attempt
        with a non-finite one, as it did before the certificate."""
        cfg = SamplerConfig(seed=1, max_retries=3, parameter_bindings=bindings)
        assert analysis.exact_rank(sphere_ctx, sphere_ctx.delta_inv, cfg) is None
        with pytest.raises((ValidationError, NoOnShellPointError)) as error:
            classify_constraints(sphere_ctx.ps, sphere_ctx.constraints, cfg)
        assert error.type is (NoOnShellPointError if bindings else ValidationError)

    @pytest.mark.parametrize("constraints,certified", [
        ("chi1 = x1^2 + x2^2 + 1\nchi2 = x1*p1 + x2*p2", True),  # the atom reduces to -1
        ("chi1 = x2^2 + 1\nchi2 = x3\nchi3 = x1\nchi4 = p1", False),  # Delta is singular
    ], ids=["certified", "constant"])
    def test_one_point_still_needs_a_nonempty_shell(self, constraints, certified):
        text = f"[system]\nn = 3\n[constraints]\n{constraints}\n"
        assert _certified(text) is certified
        assert _classified(text) == (NoOnShellPointError, "no on-shell point after 50 retries")

    def test_each_atom_is_reduced_once(self, monkeypatch, tmp_path):
        """One reduction per distinct atom of Delta and Delta^-1, in a
        fixed order: one per sphere of a tower, none for a mix.  Refused
        at r = 0, the sphere's atom and the numerator of Delta_12 are
        reduced once each, in classification and in the CLI gate alike."""
        seen = []
        reduce = analysis.reduce_by
        monkeypatch.setattr(analysis, "reduce_by",
                            lambda poly, divisors: seen.append(str(poly)) or reduce(poly, divisors))
        for k in (1, 2, 3, 4):
            seen.clear()
            assert _certified(tower_text(k, sampler_seed=3))
            assert len(seen) == len(set(seen)) == k
            again = list(seen)
            seen.clear()
            assert _certified(tower_text(k, sampler_seed=3)) and seen == again
        seen.clear()
        assert _certified(mix_text(6, 4, random.Random(3))) and seen == []
        text = AGREEMENT_TEXTS["sphere_r0"]
        seen.clear()
        assert _exact_rank(text) == 0
        assert len(seen) == len(set(seen)) == 2
        refused = list(seen)
        path = tmp_path / "sphere_r0.system"
        path.write_text(text, encoding="utf-8")
        for command in (["classify"], ["trace"], ["bracket", "--f", "x1", "--g", "p1",
                                                  "--mode", "dirac"]):
            seen.clear()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main([command[0], str(path), *command[1:]]) == \
                    (0 if command == ["classify"] else 3)
            assert seen == refused


GATE_TEXTS = {name: text for name, text in {**AGREEMENT_TEXTS,
                                            "two_spheres_s0": _two_spheres("0.0")}.items()
              if _inverse(text) is not None}


@pytest.mark.parametrize("name", sorted(GATE_TEXTS))
def test_dirac_commands_refuse_exactly_when_the_exact_rank_is_short(tmp_path, name):
    """One gate, one answer: on every input whose Delta inverts, trace and
    bracket --mode dirac exit 3 exactly when `exact_rank` shows Delta of
    rank below 2m on the shell, and each such input exits 3 under analyze
    too.  Here that is the sphere at r = 0 and two spheres with s = 0."""
    text = GATE_TEXTS[name]
    rank = _exact_rank(text)
    short = rank is not None and rank < len(parse_system(text).constraints)
    assert short == (name in ("sphere_r0", "two_spheres_s0"))
    path = tmp_path / "case.system"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for command in (["trace"], ["bracket", "--f", "x1", "--g", "p1", "--mode", "dirac"]):
            assert (main([command[0], str(path), *command[1:]]) == 3) == short
        if short:
            assert main(["analyze", str(path)]) == 3


# Affine sets whose shell is empty: x1 = 0 and x1 = 1, or x1 = r at r = 1.
INCONSISTENT = (["x1", "x1 - 1"], ["x1", "x1 - r"])


def _affine_cases():
    """(phase space, constraints, config) for every set of
    `test_affine.affine_sets` and the inconsistent ones, at r = 0 and 1;
    few retries, since an empty shell exhausts them."""
    ps = PhaseSpace(2, parameters=("r",))
    sets = affine_sets() + [(ps, [E(t, ps) for t in texts]) for texts in INCONSISTENT]
    return [(ps, chis, SamplerConfig(max_retries=5,
                                     parameter_bindings={"r": r} if ps.parameters else {}))
            for ps, chis in sets for r in ((0.0, 1.0) if ps.parameters else (0.0,))]


def _outcome(ps, chis, cfg):
    """(verdict, rank) of a classification, or the type of the error it raises."""
    try:
        c = classify_constraints(ps, chis, cfg)
    except DiracKitError as error:
        return type(error)
    return c.verdict, c.on_shell_rank


@pytest.fixture
def sampler_calls(monkeypatch):
    """Calls of the sampler and of each piece of its numeric rank."""
    calls = Counter()
    for name in ("sample_on_shell", "constraint_gradients", "_Plan", "PivotedQR"):
        original = getattr(analysis, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        replace_everywhere(monkeypatch, original, counted)
    return calls


class TestAffineSets:
    """An affine set chi = A z + b is classified from its coefficient rows:
    exactly, with no point drawn."""

    def test_no_point_is_drawn(self, sampler_calls):
        outcomes = Counter(_outcome(*case) for case in _affine_cases())
        assert sampler_calls == {}
        assert outcomes[NoOnShellPointError] >= 10
        assert sum(n for key, n in outcomes.items() if key != NoOnShellPointError
                   and key[0] == "degenerate") >= 10

    def test_agrees_with_the_numeric_path(self, monkeypatch):
        """Verdict, rank and error type; the one pinned disagreement is
        `TestOnePointCertificate.test_constant_delta_of_unlike_scale`."""
        cases = _affine_cases()
        exact = [_outcome(*case) for case in cases]
        _numeric(monkeypatch)
        assert [_outcome(*case) for case in cases] == exact

    @pytest.mark.parametrize("texts,bindings,expected", [
        (["x1 - r", "p1"], {}, ValidationError),
        (["x1", "p1"], {}, ValidationError),  # declared, though no constraint mentions it
        (["x1 - r", "p1"], {"r": float("nan")}, NoOnShellPointError),
        (["x1 - r", "x1"], {"r": float("inf")}, NoOnShellPointError),
        (["x1", "p1"], {"r": float("nan")}, ("second_class", 2)),
    ], ids=["missing", "missing_unmentioned", "nan", "inf", "nan_unmentioned"])
    def test_unusable_binding(self, sampler_calls, texts, bindings, expected):
        """The errors the sampler raised, now raised before any point."""
        ps = PhaseSpace(2, parameters=("r",))
        cfg = SamplerConfig(max_retries=3, parameter_bindings=bindings)
        assert _outcome(ps, [E(t, ps) for t in texts], cfg) == expected
        assert sampler_calls == {}


    def test_a_constant_needs_no_binding(self):
        """Delta of an affine set is constant, so `exact_rank` reads its
        rank with the binding of r missing or not finite."""
        ps = PhaseSpace(2, parameters=("r",))
        chis = [E(t, ps) for t in ("x1 - r", "p1", "x2", "x2 + r")]
        system = ConstraintSystem(ps, tuple(chis), delta_matrix(chis, ps))
        for bindings in ({}, {"r": float("nan")}, {"r": 1.0}):
            assert analysis.exact_rank(system, None, SamplerConfig(
                parameter_bindings=bindings)) == 2


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 10: Newton accepts points where p1/(1 + p1^2) only "
    "tends to 0, out at |p1| > 1e10, and Delta is about 1e-21 there"))
def test_rational_constraint_that_tends_to_zero_is_second_class():
    """The shell is the single point 0, where Delta has blocks 1 and 1/1000."""
    text = ("[system]\nn = 2\n[constraints]\nchi1 = x1\nchi2 = p1/(1 + p1^2)\n"
            "chi3 = x2/1000\nchi4 = p2\n")
    assert _classified(text) == ("second_class", 2, True, 4, 0)


def test_constraint_too_large_for_a_float_has_a_shell():
    """Delta is the constant [[0, 10^400], [-10^400, 0]] and the shell
    x1 = p1 = 0 is not empty.  The residual 10^400*x1 overflows a float at
    every seed, so the sampler meets no point; the affine set needs none."""
    text = "[system]\nn = 2\n[constraints]\nchi1 = 10^400*x1\nchi2 = p1\n"
    assert _classified(text) == ("second_class", 1, True, 2, 1)


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
    """The trace as a sum of Dirac brackets {x_i, p_i}_D, cancelled: a
    reference for trace_identity, which reads Delta and Delta^-1."""
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


def assert_trace_matches(ctx):
    """trace_identity's value equals, and prints as, the sum of Dirac
    brackets and the sum read from the partials."""
    value = trace_identity(ctx).value
    oracle = trace_by_partials(ctx)
    assert value == oracle and str(value) == str(oracle)
    assert str(value) == dirac_trace_text(ctx)


class TestTraceMatchesDiracBrackets:
    def test_sphere_and_towers(self, sphere_ctx):
        """The sphere and every second-class golden family text: towers
        k = 1..4, the golden mixes and the two closure systems."""
        contexts = [sphere_ctx]
        for name, text in family_files().items():
            if not name.startswith("dependent_"):
                spec = parse_system(text)
                contexts.append(make_context(spec.ps, spec.constraints))
        assert len(contexts) == 11
        for ctx in contexts:
            assert_trace_matches(ctx)

    def test_seeded_mixes(self):
        rng = random.Random(8)
        for m, n in ((1, 1), (2, 3), (3, 3), (4, 6), (6, 6)):
            ps = PhaseSpace(n)
            assert_trace_matches(make_context(ps, linear_mix_constraints(ps, m, rng)))

    @pytest.mark.parametrize("texts,printed", [
        (["x1/(1+x2^2)", "p1"], "2"),
        (["x1^2+x2^2-1", "(x1*p1+x2*p2)/(1+x3^2)"], "2"),
        (["x1/(1+x2^2)", "p1*(1+x2^2)", "x3", "p3 + x1*x2/(2+x3^2)"], "1"),
    ])
    def test_non_polynomial_constraints(self, ps3, texts, printed):
        ctx = make_context(ps3, [E(t, ps3) for t in texts])
        assert is_skew_symmetric(ctx.delta_inv)
        assert_trace_matches(ctx)
        assert trace_identity(ctx).value_text == printed

    def test_seeded_rational_pairs(self):
        for ctx in _rational_pair_contexts(20):
            assert_trace_matches(ctx)


class TestTraceIdentityIsACheck:
    """The value reads Delta^-1 above the diagonal only, so a wrong
    Delta^-1 there must show as a trace that does not hold."""

    def contexts(self, sphere_ctx):
        spec = parse_system(tower_text(2, sampler_seed=1))
        ps = PhaseSpace(4)
        return [sphere_ctx, make_context(spec.ps, spec.constraints),
                make_context(ps, linear_mix_constraints(ps, 3, random.Random(5)))]

    def test_one_changed_entry(self, sphere_ctx):
        for ctx in self.contexts(sphere_ctx):
            k = len(ctx.delta)
            a, b = next((a, b) for a in range(k) for b in range(a + 1, k)
                        if not ctx.delta[a][b].is_zero)
            rows = [list(row) for row in ctx.delta_inv]
            rows[a][b] = rows[a][b] + RationalExpr.constant(ctx.ps, 1)
            changed = DiracContext(ctx.ps, ctx.constraints, ctx.delta, tuple(map(tuple, rows)))
            t = trace_identity(changed)
            assert t.holds is False
            assert t.expected == trace_identity(ctx).expected == ctx.ps.n - ctx.m

    def test_inverse_scaled_by_two(self, sphere_ctx):
        for ctx in self.contexts(sphere_ctx):
            two = RationalExpr.constant(ctx.ps, 2)
            scaled = DiracContext(ctx.ps, ctx.constraints, ctx.delta,
                                  tuple(tuple(two * e for e in row) for row in ctx.delta_inv))
            t = trace_identity(scaled)
            assert t.holds is False
            assert t.expected == ctx.ps.n - ctx.m
            assert t.value == RationalExpr.constant(ctx.ps, ctx.ps.n - 2 * ctx.m)


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
