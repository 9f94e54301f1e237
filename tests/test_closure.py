"""Closure analysis, structure constants, central charges, verdicts."""

import collections
import functools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dirackit import (
    PhaseSpace,
    PrimarySet,
    SamplerConfig,
    RationalExpr,
    closure_analysis,
    decompose_linear,
    finite_dim_obstruction,
    lemma_verdict,
    load_system,
    make_context,
    parse_expression,
    poisson_bracket,
)
from dirackit import closure as closure_module
from dirackit.cli import main
from dirackit.closure import Decomposition
from dirackit.errors import (
    NonPolynomialInputError,
    NotSecondClassError,
    ReportNotClosedError,
    ZeroDenominatorOnShellError,
)
from dirackit.sysfile import parse_system

from conftest import fd_poisson, random_point, random_polynomial, replace_everywhere

SPHERE = Path(__file__).resolve().parent.parent / "systems" / "sphere.system"


def E(text, ps):
    return parse_expression(text, ps)


@pytest.fixture
def ps3():
    return PhaseSpace(3)


@pytest.fixture
def angular_momenta(ps3):
    return PrimarySet(
        names=("L1", "L2", "L3"),
        exprs=(E("x2*p3 - x3*p2", ps3),
               E("x3*p1 - x1*p3", ps3),
               E("x1*p2 - x2*p1", ps3)),
    )


class TestDecomposeLinear:
    def test_with_constant(self, ps3):
        basis = PrimarySet(names=("g1",), exprs=(E("x1*p2", ps3),))
        (dec,) = decompose_linear([E("2*x1*p2 + 3", ps3)], basis)
        assert dec.coefficients == (Fraction(2),)
        assert dec.constant == 3

    def test_not_closed(self, ps3):
        basis = PrimarySet(names=("g1",), exprs=(E("x1", ps3),))
        (dec,) = decompose_linear([E("x1^2", ps3)], basis)
        assert dec is None

    def test_basis_element_itself(self, ps3, angular_momenta):
        (dec,) = decompose_linear([angular_momenta.exprs[2]], angular_momenta)
        assert dec.coefficients == (0, 0, 1)
        assert dec.constant == 0

    def test_rational_coefficients(self, ps3):
        basis = PrimarySet(names=("g1", "g2"), exprs=(E("2*x1", ps3), E("3*p1", ps3)))
        (dec,) = decompose_linear([E("x1 + p1", ps3)], basis)
        assert dec.coefficients == (Fraction(1, 2), Fraction(1, 3))

    def test_non_polynomial_target(self, ps3):
        basis = PrimarySet(names=("g1",), exprs=(E("x1", ps3),))
        with pytest.raises(NonPolynomialInputError):
            decompose_linear([E("1/x1", ps3)], basis)

    def test_all_zero_polynomials(self, ps3):
        basis = PrimarySet(names=("g1",), exprs=(E("0", ps3),))
        zeros = [E("0", ps3), E("0", ps3)]
        assert decompose_linear(zeros, basis) == [
            Decomposition((Fraction(0),), Fraction(0))] * 2

    @pytest.mark.parametrize("seed", range(8))
    def test_joint_solve_equals_separate_solves(self, ps3, seed):
        rng = random.Random(seed)
        exprs = [random_polynomial(ps3, rng, max_degree=2) for _ in range(rng.randint(1, 4))]
        # a linearly dependent element makes a non-pivot column
        exprs.append(exprs[0].scale(Fraction(rng.randint(1, 5), 3)) + exprs[-1])
        basis = PrimarySet(names=tuple(f"g{i}" for i in range(len(exprs))),
                           exprs=tuple(exprs))
        inside = [sum((e.scale(rng.randint(-3, 3)) for e in exprs),
                      RationalExpr.constant(ps3, rng.randint(-2, 2))) for _ in range(3)]
        # every basis element has degree <= 2
        outside = [t + E("x1^3", ps3) for t in inside]
        targets = [t for pair in zip(inside, outside) for t in pair]
        joint = decompose_linear(targets, basis)
        assert joint == [decompose_linear([t], basis)[0] for t in targets]
        for target, dec in zip(targets, joint):
            if dec is None:
                continue
            rebuilt = RationalExpr.constant(ps3, dec.constant)
            for coeff, e in zip(dec.coefficients, exprs):
                rebuilt = rebuilt + e.scale(coeff)
            assert rebuilt == target
        assert [dec is None for dec in joint] == [False, True] * 3


class TestClosureAnalysis:
    def test_one_elimination_per_closure(self, monkeypatch):
        closure_module = sys.modules["dirackit.closure"]
        original = closure_module._solve_exact
        calls = []

        @functools.wraps(original)
        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        replace_everywhere(monkeypatch, original, counted)
        spec = load_system(str(SPHERE))
        # three pair brackets and three {L_a, H} brackets
        report = closure_analysis(spec.primaries, make_context(spec.ps, spec.constraints),
                                  on_shell_rules=spec.on_shell_rules)
        assert report.closed and report.h is not None
        assert len(calls) == 1

    def test_angular_momentum_poisson(self, ps3, angular_momenta):
        report = closure_analysis(angular_momenta, ps3)
        assert report.closed
        # {L_a, L_b} = eps_abc L_c, cross-checked numerically below
        eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
               (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert report.c[a][b][c] == eps.get((a, b, c), 0)
                assert report.z[a][b] == 0
        rng = random.Random(44)
        from dirackit import poisson_bracket
        for (a, b, c), sign in eps.items():
            point = random_point(ps3, rng)
            fd = fd_poisson(angular_momenta.exprs[a], angular_momenta.exprs[b],
                            ps3, point)
            assert fd == pytest.approx(
                sign * angular_momenta.exprs[c].evaluate(point), abs=1e-5, rel=1e-5)

    def test_canonical_variables_dirac(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        names = tuple(ps3.coordinates + ps3.momenta)
        primaries = PrimarySet(names=names,
                               exprs=tuple(E(s, ps3) for s in names))
        report = closure_analysis(primaries, ctx)
        assert report.closed
        assert all(v == 0 for plane in report.c for row in plane for v in row)
        for i in range(3):
            expected = 0 if i == 0 else 1
            assert report.z[i][i + 3] == expected
            assert report.z[i + 3][i] == -expected

    def test_single_element_trivially_closed(self, ps3):
        primaries = PrimarySet(names=("g1",), exprs=(E("x1^2", ps3),))
        report = closure_analysis(primaries, ps3)
        assert report.closed
        assert report.z[0][0] == 0

    def test_not_closed_records_residual(self, ps3):
        primaries = PrimarySet(names=("g1", "g2"),
                               exprs=(E("x1^2", ps3), E("p1^2", ps3)))
        report = closure_analysis(primaries, ps3)
        assert not report.closed
        assert (0, 1) in report.residuals
        # {x1^2, p1^2} = 4*x1*p1 is outside the span
        assert report.residuals[(0, 1)] == E("4*x1*p1", ps3)

    def test_undecomposed_brackets_have_no_coefficients(self, ps3):
        # {x1^2, p1^2} = {x1^2, H} = 4*x1*p1 is outside the span; {p1^2, H} = 0
        primaries = PrimarySet(names=("g1", "g2"), exprs=(E("x1^2", ps3), E("p1^2", ps3)),
                               hamiltonian=E("p1^2 + x2", ps3))
        report = closure_analysis(primaries, ps3)
        assert set(report.residuals) == {(0, 1), (1, 0), (0, "H")}
        assert report.c[0][1] is report.c[1][0] is None
        assert report.z[0][1] is report.z[1][0] is None
        assert report.h[0] is report.h_const[0] is None
        assert report.h[1] == (0, 0) and report.h_const[1] == 0
        assert report.c[0][0] == (0, 0) and report.z[0][0] == 0

    def test_mode_follows_the_space(self, ps3, angular_momenta):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        assert closure_analysis(angular_momenta, ps3).mode == "poisson"
        assert closure_analysis(angular_momenta, ctx).mode == "dirac"

    def test_reconstruction_identity(self, ps3, angular_momenta):
        from dirackit import bracket_table
        report = closure_analysis(angular_momenta, ps3)
        table = bracket_table(list(angular_momenta.exprs), ps3)
        for a in range(3):
            for b in range(3):
                recon = E("0", ps3)
                for c in range(3):
                    recon = recon + angular_momenta.exprs[c].scale(report.c[a][b][c])
                recon = recon + E("1", ps3).scale(report.z[a][b])
                assert (table[a][b] - recon).is_zero

    def test_basis_permutation_consistency(self, ps3, angular_momenta):
        report = closure_analysis(angular_momenta, ps3)
        perm = (2, 0, 1)
        permuted = PrimarySet(
            names=tuple(angular_momenta.names[i] for i in perm),
            exprs=tuple(angular_momenta.exprs[i] for i in perm))
        report_p = closure_analysis(permuted, ps3)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert report_p.c[a][b][c] == report.c[perm[a]][perm[b]][perm[c]]
                assert report_p.z[a][b] == report.z[perm[a]][perm[b]]

    def test_hamiltonian_coefficients(self, ps3):
        # H = sum p_i^2 / 2 is rotation invariant: {L_a, H} = 0
        ham = E("(p1^2 + p2^2 + p3^2)/2", ps3)
        primaries = PrimarySet(
            names=("L1", "L2", "L3"),
            exprs=(E("x2*p3 - x3*p2", ps3), E("x3*p1 - x1*p3", ps3),
                   E("x1*p2 - x2*p1", ps3)),
            hamiltonian=ham)
        report = closure_analysis(primaries, ps3)
        assert report.closed
        assert all(v == 0 for row in report.h for v in row)
        assert all(v == 0 for v in report.h_const)

    def test_hamiltonian_constant_flagged(self, ps3):
        # {x1, H} with H = p1 gives the constant 1: recorded, flagged
        primaries = PrimarySet(names=("g1",), exprs=(E("x1", ps3),),
                               hamiltonian=E("p1", ps3))
        report = closure_analysis(primaries, ps3)
        assert report.closed
        assert report.h_const[0] == 1
        assert report.notes

    def test_sphere_needs_on_shell_rules(self, sphere_ctx):
        ps = sphere_ctx.ps
        names = tuple(ps.coordinates + ps.momenta)
        primaries = PrimarySet(names=names, exprs=tuple(E(s, ps) for s in names))
        # without rules the Dirac brackets stay rational
        with pytest.raises(NonPolynomialInputError):
            closure_analysis(primaries, sphere_ctx)

    def test_sphere_angular_momenta_closed(self, sphere_ctx):
        ps = sphere_ctx.ps
        primaries = PrimarySet(
            names=("L1", "L2", "L3"),
            exprs=(E("x2*p3 - x3*p2", ps), E("x3*p1 - x1*p3", ps),
                   E("x1*p2 - x2*p1", ps)))
        rules = [sphere_ctx.constraints[0].as_polynomial()]
        report = closure_analysis(primaries, sphere_ctx, on_shell_rules=rules)
        assert report.closed
        assert all(v == 0 for row in report.z for v in row)


# The first bracket {g1, g2} = 1/(p1 + 1) and the primary g1 are both
# rational: the bracket is checked first.
NONPOLYNOMIAL_FIRST_BRACKET = """[system]
n = 2
[constraints]
chi1 = x2
chi2 = p2
[primaries]
g1 = x1/(p1 + 1)
g2 = p1
"""
# {g1, g2} = 1 is polynomial, so the basis check comes next and stops at
# g3; the later bracket {g3, g4} = -1/x2^2 would fail its on-shell
# reduction (x2^2 reduces to 0), but it is never reduced.
NONPOLYNOMIAL_PRIMARY = """[system]
n = 2
[constraints]
chi1 = x2^2
chi2 = p2
[primaries]
g1 = x1
g2 = p1
g3 = 1/x2
g4 = p2
[onshell]
use chi1
"""


class TestFirstFailure:
    """Closure checks each reduced bracket once, as decompose_linear draws
    it, and the basis once, right after the first bracket: the first
    failure, its message and its exit code stay those of a
    bracket-by-bracket decomposition."""

    @staticmethod
    def run_closure(tmp_path, text, mode, capsys):
        path = tmp_path / "closure.system"
        path.write_text(text, encoding="utf-8")
        code = main(["closure", str(path), "--mode", mode])
        return code, capsys.readouterr().err.splitlines()[0]

    @pytest.mark.parametrize("mode", ["poisson", "dirac"])
    def test_non_polynomial_first_bracket(self, tmp_path, capsys, mode):
        code, first = self.run_closure(tmp_path, NONPOLYNOMIAL_FIRST_BRACKET, mode, capsys)
        assert (code, first) == (5, "error: target is not polynomial: (1)/(p1 + 1)")

    @pytest.mark.parametrize("mode", ["poisson", "dirac"])
    def test_non_polynomial_primary(self, tmp_path, capsys, mode):
        code, first = self.run_closure(tmp_path, NONPOLYNOMIAL_PRIMARY, mode, capsys)
        assert (code, first) == (5, "error: basis element g3 is not polynomial: (1)/(x2)")
        spec = parse_system(NONPOLYNOMIAL_PRIMARY)
        g3, g4 = spec.primaries.exprs[2:]
        with pytest.raises(ZeroDenominatorOnShellError):
            poisson_bracket(g3, g4, spec.ps).reduce_mod(spec.on_shell_rules)

    def test_each_bracket_and_primary_checked_once(self, monkeypatch, ps3, angular_momenta):
        reads = collections.Counter()
        is_polynomial = RationalExpr.is_polynomial

        def counted(self):
            reads[id(self)] += 1
            return is_polynomial.fget(self)

        monkeypatch.setattr(RationalExpr, "is_polynomial", property(counted))
        reduced = []
        original = closure_module._reduced
        monkeypatch.setattr(closure_module, "_reduced",
                            lambda e, rules: reduced.append(original(e, rules)) or reduced[-1])
        report = closure_analysis(angular_momenta, ps3)
        basis, brackets = reduced[:3], reduced[3:]
        assert report.closed and len(brackets) == 3
        assert all(a is b for a, b in zip(basis, angular_momenta.exprs))  # no rules
        assert [reads[id(e)] for e in basis + brackets] == [1] * 6


class TestVerdicts:
    def test_nonzero_central_charge(self, ps3):
        ctx = make_context(ps3, [E("x1", ps3), E("p1", ps3)])
        names = tuple(ps3.coordinates + ps3.momenta)
        primaries = PrimarySet(names=names, exprs=tuple(E(s, ps3) for s in names))
        report = closure_analysis(primaries, ctx)
        verdict = finite_dim_obstruction(report)
        assert verdict.kind == "infinite_dimensional"
        assert verdict.witness["central_charge"] != 0

    def test_traceless_algebra_no_obstruction(self, ps3, angular_momenta):
        report = closure_analysis(angular_momenta, ps3)
        verdict = finite_dim_obstruction(report)
        assert verdict.kind == "no_obstruction_detected"
        assert "necessary" in verdict.explanation

    def test_single_element_no_obstruction(self, ps3):
        primaries = PrimarySet(names=("g1",), exprs=(E("x1^2", ps3),))
        verdict = finite_dim_obstruction(closure_analysis(primaries, ps3))
        assert verdict.kind == "no_obstruction_detected"

    def test_unclosed_report_rejected(self, ps3):
        primaries = PrimarySet(names=("g1", "g2"),
                               exprs=(E("x1^2", ps3), E("p1^2", ps3)))
        report = closure_analysis(primaries, ps3)
        with pytest.raises(ReportNotClosedError):
            finite_dim_obstruction(report)


class TestLemmaVerdict:
    def test_sphere(self):
        ps = PhaseSpace(3, parameters=("r",))
        constraints = [E("x1^2 + x2^2 + x3^2 - r^2", ps),
                       E("p1*x1 + p2*x2 + p3*x3", ps)]
        cfg = SamplerConfig(seed=42, point_count=8, parameter_bindings={"r": 1.0})
        verdict = lemma_verdict(ps, constraints, cfg)
        assert verdict.kind == "infinite_dimensional"
        assert verdict.witness["trace_value"] == 2

    def test_trivial_system(self):
        ps = PhaseSpace(2)
        constraints = [E("x1", ps), E("p1", ps), E("x2", ps), E("p2", ps)]
        verdict = lemma_verdict(ps, constraints, SamplerConfig(seed=1, point_count=4))
        assert verdict.kind == "trivial_system"

    def test_degenerate_rejected(self, ps3):
        with pytest.raises(NotSecondClassError):
            lemma_verdict(ps3, [E("x1", ps3), E("x2", ps3)],
                          SamplerConfig(seed=1, point_count=4))


def _order_text(rules: str) -> str:
    return ("[system]\nn = 2\n[constraints]\nchi1 = x1*x2 - 1\nchi2 = x2^2 - x1\n"
            "[primaries]\nA = x1*x2^2*p1\nB = x1\nC = x2\n[onshell]\n" + rules)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: reduce_by divides by rules that are not a Groebner "
    "basis, so the on-shell normal form depends on their order"))
def test_closure_does_not_depend_on_the_order_of_the_rules():
    closed = []
    for rules in ("use chi1\nuse chi2\n", "use chi2\nuse chi1\n"):
        spec = parse_system(_order_text(rules))
        closed.append(closure_analysis(spec.primaries, spec.ps,
                                       on_shell_rules=spec.on_shell_rules).closed)
    assert closed[0] == closed[1]
