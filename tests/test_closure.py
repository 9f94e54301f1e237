"""Closure analysis, structure constants, central charges, verdicts."""

import collections
import functools
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dirackit import (
    PhaseSpace,
    PrimarySet,
    SamplerConfig,
    RationalExpr,
    bracket_table,
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

from conftest import fd_poisson, random_point, random_polynomial, replace_everywhere, tower_text

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
                assert (table[a, b] - recon).is_zero

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
# One primary and no Hamiltonian: there is no bracket to draw, and the
# basis is still checked.
LONE_RATIONAL_PRIMARY = """[system]
n = 2
[constraints]
chi1 = x2
chi2 = p2
[primaries]
g1 = 1/x1
"""


class TestFirstFailure:
    """Closure checks each reduced bracket once, as decompose_linear draws
    it, and the basis once, right after the first bracket or, when there
    is none, at the end: the first failure, its message and its exit code
    stay those of a bracket-by-bracket decomposition."""

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

    def test_lone_rational_primary(self, ps3):
        basis = PrimarySet(("g1",), (E("1/x1", ps3),))
        message = "basis element g1 is not polynomial: (1)/(x1)"
        for run in (lambda: closure_analysis(basis, ps3), lambda: decompose_linear([], basis)):
            with pytest.raises(NonPolynomialInputError, match=rf"^{re.escape(message)}$"):
                run()
        # A polynomial lone primary is closed, as before.
        assert closure_analysis(PrimarySet(("g1",), (E("x1", ps3),)), ps3).closed

    @pytest.mark.parametrize("second", ["", "g2 = x2\n"])
    @pytest.mark.parametrize("command", [["closure", "--mode", "poisson"],
                                         ["closure", "--mode", "dirac"], ["analyze"]])
    def test_lone_rational_primary_exits_5(self, tmp_path, capsys, command, second):
        """With or without a second primary, whose bracket is drawn first."""
        path = tmp_path / "lone.system"
        path.write_text(LONE_RATIONAL_PRIMARY + second, encoding="utf-8")
        code = main([command[0], str(path), *command[1:]])
        first = capsys.readouterr().err.splitlines()[0]
        assert (code, first) == (5, "error: basis element g1 is not polynomial: (1)/(x1)")

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

    @staticmethod
    def closure_verdict(tmp_path, capsys, text, mode):
        path = tmp_path / "verdict.system"
        path.write_text(text, encoding="utf-8")
        assert main(["closure", str(path), "--mode", mode]) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if line.startswith(("verdict:", "witness:", "explanation:"))]

    @pytest.mark.parametrize("mode", ["poisson", "dirac"])
    def test_a_central_charge_that_a_shift_removes_is_no_obstruction(self, tmp_path, capsys,
                                                                    mode):
        """{L2, L3} = L1 - 1 on the sphere with L1 shifted by 1: J1 + 1, J2,
        J3 with J the spin-j matrices satisfy every relation, and the shift
        L1 -> L1 - 1 removes the constant."""
        text = SPHERE.read_text(encoding="utf-8").replace(
            "L1 = x2*p3 - x3*p2", "L1 = x2*p3 - x3*p2 + 1")
        assert "x3*p2 + 1" in text
        lines = self.closure_verdict(tmp_path, capsys, text, mode)
        assert lines[0] == "verdict: no_obstruction_detected"
        assert lines[1].startswith("explanation: The shift L1 -> L1 - 1 removes every constant")
        assert "All central charges vanish" not in lines[1]

    @pytest.mark.parametrize("mode", ["poisson", "dirac"])
    def test_a_constant_bracket_with_the_hamiltonian_is_an_obstruction(self, tmp_path, capsys,
                                                                      mode):
        text = ("[system]\nn = 2\n[constraints]\nchi1 = x2\nchi2 = p2\n"
                "[primaries]\ng1 = x1\n[hamiltonian]\nH = p1\n")
        lines = self.closure_verdict(tmp_path, capsys, text, mode)
        assert lines[:2] == ["verdict: infinite_dimensional",
                             'witness: {"pair": ["g1", "H"], "central_charge": "1"}']

    def test_generator_parts_that_cancel_leave_an_obstruction(self, ps3):
        """{g1, g2} = g3 + 1 and {g1, g4} = g3: no bracket is a bare
        constant, but {g1, g2 - g4} = {x1, p1} = 1."""
        names = ("g1", "g2", "g3", "g4")
        report = closure_analysis(PrimarySet(names, tuple(
            E(t, ps3) for t in ("x1", "p1*x2 + p1", "x2", "p1*x2"))), ps3)
        verdict = finite_dim_obstruction(report)
        assert verdict.kind == "infinite_dimensional"
        combination = verdict.witness["combination"]
        assert set(combination) == {"{g1,g2}", "{g1,g4}"}
        rows = {f"{{{names[a]},{names[b]}}}": (report.c[a][b], report.z[a][b])
                for a in range(4) for b in range(a + 1, 4)}
        for k in range(4):
            assert sum(lam * rows[label][0][k] for label, lam in combination.items()) == 0
        total = sum(lam * rows[label][1] for label, lam in combination.items())
        assert total == verdict.witness["central_charge"] != 0

    @pytest.mark.parametrize("seed", range(6))
    def test_constant_shifts_of_the_primaries_keep_the_verdict(self, ps3, angular_momenta,
                                                              seed):
        """so(3) and the Heisenberg-like set above, each primary shifted by a
        seeded constant: the constants the shifts bring are coboundaries."""
        rng = random.Random(seed)
        heisenberg = PrimarySet(("g1", "g2", "g3", "g4"), tuple(
            E(t, ps3) for t in ("x1", "p1*x2 + p1", "x2", "p1*x2")))
        for primaries in (angular_momenta, heisenberg):
            kind = finite_dim_obstruction(closure_analysis(primaries, ps3)).kind
            shifted = PrimarySet(primaries.names, tuple(
                e + RationalExpr.constant(ps3, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                for e in primaries.exprs))
            assert finite_dim_obstruction(closure_analysis(shifted, ps3)).kind == kind


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


def reference_closure(primaries, space, rules):
    """closure_analysis bracket by bracket: every bracket, exact zeros
    included, is reduced on the shell and decomposed alone by
    `decompose_linear([bracket], basis)`, and both triangles are filled
    from that decomposition."""
    reduce = (lambda e: e.reduce_mod(rules)) if rules else (lambda e: e)
    basis = PrimarySet(primaries.names, tuple(map(reduce, primaries.exprs)))
    k = len(primaries)
    items = list(primaries.exprs)
    keys = [(a, b) for a in range(k) for b in range(a + 1, k)]
    h = h_const = None
    if primaries.hamiltonian is not None:
        items.append(primaries.hamiltonian)
        keys += [(a, k) for a in range(k)]
        h, h_const = [None] * k, [None] * k
    table = bracket_table(items, space)
    c = [[(Fraction(0),) * k for _ in range(k)] for _ in range(k)]
    z = [[Fraction(0)] * k for _ in range(k)]
    residuals, notes = {}, []
    for a, b in keys:
        bracket = reduce(table[a, b])
        (dec,) = decompose_linear([bracket], basis)
        if dec is None and b == k:
            residuals[(a, "H")] = bracket
        elif dec is None:
            residuals[(a, b)], residuals[(b, a)] = bracket, -bracket
            c[a][b] = c[b][a] = z[a][b] = z[b][a] = None
        elif b == k:
            h[a], h_const[a] = dec.coefficients, dec.constant
            if dec.constant != 0:
                notes.append(
                    f"bracket of {primaries.names[a]} with the Hamiltonian "
                    f"carries constant term {dec.constant}; recorded in the "
                    "constant column rather than treated as closure failure")
        else:
            c[a][b], c[b][a] = dec.coefficients, tuple(-v for v in dec.coefficients)
            z[a][b], z[b][a] = dec.constant, -dec.constant
    return (tuple(map(tuple, c)), tuple(map(tuple, z)), h and tuple(h),
            h_const and tuple(h_const), residuals, tuple(notes))


def _without_onshell(text: str) -> str:
    return text[:text.index("[onshell]")] + text[text.index("[sampler]"):]


REFERENCE_FILES = {
    "sphere": SPHERE.read_text(encoding="utf-8"),
    "angular_momentum": (SPHERE.parent / "angular_momentum.system").read_text(encoding="utf-8"),
    **{f"tower_k{k}": tower_text(k, sampler_seed=1) for k in (1, 2, 3)},
    **{f"tower_k{k}_no_onshell": _without_onshell(tower_text(k, sampler_seed=1))
       for k in (1, 2, 3)},
}


def _seeded_primaries(seed: int, hamiltonian: bool):
    """Three random polynomials on three pairs, two mutually commuting
    coordinates, a momentum whose bracket with one of them is the central
    charge -1, and a zero primary, with a random Hamiltonian or none."""
    ps = PhaseSpace(3)
    rng = random.Random(seed)
    exprs = [random_polynomial(ps, rng, max_degree=2, max_terms=2) for _ in range(3)]
    exprs += [E("x1", ps), E("x2", ps), E("p2", ps), E("0", ps)]
    h = random_polynomial(ps, rng, max_degree=2, max_terms=2) if hamiltonian else None
    return ps, PrimarySet(("g1", "g2", "g3", "q1", "q2", "k2", "zero"), tuple(exprs), h)


class TestAgainstBracketByBracket:
    """Zero brackets skip on-shell reduction, the elimination and the
    negation; the report must not show it."""

    @staticmethod
    def assert_same(primaries, space, rules):
        report = closure_analysis(primaries, space, on_shell_rules=rules)
        c, z, h, h_const, residuals, notes = reference_closure(primaries, space, rules)
        assert (report.c, report.z, report.h, report.h_const, report.notes) == (
            c, z, h, h_const, notes)
        assert report.residuals.keys() == residuals.keys()
        for key, bracket in residuals.items():
            assert str(report.residuals[key]) == str(bracket)
        assert report.closed == (not residuals)

    @pytest.mark.parametrize("mode", ["poisson", "dirac"])
    @pytest.mark.parametrize("name", sorted(REFERENCE_FILES))
    def test_system_files(self, name, mode):
        spec = parse_system(REFERENCE_FILES[name])
        space = make_context(spec.ps, spec.constraints) if mode == "dirac" else spec.ps
        self.assert_same(spec.primaries, space, spec.on_shell_rules)

    @pytest.mark.parametrize("hamiltonian", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_primaries(self, seed, hamiltonian):
        ps, primaries = _seeded_primaries(seed, hamiltonian)
        ctx = make_context(ps, [E("x3", ps), E("p3", ps)])
        for space in (ps, ctx):
            self.assert_same(primaries, space, None)
        self.assert_same(primaries, ps, (E("x3^2 - 1", ps).as_polynomial(),))

    def test_zero_first_bracket_then_a_rational_primary(self, ps3):
        # {g1, g2} = 0 is drawn and checked first, then the basis stops at g3.
        primaries = PrimarySet(("g1", "g2", "g3"),
                               (E("x1", ps3), E("x2", ps3), E("1/x3", ps3)))
        message = "basis element g3 is not polynomial: (1)/(x3)"
        with pytest.raises(NonPolynomialInputError) as got:
            closure_analysis(primaries, ps3)
        with pytest.raises(NonPolynomialInputError) as want:
            reference_closure(primaries, ps3, None)
        assert str(got.value) == str(want.value) == message
