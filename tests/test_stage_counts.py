"""`dirackit analyze` runs each stage of the analysis exactly once."""

import contextlib
import functools
import io
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from dirackit import analysis, sysfile
from dirackit.brackets import DiracContext, dirac_bracket
from dirackit.expr import RationalExpr
from dirackit.parser import parse_expression
from dirackit.cli import main
from dirackit.poly import Polynomial

from conftest import jacobi_triple, mix_text, replace_everywhere, tower_text
from test_affine import MIX_SIZES

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
STAGES = (
    ("dirackit.brackets", "delta_matrix"),
    ("dirackit.matrix", "invert_matrix"),
    ("dirackit.analysis", "sample_on_shell"),
    ("dirackit.analysis", "classify_constraints"),
    ("dirackit.analysis", "trace_identity"),
)


@pytest.fixture
def stage_calls(monkeypatch):
    """Count calls of each stage through every dirackit namespace holding it."""
    calls = Counter()
    for module_name, attr in STAGES:
        original = getattr(sys.modules[module_name], attr)

        def counted(*args, _original=original, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        functools.update_wrapper(counted, original)
        replace_everywhere(monkeypatch, original, counted)
    return calls


@pytest.fixture
def contexts(monkeypatch):
    """Every DiracContext built while the test runs."""
    built = []
    original = DiracContext.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(DiracContext, "__init__", init)
    return built


@pytest.mark.parametrize("name", sorted(p.name for p in SYSTEMS.glob("*.system")))
def test_analyze_runs_each_stage_at_most_once(stage_calls, contexts, capsys, name):
    main(["analyze", str(SYSTEMS / name), "--format", "json"])
    assert all(count <= 1 for count in stage_calls.values()), stage_calls
    assert all(ctx.delta_inv is not ctx.delta for ctx in contexts)


def test_analyze_sphere_runs_each_stage_exactly_once(stage_calls, contexts, capsys):
    assert main(["analyze", str(SYSTEMS / "sphere.system")]) == 0
    assert stage_calls == {attr: 1 for _, attr in STAGES}
    (ctx,) = contexts
    assert ctx.delta_inv is not ctx.delta


@pytest.fixture
def partials(monkeypatch):
    """Partials computed (not read from an expression's memo) while the
    test runs, per (expression, variable); the expressions are kept alive
    so that ids are not reused."""
    calls = Counter()
    seen = []
    compute = RationalExpr._partial

    def counted(self, index):
        seen.append(self)
        calls[id(self), index] += 1
        return compute(self, index)

    monkeypatch.setattr(RationalExpr, "_partial", counted)
    return calls


@pytest.mark.parametrize("text", [
    mix_text(10, 10, random.Random(4)),
    tower_text(2, sampler_seed=2),
    (SYSTEMS / "sphere.system").read_text(encoding="utf-8"),
], ids=["mix_m10_n10", "tower_k2", "sphere"])
def test_classify_differentiates_each_constraint_once(partials, tmp_path, text):
    """Delta, the sampler's Jacobian and the closure table of one analyze
    compute each partial once; the trace computes none."""
    path = tmp_path / "case.system"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["analyze", str(path), "--format", "json"]) == 0
    assert partials and max(partials.values()) == 1


@pytest.mark.parametrize("seed", range(3))
def test_dirac_bracket_computes_each_partial_once(partials, sphere_ctx, seed):
    """{f, chi_a}, {chi_b, g} and {f, g} differentiate f, g and each
    constraint along shared variables; one dirac_bracket computes each
    partial once.  The constraints are parsed afresh, so that none of
    their partials is left over from building Delta; the outer bracket
    also differentiates a rational inner one."""
    ps = sphere_ctx.ps
    ctx = DiracContext(ps, tuple(parse_expression(str(chi), ps) for chi in sphere_ctx.constraints),
                       sphere_ctx.delta, sphere_ctx.delta_inv)
    f, g, h = jacobi_triple(ps, random.Random(seed))
    inner = dirac_bracket(g, h, ctx)
    assert partials and max(partials.values()) == 1
    partials.clear()
    dirac_bracket(f, inner, ctx)
    assert partials and max(partials.values()) == 1


def test_parsing_linear_constraints_makes_no_product_or_rational_sum(monkeypatch):
    """The 20 constraints of an n = m = 10 mix are sums of `(c)*x` terms:
    the parser builds them from coefficients and monomial keys, with no
    `Polynomial.__mul__` and no `RationalExpr` product or sum.  Parsed as
    a fold of `RationalExpr` operations they made 680 polynomial products."""
    calls = Counter()
    for cls, name in ((Polynomial, "__mul__"), (RationalExpr, "__mul__"),
                      (RationalExpr, "__add__")):
        original = getattr(cls, name)

        def counted(self, other, _original=original, _key=f"{cls.__name__}.{name}"):
            calls[_key] += 1
            return _original(self, other)

        monkeypatch.setattr(cls, name, counted)
    spec = sysfile.parse_system(mix_text(10, 10, random.Random(4)))
    assert len(spec.constraints) == 20
    assert calls == {}


@pytest.fixture
def on_shell_counts(monkeypatch):
    """Per run: Newton projections that succeed (points the sampler
    returns), values of Delta it computes, and pivoted QRs of Delta
    (those built outside the sampler, whose own QRs are of Jacobians)."""
    calls = Counter()
    inside = []
    sample, plan_delta, qr = analysis.sample_on_shell, analysis._delta_plan, analysis.PivotedQR

    def counted_sample(*args, **kwargs):
        inside.append(True)
        try:
            points = sample(*args, **kwargs)
        finally:
            inside.pop()
        calls["points"] += len(points)
        return points

    def counted_plan(delta):
        plan = plan_delta(delta)

        def evaluate(values):
            calls["delta_values"] += 1
            return plan(values)
        return evaluate

    def counted_qr(columns):
        if not inside:
            calls["delta_qrs"] += 1
        return qr(columns)

    functools.update_wrapper(counted_sample, sample)
    replace_everywhere(monkeypatch, sample, counted_sample)
    monkeypatch.setattr(analysis, "_delta_plan", counted_plan)
    monkeypatch.setattr(analysis, "PivotedQR", counted_qr)
    return calls


@pytest.mark.parametrize("text,counts", [
    ((SYSTEMS / "sphere.system").read_text(encoding="utf-8"), (1, 1, 0)),
    (tower_text(4, sampler_seed=3), (1, 1, 0)),
    ((SYSTEMS / "pair_elimination.system").read_text(encoding="utf-8"), (1, 1, 0)),
    ((SYSTEMS / "angular_momentum.system").read_text(encoding="utf-8"), (1, 1, 0)),
    ((SYSTEMS / "trivial.system").read_text(encoding="utf-8"), (1, 1, 0)),
    *((mix_text(n, m, random.Random(seed)), (1, 1, 0))
      for seed, (m, n) in enumerate(MIX_SIZES, start=1)),
], ids=["sphere", "tower_k4", "pair_elimination", "angular_momentum", "trivial",
        *(f"mix_m{m}_n{n}" for m, n in MIX_SIZES)])
def test_analyze_samples_one_point_when_delta_is_constant_or_certified(
        on_shell_counts, tmp_path, text, counts):
    """The sampler draws one point and computes Delta there once, and a
    certified Delta takes no QR: the sphere and the tower through their
    atoms, a constant Delta (a shipped linear system, a mix) with no atom
    at all.  Before the certificate they drew their `points` (16, 16 and
    8), computed Delta at each and took one QR per distinct value (13, 16
    and 1)."""
    path = tmp_path / "case.system"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["analyze", str(path), "--format", "json"]) == 0
    points, values, qrs = counts
    assert on_shell_counts == Counter(points=points, delta_values=values, delta_qrs=qrs)
