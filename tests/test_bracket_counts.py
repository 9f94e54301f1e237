"""The bracket layer does only the work that can be nonzero.

A Dirac bracket table computes each item's brackets with the constraints
once, a Poisson bracket differentiates only along canonical pairs that
both operands can depend on, the trace makes no bracket and takes no
partial at all, and closure neither reduces nor solves for a bracket
that is exactly zero.
"""

import contextlib
import functools
import io
import random
import sys
from pathlib import Path

import pytest

from dirackit import (
    PhaseSpace,
    PrimarySet,
    RationalExpr,
    bracket_table,
    closure_analysis,
    dirac_bracket,
    make_context,
    parse_expression,
    poisson_bracket,
    trace_identity,
)
from dirackit import brackets, closure
from dirackit.cli import main
from dirackit.poly import Polynomial
from dirackit.sysfile import parse_system

from conftest import jacobi_triple, mix_text, random_polynomial, replace_everywhere, tower_text

SPHERE = (Path(__file__).resolve().parent.parent / "systems" / "sphere.system").read_text(
    encoding="utf-8")
RATIONAL = """[system]
n = 3
[constraints]
chi1 = x1/(1 + x2^2)
chi2 = p1*(1 + x2^2)
chi3 = x3
chi4 = p3 + x1*x2/(2 + x3^2)
"""


@pytest.fixture
def counts(monkeypatch):
    """Calls of poisson_bracket, and calls of RationalExpr.diff_index made
    inside one."""
    calls = {"poisson": 0, "diff_index": 0}
    inside = [0]
    original = sys.modules["dirackit.brackets"].poisson_bracket

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls["poisson"] += 1
        inside[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            inside[0] -= 1

    replace_everywhere(monkeypatch, original, counted)
    diff_index = RationalExpr.diff_index

    def counted_diff(self, index):
        calls["diff_index"] += inside[0] > 0
        return diff_index(self, index)

    monkeypatch.setattr(RationalExpr, "diff_index", counted_diff)
    return calls


def tower_items(spheres: int, count: int):
    """The context of `spheres` decoupled spheres (m = spheres) and `count`
    random polynomials on its phase space."""
    spec = parse_system(tower_text(spheres, sampler_seed=1))
    ctx = make_context(spec.ps, spec.constraints)
    rng = random.Random(count)
    return ctx, [random_polynomial(ctx.ps, rng, max_degree=2, max_terms=2,
                                   variables_only=True) for _ in range(count)]


def fresh(e: RationalExpr) -> RationalExpr:
    """An expression equal to e that keeps no row of its own."""
    return RationalExpr.from_polynomial(e.ps, e.as_polynomial())


@pytest.mark.parametrize("spheres", [1, 2])
def test_two_item_dirac_table_costs_one_dirac_bracket(counts, spheres):
    """Fresh operands: 2m brackets for each row and one {f, g}, in the
    table as in `dirac_bracket`; the rows the table took stay with f and
    g, so bracketing them again makes {f, g} alone."""
    ctx, (f, g) = tower_items(spheres, 2)
    counts["poisson"] = 0
    table = bracket_table([f, g], ctx)
    assert counts["poisson"] == 4 * ctx.m + 1
    counts["poisson"] = 0
    assert str(dirac_bracket(fresh(f), fresh(g), ctx)) == str(table[0, 1])
    assert counts["poisson"] == 4 * ctx.m + 1
    counts["poisson"] = 0
    assert str(dirac_bracket(f, g, ctx)) == str(table[0, 1])
    assert counts["poisson"] == 1


@pytest.mark.parametrize("spheres", [1, 2])
def test_dirac_bracket_takes_each_operand_row_once_per_context(counts, spheres):
    ctx, (f, g) = tower_items(spheres, 2)
    counts["poisson"] = 0
    first = str(dirac_bracket(f, g, ctx))
    assert counts["poisson"] == 4 * ctx.m + 1
    for a, b in [(f, g), (g, f), (f, f)]:
        counts["poisson"] = 0
        again = str(dirac_bracket(a, b, ctx))
        assert counts["poisson"] == 1
    assert again == "0" and str(dirac_bracket(g, f, ctx)) == str(-dirac_bracket(f, g, ctx))
    assert str(dirac_bracket(f, g, ctx)) == first
    other = make_context(ctx.ps, ctx.constraints)  # equal, but another context
    counts["poisson"] = 0
    assert str(dirac_bracket(f, g, other)) == first
    assert counts["poisson"] == 4 * ctx.m + 1
    counts["poisson"] = 0
    dirac_bracket(f, g, ctx)  # each operand keeps the row of its last context only
    assert counts["poisson"] == 4 * ctx.m + 1


def dirac_fold(f, g, ctx):
    """{f, g}_D as one left fold acc + ({f, chi_a} U_ab) {g, chi_b} over
    freshly computed rows, then cancelled: what each bracket printed
    when it took both rows on every call."""
    row = lambda e: [(a, poisson_bracket(e, chi, ctx.ps)) for a, chi in enumerate(ctx.constraints)]
    acc = poisson_bracket(f, g, ctx.ps)
    for a, fa in row(f):
        for b, gb in row(g):
            u = ctx.delta_inv[a, b]
            if not (fa.is_zero or gb.is_zero or u.is_zero):
                acc = acc + fa * u * gb
    return acc.cancel()


@pytest.mark.parametrize("seed", range(3))
def test_a_fresh_jacobi_triple_makes_18_poisson_brackets(counts, seed):
    """Three inner and three outer brackets on the sphere (m = 1): the
    rows of f, g and h are taken once, not once per bracket, and so are
    the rows of the three inner brackets: 6 rows of 2 and 6 {., .}, 18
    in all where taking both rows on every call made 30."""
    ps = PhaseSpace(3, parameters=("r",))
    ctx = make_context(ps, [parse_expression("x1^2 + x2^2 + x3^2 - r^2", ps),
                            parse_expression("p1*x1 + p2*x2 + p3*x3", ps)])
    f, g, h = jacobi_triple(ps, random.Random(seed))
    counts["poisson"] = 0
    inner = [dirac_bracket(g, h, ctx), dirac_bracket(h, f, ctx), dirac_bracket(f, g, ctx)]
    outer = [dirac_bracket(f, inner[0], ctx), dirac_bracket(g, inner[1], ctx),
             dirac_bracket(h, inner[2], ctx)]
    assert counts["poisson"] == 18
    assert (outer[0] + outer[1] + outer[2]).is_zero
    f, g, h = jacobi_triple(ps, random.Random(seed))
    expected = [dirac_fold(g, h, ctx), dirac_fold(h, f, ctx), dirac_fold(f, g, ctx)]
    expected += [dirac_fold(e, i, ctx) for e, i in zip((f, g, h), expected)]
    assert [str(e) for e in inner + outer] == [str(e) for e in expected]


@pytest.mark.parametrize("spheres,k", [(1, 3), (1, 5), (2, 4)])
def test_dirac_table_reuses_constraint_rows(counts, spheres, k):
    ctx, items = tower_items(spheres, k)
    counts["poisson"] = 0
    bracket_table(items, ctx)
    assert counts["poisson"] <= 2 * (k - 1) * 2 * ctx.m + k * (k - 1) // 2


@pytest.mark.parametrize("spheres", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_dirac_table_takes_each_constraint_row_once(counts, spheres, k):
    """k rows of 2m constraint brackets, one per item, and one Poisson
    bracket per pair of items; a single item has no pair and needs none."""
    ctx, items = tower_items(spheres, k)
    counts["poisson"] = 0
    bracket_table(items, ctx)
    assert counts["poisson"] == (k * 2 * ctx.m + k * (k - 1) // 2 if k > 1 else 0)


@pytest.mark.parametrize("spheres,expected", [(1, 15), (2, 55), (3, 120), (4, 210)])
def test_tower_analyze_bracket_count(counts, tmp_path, spheres, expected):
    path = tmp_path / f"tower_k{spheres}.system"
    path.write_text(tower_text(spheres, sampler_seed=3), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["analyze", str(path), "--format", "json"]) == 0
    assert counts["poisson"] == expected


def test_poisson_brackets_skip_pairs_outside_the_supports(counts, tmp_path):
    n = 6  # two spheres
    path = tmp_path / "tower_k2.system"
    path.write_text(tower_text(2, sampler_seed=2), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["analyze", str(path), "--format", "json"]) == 0
    assert counts["poisson"] > 0
    assert counts["diff_index"] < 4 * n * counts["poisson"]


def test_mix_analyze_brackets_only_for_delta(counts, monkeypatch, tmp_path):
    """An n = m = 10 mix is affine: Delta is read from the constraints'
    integer coefficient rows, not from its k(k - 1)/2 = 190 Poisson
    brackets, and the trace reads Delta and Delta^-1, so one analyze
    makes no bracket at all."""
    path = tmp_path / "mix.system"
    path.write_text(mix_text(10, 10, random.Random(4)), encoding="utf-8")
    dirac_calls, delta_brackets = [], []
    replace_everywhere(monkeypatch, dirac_bracket,
                       lambda *args: dirac_calls.append(1) or dirac_bracket(*args))
    delta_matrix = brackets.delta_matrix

    def counted_delta(*args):
        before = counts["poisson"]
        try:
            return delta_matrix(*args)
        finally:
            delta_brackets.append(counts["poisson"] - before)

    replace_everywhere(monkeypatch, delta_matrix, counted_delta)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["analyze", str(path), "--format", "json"]) == 0
    assert counts["poisson"] == 0
    assert delta_brackets == [0]
    assert dirac_calls == []


def test_mix_analyze_multiplies_only_while_parsing(monkeypatch, tmp_path):
    """Delta of an n = m = 10 mix is an integer sum over the constraints'
    coefficient rows, the trace one fused sum of products of constants,
    and the parser builds the file's linear constraints from terms: one
    analyze makes no
    `Polynomial.__mul__` call.  Summed product by product, the same
    analyze made 12,000; parsed through rational-expression products,
    its file alone made 680."""
    path = tmp_path / "mix.system"
    path.write_text(mix_text(10, 10, random.Random(4)), encoding="utf-8")
    calls = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__",
                        lambda self, other: calls.append(1) or mul(self, other))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["analyze", str(path), "--format", "json"]) == 0
    assert calls == []


def test_brackets_without_a_shared_pair_skip_the_sum(monkeypatch):
    """Of the 28 brackets of the k = 4 tower's Delta, the 24 between
    different spheres have no canonical pair to sum over: each is zero
    without a sum.  The 4 within a sphere are brackets of polynomials:
    one kernel sum each and no call of `add_products`."""
    spec = parse_system(tower_text(4, sampler_seed=1))
    sums = []
    for name in ("add_products", "sum_of_products"):
        monkeypatch.setattr(brackets, name, lambda *args, _name=name,
                            _original=getattr(brackets, name):
                            sums.append(_name) or _original(*args))
    delta = brackets.delta_matrix(spec.constraints, spec.ps)
    assert sums == ["sum_of_products"] * 4
    for a in range(8):
        for b in range(8):
            assert (str(delta[a, b]) == "0") == (a // 2 != b // 2 or a == b)


TRACE_TEXTS = {"sphere": SPHERE, "rational": RATIONAL,
               **{f"tower_k{k}": tower_text(k, sampler_seed=1) for k in (1, 2, 3, 4)}}


@pytest.mark.parametrize("text", TRACE_TEXTS.values(), ids=TRACE_TEXTS.keys())
def test_trace_takes_no_partial_and_no_bracket(monkeypatch, text):
    """The trace sums entries of Delta and Delta^-1 that the context
    holds: it calls neither `poisson_bracket` nor `diff_index`."""
    spec = parse_system(text)
    ctx = make_context(spec.ps, spec.constraints)
    calls = []
    poisson = brackets.poisson_bracket
    replace_everywhere(monkeypatch, poisson,
                       lambda *args: calls.append("poisson") or poisson(*args))
    diff_index = RationalExpr.diff_index
    monkeypatch.setattr(RationalExpr, "diff_index",
                        lambda self, index: calls.append("diff_index") or diff_index(self, index))
    assert trace_identity(ctx).holds
    assert calls == []


def tower_closure_inputs(spheres: int):
    """The k-sphere tower's primaries, its context and its on-shell rules."""
    spec = parse_system(tower_text(spheres, sampler_seed=1))
    return spec.primaries, make_context(spec.ps, spec.constraints), spec.on_shell_rules


@pytest.fixture
def solved_columns(monkeypatch):
    """The number of target columns of each `_solve_exact` call."""
    columns = []
    solve = closure._solve_exact
    replace_everywhere(monkeypatch, solve,
                       lambda rows, rhs: columns.append(len(rhs[0])) or solve(rows, rhs))
    return columns


@pytest.mark.parametrize("spheres", [1, 2, 3, 4])
def test_closure_reduces_and_solves_only_nonzero_brackets(monkeypatch, solved_columns, spheres):
    """Of a tower's 3k(3k - 1)/2 + 3k closure brackets, the three {L_a, L_b}
    of each sphere are the only nonzero ones: each L commutes with the
    other spheres' and with H.  `reduce_mod` runs once per primary and
    once per nonzero bracket, and the elimination takes 3k columns."""
    primaries, ctx, rules = tower_closure_inputs(spheres)
    reductions = []
    reduce_mod = RationalExpr.reduce_mod
    monkeypatch.setattr(RationalExpr, "reduce_mod",
                        lambda self, polys: reductions.append(1) or reduce_mod(self, polys))
    report = closure_analysis(primaries, ctx, on_shell_rules=rules)
    assert report.closed
    assert len(reductions) == 3 * spheres + 3 * spheres
    assert solved_columns == [3 * spheres]


def test_commuting_primaries_run_no_elimination(solved_columns):
    """Every bracket of x1, x2, x3 and of each with H = x1^2 is an exact zero."""
    ps = PhaseSpace(3)
    primaries = PrimarySet(("q1", "q2", "q3"), tuple(parse_expression(s, ps)
                                                     for s in ("x1", "x2", "x3")),
                           parse_expression("x1^2", ps))
    report = closure_analysis(primaries, ps)
    assert solved_columns == []
    assert report.closed and report.residuals == {}
    assert all(v == 0 for row in report.z for v in row)
    assert all(v == 0 for plane in report.c for row in plane for v in row)
    assert report.h == ((0, 0, 0),) * 3 and report.h_const == (0, 0, 0)


@pytest.mark.parametrize("spheres", [1, 2, 3, 4])
def test_zero_rows_are_computed_before_they_are_dropped(counts, spheres):
    """A Dirac table keeps only the nonzero entries of each row, but it
    computes every one: the Poisson count is still K * 2m + K(K - 1)/2
    for K = 3k + 1 items, though every row of an L is zero."""
    primaries, ctx, _ = tower_closure_inputs(spheres)
    items = list(primaries.exprs) + [primaries.hamiltonian]
    k = len(items)
    counts["poisson"] = 0
    bracket_table(items, ctx)
    assert counts["poisson"] == k * 2 * ctx.m + k * (k - 1) // 2
