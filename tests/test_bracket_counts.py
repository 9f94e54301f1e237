"""The bracket layer does only the work that can be nonzero.

A Dirac bracket table computes each item's brackets with the constraints
once, a Poisson bracket differentiates only along canonical pairs that
both operands can depend on, and the trace makes no bracket at all.
"""

import contextlib
import functools
import io
import random
import sys

import pytest

from dirackit import RationalExpr, bracket_table, dirac_bracket, make_context
from dirackit import brackets
from dirackit.cli import main
from dirackit.poly import Polynomial
from dirackit.sysfile import parse_system

from conftest import mix_text, random_polynomial, replace_everywhere, tower_text


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


@pytest.mark.parametrize("spheres", [1, 2])
def test_two_item_dirac_table_costs_one_dirac_bracket(counts, spheres):
    ctx, (f, g) = tower_items(spheres, 2)
    counts["poisson"] = 0
    bracket_table([f, g], ctx)
    assert counts["poisson"] == 4 * ctx.m + 1
    counts["poisson"] = 0
    dirac_bracket(f, g, ctx)
    assert counts["poisson"] == 4 * ctx.m + 1


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
    brackets, and the trace sums the same rows, so one analyze makes no
    bracket at all."""
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
    """Delta and the trace of an n = m = 10 mix are integer sums over the
    constraints' coefficient rows, and the parser builds the file's
    linear constraints from terms: one analyze makes no
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
    without a call of `add_products`."""
    spec = parse_system(tower_text(4, sampler_seed=1))
    sums = []
    add_products = brackets.add_products
    monkeypatch.setattr(brackets, "add_products",
                        lambda *args: sums.append(args) or add_products(*args))
    delta = brackets.delta_matrix(spec.constraints, spec.ps)
    assert len(sums) == 4
    for a in range(8):
        for b in range(8):
            assert (str(delta[a][b]) == "0") == (a // 2 != b // 2 or a == b)
