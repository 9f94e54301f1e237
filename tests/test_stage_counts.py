"""`dirackit analyze` runs each stage of the analysis exactly once."""

import contextlib
import functools
import io
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from dirackit.brackets import DiracContext
from dirackit.expr import RationalExpr
from dirackit.cli import main

from conftest import mix_text, replace_everywhere, tower_text

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
def classify_partials(monkeypatch):
    """RationalExpr.diff_index calls made inside classify_constraints, per
    (expression, variable); the expressions are kept alive so that ids
    are not reused."""
    calls = Counter()
    seen = []
    inside = [0]
    original = sys.modules["dirackit.analysis"].classify_constraints

    @functools.wraps(original)
    def counted(*args, **kwargs):
        inside[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            inside[0] -= 1

    replace_everywhere(monkeypatch, original, counted)
    diff_index = RationalExpr.diff_index

    def counted_diff(self, index):
        if inside[0]:
            seen.append(self)
            calls[id(self), index] += 1
        return diff_index(self, index)

    monkeypatch.setattr(RationalExpr, "diff_index", counted_diff)
    return calls


@pytest.mark.parametrize("text", [
    mix_text(10, 10, random.Random(4)),
    tower_text(2, sampler_seed=2),
    (SYSTEMS / "sphere.system").read_text(encoding="utf-8"),
], ids=["mix_m10_n10", "tower_k2", "sphere"])
def test_classify_differentiates_each_constraint_once(classify_partials, tmp_path, text):
    """Delta and the sampler's Jacobian read one set of constraint gradients."""
    path = tmp_path / "case.system"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["analyze", str(path), "--format", "json"]) == 0
    assert classify_partials and max(classify_partials.values()) == 1
