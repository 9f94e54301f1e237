"""`dirackit analyze` runs each stage of the analysis exactly once."""

import functools
import sys
from collections import Counter
from pathlib import Path

import pytest

from dirackit.brackets import DiracContext
from dirackit.cli import main

from conftest import replace_everywhere

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
