"""The benchmark still runs on the library as it is.

Every dirackit function and method that the benchmark's tracer wraps
still exists.  The tracer patches them by name at run time, so a rename
or a deleted function would otherwise only show as a failed traced run.
The tracer's tables are read from its source, without importing it.

One pass of each workload in `BENCHMARK.json` runs through the
benchmark's own input generator and output checks, so that a change to
an API the benchmark calls fails here rather than in a benchmark run."""

import ast
import contextlib
import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SCHEMA = ROOT / "src" / "dirackit" / "report_schema.json"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _table(name: str) -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no {name}")


def test_every_traced_function_resolves():
    functions = _table("FUNCTIONS")
    assert functions
    missing = [f"{module}.{name}" for module, name, _ in functions
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_every_traced_method_resolves():
    methods = _table("METHODS")
    assert methods
    missing = [f"{module}.{cls}.{name}" for module, cls, name, _ in methods
               if not callable(getattr(getattr(importlib.import_module(module), cls, None),
                                       name, None))]
    assert missing == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_pass_passes_the_benchmark_checks(name, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TRACER.parent))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    bench = workloads.build(name, 1, tmp_path)
    checker = checks.Checker(SCHEMA, seed=1)
    bench.record(bench.run_pass(lambda label: contextlib.nullcontext()), checker)
    checker.finish()
    assert checker.attempted > 0
    assert checker.failed == 0, capsys.readouterr().err
