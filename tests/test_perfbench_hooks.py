"""Every dirackit function and method that the benchmark's tracer wraps
still exists.  The tracer patches them by name at run time, so a rename
or a deleted function would otherwise only show as a failed traced run.
The tracer's tables are read from its source, without importing it."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
