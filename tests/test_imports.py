"""Every name a dirackit module imports at module level is used there.

A stray import costs every fresh process its import time, and it hides
what a module really depends on.  `from __future__` imports are exempt,
and so is `__init__.py`, which imports to re-export.  A use is a loaded
name; with `from __future__ import annotations` no annotation needs
quotes, so a name used only inside a quoted annotation counts as unused.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dirackit"
# `dataclasses` imports `inspect`, and `inspect` imports `ast`, `dis` and
# `tokenize`: milliseconds of start-up in every process that runs the CLI.
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """The names the module-level import statements bind, with their lines."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [((a.asname or a.name).partition(".")[0], node.lineno)
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [(a.asname or a.name, node.lineno) for a in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def loaded_modules(code: str) -> set[str]:
    """sys.modules after running code in a fresh interpreter that finds dirackit in src."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    probe = f"{code}\nimport sys\nprint(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


def test_importing_the_cli_loads_no_introspection_module():
    bare = loaded_modules("pass")
    added = loaded_modules("import dirackit.cli") - bare
    assert "dirackit.cli" in added
    assert sorted(added & INTROSPECTION) == []
