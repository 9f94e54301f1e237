"""Every name a dirackit module imports at module level is used there.

A stray import costs every fresh process its import time, and it hides
what a module really depends on.  `from __future__` imports are exempt,
and so is `__init__.py`, which imports to re-export.  A use is a loaded
name; with `from __future__ import annotations` no annotation needs
quotes, so a name used only inside a quoted annotation counts as unused.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dirackit"
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
