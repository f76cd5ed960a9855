"""Source hygiene: no module-level import goes unused.

An import counts as used when its bound name is read anywhere in the module
(as a name or as the base of an attribute), or is listed in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qdtorus").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os, sys\nfrom a import b as c, d\n__all__ = ['d']\nsys.exit(0)\n")
    assert unused_imports(tree) == ["os (line 1)", "c (line 2)"]
