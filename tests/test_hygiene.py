"""Source hygiene: no module-level import goes unused, and no exception
class goes unraised.

An import counts as used when its bound name is read anywhere in the module
(as a name or as the base of an attribute), or is listed in ``__all__``.
An exception class of ``errors.py`` counts as raised when some ``raise``
under ``src/qdtorus/`` names it (called or bare, plain or as an attribute).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qdtorus").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def unraised_classes(errors: ast.Module, modules: list[ast.Module]) -> list[str]:
    defined = [n.name for n in errors.body if isinstance(n, ast.ClassDef) and n.name != "QdtError"]
    raised = set()
    for tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return [name for name in defined if name not in raised]


def test_every_error_class_is_raised():
    trees = [ast.parse(path.read_text(), str(path)) for path in PACKAGE]
    errors = ast.parse((ROOT / "src" / "qdtorus" / "errors.py").read_text())
    assert unraised_classes(errors, trees) == []


def test_the_scan_sees_an_unraised_class():
    errors = ast.parse(
        "class QdtError(Exception): ...\n"
        "class A(QdtError): ...\n"
        "class B(QdtError): ...\n"
        "class C(QdtError): ...\n"
    )
    user = ast.parse("raise A('x')\nraise errors.C\nB('built, never raised')\n")
    assert unraised_classes(errors, [user]) == ["B"]
