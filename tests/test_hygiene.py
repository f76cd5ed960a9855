"""Source hygiene: no module-level import goes unused, no exception class
goes unraised, and no parameter is quietly ignored.

An import counts as used when its bound name is read anywhere in the module
(as a name or as the base of an attribute), or is listed in ``__all__``.
An exception class of ``errors.py`` counts as raised when some ``raise``
under ``src/qdtorus/`` names it (called or bare, plain or as an attribute).
A parameter of a ``def`` under ``src/qdtorus/`` counts as read when its name
is loaded anywhere in the body, nested functions included; ``self`` and
``cls`` are exempt, and so are the few listed in ``UNREAD_ALLOWED``.
Only ``algebras.py`` knows the normal words of ADTq's lattice triples: no
other module of the package imports or reads its word builders.
No module keeps a witness by hand with ``x = x or ...``: a check takes the
first witness of its scan through ``report.checks_from``.
Neither ``cli.py`` nor ``suites.py`` lists algebra tags by hand: names come
from ``algebras.ALGEBRAS`` and ``suites.HOPF_ALGEBRAS``.
No ``add_argument`` call in ``cli.py`` renames a flag with ``dest=``, and a
suite-parameter flag leaves its default to ``SuiteParams``, which holds its
fields and no per-run state.
No check-level function of ``galois``, ``hopf``, ``suites`` or ``gns``
(``convention_report``, ``verify_*``, ``*_mismatches``, ``*_failures``)
carries a process-wide cache decorator: a warm cache would hand a later run
the verdict of an earlier one, hiding a defect that appeared in between.
Only ``galois.hopf_star_map_failures`` states the laws of a Hopf *-map: no
other function maps both legs of a coproduct, calling ``apply_leg`` with the
constant leg 0 and with the constant leg 1.
Every object builds its own private state: outside ``scalars.py``, no code
reads or writes a ``_``-prefixed, non-dunder attribute of anything but
``self``, ``cls`` or a capitalised class name (``Element._canonical``).
"""

import ast
import dataclasses
import functools
from pathlib import Path

import pytest

from qdtorus.algebras import ALGEBRAS
from qdtorus.suites import HOPF_ALGEBRAS, SuiteParams

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


# (module, function, parameter) -> why the body may leave it unread
UNREAD_ALLOWED = {
    ("algebras.py", "basis_by_degree", "max_len"): "an override: the basis of AZ2 is finite",
    ("suites.py", "_thunks_characters", "run"): "every suite builder takes the run",
    ("galois.py", "coaction_lambda_from_ell", "conv"): (
        "the cocleaving map does not depend on the convention, "
        "but the acceptance tests pin the signature"
    ),
}


def unread_parameters(tree: ast.Module) -> list[tuple[str, str, int]]:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [
            (node.name, a.arg, node.lineno)
            for a in params
            if a.arg not in ("self", "cls") and a.arg not in read
        ]
    return found


def test_no_parameter_is_quietly_ignored():
    found = {
        (path.name, func, arg)
        for path in PACKAGE
        for func, arg, _ in unread_parameters(ast.parse(path.read_text(), str(path)))
    }
    assert sorted(found - set(UNREAD_ALLOWED)) == []
    assert sorted(set(UNREAD_ALLOWED) - found) == []  # no stale allowance


def test_the_scan_sees_an_unread_parameter():
    tree = ast.parse(
        "def f(self, a, b, *rest, c=1, **kw):\n"
        "    b = 2\n"
        "    def g():\n"
        "        return a + kw['x']\n"
        "    return g\n"
    )
    assert unread_parameters(tree) == [("f", "b", 1), ("f", "c", 1), ("f", "rest", 1)]


CORNER_WORD_BUILDERS = ("quotient_mon_word", "corner_word")


def corner_word_uses(tree: ast.Module) -> list[str]:
    """The word builders a module imports by name or reads as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in CORNER_WORD_BUILDERS]
        elif isinstance(node, ast.Attribute) and node.attr in CORNER_WORD_BUILDERS:
            found.append(node.attr)
    return found


@pytest.mark.parametrize(
    "path",
    [path for path in PACKAGE if path.name != "algebras.py"],
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_only_algebras_spells_adtq_words(path):
    assert corner_word_uses(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_sees_a_corner_word_import():
    tree = ast.parse(
        "from .algebras import adtq, corner_word as cw\n"
        "from . import algebras\n"
        "algebras.quotient_mon_word(1)\n"
    )
    assert corner_word_uses(tree) == ["corner_word", "quotient_mon_word"]


def or_accumulators(tree: ast.Module) -> list[str]:
    """Each ``x = x or ...`` whose target is a name or a subscript."""
    return [
        f"{ast.unparse(node.targets[0])} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], (ast.Name, ast.Subscript))
        and isinstance(node.value, ast.BoolOp)
        and isinstance(node.value.op, ast.Or)
        and ast.unparse(node.value.values[0]) == ast.unparse(node.targets[0])
    ]


def test_no_module_accumulates_a_witness_by_hand():
    found = [
        f"{path.name}: {site}"
        for path in PACKAGE
        for site in or_accumulators(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_scan_sees_an_or_accumulator():
    tree = ast.parse(
        "bad = bad or f'x'\n"
        "failures['law'] = failures['law'] or str(el)\n"
        "bad = other or 'x'\n"
        "bad = bad and 'x'\n"
        "self.bad = self.bad or 'x'\n"
    )
    assert or_accumulators(tree) == ["bad (line 1)", "failures['law'] (line 2)"]


def algebra_tag_lists(tree: ast.Module, tags: set[str]) -> list[str]:
    """Each tuple, list, set or dict literal naming two or more of ``tags``,
    apart from the value assigned to ``HOPF_ALGEBRAS``."""
    exempt = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "HOPF_ALGEBRAS" for t in node.targets)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            items = node.elts
        elif isinstance(node, ast.Dict):
            items = node.keys
        else:
            continue
        named = [n.value for n in items if isinstance(n, ast.Constant) and n.value in tags]
        if len(named) >= 2 and id(node) not in exempt:
            found.append((node.lineno, f"{', '.join(named)} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("name", ["cli.py", "suites.py"])
def test_algebra_tags_are_listed_once(name):
    path = ROOT / "src" / "qdtorus" / name
    tags = {*ALGEBRAS, *HOPF_ALGEBRAS}
    assert algebra_tag_lists(ast.parse(path.read_text(), str(path)), tags) == []


def test_the_scan_sees_a_planted_tag_list():
    tree = ast.parse(
        'HOPF_ALGEBRAS = ("AUq2", "ADTq")\n'
        'names = ["AUq2", "ADTq"] if everything else ("AZ2",)\n'
        'table = {"AT2": at2, "AZ2": az2, "other": 1}\n'
        'default = "AT2"\n'
    )
    found = algebra_tag_lists(tree, {"AUq2", "ADTq", "AT2", "AZ2"})
    assert found == ["AUq2, ADTq (line 2)", "AT2, AZ2 (line 3)"]


def argument_default_faults(tree: ast.Module, fields: set[str]) -> list[str]:
    """Each ``add_argument`` call that passes ``dest=``, and each one for a
    flag of ``fields`` (``--max-deg`` for ``max_deg``), or for a flag whose
    name is not a literal, whose default is not ``argparse.SUPPRESS``. An
    option that passes no default has the default None."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"):
            continue
        first = node.args[0] if node.args else None
        literal = isinstance(first, ast.Constant)
        flag = first.value if literal else ast.unparse(first)
        keywords = {kw.arg: ast.unparse(kw.value) for kw in node.keywords}
        if "dest" in keywords:
            found.append(f"{flag} passes dest= (line {node.lineno})")
        optional = not literal or flag.startswith("-")
        default = keywords.get("default", "None" if optional else "argparse.SUPPRESS")
        suite_flag = not literal or flag.lstrip("-").replace("-", "_") in fields
        if suite_flag and default != "argparse.SUPPRESS":
            found.append(f"{flag} defaults to {default} (line {node.lineno})")
    return found


def test_suite_flags_take_their_defaults_from_suite_params():
    path = ROOT / "src" / "qdtorus" / "cli.py"
    fields = {f.name for f in dataclasses.fields(SuiteParams)}
    assert argument_default_faults(ast.parse(path.read_text(), str(path)), fields) == []


def test_suite_params_are_plain_data():
    """The flag schema carries no per-run state: an instance holds its
    fields and nothing else, and the class computes no attribute."""
    fields = {f.name for f in dataclasses.fields(SuiteParams)}
    assert set(vars(SuiteParams())) == fields
    computed = [
        name
        for name, member in vars(SuiteParams).items()
        if isinstance(member, (property, functools.cached_property))
    ]
    assert computed == []


def test_the_scan_sees_a_second_default():
    tree = ast.parse(
        'cmd.add_argument("--window", type=int, default=6)\n'
        'cmd.add_argument("--range", type=int, dest="exp_range", default=argparse.SUPPRESS)\n'
        'cmd.add_argument("--report", choices=("text", "json"), default="text")\n'
        'cmd.add_argument("--jobs", type=int)\n'
        'cmd.add_argument("--" + name, default=argparse.SUPPRESS)\n'
        'cmd.add_argument(flag_of(name), type=int, default=0)\n'
        'cmd.add_argument("quotient_n", metavar="n", type=int)\n'
        'cmd.add_argument("--q-theta", type=float, default=argparse.SUPPRESS)\n'
    )
    found = argument_default_faults(tree, {"window", "range", "jobs", "quotient_n", "q_theta"})
    assert found == [
        "--window defaults to 6 (line 1)",
        "--range passes dest= (line 2)",
        "--jobs defaults to None (line 4)",
        "flag_of(name) defaults to 0 (line 6)",
    ]


CHECK_MODULES = ("galois.py", "hopf.py", "suites.py", "gns.py")
PROCESS_CACHES = ("lru_cache", "cache")


def is_check_level(name: str) -> bool:
    return (
        name == "convention_report"
        or name.startswith("verify_")
        or name.endswith(("_mismatches", "_failures"))
    )


def memoized_checks(tree: ast.Module) -> list[str]:
    """Each check-level function or method decorated with ``lru_cache`` or
    ``cache``, bare or called, plain or as an attribute of ``functools``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name in PROCESS_CACHES and is_check_level(node.name):
                found.append(f"{node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("name", CHECK_MODULES)
def test_no_check_is_memoized_process_wide(name):
    path = ROOT / "src" / "qdtorus" / name
    assert memoized_checks(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_sees_a_memoized_check():
    tree = ast.parse(
        "@lru_cache(maxsize=None)\n"
        "def convention_report(conv): ...\n"
        "@functools.cache\n"
        "def verify_prop14_diagram(max_exp): ...\n"
        "class A:\n"
        "    @functools.lru_cache\n"
        "    def _law_failures(self): ...\n"
        "@lru_cache(maxsize=None)\n"
        "def cleaving_j_mon(k, l): ...\n"
        "@cached_property\n"
        "def sigma_table_mismatches(self): ...\n"
        "@cache\n"
        "def sigma_table_mismatches_report(conv): ...\n"
    )
    assert memoized_checks(tree) == [
        "convention_report (line 2)",
        "verify_prop14_diagram (line 4)",
        "_law_failures (line 7)",
    ]


def own_nodes(func: ast.FunctionDef):
    """The nodes of a def's body, lambdas included, outside its nested defs
    and classes."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def both_leg_maps(tree: ast.Module) -> list[str]:
    """Each def that calls ``apply_leg`` with the constant leg 0 and also with
    the constant leg 1 in its own body."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        legs = {
            call.args[0].value
            for call in own_nodes(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "apply_leg"
            and call.args
            and isinstance(call.args[0], ast.Constant)
        }
        if {0, 1} <= legs:
            found.append(node.name)
    return found


def test_one_function_states_the_hopf_star_map_laws():
    found = [
        f"{path.stem}.{name}"
        for path in PACKAGE
        for name in both_leg_maps(ast.parse(path.read_text(), str(path)))
    ]
    assert found == ["galois.hopf_star_map_failures"]


def test_the_scan_sees_a_map_of_both_legs():
    tree = ast.parse(
        "def outer(t):\n"
        "    def legs(m):\n"
        "        return t.apply_leg(0, f, a).apply_leg(1, f, a)\n"
        "    return legs\n"
        "def by_lambda(t):\n"
        "    both = lambda: t.apply_leg(1, f, a)\n"
        "    return t.apply_leg(0, f, a), both\n"
        "def one_leg(t):\n"
        "    return t.apply_leg(1, f, a)\n"
        "def by_variable(t):\n"
        "    return [t.apply_leg(leg, f, a) for leg in (0, 1)]\n"
    )
    assert sorted(both_leg_maps(tree)) == ["by_lambda", "legs"]


PRIVATE_ACCESS_EXEMPT = ("scalars.py",)


def foreign_private_accesses(tree: ast.Module) -> list[str]:
    """Each ``_``-prefixed, non-dunder attribute read or written on a base
    other than ``self``, ``cls`` or a capitalised name, with the def it is
    in, once per site."""
    found: dict = {}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute):
                attr, base = child.attr, child.value
                dunder = attr.startswith("__") and attr.endswith("__")
                own = isinstance(base, ast.Name) and (
                    base.id in ("self", "cls") or base.id[:1].isupper()
                )
                if attr.startswith("_") and not dunder and not own:
                    found[f"{where}: {ast.unparse(child)} (line {child.lineno})"] = None
            visit(child, where)

    visit(tree, "<module>")
    return list(found)


def test_no_private_attribute_is_touched_from_outside():
    found = [
        f"{path.name}: {site}"
        for path in PACKAGE
        if path.name not in PRIVATE_ACCESS_EXEMPT
        for site in foreign_private_accesses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_scan_sees_a_planted_private_write():
    tree = ast.parse(
        "@algebra_factory\n"
        "def at2():\n"
        "    alg = TorusAlgebra('AT2', system)\n"
        "    alg._names = ('u', 'uinv', 'v', 'vinv')\n"
        "    alg._names = alg._names\n"
        "    return alg\n"
        "class TorusAlgebra:\n"
        "    def lattice_mon(self, k, l):\n"
        "        u = self._names[0]\n"
        "        return self.system.rank, Element._canonical(self, {}), cls._x, type(self).__name__\n"
        "def peek(rho):\n"
        "    return rho.images, rho._images['x'], algebras._finite_quotient_cached.__wrapped__\n"
    )
    assert foreign_private_accesses(tree) == [
        "at2: alg._names (line 4)",
        "at2: alg._names (line 5)",
        "peek: rho._images (line 12)",
        "peek: algebras._finite_quotient_cached (line 12)",
    ]
