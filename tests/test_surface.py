"""The public surface: every exported name has a caller, and every import
of a package module is used.

A name in `ewhorizon.__all__` stays only where something outside the
tests reaches it: code of the package that a caller reaches in turn
(module-level code, the `ewh` console script, a live definition), a
demo, or the benchmark under perfbench/ (which names its trace targets
as strings), or where `_KEPT` says why it stays without one.  So does a
public method or property of an exported class (its own or a package
base class's): something outside the tests reads its name.  Read with
the standard library's `ast`; nothing is imported but the package.
"""

import ast
import pathlib
import re

import ewhorizon

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ewhorizon"

# exported names with no caller outside the tests, and why each stays
_KEPT = {
    "ew_residual": "the public API: the Einstein-Weyl residual",
    "Jet3": "the public API: the jets a metric is written in",
    "run_check": "the public API: one named check, as `ewh verify` runs it",
    "fd_oracle": "the finite-difference reference the jet tests check "
                 "derivatives against",
    "F_from_h": "the pointwise F(h) the F_from_h_field jets are checked "
                "against",
    "jacobi_sn_cn_dn": "the Jacobi reference the sn(., i) and wp jets are "
                       "checked against",
    "abel_rhs": "the Abel equation abel_parametric is checked against",
}


def _sources(directory):
    return {p: ast.parse(p.read_text())
            for p in sorted(directory.glob("*.py"))}


def _references(node, strings=False):
    """Names that `node` reads: loaded names, attributes and, with
    `strings`, string constants (perfbench names its targets so)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) \
                and isinstance(n.value, str):
            out.add(n.value)
    return out


def _live_names():
    """Every name reached from outside the tests: the roots (module-level
    code of the package, its console scripts, demos, perfbench and
    `_KEPT`), then every top-level definition of the package that a
    reached name names, until none is added."""
    # the console scripts' entry points, as `ewh = "ewhorizon.cli:main"`
    live = set(_KEPT) | set(re.findall(r'^\w+ = "ewhorizon\.\w+:(\w+)"$',
                                       (ROOT / "pyproject.toml").read_text(),
                                       re.MULTILINE))
    uses = {}  # top-level definition -> the names its body reads
    for path, tree in _sources(PACKAGE).items():
        if path.name == "__init__.py":  # the re-exports
            continue
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                uses.setdefault(stmt.name, set()).update(_references(stmt))
            else:
                live |= _references(stmt)
    for directory in ("demos", "perfbench"):
        for tree in _sources(ROOT / directory).values():
            live |= _references(tree, strings=directory == "perfbench")
    todo = list(live)
    while todo:
        for name in uses.get(todo.pop(), ()):
            if name not in live:
                live.add(name)
                todo.append(name)
    return live


def test_every_exported_name_has_a_caller_outside_the_tests():
    live = _live_names()
    assert [n for n in ewhorizon.__all__ if n not in live] == []


def _public_members():
    """Each public method and property, as "Class.name", that an
    exported class defines in the package, itself or in a package base
    class."""
    classes = {stmt.name: stmt for tree in _sources(PACKAGE).values()
               for stmt in tree.body if isinstance(stmt, ast.ClassDef)}
    out = set()
    for name in ewhorizon.__all__:
        cls = getattr(ewhorizon, name)
        if not isinstance(cls, type):
            continue
        for base in cls.__mro__:
            if base.__module__.startswith("ewhorizon."):
                out |= {f"{name}.{n.name}"
                        for n in classes[base.__name__].body
                        if isinstance(n, ast.FunctionDef)
                        and not n.name.startswith("_")}
    return out


def test_every_public_method_of_an_exported_class_has_a_caller():
    live = _live_names()
    members = _public_members()
    assert "Jet3.partial" in members and "ScalarField1D.at" in members
    assert sorted(m for m in members
                  if m.partition(".")[2] not in live) == []


def test_kept_names_are_exported():
    assert set(_KEPT) <= set(ewhorizon.__all__)


def test_no_package_module_imports_a_name_it_does_not_use():
    unused = {}
    for path, tree in _sources(PACKAGE).items():
        imported = set()
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.module != "__future__":
                imported |= {a.asname or a.name for a in n.names}
            elif isinstance(n, ast.Import):
                imported |= {(a.asname or a.name).partition(".")[0]
                             for a in n.names}
        # the package's own imports are its exports, which __all__ lists
        used = set(ewhorizon.__all__) if path.name == "__init__.py" \
            else {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}
