"""Every name a library module imports is read somewhere in it, and every
function, method and class the library defines is referenced somewhere.

A stdlib ``ast`` scan standing in for a linter: for each module of
``src/a2bundle`` it collects the names bound by relative imports
(``from .x import y``, also inside functions) and by every module-level
import (``import x``, ``from x import y``), and fails on any that the module
never reads. Names used only inside quoted annotations count as read.
``from __future__`` imports bind nothing to read. ``__init__.py`` is
skipped: its imports are the package's re-exports.

A definition counts as referenced when its name appears as a name, an
attribute or an import in ``src/`` or ``tests/``; dunder methods are called
by the interpreter and are exempt.

The benchmark's tracer (``perfbench/layers.py``) wraps library functions and
methods by name, so those names must stay defined as well.

No function of the library assigns a plain name that it never reads;
tuple-unpacking targets and ``_``-prefixed names are exempt.

Only ``poly.py`` touches the term store of a ``MultiPoly``: no other module
reads an attribute named ``terms``, ``_terms`` or ``_pair``, or passes
``_clean=``.

Only ``bivariable.certify`` calls ``BivariableCert(``: a certificate built
with a parent continues the parent's chart maps, so nothing else in the
library may make one.

No ``except`` handler of the library has a body of only ``pass``: an error
is either handled or left to propagate, never swallowed.

A fresh ``import a2bundle.cli`` loads neither ``dataclasses`` nor ``inspect``.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "a2bundle"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree):
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a quoted annotation such as "RingDescriptor | None"
                expr = ast.parse(node.value, mode="eval")
                read.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return read


def _bound_names(imports):
    for node in imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _assert_all_read(path, select):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _names_read(tree)
    unused = [f"{name} (line {line})"
              for name, line in _bound_names(select(tree)) if name not in read]
    assert not unused, f"{path.name} imports but never reads: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_relative_imports(path):
    _assert_all_read(path, lambda tree: [
        n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level > 0])


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_imports(path):
    _assert_all_read(path, lambda tree: [
        n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))])


def _unread_assignments(tree):
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # reads in nested functions and lambdas count for the enclosing one
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(fn):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("_") and t.id not in read:
                    yield f"{t.id} (line {node.lineno})"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unread_local_assignments(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = sorted(set(_unread_assignments(tree)))
    assert not unread, f"{path.name} assigns but never reads: {', '.join(unread)}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "poly.py"],
                         ids=lambda p: p.name)
def test_term_store_stays_inside_poly(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = [f"line {node.lineno}: .{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("terms", "_terms", "_pair")]
    hits += [f"line {node.value.lineno}: _clean=" for node in ast.walk(tree)
             if isinstance(node, ast.keyword) and node.arg == "_clean"]
    assert not hits, f"{path.name} reaches into MultiPoly terms: {', '.join(hits)}"


def _calls_by_function(node, name, fn=None):
    """``(enclosing function, line)`` of every call to ``name`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            callee = child.func
            if getattr(callee, "id", getattr(callee, "attr", None)) == name:
                yield fn, child.lineno
        inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else fn)
        yield from _calls_by_function(child, name, inner)


def test_only_certify_builds_certificates():
    calls = [(path.name, fn, line) for path in sorted(SRC.glob("*.py"))
             for fn, line in _calls_by_function(ast.parse(path.read_text()),
                                                "BivariableCert")]
    assert calls, "no BivariableCert( call found in src/"
    stray = [f"{name}:{line} in {fn}" for name, fn, line in calls
             if (name, fn) != ("bivariable.py", "certify")]
    assert not stray, f"BivariableCert built outside certify: {', '.join(stray)}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_except_handler_only_passes(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler)
            and all(isinstance(stmt, ast.Pass) for stmt in node.body)]
    assert not hits, f"{path.name} swallows exceptions: {', '.join(hits)}"


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.split(".")[-1]


def test_every_definition_is_referenced():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    referenced = set()
    defined = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        referenced.update(_references(tree))
        if path.parent == SRC:
            defined.extend(
                (f"{path.name}:{node.lineno} {node.name}", node.name)
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)))
    unused = [where for where, name in defined
              if name not in referenced
              and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, f"defined but never referenced: {', '.join(unused)}"


def test_perfbench_boundaries_are_defined(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    from a2bundle.fields import PrimeField, QuotientExtension, Rationals
    from a2bundle.poly import MultiPoly

    missing = [f"{module}.{attr}" for _, module, attr, _ in layers.FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    # wrap_method replaces entries of the class's own __dict__
    owned = [(MultiPoly, attr) for attr in ("__add__", "__mul__", "__pow__")]
    owned += [(cls, op) for cls in (Rationals, PrimeField, QuotientExtension)
              for op in layers.FIELD_OPS]
    missing += [f"{cls.__name__}.{attr}" for cls, attr in owned
                if not callable(cls.__dict__.get(attr))]
    assert not missing, f"perfbench wraps undefined names: {', '.join(missing)}"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """A fresh ``import a2bundle.cli`` stays free of ``dataclasses`` and of
    ``inspect``, which only ``dataclasses`` pulled in; together they cost
    about 20 ms of every ``verify`` process."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = "import sys, a2bundle.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert out.stdout.strip() == "[]"


def test_src_within_seed_line_budget():
    """``src/`` stays at or below the seed's 4,349 lines, so every feature
    pays for its code with deletions elsewhere."""
    lines = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    assert lines <= 4349, f"src/a2bundle has {lines} lines, budget 4349"
