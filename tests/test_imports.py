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

Only ``poly.py`` touches the term store of a ``MultiPoly``: no other module
reads an attribute named ``terms`` or passes ``_clean=``.
"""

import ast
import importlib
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


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "poly.py"],
                         ids=lambda p: p.name)
def test_term_store_stays_inside_poly(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = [f"line {node.lineno}: .terms" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "terms"]
    hits += [f"line {node.value.lineno}: _clean=" for node in ast.walk(tree)
             if isinstance(node, ast.keyword) and node.arg == "_clean"]
    assert not hits, f"{path.name} reaches into MultiPoly terms: {', '.join(hits)}"


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
