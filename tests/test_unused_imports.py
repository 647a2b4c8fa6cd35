"""No module imports a name it never reads (pyflakes' F401, offline).

The CI lint job runs ``ruff check .``; this test applies its unused-import
rule to ``src/``, ``tests/`` and ``examples/`` with :mod:`ast` alone, so
the rule holds wherever the test suite runs.

An import binds a name in the scope it appears in: the module, or the
function or class around it.  The name counts as read when it is loaded
anywhere inside that scope, nested functions included, or when the
module lists it in ``__all__``.  Package ``__init__.py`` files (they
re-export) and import lines marked ``# noqa`` are exempt.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for top in ("src", "tests", "examples")
    for path in (ROOT / top).rglob("*.py")
    if path.name != "__init__.py"
)

_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
           ast.Lambda)


def _exported(tree):
    """Names listed in a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(
                element.value for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
            )
    return names


def _bindings(node):
    """``(name, import node)`` for each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.name == "*":
            continue
        yield alias.asname or alias.name.split(".")[0], node


def unused_imports(source):
    """``(line, name)`` of every imported name ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = _exported(tree)
    unused = []

    def visit(scope):
        loaded = {
            node.id for node in ast.walk(scope)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        pending = list(ast.iter_child_nodes(scope))
        while pending:
            node = pending.pop()
            if isinstance(node, _SCOPES):
                visit(node)
                continue
            pending.extend(ast.iter_child_nodes(node))
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for name, statement in _bindings(node):
                if name in loaded:
                    continue
                if isinstance(scope, ast.Module) and name in exported:
                    continue
                unused.append((statement.lineno, name))

    visit(tree)
    return sorted(unused)


@pytest.mark.parametrize(
    "path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES]
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_scopes_exports_and_noqa():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads\n"
        "import xml.dom\n"
        "__all__ = ['dumps']\n"
        "def f():\n"
        "    import re\n"
        "    return xml.dom\n"
        "def g():\n"
        "    return re\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "loads"), (7, "re")]
