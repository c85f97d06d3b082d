"""Every name that an ``import`` binds is read somewhere in the same module.

This covers each module of the imported ``etog`` package, the tests and the
tools.  ``__init__.py`` is exempt: its imports are the package's re-exports.
So are ``from __future__`` imports, which bind no name that code reads.
"""

import ast
from pathlib import Path

import pytest

import etog

_ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for path in [
        *Path(etog.__file__).parent.glob("*.py"),
        *_ROOT.joinpath("tests").glob("*.py"),
        *_ROOT.joinpath("tools").glob("*.py"),
    ]
    if path.name != "__init__.py"
)


def _unused_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of each name an import binds that the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_guard_reads_the_library_and_the_tests():
    names = {path.name for path in SOURCES}
    assert {"laws.py", "notation.py", "test_acceptance.py", "count_lines.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_read(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert unused == [], f"{path.name}: imported but never read: {unused}"


def test_the_guard_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from a import b as c, d\n"
        "print(os.path.sep, d)\n"
    )
    assert _unused_imports(ast.parse(source)) == [(3, "sys"), (4, "c")]
