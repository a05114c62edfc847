"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "banachlab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """The name each import of a module binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    """Every name a module of the package imports is read in it: no linter
    runs on the source, so an import left behind by a deletion shows here.
    __init__ imports to re-export, and is left out."""
    tree = ast.parse((SRC / module).read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = [(name, line) for name, line in _imported_names(tree) if name not in read]
    assert not unread, (module, unread)
