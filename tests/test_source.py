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


def _defined_private_names(tree):
    """The module-level names of a module that start with one underscore,
    with their lines: its private functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(t.id, node.lineno) for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, line) for name, line in targets if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_is_read():
    """Every private module-level name of the package is read somewhere in
    it, as a name or an attribute: a helper left behind by a deletion, which
    no caller reads, shows here."""
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [(module, name, line) for module, tree in sorted(trees.items())
              for name, line in _defined_private_names(tree) if name not in read]
    assert not unread, unread
