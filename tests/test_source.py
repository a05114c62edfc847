"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import banachlab

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


def _read_names(node):
    """The names a subtree reads, as a name or an attribute."""
    return {t.id if isinstance(t, ast.Name) else t.attr for t in ast.walk(node)
            if (isinstance(t, ast.Name) and isinstance(t.ctx, ast.Load)) or isinstance(t, ast.Attribute)}


def _units(tree):
    """(needs, reads) for each module-level definition of a module: a
    function or constant reads its body once its name is read; a class its
    bases and class-level body, and each method its body once the class and
    the method's name are read (a dunder method once the class is)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield {node.name}, _read_names(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (({t.id}, _read_names(node)) for t in nodes if isinstance(t, ast.Name))
        elif isinstance(node, ast.ClassDef):
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            rest = [m for m in node.body if not isinstance(m, ast.FunctionDef)]
            yield {node.name}, set().union(*map(_read_names, node.bases + node.decorator_list + rest))
            for m in methods:
                dunder = m.name.startswith("__") and m.name.endswith("__")
                yield {node.name} | (set() if dunder else {m.name}), _read_names(m)


def test_every_exported_name_is_read():
    """Every name that __init__ re-exports is reached, through the
    package's own definitions, from what a run, a script, an acceptance
    check or the benchmark's tracer reads: cli.py, scripts/,
    tests/test_acceptance.py and conftest.py, and the (module, function)
    keys of perfbench/tracing.py.  Exception classes are exempt: they are
    the typed errors a caller catches.  A public function that only its own
    unit tests read shows here."""
    root = SRC.parents[1]
    roots = [SRC / "cli.py", *sorted((root / "scripts").glob("*.py")),
             root / "tests" / "test_acceptance.py", root / "tests" / "conftest.py"]
    reached = set().union(*(_read_names(ast.parse(p.read_text())) for p in roots))
    tracing = ast.parse((root / "perfbench" / "tracing.py").read_text())
    keys = [t.elts for t in ast.walk(tracing) if isinstance(t, ast.Tuple) and len(t.elts) == 2]
    reached |= {fn.value for mod, fn in keys if isinstance(mod, ast.Constant)
                and str(mod.value).startswith("banachlab") and isinstance(fn, ast.Constant)}
    units = [u for p in SRC.glob("*.py") for u in _units(ast.parse(p.read_text()))]
    grown = True
    while grown:
        grown = False
        for needs, reads in units:
            if needs <= reached and not reads <= reached:
                reached |= reads
                grown = True
    exported = [name for name, _ in _imported_names(ast.parse((SRC / "__init__.py").read_text()))]
    raised = {name for name in exported
              if isinstance(getattr(banachlab, name), type) and issubclass(getattr(banachlab, name), BaseException)}
    unread = [name for name in exported if name not in reached | raised]
    assert not unread, unread
