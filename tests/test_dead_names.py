"""Every name the package defines has a caller inside the package.

A top-level function, class or constant, or a method, of ``src/rerail`` that
nothing in ``src/rerail`` refers to is code with no caller: delete it, or move
it to ``tests/helpers.py`` when only tests use it. Dunder names are called by
Python itself and are left out. Likewise every name a module imports is
used in that module.
"""

import ast
from pathlib import Path

import rerail

PACKAGE = Path(rerail.__file__).parent


def _defined(tree: ast.Module):
    """(name, line) of each top-level function, class and constant, and of
    each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield member.name, member.lineno


def _referenced(tree: ast.Module) -> set[str]:
    """Names read and attributes used anywhere in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_defined_name_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*map(_referenced, trees.values()))
    unused = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _defined(tree)
        if not (name.startswith("__") and name.endswith("__")) and name not in referenced
    ]
    assert unused == []


def _imported(tree: ast.Module):
    """(name, line) of each name an import statement binds, ``__future__``
    features left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert unused == []
