"""Every definition in src/lagweb is reached by the program, its acceptance
criteria or its benchmark, not by unit tests alone.

Each top-level function, class, method and module constant of
``src/lagweb/*.py`` must be named somewhere outside its own definition, in
``src/lagweb``, ``tests/test_acceptance.py`` or ``perfbench/*.py``.  A name
counts when it occurs as a loaded name, an attribute, an imported name, a
keyword argument or a string that is one identifier (as ``getattr`` and
``monkeypatch.setattr`` take it).  Dunders are exempt.  A helper that only
unit tests use belongs in the tests.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "lagweb"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def definitions(tree):
    """(name, node) of each top-level function, class, method and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node


def references(tree):
    """(name, line) of each name use in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.value.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and IDENTIFIER.fullmatch(node.value)):
            yield node.value, node.lineno


def unreached():
    sources = [*sorted(PACKAGE.glob("*.py")), REPO / "tests" / "test_acceptance.py",
               *sorted((REPO / "perfbench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sources}
    uses = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            uses.setdefault(name, []).append((path, line))
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = [(where, line) for where, line in uses.get(name, ())
                       if where != path or not node.lineno <= line <= node.end_lineno]
            if not outside:
                missing.append(f"{path.name}:{node.lineno} {name}")
    return missing


def test_every_definition_is_reached():
    assert unreached() == []
