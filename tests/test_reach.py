"""Every definition in src/lagweb is reached by the program, its acceptance
criteria or its benchmark, not by unit tests alone.

Each top-level function, class, method and module constant of
``src/lagweb/*.py`` must be named somewhere outside its own definition, in
``src/lagweb``, ``tests/test_acceptance.py`` or ``perfbench/*.py``.  A name
counts when it occurs as a loaded name, an attribute, an imported name or a
keyword argument, or as the string that names an attribute in a call of
getattr, setattr, hasattr, delattr or monkeypatch.setattr.  Any other
string does not count: a JSON key or a report field that happens to share a
dead method's name keeps nothing alive.  Dunders are exempt.  A helper that
only unit tests use belongs in the tests.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "lagweb"
USERS = [REPO / "tests" / "test_acceptance.py", *sorted((REPO / "perfbench").glob("*.py"))]
ATTRIBUTE_CALLS = {"getattr", "setattr", "hasattr", "delattr"}


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


def attribute_name(call: ast.Call):
    """The attribute that a getattr-like call names by a string, or None."""
    func, args = call.func, call.args
    strings = [a.value if isinstance(a, ast.Constant) and isinstance(a.value, str) else None
               for a in args[:2]]
    if isinstance(func, ast.Name) and func.id in ATTRIBUTE_CALLS and len(args) >= 2:
        return strings[1]
    if (isinstance(func, ast.Attribute) and func.attr == "setattr"
            and isinstance(func.value, ast.Name) and func.value.id == "monkeypatch" and args):
        # monkeypatch.setattr(target, "name", value) or ("module.name", value)
        if len(args) >= 3:
            return strings[1]
        return strings[0].rpartition(".")[2] if strings[0] else None
    return None


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
        elif isinstance(node, ast.Call) and attribute_name(node):
            yield attribute_name(node), node.lineno


def unreached(package=PACKAGE, users=USERS):
    """'file:line name' of each definition in package/*.py that neither the
    package nor the users name outside the definition itself."""
    modules = sorted(Path(package).glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in [*modules, *users]}
    uses = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            uses.setdefault(name, []).append((path, line))
    missing = []
    for path in modules:
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


PLANTED = '''
class Form:
    def omega(self):
        return 1.0

    def volume(self):
        return 2.0

    def area(self):
        return 3.0


def report(form):
    return {"omega": form.volume(), "area": getattr(form, "area")()}
'''


def test_a_string_that_names_no_attribute_keeps_nothing_alive(tmp_path):
    # the dead method omega shares its name with a report key; area is
    # reached through getattr, volume as an attribute
    package = tmp_path / "package"
    package.mkdir()
    (package / "forms.py").write_text(PLANTED, encoding="utf-8")
    user = tmp_path / "user.py"
    user.write_text("from package.forms import Form, report\nreport(Form())\n", encoding="utf-8")
    assert unreached(package, [user]) == ["forms.py:3 omega"]
