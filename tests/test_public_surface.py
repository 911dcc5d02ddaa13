"""Every public top-level function and class must be reached by the
program or by the acceptance gate.

A name is reached when another module of the package (re-exports in
``__init__.py`` do not count) or ``tests/test_acceptance.py`` names it,
when its own module names it outside any definition, or when the body of
a reached definition in its own module names it.  Anything else is public
surface that only its own unit tests keep alive.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "aperture_forge"
ACCEPTANCE = TESTS / "test_acceptance.py"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _identifiers(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreached_names():
    modules = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.rglob("*.py")) if path.name != "__init__.py"}
    named = {path: _identifiers(tree) for path, tree in modules.items()}
    acceptance = _identifiers(ast.parse(ACCEPTANCE.read_text()))
    missing = []
    for path, tree in modules.items():
        outside = set(acceptance)
        for other, names in named.items():
            if other != path:
                outside |= names
        defs = {node.name: node for node in tree.body if isinstance(node, _DEFS)}
        for node in tree.body:
            if not isinstance(node, _DEFS):
                outside |= _identifiers(node)
        reached = set()
        todo = [name for name in defs if name in outside]
        while todo:
            name = todo.pop()
            if name in reached:
                continue
            reached.add(name)
            todo.extend(n for n in _identifiers(defs[name]) if n in defs)
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        missing += [f"{module}.{name}" for name in defs
                    if not name.startswith("_") and name not in reached]
    return sorted(missing)


def test_every_public_name_is_reached():
    assert unreached_names() == []
