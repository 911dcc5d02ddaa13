"""Public surface must be reached by the program or by the acceptance gate.

Three checks, each an ast walk:

* Every public top-level function and class is reached.  It is reached
  when another module of the package (re-exports in ``__init__.py`` do
  not count) or ``tests/test_acceptance.py`` names it, or when reached
  code of its own module names it.
* Every public method, property and classmethod is reached.  It is
  reached when it is accessed as an attribute (``.name``) in another
  module of the package, in ``tests/test_acceptance.py``, or in reached
  code of its own module outside its own body.
* Every defaulted parameter of a public function or method is passed, by
  keyword or by position, by some call in ``src/``, ``tests/`` or
  ``perfbench/``.  A call through ``*args`` or ``**kwargs`` counts as
  passing every parameter.

Reached code of a module is its top-level statements outside any
definition, the bodies of its reached functions, and, of a reached class,
the class-level statements, the special methods (``__init__`` and the
like, which run implicitly), and the reached private and public members.
Anything else is public surface that only its own unit tests keep alive.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "aperture_forge"
ACCEPTANCE = TESTS / "test_acceptance.py"
CALLERS = (ROOT / "src", TESTS, ROOT / "perfbench")

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _names(nodes):
    """Identifiers named in ``nodes`` (names, attributes and imported
    names), and the attribute names alone."""
    ids, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                ids.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                ids.add(sub.attr)
                attrs.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                ids.update(alias.name for alias in sub.names)
    return ids, attrs


def _modules():
    return {path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", "."):
            ast.parse(path.read_text())
            for path in sorted(PACKAGE.rglob("*.py")) if path.name != "__init__.py"}


def _unreached_in(tree, ids, attrs):
    """Qualified names of the public definitions and members of one module
    that are not reached, given what the rest of the program names."""
    tops = {node.name: node for node in tree.body if isinstance(node, _DEFS)}
    members = {f"{cls.name}.{node.name}": node
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, _FUNCS)}
    reached = set()
    code = [node for node in tree.body if not isinstance(node, _DEFS)]
    while code:
        new_ids, new_attrs = _names(code)
        ids, attrs = ids | new_ids, attrs | new_attrs
        code = []
        for name, node in tops.items():
            if name in ids and name not in reached:
                reached.add(name)
                if isinstance(node, ast.ClassDef):
                    code += [sub for sub in node.body if not isinstance(sub, _FUNCS)]
                else:
                    code.append(node)
        for qual, node in members.items():
            cls, name = qual.split(".")
            special = name.startswith("__") and name.endswith("__")
            if cls in reached and qual not in reached and (special or name in attrs):
                reached.add(qual)
                code.append(node)
    return sorted(qual for qual in list(tops) + list(members)
                  if qual not in reached and not qual.split(".")[-1].startswith("_"))


def _unreached():
    """(module, qualified name) of every unreached public definition and
    public member."""
    modules = _modules()
    named = {module: _names([tree]) for module, tree in modules.items()}
    acceptance = _names([ast.parse(ACCEPTANCE.read_text())])
    missing = []
    for module, tree in modules.items():
        ids, attrs = set(acceptance[0]), set(acceptance[1])
        for other, (other_ids, other_attrs) in named.items():
            if other != module:
                ids |= other_ids
                attrs |= other_attrs
        missing += [(module, qual) for qual in _unreached_in(tree, ids, attrs)]
    return missing


def unreached_names():
    return [f"{module}.{qual}" for module, qual in _unreached() if "." not in qual]


def unreached_members():
    return [f"{module}.{qual}" for module, qual in _unreached() if "." in qual]


def _public_functions():
    """(qualified name, def node, whether a first parameter self or cls is
    bound) for every public function and every public method of a public
    class."""
    for module, tree in _modules().items():
        for node in tree.body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            if isinstance(node, _FUNCS):
                yield f"{module}.{node.name}", node, False
                continue
            for member in node.body:
                if isinstance(member, _FUNCS) and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member, True


def _calls():
    """Callee name -> list of (positional count, keyword names, starred)."""
    calls = {}
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(kw.arg is None for kw in node.keywords)
                calls.setdefault(name, []).append(
                    (len(node.args), {kw.arg for kw in node.keywords}, starred))
    return calls


def unpassed_parameters():
    """``module.function(param)`` for every defaulted parameter of a public
    function or method that no call passes."""
    calls = _calls()
    missing = []
    for qual, node, bound in _public_functions():
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args][int(bound):]
        defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        sites = calls.get(node.name, [])
        for param in defaulted:
            index = positional.index(param) if param in positional else None
            if not any(starred or param in keywords or (index is not None and n_pos > index)
                       for n_pos, keywords, starred in sites):
                missing.append(f"{qual}({param})")
    return missing


def test_every_public_name_is_reached():
    assert unreached_names() == []


def test_every_public_member_is_reached():
    assert unreached_members() == []


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters() == []
