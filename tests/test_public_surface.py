"""Public surface must be reached by the program or by the acceptance gate.

Five checks of the public surface, each an ast walk:

* Every public top-level function and class is reached.  It is reached
  when another module of the package (re-exports in ``__init__.py`` do
  not count) or ``tests/test_acceptance.py`` names it, or when reached
  code of its own module names it.
* Every public method, property and classmethod is reached.  It is
  reached when it is accessed as an attribute (``.name``) in another
  module of the package, in ``tests/test_acceptance.py``, or in reached
  code of its own module outside its own body.  Members are matched by
  attribute name only: a member that shares its name with a reached
  member of another class (``.power`` of two profile classes, say)
  passes unseen.
* Every defaulted parameter is passed, by keyword or by position, by
  some call in ``src/``, ``perfbench/`` or ``tests/test_acceptance.py``;
  unit tests do not count.  It covers public functions and methods, and
  the constructors of public classes: the defaulted ``__init__``
  parameters, and the dataclass fields with a default that are not
  ``init=False``.  A ``cls(...)`` call inside a classmethod counts as a
  call of that class, and a call through ``*args`` or ``**kwargs`` as
  passing every parameter.
* No parameter of a public function, method or constructor that two or
  more of those calls reach gets the same literal in all of them, or the
  same expression as a sibling parameter in all of them: such a knob is
  a constant, or a copy of its twin.  An omitted argument counts as its
  default, and a starred call as a varying value for every parameter it
  could fill.
* No constructor field of a public dataclass defaults to a literal
  ``None`` (``field(..., init=False)`` fields are not constructor
  fields): an optional field is the start of a union of cases, which
  take one type each.

A sixth walk keeps the layers apart: each library layer (a top-level
module or subpackage other than ``cli``) imports only ``core`` and its
own package.  ``sar`` importing ``waveforms`` is the one exception.

Reached code of a module is its top-level statements outside any
definition, the bodies of its reached functions, and, of a reached class,
the class-level statements, the special methods (``__init__`` and the
like, which run implicitly), and the reached private and public members.
Anything else is public surface that only its own unit tests keep alive.
"""

import ast
import itertools
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "aperture_forge"
ACCEPTANCE = TESTS / "test_acceptance.py"
CALLERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")) \
    + [ACCEPTANCE]

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


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _init_excluded(value):
    """True for a ``field(..., init=False)`` default."""
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords)


def _signatures(modules):
    """(qualified name, callee name, positional parameters, parameter ->
    default node or None) of every public function, every public method
    of a public class, and every public class's constructor."""
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            if isinstance(node, _FUNCS):
                yield (f"{module}.{node.name}", node.name) + _parameters(node, False)
                continue
            for member in node.body:
                if isinstance(member, _FUNCS) and not member.name.startswith("_"):
                    yield (f"{module}.{node.name}.{member.name}", member.name) \
                        + _parameters(member, True)
            yield (f"{module}.{node.name}", node.name) + _constructor(node)


def _parameters(node, bound):
    """Positional parameter names of a def, and every parameter's default
    node (None where it has none); a first parameter self or cls is
    dropped when ``bound``."""
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    defaults = [None] * (len(names) - len(args.defaults)) + args.defaults
    params = list(zip(names, defaults))[int(bound):] \
        + [(a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return names[int(bound):], dict(params)


def _constructor(cls):
    """Positional parameters and parameter -> default of a class's
    constructor: its dataclass fields, or else its ``__init__``."""
    if _is_dataclass(cls):
        fields = [node for node in cls.body if isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name) and not _init_excluded(node.value)]
        return [f.target.id for f in fields], {f.target.id: f.value for f in fields}
    for node in cls.body:
        if isinstance(node, _FUNCS) and node.name == "__init__":
            return _parameters(node, True)
    return [], {}


def _call_site(node):
    starred = any(isinstance(a, ast.Starred) for a in node.args) or \
        any(kw.arg is None for kw in node.keywords)
    return node.args, {kw.arg: kw.value for kw in node.keywords if kw.arg}, starred


def _calls(trees):
    """Callee name -> list of (positional argument nodes, keyword -> value
    node, starred).  A ``cls(...)`` call inside a classmethod is filed
    under its class."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, _FUNCS) and any(
                            isinstance(d, ast.Name) and d.id == "classmethod"
                            for d in method.decorator_list):
                        calls.setdefault(node.name, []).extend(
                            _call_site(sub) for sub in ast.walk(method)
                            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                            and sub.func.id == "cls")
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None:
                calls.setdefault(name, []).append(_call_site(node))
    return calls


def _unpassed(modules, caller_trees):
    calls = _calls(caller_trees)
    missing = []
    for qual, name, positional, params in _signatures(modules):
        sites = calls.get(name, [])
        for param, default in params.items():
            if default is None:
                continue
            index = positional.index(param) if param in positional else None
            if not any(starred or param in keywords or (index is not None and len(args) > index)
                       for args, keywords, starred in sites):
                missing.append(f"{qual}({param})")
    return missing


def _given(site, param, index, default):
    """The value node one call gives ``param`` (its default where the
    call omits it), or None where a starred argument could fill it or
    there is no default."""
    args, keywords, starred = site
    if param in keywords:
        return keywords[param]
    if index is not None and index < len(args) \
            and not any(isinstance(a, ast.Starred) for a in args[:index + 1]):
        return args[index]
    return None if starred else default


def _is_literal(node):
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def _alike(modules, caller_trees):
    calls = _calls(caller_trees)
    named = []
    for qual, name, positional, params in _signatures(modules):
        sites = calls.get(name, [])
        if len(sites) < 2:
            continue
        given = {}
        for param, default in params.items():
            index = positional.index(param) if param in positional else None
            nodes = [_given(site, param, index, default) for site in sites]
            if None not in nodes:
                given[param] = [ast.dump(node) for node in nodes]
                if len(set(given[param])) == 1 and _is_literal(nodes[0]):
                    named.append(f"{qual}({param})")
        for (p, p_values), (q, q_values) in itertools.combinations(given.items(), 2):
            if p_values == q_values:
                named.append(f"{qual}({p} = {q})")
    return named


def alike_parameters():
    """``module.function(param)`` for every parameter that all program
    calls set to one literal, and ``module.function(p = q)`` for every
    pair of parameters that all program calls set to one expression."""
    return _alike(_modules(), [ast.parse(path.read_text()) for path in CALLERS])


def unpassed_parameters():
    """``module.function(param)`` or ``module.Class(param)`` for every
    defaulted parameter or field that no program call passes."""
    return _unpassed(_modules(), [ast.parse(path.read_text()) for path in CALLERS])


def _none_defaults(modules):
    """``module.Class(field)`` for every constructor field of a public
    dataclass whose default is a literal None."""
    return [f"{module}.{node.name}({param})" for module, tree in modules.items()
            for node in tree.body if isinstance(node, ast.ClassDef)
            and not node.name.startswith("_") and _is_dataclass(node)
            for param, default in _constructor(node)[1].items()
            if isinstance(default, ast.Constant) and default.value is None]


# sar's scene and focus take the pulse model (LfmChirp, matched_filter and
# the envelope sampler) from waveforms
CROSS_LAYER_IMPORTS = {("sar", "waveforms")}


def _layer_imports(trees):
    """(layer, imported layer) of every import of the package made in a
    library layer, for ``trees`` keyed by path parts below the package
    (``("sar", "focus.py")``).  The program layer ``cli`` is not checked."""
    pairs = set()
    for parts, tree in trees.items():
        layer = parts[0].removesuffix(".py")
        if layer in ("__init__", "cli"):
            continue
        package = list(parts[:-1])
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                base = package[:len(package) - node.level + 1]
                targets = [base + node.module.split(".")] if node.module \
                    else [base + [alias.name] for alias in node.names]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module] if isinstance(node, ast.ImportFrom) \
                    else [alias.name for alias in node.names]
                targets = [name.split(".")[1:] for name in names
                           if name.split(".")[0] == PACKAGE.name]
            else:
                continue
            pairs |= {(layer, target[0]) for target in targets if target}
    return sorted(pairs)


def cross_layer_imports():
    """(layer, imported layer) of each import by a library layer of a
    layer other than ``core``, itself and the named exceptions."""
    trees = {path.relative_to(PACKAGE).parts: ast.parse(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    return [(layer, other) for layer, other in _layer_imports(trees)
            if other not in ("core", layer) and (layer, other) not in CROSS_LAYER_IMPORTS]


def test_every_public_name_is_reached():
    assert unreached_names() == []


def test_every_public_member_is_reached():
    assert unreached_members() == []


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters() == []


def test_no_parameter_is_set_alike_by_every_call():
    assert alike_parameters() == []


def test_no_dataclass_field_defaults_to_none():
    assert _none_defaults(_modules()) == []


def test_each_layer_imports_only_core_and_itself():
    assert cross_layer_imports() == []


def test_layer_rule_on_inline_source():
    trees = {parts: ast.parse(source) for parts, source in {
        ("core.py",): "import numpy as np",
        ("sas.py",): "from .core import C_LIGHT\nfrom .sounding import FrequencyGrid",
        ("sar", "focus.py"): "from ..core import C_LIGHT\nfrom .scene import PhaseHistory\n"
                             "from .. import waveforms",
        ("sar", "__init__.py"): "from .focus import backproject",
        ("radiometry.py",): "import aperture_forge.inversion",
        ("cli", "main.py"): "from ..sas import sas_sparse",
    }.items()}
    assert _layer_imports(trees) == [("radiometry", "inversion"), ("sar", "core"),
                                     ("sar", "sar"), ("sar", "waveforms"), ("sas", "core"),
                                     ("sas", "sounding")]


def test_constructor_rule_on_inline_source():
    tree = ast.parse('''
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Box:
    size: float
    color: str = "red"
    weight: float = 1.0
    label: str = field(default="", init=False)

    @classmethod
    def heavy(cls, size):
        return cls(size, weight=9.0)
''')
    assert _unpassed({"shapes": tree}, [tree]) == ["shapes.Box(color)"]


def test_alike_rule_on_inline_source():
    # gain is 1.0 in every call; rows and cols are twins; the starred call
    # leaves phase, omitted elsewhere, varying; once has a single call
    tree = ast.parse('''
def pulse(width, gain=1.0, rows=4, cols=4, phase=0.0):
    return width

def once(scale):
    return scale

def use(k, n, more):
    once(3.0)
    pulse(k, rows=n, cols=n)
    pulse(2 * k, 1.0, n, n)
    return pulse(k, 1.0, n, n, *more)
''')
    assert _alike({"prog": tree}, [tree]) == ["prog.pulse(gain)", "prog.pulse(rows = cols)"]


def test_none_default_rule_on_inline_source():
    tree = ast.parse('''
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Ray:
    amplitude: complex
    position: tuple = None
    delay: float = 0.0
    cache: object = field(default=None, init=False)

@dataclass
class _Private:
    spare: object = None

class Plain:
    def __init__(self, spare=None):
        self.spare = spare
''')
    assert _none_defaults({"rays": tree}) == ["rays.Ray(position)"]
