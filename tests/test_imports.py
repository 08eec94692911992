"""Every name imported in ``src/``, ``tests/`` and ``demos/`` is used, no
package module imports another's private names or reads an npz file past
the mapped reader, every name the package exports resolves, and every
function, class and public method of the package has a caller.

No linter ships with the project, so this reads each file with ``ast``: a
name bound by an import must be referenced somewhere in the same file, be
listed in its ``__all__``, or be re-exported as ``from m import x as x``.
``from __future__`` imports bind no name.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "tests", "demos")
               for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list:
    """Names that an import binds and nothing in ``source`` uses or exports."""
    tree = ast.parse(source)
    imported, exported, used = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
            # ``from m import x as x`` re-exports x on purpose
            exported |= {alias.name for alias in node.names if alias.asname == alias.name}
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported |= {leaf.value for leaf in ast.walk(node.value)
                         if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)}
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used - exported)


def test_no_unused_imports():
    # the checker itself: an unused plain, aliased and from-import are found
    assert unused_imports(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import pi, tau\n"
        "from re import compile\n"
        "from glob import glob as glob\n"
        "__all__ = ['compile']\n"
        "print(os.path.sep, pi)\n"
    ) == ["js", "tau"]
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in FILES}
    assert {path: names for path, names in found.items() if names} == {}


def private_imports(source: str) -> list:
    """Names starting with ``_`` that ``source`` imports from a qforecast module."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or node.module.split(".")[0] == "qforecast")
                  for alias in node.names if alias.name.startswith("_"))


def test_no_private_cross_module_imports():
    # the checker itself: relative and absolute private imports are found,
    # private names of other packages pass
    assert private_imports(
        "from .metaheuristics import ObjectiveTracker, _ensure_tracker\n"
        "from . import _helpers\n"
        "from qforecast.data import _median\n"
        "from os import _exit\n"
    ) == ["_ensure_tracker", "_helpers", "_median"]
    found = {str(path.relative_to(ROOT)): private_imports(path.read_text()) for path in FILES
             if path.is_relative_to(ROOT / "src" / "qforecast")}
    assert {path: names for path, names in found.items() if names} == {}


def numpy_loads(source: str) -> list:
    """Lines of ``source`` that call ``np.load``/``numpy.load`` or import it."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "load"
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                  or isinstance(node, ast.ImportFrom) and node.module == "numpy"
                  and any(alias.name == "load" for alias in node.names))


def test_npz_files_are_read_only_through_the_mapped_reader():
    # ``data.read_npz`` checks every member and maps the file copy-on-write;
    # ``np.load`` would copy each array to the heap.  The checker itself:
    assert numpy_loads(
        "import numpy as np\n"
        "from numpy import load\n"
        "np.load('a.npz')\n"
        "json.load(fh)\n"
        "f = numpy.load\n"
    ) == [2, 3, 5]
    found = {str(path.relative_to(ROOT)): numpy_loads(path.read_text()) for path in FILES
             if path.is_relative_to(ROOT / "src")}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_every_export_resolves():
    # the package imports its exports on first access, so a name listed in
    # __all__ but missing from its module would fail only there; a fresh
    # process sees the lazy path, not names earlier tests already loaded
    probe = ("import qforecast\n"
             "missing = [n for n in qforecast.__all__ if not hasattr(qforecast, n)]\n"
             "assert not missing, missing\n"
             "from qforecast import *\n")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr



# names no command reaches that stay on purpose, with the reason
UNCALLED_KEEP = {
    "qlstm.load_checkpoint": "the one reader of the checkpoint.npz that `train` publishes",
}


def references(tree) -> Counter:
    """How often each name is read in ``tree``, as a bare name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def definitions(tree):
    """``(qualified name, node)`` of each module-level function and class of
    ``tree``, dunder hooks aside, and of each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def uncalled(sources: dict, bound: set) -> list:
    """``module.name`` of each definition in ``sources`` (module name ->
    source) that no module reads outside the definition itself and that is
    not in ``bound``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = sum((references(tree) for tree in trees.values()), Counter())
    return [f"{module}.{qualified}" for module, tree in trees.items()
            for qualified, node in definitions(tree)
            if read[node.name] == references(node)[node.name] and node.name not in bound]


def perfbench_bindings() -> set:
    """The qforecast names ``perfbench/`` binds: what it imports from the
    package, the attributes of its traced targets, and the methods it calls."""
    from test_benchmark_contract import PERFBENCH, load_tracer, qforecast_imports

    bound = {name for _, _, name in qforecast_imports()}
    bound |= {attr for _, attr, _ in load_tracer().TARGETS.values()}
    for path in PERFBENCH.glob("*.py"):
        bound |= {node.func.attr for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    return bound


def test_every_library_name_has_a_caller():
    # the checker itself: a name read only by its own body, a dead method and
    # a dead private helper are found; a name another module reads, a method
    # read as an attribute, a bound name and a dunder hook are not
    assert uncalled({
        "a": "def used(): pass\n"
             "def recursive(n): return recursive(n - 1)\n"
             "def _helper(): pass\n"
             "def __getattr__(name): pass\n"
             "class Box:\n"
             "    def size(self): return 1\n"
             "    def dead(self): pass\n"
             "    def timed(self): pass\n",
        "b": "from a import used, Box\nused()\nBox().size()\n",
    }, bound={"timed"}) == ["a.recursive", "a._helper", "a.Box.dead"]
    package = ROOT / "src" / "qforecast"
    found = uncalled({path.stem: path.read_text() for path in sorted(package.glob("*.py"))},
                     perfbench_bindings())
    assert sorted(found) == sorted(UNCALLED_KEEP)


# dataclass fields nothing reads by attribute that stay on purpose, with the reason
UNREAD_FIELD_KEEP = {
    "data.ScalerState.n_fit_rows": "written into dataset.npz through fields()",
    "bayesopt.GPSurrogate.noise_var": "the fitted noise the likelihood-oracle tests compare",
}


def is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list)


def dataclass_fields(node) -> list:
    """``(name, has default, is a constructor parameter)`` of each field a
    ``@dataclass`` class declares; ``field(init=False)`` makes one state."""
    def in_init(value) -> bool:
        return not (isinstance(value, ast.Call) and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords))

    return [(item.target.id, item.value is not None, in_init(item.value)) for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def signatures(tree):
    """``(qualified name, called name, parameters, defaulted)`` of each
    function, method and dataclass constructor of ``tree``: the parameters
    that a call fills by position, in order (a method's ``self`` or ``cls``
    aside; the package has no static method), and the names of those with a
    default, keyword-only ones included.  ``__init__`` and a dataclass are
    called by their class name."""
    def walk(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if is_dataclass(node):
                    names = [(n, default) for n, default, init in dataclass_fields(node) if init]
                    yield (node.name, node.name, [n for n, _ in names],
                           [n for n, default in names if default])
                yield from walk(node.body, node)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                if owner is not None:
                    positional = positional[1:]
                called = owner.name if node.name == "__init__" and owner else node.name
                qualified = f"{owner.name}.{node.name}" if owner else node.name
                yield qualified, called, positional, defaulted
                yield from walk(node.body, None)

    yield from walk(tree.body, None)


def calls(tree):
    """``(called name, positional count, keywords or None for ``**kwargs``)``
    of each call in ``tree``.  The count stops at a ``*args``, whose length
    is not known, so a parameter after it counts as left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            count = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                         len(node.args))
            keywords = {k.arg for k in node.keywords}
            yield name, count, None if None in keywords else keywords


def default_uses(sources: dict, callers: list) -> dict:
    """``module.name(parameter)`` of each keyword default in ``sources``
    (module name -> source) -> ``(omitted, passed)``: whether some call in
    ``callers`` (sources) to a function of that name leaves it out, and
    whether some call passes it, by position, by keyword or through
    ``**kwargs``."""
    uses = {}
    all_calls = [call for source in callers for call in calls(ast.parse(source))]
    for module, source in sources.items():
        for qualified, called, positional, defaulted in signatures(ast.parse(source)):
            for param in defaulted:
                slot = positional.index(param) if param in positional else None
                passes = [keywords is None or param in keywords
                          or (slot is not None and count > slot)
                          for name, count, keywords in all_calls if name == called]
                uses[f"{module}.{qualified}({param})"] = (not all(passes), any(passes))
    return uses


def unomitted_defaults(sources: dict, callers: list) -> list:
    """The defaults every call passes: a default that only other code uses."""
    return [name for name, (omitted, _) in default_uses(sources, callers).items() if not omitted]


def unpassed_defaults(sources: dict, callers: list) -> list:
    """The defaults no call passes: a setting nothing varies, which belongs in
    a constant or the CLI's defaults table."""
    return [name for name, (_, passed) in default_uses(sources, callers).items() if not passed]


# defaults no library or benchmark call passes that stay on purpose, with the reason
UNPASSED_DEFAULT_KEEP = {
    "runner.run_ensemble(memo)": "criterion 6 shares its genhyb trainings with its bo-q run "
                                 "through it, instead of training four models again",
    **{f"data.synth_series({shape})": "shapes the flat, zero-crossing and gappy test series; "
                                      "the `synth` command fixes it"
       for shape in ("daily_amplitude", "annual_amplitude", "base_temperature",
                     "missing_fraction")},
}


def unread_fields(sources: dict, readers: list) -> list:
    """``module.Class.field`` of each dataclass field in ``sources`` that no
    source in ``readers`` reads as an attribute."""
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{module}.{node.name}.{name}" for module, source in sources.items()
            for node in ast.walk(ast.parse(source)) if is_dataclass(node)
            for name, _, _ in dataclass_fields(node) if name not in read]


def test_every_default_and_every_field_has_a_library_user():
    # the checkers themselves: a default every caller passes, by position,
    # by keyword or through ``**kwargs``, is found, as is a dataclass field
    # default every constructor call passes; a default some call leaves out,
    # after a ``*args`` included, is not.  A default no call passes is found
    # too; a field with ``init=False`` is no parameter.  A field read nowhere
    # is found, one read anywhere is not.
    sample = ({"a": (
        "def f(x, y=1, *, z=2): pass\n"
        "def g(x=0): pass\n"
        "def h(a, b, c=0): pass\n"
        "class C:\n"
        "    def __init__(self, a, b=1): pass\n"
        "    def m(self, c=3): pass\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    p: int\n"
        "    q: int = 0\n"
        "    r: dict = field(default_factory=dict, init=False)\n")}, [
        "f(0, 1, z=2)\nf(0, y=1, **opts)\ng()\nh(*pair)\nC(1)\nC(1, b=2).m(c=4)\nD(1, 2)\n"
    ])
    assert unomitted_defaults(*sample) == ["a.f(y)", "a.f(z)", "a.C.m(c)", "a.D(q)"]
    assert unpassed_defaults(*sample) == ["a.g(x)", "a.h(c)"]
    assert unread_fields({"a": "@dataclass\nclass R:\n    x: int\n    y: int\n"
                               "class S:\n    z: int\n"},
                         ["r = R(1, 2)\nr.x\nr.y = 3\n"]) == ["a.R.y"]

    package = ROOT / "src" / "qforecast"
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    callers = list(sources.values()) + [path.read_text() for path in
                                        sorted((ROOT / "perfbench").glob("*.py"))]
    assert unomitted_defaults(sources, callers) == []
    assert sorted(unpassed_defaults(sources, callers)) == sorted(UNPASSED_DEFAULT_KEEP)
    assert sorted(unread_fields(sources, callers)) == sorted(UNREAD_FIELD_KEEP)
