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
