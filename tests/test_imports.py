"""Every name imported in ``src/``, ``tests/`` and ``demos/`` is used, no
package module imports another's private names or reads an npz file past
the mapped reader, and every name the package exports resolves.

No linter ships with the project, so this reads each file with ``ast``: a
name bound by an import must be referenced somewhere in the same file, be
listed in its ``__all__``, or be re-exported as ``from m import x as x``.
``from __future__`` imports bind no name.
"""

import ast
import os
import subprocess
import sys
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

