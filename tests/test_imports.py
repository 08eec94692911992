"""Every name imported in ``src/``, ``tests/`` and ``demos/`` is used.

No linter ships with the project, so this reads each file with ``ast``: a
name bound by an import must be referenced somewhere in the same file or be
listed in its ``__all__``.  ``from __future__`` imports bind no name.
"""

import ast
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
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported |= set(ast.literal_eval(node.value))
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
        "__all__ = ['compile']\n"
        "print(os.path.sep, pi)\n"
    ) == ["js", "tau"]
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in FILES}
    assert {path: names for path, names in found.items() if names} == {}
