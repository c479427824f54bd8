"""Every name a module under ``src/`` or ``tests/`` imports is used in that
module.

The scan reads each module's AST: a name an import binds counts as used
when the module reads it (an ``ast.Name``, which covers attribute chains
such as ``os.path.join``) or lists it in ``__all__``.  An import line
marked ``# noqa: F401`` is a deliberate re-export and is skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str):
    """``(line, name)`` of each imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in "\n".join(lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_the_scan_flags_an_unused_name_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import (\n    Dict,\n    List,\n)\n"
              "from array import array  # noqa: F401\n"
              "from math import pi as PI\n"
              "__all__ = ['PI']\n"
              "def f() -> List[int]:\n"
              "    return [os.path.sep]\n")
    assert unused_imports(source) == [(3, "Dict")]


def offenders(tree: str):
    """``path:line name`` of each unused import under ``ROOT / tree``."""
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for path in sorted((ROOT / tree).rglob("*.py"))
            for line, name in unused_imports(path.read_text())]


def test_no_module_under_src_imports_a_name_it_never_uses():
    assert offenders("src") == []


def test_no_module_under_tests_imports_a_name_it_never_uses():
    assert offenders("tests") == []
