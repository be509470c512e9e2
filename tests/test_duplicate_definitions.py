"""No module defines the same top-level function or class name twice.

A second ``def`` or ``class`` of a name already defined at module level
silently replaces the first (ruff's F811), so a pasted copy of a test
means the original never runs.  Nothing else in the suite runs ruff, so
this guard parses every module under ``src/``, ``tests/`` and
``benchmarks/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks")


def redefinitions(source: str):
    """``(name, first line, line)`` for each top-level ``def`` or ``class``
    whose name an earlier one at the same level already defined."""
    first = {}
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in first:
                found.append((node.name, first[node.name], node.lineno))
            else:
                first[node.name] = node.lineno
    return found


def test_redefinitions_finds_a_pasted_copy():
    source = (
        "def test_a():\n    pass\n\n"
        "class B:\n    def test_a(self):\n        pass\n\n"
        "def test_a():\n    pass\n\n"
        "async def B():\n    pass\n"
    )
    assert redefinitions(source) == [("test_a", 1, 8), ("B", 4, 11)]


def test_no_module_defines_a_top_level_name_twice():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name} redefines line {first}"
        for tree in TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        for name, first, line in redefinitions(path.read_text())
    ]
    assert not found, "\n".join(found)
