"""Every public name in the package is used by the package itself.

A public top-level ``def`` or ``class`` in ``src/paircover`` must be
referenced somewhere else in ``src/`` or ``perfbench/`` (test files aside):
a name that only tests call is test scaffolding, and belongs in the tests.
Package ``__init__`` re-exports do not count as uses.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "paircover"


def _names(node) -> Counter:
    """Names read through a Name or an Attribute anywhere below ``node``."""
    seen = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            seen[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            seen[sub.attr] += 1
    return seen


def test_public_names_have_a_library_caller():
    sources = list(PACKAGE.rglob("*.py")) + [
        p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
    ]
    used = Counter()
    defined = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        used += _names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((path.relative_to(ROOT), node))
    unused = [
        f"{path}::{node.name}"
        for path, node in defined
        if used[node.name] <= _names(node)[node.name]
    ]
    assert not unused, f"public names no library code uses: {unused}"
