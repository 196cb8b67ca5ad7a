"""Every public name in the package is used by the package itself.

A public top-level ``def`` or ``class`` in ``src/paircover``, and a public
method or property of a public class, must be referenced somewhere else in
``src/`` or ``perfbench/`` (test files aside): a name that only tests call
is test scaffolding, and belongs in the tests.  Package ``__init__``
re-exports do not count as uses.  A top-level name counts as used when it
is read as a name or an attribute; a method only when it is read as an
attribute (``.name``) or spelled as a string (perfbench's tracer names the
methods it rebinds), since a module or local variable of the same name
says nothing about the method.
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


def _attributes(node) -> Counter:
    """Names read as an attribute, or spelled as a string, below ``node``."""
    seen = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            seen[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            seen[sub.value] += 1
    return seen


def _public(body, kinds):
    return [n for n in body if isinstance(n, kinds) and not n.name.startswith("_")]


def test_public_names_have_a_library_caller():
    sources = list(PACKAGE.rglob("*.py")) + [
        p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
    ]
    names, attributes = Counter(), Counter()
    defined = []  # (where, node, is a method)
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        names += _names(tree)
        attributes += _attributes(tree)
        for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            where = f"{path.relative_to(ROOT)}::{node.name}"
            defined.append((where, node, False))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{where}.{m.name}", m, True) for m in _public(node.body, ast.FunctionDef)
                ]
    unused = []
    for where, node, method in defined:
        used, own = (attributes, _attributes) if method else (names, _names)
        if used[node.name] <= own(node)[node.name]:
            unused.append(where)
    assert not unused, f"public names no library code uses: {unused}"


def _calls_itself(fn) -> bool:
    """Whether ``fn``'s body calls ``fn`` by name or through ``self.``/``cls.``."""
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Call):
            f = sub.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                return True
    return False


def test_no_function_recurses():
    # every search walks with an explicit stack or iterator, so a wide model
    # cannot exhaust Python's recursion limit
    recursive = []
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_itself(node):
                recursive.append(f"{path.relative_to(ROOT)}::{node.name} (line {node.lineno})")
    assert not recursive, f"functions that call themselves: {recursive}"
