"""No module of the package imports a name it never uses, or imports inside
a function body, where an import hides a layering problem."""

import ast
from pathlib import Path

import pytest

import qtomo

MODULE_FILES = sorted(Path(qtomo.__file__).resolve().parent.glob("*.py"))


def bound_names(node) -> set[str]:
    """Names an import statement binds; none for any other node."""
    if isinstance(node, ast.Import):
        return {a.asname or a.name.partition(".")[0] for a in node.names}
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return {a.asname or a.name for a in node.names}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, or bound by one
    inside a function body; a name listed in ``__all__`` is read by ``from
    module import *`` and counts as used."""
    tree = ast.parse(source)
    imported, used, local = set(), set(), set()
    for node in ast.walk(tree):
        imported |= bound_names(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                local |= bound_names(inner)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((imported - used) | local)


@pytest.mark.parametrize("path", MODULE_FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", ["c"]),
        ("from __future__ import annotations\n", []),
        ("from .x import y\n__all__ = ['y']\n", []),
        ("def f():\n    import json\n", ["json"]),
        ("def f():\n    import json\n    return json\n", ["json"]),
        ("async def f():\n    from . import x\n    return x\n", ["x"]),
        ("class C:\n    def f(self):\n        import os.path as p\n        return p\n", ["p"]),
        ("def f():\n    def g():\n        import os\n        return os\n    return g\n", ["os"]),
        ("try:\n    import os\nexcept ImportError:\n    os = None\nos\n", []),
    ],
)
def test_unused_imports_detector(source, expected):
    assert unused_imports(source) == expected
