"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import qtomo

MODULE_FILES = sorted(Path(qtomo.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read; a name listed in
    ``__all__`` is read by ``from module import *`` and counts as used."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


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
    ],
)
def test_unused_imports_detector(source, expected):
    assert unused_imports(source) == expected
