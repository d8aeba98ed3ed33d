"""No module of the package imports a name it never uses, or imports inside
a function body, where an import hides a layering problem; and no module
defines a private name that no module of the package reads."""

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


def private_definitions(tree) -> set[str]:
    """Module-level functions, classes and assigned names with one leading
    underscore (dunders are not private)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(tree) -> set[str]:
    """Names a module reads: loaded names, attribute names and the names a
    ``from`` import takes from another module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private module-level name of the sources,
    keyed by module, that no source reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in private_definitions(tree) - read
    )


def test_no_dead_private_names():
    assert dead_private_names({p.name: p.read_text() for p in MODULE_FILES}) == []


@pytest.mark.parametrize(
    "sources, expected",
    [
        ({"a": "def _f():\n    pass\n"}, ["a:_f"]),
        ({"a": "def _f():\n    pass\n_f()\n"}, []),
        ({"a": "class _C:\n    pass\n", "b": "from .a import _C as C\nC\n"}, []),
        ({"a": "_X = 1\n", "b": "from . import a\na._X\n"}, []),
        ({"a": "_X: int = 1\n_Y, _Z = 2, 3\n_Z\n"}, ["a:_X", "a:_Y"]),
        ({"a": "__all__ = []\n_x = 0\ndef g():\n    _x = 1\n"}, ["a:_x"]),
        ({"a": "class C:\n    _hidden = 1\n"}, []),
    ],
)
def test_dead_private_names_detector(sources, expected):
    assert dead_private_names(sources) == expected


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
