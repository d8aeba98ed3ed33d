"""Only ``linalg`` defines the package's tolerances, so that one PSD rule,
``linalg.psd_mask``, judges every state.  A module-level ``*_ATOL``,
``*_FLOOR`` or ``*_MARGIN`` anywhere else would be a second rule, and so
would a slack written inline as a small float literal; the one exception,
``measurement._STRUCTURE_ATOL``, judges POVM effects and projectors rather
than density matrices."""

import ast
import re

import pytest

from test_imports import MODULE_FILES

TOLERANCE = re.compile(r"_?[A-Z0-9_]*_(ATOL|FLOOR|MARGIN)")
ALLOWED = {"measurement.py:_STRUCTURE_ATOL"}
# A nonzero float literal below this, outside ``linalg``, is an inline slack.
SMALLEST_LITERAL = 1e-6


def assigned_names(node) -> list[str]:
    """Names that an assignment statement binds; none for any other node."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def module_tolerances(source: str) -> list[str]:
    """Module-level names assigned in ``source`` that name a tolerance."""
    names = [name for node in ast.parse(source).body for name in assigned_names(node)]
    return sorted(n for n in names if TOLERANCE.fullmatch(n))


def small_literals(source: str, exempt=frozenset()) -> list[float]:
    """Nonzero float literals below ``SMALLEST_LITERAL`` in the code of
    ``source``, outside the module-level statements that assign a name in
    ``exempt``.  Docstrings and comments are not code."""
    return [
        node.value
        for statement in ast.parse(source).body
        if not exempt.intersection(assigned_names(statement))
        for node in ast.walk(statement)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < node.value < SMALLEST_LITERAL
    ]


def _non_linalg_modules():
    return [path for path in MODULE_FILES if path.name != "linalg.py"]


def test_only_linalg_defines_tolerances():
    found = {
        f"{path.name}:{name}"
        for path in _non_linalg_modules()
        for name in module_tolerances(path.read_text())
    }
    assert found == ALLOWED


def test_only_linalg_writes_small_literals():
    # The definition of an allowed tolerance is where its literal lives.
    found = {}
    for path in _non_linalg_modules():
        allowed = frozenset(
            name for file, _, name in (entry.partition(":") for entry in ALLOWED) if file == path.name
        )
        values = small_literals(path.read_text(), allowed)
        if values:
            found[path.name] = values
    assert found == {}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("BLOCH_ATOL = 1e-12\n", ["BLOCH_ATOL"]),
        ("_PROB_FLOOR: float = -1e-12\n", ["_PROB_FLOOR"]),
        ("A_MARGIN, B = 1e-6, 2\n", ["A_MARGIN"]),
        ("def f():\n    LOCAL_ATOL = 1\n", []),
        ("ATOL_SCALE = 2\nCHUNK_TRIALS = 4096\n", []),
    ],
)
def test_module_tolerances_detector(source, expected):
    assert module_tolerances(source) == expected


@pytest.mark.parametrize(
    "source, exempt, expected",
    [
        ("ok = a <= b + 1e-12\n", (), [1e-12]),
        ("def f(x):\n    return abs(x - 1.0) <= 1e-9\n", (), [1e-9]),
        ("floor = -1e-12\n", (), [1e-12]),
        ("_STRUCTURE_ATOL = 1e-10\n", ("_STRUCTURE_ATOL",), []),
        ("_STRUCTURE_ATOL = 1e-10\nx = y > 1e-10\n", ("_STRUCTURE_ATOL",), [1e-10]),
        ('"""Within 1e-12."""\nx = 0.0  # slack 1e-9\n', (), []),
        ("margin = 1e-6\nbig = 3e-3\ncount = 0\n", (), []),
    ],
)
def test_small_literals_detector(source, exempt, expected):
    assert small_literals(source, frozenset(exempt)) == expected
