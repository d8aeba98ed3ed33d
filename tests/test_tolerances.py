"""Only ``linalg`` defines the package's tolerances, so that one PSD rule,
``linalg.psd_mask``, judges every state.  A module-level ``*_ATOL``,
``*_FLOOR`` or ``*_MARGIN`` anywhere else would be a second rule; the one
exception, ``measurement._STRUCTURE_ATOL``, judges POVM effects and
projectors rather than density matrices."""

import ast
import re

import pytest

from test_imports import MODULE_FILES

TOLERANCE = re.compile(r"_?[A-Z0-9_]*_(ATOL|FLOOR|MARGIN)")
ALLOWED = {"measurement.py:_STRUCTURE_ATOL"}


def module_tolerances(source: str) -> list[str]:
    """Module-level names assigned in ``source`` that name a tolerance."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return sorted(n for n in names if TOLERANCE.fullmatch(n))


def test_only_linalg_defines_tolerances():
    found = {
        f"{path.name}:{name}"
        for path in MODULE_FILES
        if path.name != "linalg.py"
        for name in module_tolerances(path.read_text())
    }
    assert found == ALLOWED


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
