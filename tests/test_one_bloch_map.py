"""Every qubit operator of the package is built by one Bloch map,
``states.bloch_matrices``, so that a direction observable, both qubit POVMs,
``bloch_to_matrix`` and the qubit schemes' estimates share one Pauli sum.
A read of ``PAULI`` or ``SIGMA_0`` outside ``states.py`` would be a second
copy of that algebra.  The map must also keep the bits of the explicit
builders it replaced, which ``oracles`` keeps as references; bits are
compared with ``tobytes``, since ``np.array_equal`` takes -0.0 for +0.0."""

import ast

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtomo.measurement import direction_observable, linear_scheme, minimal_povm, standard_povm
from qtomo.states import bloch_matrices, bloch_to_matrix

from oracles import (
    bloch_matrix_tensordot,
    direction_projectors,
    minimal_povm_effects,
    standard_povm_effects,
)
from test_imports import MODULE_FILES

NAMES = {"PAULI", "SIGMA_0"}
# Unit directions with exact and signed-zero entries.
DIRECTIONS = [
    *np.eye(3),
    *-np.eye(3),
    (0.6, 0.8, 0.0),
    (0.0, 0.6, 0.8),
    (-0.0, 1.0, -0.0),
]
# Real entries that keep their sign at zero.
ENTRIES = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)
THETAS = st.tuples(ENTRIES, ENTRIES, ENTRIES)


def pauli_reads(source: str) -> list[int]:
    """Line numbers of each read of ``PAULI`` or ``SIGMA_0`` in ``source``:
    a loaded name, or an attribute of that name on any object."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in NAMES)
        or (isinstance(node, ast.Attribute) and node.attr in NAMES)
    )


def test_only_states_reads_the_pauli_algebra():
    found = {path.name: pauli_reads(path.read_text()) for path in MODULE_FILES}
    assert {name: lines for name, lines in found.items() if lines and name != "states.py"} == {}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .states import PAULI, SIGMA_0\n", []),
        ("x = PAULI[0]\n", [1]),
        ("def f(s):\n    return SIGMA_0 + s\n", [2]),
        ("import states\ny = states.PAULI\n", [2]),
        ('__all__ = ["PAULI"]\nz = "SIGMA_0"\n', []),
    ],
)
def test_pauli_reads_detector(source, expected):
    assert pauli_reads(source) == expected


def test_povm_effects_keep_their_bits():
    assert standard_povm().effects.tobytes() == standard_povm_effects().tobytes()
    assert minimal_povm().effects.tobytes() == minimal_povm_effects().tobytes()


@pytest.mark.parametrize("direction", DIRECTIONS, ids=str)
def test_direction_projectors_keep_their_bits(direction):
    got = direction_observable(direction).projectors
    assert got.tobytes() == direction_projectors(direction).tobytes()


@settings(max_examples=200, deadline=None)
@given(THETAS)
def test_random_direction_projectors_keep_their_bits(raw):
    norm = np.linalg.norm(raw)
    assume(norm > 1e-3)
    u = np.asarray(raw) / norm
    assert direction_observable(u).projectors.tobytes() == direction_projectors(u).tobytes()


@settings(max_examples=200, deadline=None)
@given(THETAS)
def test_bloch_to_matrix_keeps_its_bits(theta):
    assert bloch_to_matrix(theta).tobytes() == bloch_matrix_tensordot(theta).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(THETAS, max_size=8))
def test_each_row_is_bloch_to_matrix_of_that_row(rows):
    thetas = np.array(rows, dtype=float).reshape(-1, 3)
    stack = bloch_matrices(thetas)
    assert stack.shape == (len(rows), 2, 2)
    for theta, matrix in zip(thetas, stack):
        assert matrix.tobytes() == bloch_to_matrix(theta).tobytes()


def test_empty_stack():
    assert bloch_matrices(np.empty((0, 3))).shape == (0, 2, 2)


@pytest.mark.parametrize("name", ["three-direction", "standard", "minimal"])
def test_qubit_schemes_map_by_bloch_matrices(name):
    assert linear_scheme(name).to_matrix is bloch_matrices
