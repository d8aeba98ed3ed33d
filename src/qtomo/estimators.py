"""Point estimators: entrywise unconstrained estimate, its least-squares
projection onto density matrices, and the three qubit scheme estimators."""

from __future__ import annotations

import numpy as np

from .linalg import InvariantError, hermitian_eig
from .measurement import MeasurementPlan, linear_scheme
from .states import require_trace_one

__all__ = [
    "unconstrained_estimate",
    "project_nonneg_simplex",
    "constrained_estimate",
    "qubit_constrain_bloch",
    "three_direction_estimate",
    "standard_estimate",
    "minimal_estimate",
]


def _counts_row(counts, key, size: int, repetitions: int) -> np.ndarray:
    try:
        row = np.asarray(counts[key], dtype=float)
    except KeyError:
        raise InvariantError(f"missing counts for observable {key}") from None
    if row.shape != (size,):
        raise InvariantError(f"counts for {key} must have {size} outcomes, got {row.shape}")
    if np.any(row < 0):
        raise InvariantError(f"counts for {key} must be nonnegative")
    if abs(float(row.sum()) - repetitions) > 1e-9:
        raise InvariantError(
            f"counts for {key} sum to {row.sum()!r}, expected r = {repetitions}"
        )
    return row


def unconstrained_estimate(plan: MeasurementPlan, counts) -> np.ndarray:
    """Entrywise estimate of the state from per-observable outcome counts.

    Diagonal entries below index k are the relative frequencies of outcome 1
    of the diagonal observables; the last one makes the trace exactly one.
    Off-diagonal entries are built from the +1/-1 frequency gaps:

        Re phi_ij = (nu_x(+1) - nu_x(-1)) / 2
        Im phi_ij = (nu_y(+1) - nu_y(-1)) / 2

    The result is Hermitian with unit trace but need not be PSD.  ``counts``
    maps each plan key to its outcome-count row; rows may be fractional
    (expected counts work too), but every row must sum to the plan's r.
    """
    r = plan.repetitions
    frequencies = [
        _counts_row(counts, key, len(obs.values), r) / r
        for key, obs in plan.observables.items()
    ]
    return plan.scheme.to_matrix(plan.scheme.estimate(frequencies))[0]


def project_nonneg_simplex(values, tol: float = 1e-9):
    """Closest point of the probability simplex to a unit-sum real vector.

    Euclidean projection by iterative redistribution: zero the negative
    entries, then spread their total uniformly over the surviving entries
    (entries zeroed earlier never rejoin), and repeat until nonnegative.
    Terminates in at most len(values) - 1 sweeps.

    Returns
    -------
    (numpy.ndarray, int)
        The projected vector (exact zeros where entries were clipped) and
        the number of redistribution sweeps performed; 0 means the input was
        already nonnegative and is returned unchanged.
    """
    y = np.asarray(values, dtype=float).copy()
    if y.ndim != 1 or y.size < 1:
        raise InvariantError("expected a nonempty 1-d vector")
    if abs(float(y.sum()) - 1.0) > tol:
        raise InvariantError(f"entries sum to {y.sum()!r}, expected 1 within {tol:.1e}")
    alive = np.ones(y.size, dtype=bool)
    steps = 0
    while True:
        neg = alive & (y < 0.0)
        if not neg.any():
            return y, steps
        shortfall = float(y[neg].sum())
        y[neg] = 0.0
        alive &= ~neg
        # The running sum stays 1, so at least one positive entry survives.
        y[alive] += shortfall / int(alive.sum())
        steps += 1


def constrained_estimate(matrix):
    """Closest density matrix to a trace-one Hermitian, in Hilbert-Schmidt norm.

    Diagonalize, project the eigenvalue vector onto the probability simplex,
    and rebuild in the same eigenbasis.  When the input is already PSD it is
    returned as is (zero sweeps), so constrained and unconstrained estimates
    coincide exactly in that case.

    Returns
    -------
    (numpy.ndarray, int)
        The density matrix and the number of redistribution sweeps.
    """
    h = require_trace_one(matrix)
    spectrum = hermitian_eig(h)
    clipped, steps = project_nonneg_simplex(spectrum.eigenvalues)
    if steps == 0:
        return h, 0
    u = spectrum.eigenvectors
    out = (u * clipped) @ u.conj().T
    out = 0.5 * (out + out.conj().T)
    idx = np.arange(out.shape[0])
    out[idx, idx] = out[idx, idx].real
    return out, steps


def qubit_constrain_bloch(theta) -> np.ndarray:
    """Radial projection of a Bloch vector onto the closed unit ball.

    Equivalent to the eigenvalue redistribution for 2x2 inputs: vectors
    inside the ball are unchanged, longer ones are rescaled to unit length.
    """
    t = np.asarray(theta, dtype=float)
    if t.shape != (3,):
        raise InvariantError(f"Bloch vector must have shape (3,), got {t.shape}")
    norm = float(np.linalg.norm(t))
    if norm <= 1.0:
        return t.copy()
    return t / norm


def three_direction_estimate(frequencies, directions) -> np.ndarray:
    """Bloch estimate from +1 frequencies along three measurement directions.

    With T the matrix whose rows are the (unit) directions, the +1
    probability along row u is (1 + u . theta) / 2, so the estimate solves
    T theta = 2 nu - 1.

    Parameters
    ----------
    frequencies : array_like
        The three relative frequencies of outcome +1, each in [0, 1].
    directions : array_like
        3x3 matrix of unit rows with |det| > 1e-12.
    """
    nu = np.asarray(frequencies, dtype=float)
    if nu.shape != (3,):
        raise InvariantError(f"expected 3 frequencies, got shape {nu.shape}")
    if np.any(nu < 0) or np.any(nu > 1):
        raise InvariantError("frequencies must lie in [0, 1]")
    scheme = linear_scheme("three-direction", directions=directions)
    return scheme.estimate(np.stack([nu, 1.0 - nu], axis=1))[0]


def standard_estimate(counts) -> np.ndarray:
    """Bloch estimate from the six-outcome axis POVM.

    theta_i = 3 (nu_i - nu_{i+3}), the scaled frequency gap between the +1
    and -1 effects of axis i.
    """
    return linear_scheme("standard").estimate([_povm_frequencies(counts, 6)])[0]


def minimal_estimate(counts) -> np.ndarray:
    """Bloch estimate from the four-outcome tetrahedral POVM.

    theta = 3 sum_i nu_i a_i over the tetrahedron directions a_i; the factor
    3 inverts sum_i a_i a_i^T = (4/3) I once the 1/4 effect weights are in.
    """
    return linear_scheme("minimal").estimate([_povm_frequencies(counts, 4)])[0]


def _povm_frequencies(counts, size: int) -> np.ndarray:
    c = np.asarray(counts, dtype=float)
    if c.shape != (size,):
        raise InvariantError(f"expected {size} outcome counts, got shape {c.shape}")
    if np.any(c < 0):
        raise InvariantError("counts must be nonnegative")
    total = float(c.sum())
    if total < 1:
        raise InvariantError("counts must contain at least one shot")
    return c / total
