"""Point estimators: entrywise unconstrained estimate, its least-squares
projection onto density matrices (``constrained_rows`` for a stack, the one
projection path), and the three qubit scheme estimators."""

from __future__ import annotations

import numpy as np

from .linalg import (
    TRACE_ATOL,
    EigenDecompositionError,
    InvariantError,
    psd_mask,
    psd_screen,
    require_trace_one,
)
from .measurement import MeasurementPlan, count_frequencies, linear_scheme

__all__ = [
    "unconstrained_estimate",
    "project_nonneg_simplex_rows",
    "constrained_rows",
    "constrained_estimate",
    "three_direction_estimate",
    "standard_estimate",
    "minimal_estimate",
]


def unconstrained_estimate(plan: MeasurementPlan, counts) -> np.ndarray:
    """Entrywise estimate of the state from per-observable outcome counts.

    Diagonal entries below index k are the relative frequencies of outcome 1
    of the diagonal observables; the last one makes the trace exactly one.
    Off-diagonal entries are built from the +1/-1 frequency gaps:

        Re phi_ij = (nu_x(+1) - nu_x(-1)) / 2
        Im phi_ij = (nu_y(+1) - nu_y(-1)) / 2

    The result is Hermitian with unit trace but need not be PSD.  ``counts``
    maps each plan key to its outcome-count row, which
    ``measurement.count_frequencies`` checks with ``shots`` the plan's r:
    rows may be fractional (expected counts work too), but every row must
    sum to r.  Each error message names the key of the row at fault.
    """
    frequencies = []
    for key, obs in plan.observables.items():
        if key not in counts:
            raise InvariantError(f"missing counts for observable {key}")
        try:
            frequencies.append(count_frequencies(counts[key], len(obs.values), plan.repetitions))
        except InvariantError as exc:
            raise InvariantError(f"counts for {key}: {exc}") from None
    return plan.scheme.to_matrix(plan.scheme.estimate(frequencies))[0]


def _require_unit_sums(rows, index):
    """Raise ``InvariantError`` unless each of the (m, k) ``rows`` sums to one
    within ``TRACE_ATOL``; the message calls row i by ``index[i]``."""
    sums = rows.sum(axis=1)
    bad = np.nonzero(~(np.abs(sums - 1.0) <= TRACE_ATOL))[0]
    if bad.size:
        first = int(bad[0])
        raise InvariantError(
            f"row {int(index[first])} sums to {float(sums[first])!r}, "
            f"expected 1 within {TRACE_ATOL:.1e}"
        )


def project_nonneg_simplex_rows(values):
    """Closest points of the probability simplex to a stack of rows that sum
    to one within ``TRACE_ATOL``.

    Euclidean projection by iterative redistribution, run on all rows
    together: in each sweep, every row that still has a negative entry zeros
    those entries and spreads their total uniformly over its surviving
    entries (entries zeroed earlier never rejoin).  Terminates in at most
    k - 1 sweeps for rows of length k.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        The (m, k) projected rows (exact zeros where entries were clipped)
        and the per-row number of redistribution sweeps; a row with 0 sweeps
        had no negative entry and is returned unchanged.
    """
    y = np.array(values, dtype=float)
    if y.ndim != 2 or y.shape[1] < 1:
        raise InvariantError("expected a 2-d array of nonempty rows")
    _require_unit_sums(y, range(len(y)))
    return _redistribute(y)


def _redistribute(y):
    """The sweeps of ``project_nonneg_simplex_rows`` on an (m, k) float array
    of rows that sum to one, in place; returns it and the sweep counts."""
    alive = np.ones(y.shape, dtype=bool)
    steps = np.zeros(y.shape[0], dtype=int)
    while True:
        neg = alive & (y < 0.0)
        rows = np.nonzero(neg.any(axis=1))[0]
        if rows.size == 0:
            return y, steps
        neg = neg[rows]
        sub = y[rows]
        # A running sum adds each row's negatives in index order at any row
        # length; ``sum`` would regroup them pairwise in rows of 8 or more.
        shortfall = np.cumsum(np.where(neg, sub, 0.0), axis=1)[:, -1:]
        sub[neg] = 0.0
        alive[rows] &= ~neg
        live = alive[rows]
        # Each row's running sum stays 1, so a positive entry survives in it.
        sub += np.where(live, shortfall / live.sum(axis=1, keepdims=True), 0.0)
        y[rows] = sub
        steps[rows] += 1


def constrained_rows(phi):
    """Closest density matrices to an (m, k, k) stack of trace-one
    Hermitians, in Hilbert-Schmidt norm.

    A row that ``linalg.psd_screen`` decides PSD is returned unchanged with
    0 sweeps.  Every other row goes to one batched ``eigh``; each of those
    that is not PSD by ``linalg.psd_mask`` (smallest eigenvalue below -1e-9)
    has its eigenvalues projected onto the simplex as by
    ``project_nonneg_simplex_rows`` and is rebuilt as ``(u * w) @ u^H`` in
    its eigenbasis, and the rest are returned unchanged with 0 sweeps.  The
    input is not modified.  Returns the projected stack, the per-row sweep
    counts and the bool mask of the rows that are PSD, i.e. that were not
    projected; raises ``EigenDecompositionError`` if the eigensolver fails,
    and ``InvariantError``, naming the row's index in the stack, if a
    projected row's eigenvalues do not sum to one.
    """
    psd, _ = psd_screen(phi)
    near = np.nonzero(~psd)[0]
    out = phi.copy()
    try:
        w, u = np.linalg.eigh(out[near])
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(f"eigensolver did not converge: {exc}") from exc
    keep = psd_mask(w)
    psd[near] = keep
    rows = near[~keep]
    w, u = w[~keep], u[~keep]
    _require_unit_sums(w, rows)
    steps = np.zeros(len(out), dtype=int)
    clipped, steps[rows] = _redistribute(w)
    out[rows] = (u * clipped[:, None, :]) @ u.conj().swapaxes(1, 2)
    return out, steps, psd


def constrained_estimate(matrix):
    """Closest density matrix to a trace-one Hermitian, in Hilbert-Schmidt
    norm: the one-matrix case of ``constrained_rows``.

    Returns the density matrix and the number of redistribution sweeps.  An
    input that is already PSD (within 1e-9) is returned as is with 0 sweeps,
    so the constrained and unconstrained estimates then coincide exactly.
    """
    require_trace_one(matrix)
    out, steps, _ = constrained_rows(np.asarray(matrix, dtype=complex)[None])
    return out[0], int(steps[0])


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
    if not np.all((nu >= 0) & (nu <= 1)):
        raise InvariantError("frequencies must lie in [0, 1]")
    scheme = linear_scheme("three-direction", directions=directions)
    return scheme.estimate(np.stack([nu, 1.0 - nu], axis=1))[0]


def standard_estimate(counts) -> np.ndarray:
    """Bloch estimate from the six-outcome axis POVM.

    theta_i = 3 (nu_i - nu_{i+3}), the scaled frequency gap between the +1
    and -1 effects of axis i.
    """
    return linear_scheme("standard").estimate([count_frequencies(counts, 6)])[0]


def minimal_estimate(counts) -> np.ndarray:
    """Bloch estimate from the four-outcome tetrahedral POVM.

    theta = 3 sum_i nu_i a_i over the tetrahedron directions a_i; the factor
    3 inverts sum_i a_i a_i^T = (4/3) I once the 1/4 effect weights are in.
    """
    return linear_scheme("minimal").estimate([count_frequencies(counts, 4)])[0]
