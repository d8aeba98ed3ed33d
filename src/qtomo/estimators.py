"""Point estimators: the entrywise unconstrained estimate and its
least-squares projection onto density matrices (``constrained_rows`` for a
stack, the one projection path)."""

from __future__ import annotations

import numpy as np

from .linalg import TRACE_ATOL, InvariantError, eigen_rows, psd_rows, require_trace_one
from .measurement import MeasurementPlan, count_frequencies

__all__ = [
    "unconstrained_estimate",
    "project_nonneg_simplex_rows",
    "constrained_rows",
    "constrained_estimate",
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

    A row that ``linalg.psd_rows`` calls PSD is returned unchanged with 0
    sweeps.  Every other row goes to one batched ``eigh``, has its
    eigenvalues projected onto the simplex as by
    ``project_nonneg_simplex_rows`` and is rebuilt as ``(u * w) @ u^H`` in
    its eigenbasis.  The input is not modified.  Returns the projected
    stack, the per-row sweep counts and the ``psd_rows`` mask, i.e. the rows
    that were not projected; raises ``EigenDecompositionError`` as
    ``linalg.eigen_rows`` does, and ``InvariantError``, naming the row's
    index in the stack, if a projected row's eigenvalues do not sum to one.
    """
    psd = psd_rows(phi)
    rows = np.nonzero(~psd)[0]
    out = phi.copy()
    w, u = eigen_rows(out[rows], vectors=True)
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
