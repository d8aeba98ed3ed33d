"""Point estimators: the entrywise unconstrained estimate and its
least-squares projection onto density matrices (``constrained_rows`` for a
stack, the one projection path)."""

from __future__ import annotations

import numpy as np

from .linalg import SCREEN_MARGIN, SPECTRAL_GAP, SPECTRAL_SCALE, TRACE_ATOL, InvariantError
from .linalg import closed_form_eigvalsh, eigen_rows, psd_rows, require_trace_one
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


def _require_unit_sums(rows, index, label="row {} sums"):
    """Raise ``InvariantError`` unless each of the (m, k) ``rows`` sums to one
    within ``TRACE_ATOL``; the message is ``label`` with row i's ``index[i]``."""
    sums = rows.sum(axis=1)
    bad = np.nonzero(~(np.abs(sums - 1.0) <= TRACE_ATOL))[0]
    if bad.size:
        first = int(bad[0])
        raise InvariantError(
            f"{label.format(int(index[first]))} to {float(sums[first])!r}, "
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


def _projector_rebuild(x, w, clipped):
    """Rebuild the (m, 3, 3) rows ``x``, overwriting them, from spectra ``w`` and
    their projections ``clipped`` by Sylvester's formula, with P_c = ((x - mI)^2 - h^2 I)
    / ((c - a)(c - b)), a, b = m -+ h: x + (w_1/2)(I - 3 P_1) or clipped_3 P_3 by rank."""
    two = clipped[:, 1] > 0.0
    c, a, b = np.where(two[:, None], w, w[:, [2, 0, 1]]).T
    scale = np.where(two, -1.5 * w[:, 0], clipped[:, 2]) / ((c - a) * (c - b))
    mid = (a + b) / 2.0
    shift = np.where(two, mid + 0.5 * w[:, 0], 0.0) - scale * ((b - a) / 2.0) ** 2
    # x - mid I, read as eigh reads x; diagonals one at a time (a strided view buffers).
    for i, j in ((1, 0), (2, 0), (2, 1)):
        x[:, j, i] = x[:, i, j].conj()
    for i in range(3):
        x[:, i, i] = x[:, i, i].real - mid
    out = x @ x
    out.view(float)[:] *= scale[:, None, None]
    x[~two] = 0.0
    out += x
    for i in range(3):
        out[:, i, i].real += shift
    return out


def constrained_rows(phi):
    """Closest density matrices to the rows of an (m, k, k) stack of
    trace-one Hermitians that are not PSD, in Hilbert-Schmidt norm.

    A row that ``linalg.psd_rows`` calls PSD is its own projection and is
    not touched.  The others keep their eigenvectors, with the eigenvalues
    projected as by ``project_nonneg_simplex_rows``: at k = 3 the closed-form
    ones, by one spectral projector, where the ``linalg.SPECTRAL_*`` limits
    hold and l1 <= -SCREEN_MARGIN; else ``eigh``'s, in one batch.  Returns
    the rebuilt rows in the order of ``np.flatnonzero(~psd)``, their sweep
    counts and the mask, and leaves ``phi`` as it is.  Raises
    ``EigenDecompositionError`` as ``linalg.eigen_rows`` does, and
    ``InvariantError``, naming the row, where eigenvalues do not sum to one.
    """
    psd = psd_rows(phi)
    rows = np.flatnonzero(~psd)
    w, fast = np.empty((len(rows), phi.shape[1])), np.zeros(len(rows), dtype=bool)
    if phi.shape[1] == 3:
        w = closed_form_eigvalsh(phi[rows])
        scale = np.maximum(np.abs(w[:, 0]), w[:, 2])
        fast = (w[:, 0] <= -SCREEN_MARGIN) & (np.diff(w).min(axis=1) >= SPECTRAL_GAP * scale)
        fast &= scale <= SPECTRAL_SCALE
    lapack = np.flatnonzero(~fast)
    w[lapack], u = eigen_rows(phi[rows[lapack]], vectors=True)
    _require_unit_sums(w, rows, "the eigenvalues of row {} sum")
    clipped, steps = _redistribute(w.copy())
    uh = u.conj().swapaxes(1, 2)  # before u is scaled in place
    u *= clipped[lapack][:, None, :]
    if not fast.any():
        return u @ uh, steps, psd
    out = _projector_rebuild(phi[rows], w, clipped)
    out[lapack] = u @ uh
    return out, steps, psd


def constrained_estimate(matrix):
    """Closest density matrix to a trace-one Hermitian, in Hilbert-Schmidt
    norm: the one-matrix case of ``constrained_rows``.

    Returns the density matrix and the number of redistribution sweeps.  An
    input that is already PSD (within ``PSD_ATOL``) is returned as is with 0
    sweeps, so the constrained and unconstrained estimates then coincide
    exactly.
    """
    require_trace_one(matrix)
    h = np.array(matrix, dtype=complex)
    projected, steps, psd = constrained_rows(h[None])
    return (h, 0) if psd[0] else (projected[0], int(steps[0]))
