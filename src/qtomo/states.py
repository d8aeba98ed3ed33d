"""Density matrices, the qubit Bloch parametrization, and random states."""

from __future__ import annotations

import numpy as np

from .linalg import TRACE_ATOL, InvariantError, is_integer, psd_mask, require_trace_one, row_dots

__all__ = [
    "SIGMA_0",
    "PAULI",
    "bloch_vector",
    "bloch_to_matrix",
    "in_bloch_ball",
    "require_trace_one",
    "require_density",
    "haar_unitary",
    "random_density",
]

SIGMA_0 = np.eye(2, dtype=complex)
# Pauli basis, indexed 0..2 for sigma_1, sigma_2, sigma_3.
PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def bloch_vector(theta) -> np.ndarray:
    """The one check of a single Bloch vector: ``theta`` as a float array of
    shape (3,) with finite entries.  Whether it lies in the unit ball is left
    to the caller; stacks are judged by ``in_bloch_ball``."""
    t = np.asarray(theta, dtype=float)
    if t.shape != (3,):
        raise InvariantError(f"Bloch vector must have shape (3,), got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise InvariantError("Bloch vector entries must be finite")
    return t


def bloch_to_matrix(theta) -> np.ndarray:
    """Map a Bloch vector to the 2x2 matrix (I + theta . sigma) / 2.

    The result is Hermitian with unit trace for any finite real 3-vector; it
    is a density matrix exactly when ``|theta| <= 1``.
    """
    return 0.5 * (SIGMA_0 + np.tensordot(bloch_vector(theta), PAULI, axes=1))


def in_bloch_ball(thetas) -> np.ndarray:
    """Whether each row of an (m, 3) stack is a state: ``psd_mask`` of
    (1 - |theta|) / 2, the smallest eigenvalue of ``bloch_to_matrix(theta)``,
    which accepts exactly |theta| <= 1 + 2 ``PSD_ATOL``.

    A row's norm has the bits of ``np.linalg.norm`` of that row alone.
    """
    t = np.asarray(thetas, dtype=float)
    if t.ndim != 2 or t.shape[1] != 3:
        raise InvariantError(f"Bloch vectors must be stacked as (m, 3), got shape {t.shape}")
    return psd_mask((1.0 - np.sqrt(row_dots(t)))[:, None] / 2)


def require_density(matrix) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, PSD."""
    m = require_trace_one(matrix)
    if not psd_mask(np.linalg.eigvalsh(m)):
        raise InvariantError("matrix is not positive semidefinite")
    return m


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian matrix.

    The R factor's diagonal phases are divided out so the distribution is
    exactly the Haar measure rather than the raw QR output.
    """
    if not (is_integer(dim) and dim >= 2):
        raise InvariantError("dimension must be an integer of at least 2")
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def random_density(
    dim: int,
    rng: np.random.Generator,
    eigenvalues=None,
) -> np.ndarray:
    """Random density matrix of the given dimension.

    Parameters
    ----------
    dim : int
        Dimension, an integer of at least 2.
    rng : numpy.random.Generator
        Source of randomness; callers own seeding and stream splitting.
    eigenvalues : array_like, optional
        Fixed spectrum to use.  It must pass ``psd_mask`` and sum to one
        within 1e-9.  When omitted the spectrum is drawn uniformly from the
        probability simplex.

    Returns
    -------
    numpy.ndarray
        ``U diag(w) U*`` for a Haar-random unitary U.
    """
    if not (is_integer(dim) and dim >= 2):
        raise InvariantError("dimension must be an integer of at least 2")
    if eigenvalues is None:
        w = rng.dirichlet(np.ones(dim))
    else:
        w = np.asarray(eigenvalues, dtype=float)
        if w.shape != (dim,):
            raise InvariantError(f"expected {dim} eigenvalues, got shape {w.shape}")
        if not psd_mask(w):
            raise InvariantError("fixed spectrum is not positive semidefinite")
        if abs(float(w.sum()) - 1.0) > TRACE_ATOL:
            raise InvariantError(f"fixed spectrum sums to {w.sum()!r}, expected 1")
    u = haar_unitary(dim, rng)
    rho = (u * w) @ u.conj().T
    # Reconstruction noise is ~1e-16; round back to exact Hermiticity.
    rho = 0.5 * (rho + rho.conj().T)
    idx = np.arange(dim)
    rho[idx, idx] = rho[idx, idx].real
    return rho
