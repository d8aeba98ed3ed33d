"""Dense complex linear algebra for small Hermitian matrices.

Operators are plain square ``numpy`` arrays of ``complex128``.  The helpers
here validate structure (Hermiticity, positive semidefiniteness), offer a
checked spectral decomposition, and provide the two figures of merit used
throughout: Hilbert-Schmidt distance and fidelity, also per row of a stack.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "InvariantError",
    "EigenDecompositionError",
    "Spectrum",
    "HERMITIAN_ATOL",
    "PSD_ATOL",
    "TRACE_ATOL",
    "is_integer",
    "require_hermitian",
    "hermitian_eig",
    "psd_mask",
    "is_psd",
    "require_trace_one",
    "determinant",
    "row_dots",
    "hs_distance",
    "fidelity_rows",
    "fidelity",
]

# Hermiticity is checked entrywise; inputs beyond this are rejected, never
# silently symmetrized.
HERMITIAN_ATOL = 1e-12
# Slack on eigenvalues when deciding positive semidefiniteness.
PSD_ATOL = 1e-9
# Slack on unit-trace and unit-sum checks.
TRACE_ATOL = 1e-9
# A spectral decomposition must reproduce its input to this relative accuracy.
_RECONSTRUCTION_RTOL = 1e-10


class InvariantError(ValueError):
    """An input violates a structural invariant (shape, Hermiticity, trace)."""


class EigenDecompositionError(RuntimeError):
    """The iterative eigensolver failed or missed the accuracy target.

    Carries the reconstruction residual ``||U diag(w) U* - H||`` when the
    decomposition converged but was not accurate enough.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted in descending order;
    ``eigenvectors[:, s]`` is the unit eigenvector for ``eigenvalues[s]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def is_integer(value) -> bool:
    """The one rule for a count, size or seed: a Python or numpy integer,
    never a bool (nor JSON's ``true``), a float or a string."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_hermitian(matrix) -> np.ndarray:
    """Validate Hermiticity entrywise and return the matrix as complex128.

    Parameters
    ----------
    matrix : array_like
        Square matrix of dimension at least 2 with finite entries; no entry
        may deviate from its conjugate transpose by more than
        ``HERMITIAN_ATOL``.

    Returns
    -------
    numpy.ndarray
        The input as a fresh complex array with an exactly real diagonal.

    Raises
    ------
    InvariantError
        If the matrix is not square, smaller than 2x2, has a non-finite
        entry, or is not Hermitian within ``HERMITIAN_ATOL``.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvariantError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 2:
        raise InvariantError("matrix dimension must be at least 2")
    if not np.all(np.isfinite(m)):
        raise InvariantError("matrix entries must be finite")
    gap = np.abs(m - m.conj().T).max()
    if gap > HERMITIAN_ATOL:
        raise InvariantError(
            f"matrix is not Hermitian: max |H - H*| = {gap:.3e} exceeds {HERMITIAN_ATOL:.1e}"
        )
    out = m.copy()
    # Diagonal imaginary parts are below HERMITIAN_ATOL by the check above; store zeros.
    idx = np.arange(out.shape[0])
    out[idx, idx] = out[idx, idx].real
    return out


def hermitian_eig(matrix) -> Spectrum:
    """Full eigendecomposition of a Hermitian matrix.

    Uses an iterative orthogonal-similarity solver and verifies the result:
    the reconstruction ``U diag(w) U*`` must match the input to relative
    accuracy 1e-10, otherwise an ``EigenDecompositionError`` is raised with
    the residual attached.

    Returns
    -------
    Spectrum
        Real eigenvalues in descending order with matching eigenvector
        columns.
    """
    h = require_hermitian(matrix)
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]
    u = u[:, order]
    recon = (u * w) @ u.conj().T
    residual = float(np.linalg.norm(recon - h))
    if residual > _RECONSTRUCTION_RTOL * (1.0 + float(np.linalg.norm(h))):
        raise EigenDecompositionError(
            f"eigendecomposition residual {residual:.3e} above tolerance",
            residual=residual,
        )
    return Spectrum(eigenvalues=w, eigenvectors=u)


def psd_mask(eigenvalues) -> np.ndarray:
    """The one PSD rule: which rows of ascending eigenvalues belong to a
    positive semidefinite matrix, i.e. have a smallest eigenvalue >=
    ``-PSD_ATOL``."""
    return np.asarray(eigenvalues)[..., 0] >= -PSD_ATOL


def is_psd(matrix) -> bool:
    """Whether a Hermitian matrix is positive semidefinite by ``psd_mask``."""
    return bool(psd_mask(np.linalg.eigvalsh(require_hermitian(matrix))))


def require_trace_one(matrix) -> np.ndarray:
    """Validate a Hermitian matrix with trace one (within ``TRACE_ATOL``)."""
    m = require_hermitian(matrix)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise InvariantError(f"trace is {tr!r}, expected 1 within {TRACE_ATOL:.1e}")
    return m


def row_dots(rows) -> np.ndarray:
    """Each row of a real (m, d) array dotted with itself.

    Row i is reduced by the same 1-d dot as ``np.dot(rows[i], rows[i])``
    and ``np.linalg.norm``, so it carries their bits; ``einsum`` and a
    summed square regroup the additions and do not.
    """
    a = np.asarray(rows, dtype=float)
    return (a[:, None, :] @ a[:, :, None])[:, 0, 0]


def determinant(matrix) -> float:
    """Determinant of a Hermitian matrix, returned as a real number."""
    h = require_hermitian(matrix)
    return float(np.linalg.det(h).real)


def hs_distance(a, b) -> float:
    """Hilbert-Schmidt distance ``sqrt(Tr (A - B)^2)`` between Hermitian A, B."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise InvariantError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def fidelity_rows(mats, rho) -> np.ndarray:
    """Fidelity of each matrix in an (m, k, k) stack with a density matrix:
    ``fidelity`` without its checks or clamp, so 2x2 rows may be indefinite
    while larger ones should be PSD."""
    if rho.shape[0] == 2:
        cross = np.einsum("mij,ji->m", mats, rho).real
        dets = np.linalg.det(mats).real * float(np.linalg.det(rho).real)
        return cross + 2.0 * np.sqrt(dets.astype(complex)).real
    w, u = np.linalg.eigh(rho)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    inner = np.linalg.eigvalsh(root @ mats @ root)
    return np.sqrt(np.clip(inner, 0.0, None)).sum(axis=1) ** 2


def fidelity(a, b) -> float:
    """Fidelity between two trace-one Hermitian matrices.

    For positive semidefinite inputs this is the square of
    ``Tr sqrt(sqrt(A) B sqrt(A))``, lies in [0, 1], and equals 1 exactly
    when A = B.  For dimension 2 the equivalent closed form

        Re(Tr AB + 2 sqrt(det A * det B))

    is used instead (principal branch of the complex square root).  The
    closed form stays defined when a 2x2 input is indefinite, in which case
    the value may exceed 1; larger dimensions require PSD inputs, and their
    value is clamped to [0, 1].  The value is row 0 of ``fidelity_rows``.

    Raises
    ------
    InvariantError
        On dimension mismatch, trace away from one beyond ``TRACE_ATOL``, or
        (for dimension > 2) inputs that are not PSD by ``psd_mask``.
    """
    a = require_trace_one(a)
    b = require_trace_one(b)
    if a.shape != b.shape:
        raise InvariantError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.shape[0] > 2 and not psd_mask(np.linalg.eigvalsh(np.stack([a, b]))).all():
        raise InvariantError("fidelity beyond dimension 2 requires PSD inputs")
    value = float(fidelity_rows(b[None], a)[0])
    return value if a.shape[0] == 2 else min(max(value, 0.0), 1.0)
