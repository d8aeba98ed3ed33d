"""Dense complex linear algebra for small Hermitian matrices.

Operators are plain square ``numpy`` arrays of ``complex128``.  The helpers
here validate structure (Hermiticity, positive semidefiniteness) and
provide the two figures of merit used throughout: Hilbert-Schmidt distance
and fidelity, also per row of a stack.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "InvariantError",
    "EigenDecompositionError",
    "HERMITIAN_ATOL",
    "MAX_COPIES",
    "PSD_ATOL",
    "SCREEN_MARGIN",
    "SINGULAR_ATOL",
    "SPECTRAL_GAP",
    "SPECTRAL_SCALE",
    "TRACE_ATOL",
    "is_integer",
    "copy_count",
    "require_hermitian",
    "psd_mask",
    "closed_form_eigvalsh",
    "psd_screen",
    "eigen_rows",
    "psd_rows",
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
# ``psd_screen`` decides a row whose smallest eigenvalue is at least this
# (PSD) or at most minus this (not PSD) without LAPACK.  For trace one its
# rules err by at most about 1e-8, far below the margin.
SCREEN_MARGIN = 1e-6
# A k = 3 projection uses the closed form at gaps >= SPECTRAL_GAP max(|l1|, l3) <= SPECTRAL_SCALE.
SPECTRAL_GAP = 1e-3
SPECTRAL_SCALE = 16.0
# Slack on unit-trace and unit-sum checks, and on the norm of a unit
# direction and the total of a count record.
TRACE_ATOL = 1e-9
# A direction matrix whose |determinant| is at most this is singular.
SINGULAR_ATOL = 1e-12
# The most copies, shots or repetitions of a run: numpy's multinomial
# sampler reads shots as a C long, and trajectory.csv's n is an int64.
MAX_COPIES = 2**63 - 1


class InvariantError(ValueError):
    """An input violates a structural invariant (shape, Hermiticity, trace)."""


class EigenDecompositionError(RuntimeError):
    """The iterative eigensolver failed to converge or returned a non-finite
    eigenvalue."""


def is_integer(value) -> bool:
    """The one rule for a count, size or seed: a Python or numpy integer,
    never a bool (nor JSON's ``true``), a float or a string."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def copy_count(value, divisor: int = 1) -> int:
    """The one rule for a number of copies, shots or repetitions: an integer
    by ``is_integer`` from 1 to ``MAX_COPIES`` that ``divisor`` divides,
    returned as an ``int``; ``InvariantError`` otherwise."""
    if not is_integer(value):
        raise InvariantError("the number of copies must be an integer")
    n = int(value)
    if n < 1:
        raise InvariantError("the number of copies must be at least 1")
    if n > MAX_COPIES:
        raise InvariantError(f"the number of copies must be at most {MAX_COPIES}")
    if n % divisor:
        raise InvariantError(f"the number of copies must be divisible by {divisor}")
    return n


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


def psd_mask(eigenvalues) -> np.ndarray:
    """The one PSD rule: which rows of ascending eigenvalues belong to a
    positive semidefinite matrix, i.e. have a smallest eigenvalue >=
    ``-PSD_ATOL``.

    Every value of a row is compared, not just the first: LAPACK does not
    sort a row that holds a NaN, and a row with any NaN is not PSD.
    """
    return (np.asarray(eigenvalues) >= -PSD_ATOL).all(axis=-1)


def closed_form_eigvalsh(mats) -> np.ndarray:
    """Ascending eigenvalues of an (m, 3, 3) Hermitian stack in closed form,
    read from the diagonal and the lower triangle.

    They are the roots of the characteristic cubic in Smith's trigonometric
    form (O. K. Smith, Commun. ACM 4(4):168, 1961): q + 2p cos(arccos(r)/3 +
    2 pi j/3) with q = tr/3, p^2 = ||A - qI||^2/6 and r = det(A - qI)/(2p^3)
    clipped to [-1, 1]; p = 0 gives three equal roots.  Near a double root
    ``arccos`` loses about sqrt(eps) relative to ||A|| (J. Kopp, Int. J. Mod.
    Phys. C 19:523, 2008).  A row with a non-finite entry gets NaN or -inf
    as its smallest value.
    """
    a = np.asarray(mats)
    if a.ndim != 3 or a.shape[1:] != (3, 3):
        raise InvariantError(f"expected an (m, 3, 3) stack, got shape {a.shape}")
    x, y, z = a[:, 1, 0], a[:, 2, 0], a[:, 2, 1]
    d = [a[:, i, i].real for i in range(3)]
    q = (d[0] + d[1] + d[2]) / 3.0
    d0, d1, d2 = d[0] - q, d[1] - q, d[2] - q
    xx, yy, zz = np.abs(x) ** 2, np.abs(y) ** 2, np.abs(z) ** 2
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (xx + yy + zz)) / 6.0)
    det = d0 * d1 * d2 + 2.0 * (x * z * y.conj()).real - d0 * zz - d1 * yy - d2 * xx
    r = np.divide(det, 2.0 * p**3, out=np.zeros_like(p), where=p > 0.0)
    angle = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    high = q + 2.0 * p * np.cos(angle)
    low = q + 2.0 * p * np.cos(angle + 2.0 * np.pi / 3.0)
    return np.stack([low, 3.0 * q - high - low, high], axis=1)


def _positive_pivots(work, shift) -> np.ndarray:
    """Indices of the rows of an (m, k, k) Hermitian stack, read from the
    diagonal and the lower triangle, for which ``row + shift I`` has only
    positive pivots in an unpivoted Cholesky factorization.

    The factorization is column-oriented and left-looking, the gaxpy form
    (G. H. Golub and C. F. Van Loan, Matrix Computations, 4th ed., 2013,
    Alg. 4.2.1): step j updates the lower part of column j of each live
    matrix with one product against the factor's first j columns, tests the
    pivot, and divides by its square root, in place, in a handful of numpy
    calls.  A row leaves at its first pivot that is not positive, so no
    arithmetic touches it afterwards.  ``work`` is overwritten.
    """
    live = np.arange(len(work))
    for j in range(work.shape[1]):
        if j:
            work[:, j:, j] -= np.einsum("mip,mp->mi", work[:, j:, :j], work[:, j, :j].conj())
        pivot = work[:, j, j].real + shift
        keep = pivot > 0.0
        if not keep.all():
            work, live, pivot = work[keep], live[keep], pivot[keep]
        root = np.sqrt(pivot)
        work[:, j, j] = root
        work[:, j + 1 :, j] /= root[:, None]
    return live


def psd_screen(mats):
    """The rows of an (m, k, k) Hermitian stack, read as LAPACK reads it
    (diagonal and lower triangle), that are decided without LAPACK.

    Returns ``(psd, near)``: a bool mask of the rows decided PSD, and the
    indices of the rows within ``SCREEN_MARGIN`` of the PSD edge, which
    LAPACK must judge.  Every other row is decided not PSD.  At k = 3 the
    smallest value of ``closed_form_eigvalsh`` decides the rows outside
    (-SCREEN_MARGIN, SCREEN_MARGIN).  At every other k an unpivoted Cholesky
    sweep does.  A row where ``A + SCREEN_MARGIN I`` has a pivot that is not
    positive has a smallest eigenvalue of at most -SCREEN_MARGIN +
    O(k^2 eps max_i A_ii), so it is not PSD.  A row where every pivot of
    ``A - SCREEN_MARGIN I`` is positive has one of at least SCREEN_MARGIN -
    O(k eps tr A), so it is PSD (N. J. Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, ch. 10).  A trace-one row near the
    edge has a norm of about 1, so these terms are at most about 1e-13, and
    the closed form errs by about 1e-8: both far below the margin.  A row
    with a non-finite entry is in ``near``.  The input is not modified.
    """
    a = np.asarray(mats)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvariantError(f"expected an (m, k, k) stack, got shape {a.shape}")
    # Any inf or NaN entry makes its row's sum non-finite.
    finite = np.isfinite(a.sum(axis=(1, 2)))
    if a.shape[1] == 3:
        # It reads the whole stack; ``finite`` overrules its non-finite rows.
        with np.errstate(invalid="ignore"):
            low = closed_form_eigvalsh(a)[:, 0]
        psd = finite & (low >= SCREEN_MARGIN)
        return psd, np.flatnonzero(~psd & ~(finite & (low <= -SCREEN_MARGIN)))
    rows = np.flatnonzero(finite)
    maybe = rows[_positive_pivots(a[rows], SCREEN_MARGIN)]
    sure = maybe[_positive_pivots(a[maybe], -SCREEN_MARGIN)]
    psd = np.zeros(len(a), dtype=bool)
    psd[sure] = True
    near = ~finite
    near[maybe] = True
    return psd, np.flatnonzero(near & ~psd)


def eigen_rows(mats, vectors: bool = False):
    """``np.linalg.eigvalsh`` of an (m, k, k) Hermitian stack, or
    ``np.linalg.eigh`` with ``vectors``.

    Raises ``EigenDecompositionError`` where LAPACK does not converge or
    returns a non-finite eigenvalue, as it does at any k for a row with a
    NaN or infinite entry in the triangle it reads.
    """
    try:
        out = (np.linalg.eigh if vectors else np.linalg.eigvalsh)(mats)
    except np.linalg.LinAlgError as exc:
        raise EigenDecompositionError(f"eigensolver did not converge: {exc}") from exc
    if not np.isfinite(out[0] if vectors else out).all():
        raise EigenDecompositionError("eigensolver did not converge: a non-finite eigenvalue")
    return out


def psd_rows(mats) -> np.ndarray:
    """Which rows of an (m, k, k) Hermitian stack are PSD: for rows of trace
    one exactly ``psd_mask(np.linalg.eigvalsh(mats))``, with LAPACK solving
    only the rows ``psd_screen`` leaves to it.  The input is not modified.
    Raises ``EigenDecompositionError`` as ``eigen_rows`` does.
    """
    psd, near = psd_screen(mats)
    psd[near] = psd_mask(eigen_rows(np.asarray(mats)[near]))
    return psd


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
    """Hilbert-Schmidt distance ``sqrt(Tr (A - B)^2)`` between Hermitian A, B
    of one shape with finite entries."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise InvariantError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvariantError("matrix entries must be finite")
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
