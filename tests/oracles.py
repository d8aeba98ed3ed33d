"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written along a different route than the
library code: entrywise loops instead of norms, sort-based and bisection
projections instead of iterative redistribution, a per-entry loop instead
of the masked batch redistribution, alternating projections
between matrix sets instead of an eigenvalue-space projection,
eigenvalue-based fidelity instead of the qubit closed form, a radial
Bloch rescaling instead of the qubit eigenvalue projection, Bloch
coordinates read from matrix entries to invert ``bloch_to_matrix``'s
Pauli sum, and a checked, descending eigendecomposition instead of the
bare ascending ``eigh``; a projection is also certified by its optimality
conditions, with no solver, the entrywise estimates are rebuilt with
complex temporaries instead of real and imaginary views, and the rows that
the k = 3 projection leaves to ``eigh`` are named from the closed-form
spectrum by the limits as documented; the Fisher information of a setting
is summed outcome by outcome from its probabilities, not read from any
error matrix.
"""

import numpy as np

from qtomo.linalg import (
    SCREEN_MARGIN,
    SPECTRAL_GAP,
    SPECTRAL_SCALE,
    EigenDecompositionError,
    closed_form_eigvalsh,
    require_hermitian,
)

# A spectral decomposition must reproduce its input to this relative accuracy.
RECONSTRUCTION_RTOL = 1e-10
# A projection's optimality residuals must stay below this times 1 + ||H||.
CERTIFICATE_RTOL = 1e-12


def hermitian_eig(matrix):
    """Eigenvalues in descending order and their eigenvector columns.

    The input must pass ``require_hermitian``; the reconstruction
    ``U diag(w) U*`` must match it to relative accuracy 1e-10, otherwise an
    ``EigenDecompositionError`` is raised.
    """
    h = require_hermitian(matrix)
    w, u = np.linalg.eigh(h)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    u = u[:, order]
    residual = float(np.linalg.norm((u * w) @ u.conj().T - h))
    if residual > RECONSTRUCTION_RTOL * (1.0 + float(np.linalg.norm(h))):
        raise EigenDecompositionError(f"eigendecomposition residual {residual:.3e} above tolerance")
    return w, u


def bloch_radial_projection(theta) -> np.ndarray:
    """Closest point of the closed unit ball to a Bloch vector: unchanged
    inside, rescaled to unit length outside."""
    t = np.asarray(theta, dtype=float)
    norm = float(np.linalg.norm(t))
    return t.copy() if norm <= 1.0 else t / norm


def matrix_to_bloch(matrix) -> np.ndarray:
    """Bloch coordinates Tr(M sigma_a) of a 2x2 Hermitian, read from its
    entries: (2 Re M_21, 2 Im M_21, M_11 - M_22)."""
    m = np.asarray(matrix, dtype=complex)
    return np.array([2 * m[1, 0].real, 2 * m[1, 0].imag, (m[0, 0] - m[1, 1]).real])


def hs_distance_brute(a, b) -> float:
    """Hilbert-Schmidt distance by an explicit entrywise sum."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            d = a[i, j] - b[i, j]
            total += (d * d.conjugate()).real
    return float(np.sqrt(total))


def fidelity_eig(a, b) -> float:
    """(Tr sqrt(sqrt(A) B sqrt(A)))^2 via explicit eigendecompositions."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    wa, ua = np.linalg.eigh(a)
    root = (ua * np.sqrt(np.clip(wa, 0.0, None))) @ ua.conj().T
    inner = root @ b @ root
    w = np.linalg.eigvalsh(inner)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)


def project_simplex_sort(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex, sort based."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    ranks = np.arange(1, v.size + 1)
    support = np.nonzero(u * ranks > cumulative - 1.0)[0][-1]
    tau = (cumulative[support] - 1.0) / (support + 1.0)
    return np.maximum(v - tau, 0.0)


def project_simplex_loop(v):
    """The paper's redistribution, one vector and one entry at a time.

    Each sweep zeros the negative entries still in play and spreads their
    total, summed left to right, over the entries still in play.  Returns
    the projected vector and the sweep count.
    """
    y = [float(x) for x in v]
    alive = [True] * len(y)
    steps = 0
    while True:
        neg = [i for i, x in enumerate(y) if alive[i] and x < 0.0]
        if not neg:
            return np.array(y), steps
        shortfall = 0.0
        for i in neg:
            shortfall += y[i]
            y[i] = 0.0
            alive[i] = False
        share = shortfall / sum(alive)
        for i, live in enumerate(alive):
            if live:
                y[i] += share
        steps += 1


def project_simplex_bisect(v, iterations: int = 200) -> np.ndarray:
    """Euclidean projection via bisection on the dual threshold."""
    v = np.asarray(v, dtype=float)
    lo, hi = float(v.min()) - 1.0, float(v.max())
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def project_density_dykstra(h, tol: float = 1e-14, max_iterations: int = 100_000):
    """Closest density matrix to a Hermitian matrix, by Dykstra's algorithm.

    Alternates the projection onto the PSD cone (clip negative eigenvalues
    to zero) with the projection onto the trace-one hyperplane (shift by a
    multiple of the identity), carrying Dykstra's correction for each set,
    until an iterate moves by at most ``tol`` in Frobenius norm.  The
    iterates converge to the projection onto the intersection of the two
    sets (Boyle & Dykstra, 1986).
    """
    h = np.asarray(h, dtype=complex)
    dim = h.shape[0]
    x = h.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(max_iterations):
        w, u = np.linalg.eigh(x + p)
        y = (u * np.clip(w, 0.0, None)) @ u.conj().T
        p = x + p - y
        shifted = y + q
        x_next = shifted + (1.0 - np.trace(shifted).real) / dim * np.eye(dim)
        q = shifted - x_next
        moved = np.linalg.norm(x_next - x)
        x = x_next
        if moved <= tol:
            return x
    raise RuntimeError("Dykstra iteration did not converge")


def projection_certificate(h, x):
    """Residuals of the conditions under which X is the closest density
    matrix to the Hermitian H in Hilbert-Schmidt norm, and the tolerance
    they must meet.

    X minimizes ||X - H||^2 subject to tr X = 1 and X >= 0 exactly when,
    with Z = X - H + mu I for some real mu, Z >= 0 and ZX = 0 (the KKT
    conditions of this convex problem; S. Boyd and L. Vandenberghe, Convex
    Optimization, 2004, secs. 5.5.3 and 5.9.2).  ZX = 0 gives tr(ZX) = 0,
    which fixes mu = tr((H - X) X) / tr X.  Returns the residuals of X >= 0,
    tr X = 1, Z >= 0 and ZX = 0 (the smallest eigenvalues' shortfalls below
    0, the trace's gap to 1 and the Frobenius norm of ZX), and the
    tolerance ``CERTIFICATE_RTOL * (1 + ||H||)``.
    """
    h = np.asarray(h, dtype=complex)
    x = np.asarray(x, dtype=complex)
    trace = float(np.trace(x).real)
    mu = float(np.trace((h - x) @ x).real) / trace
    z = x - h + mu * np.eye(len(h))
    residuals = {
        "x_psd": max(0.0, -float(np.linalg.eigvalsh(x)[0])),
        "trace": abs(trace - 1.0),
        "z_psd": max(0.0, -float(np.linalg.eigvalsh(z)[0])),
        "complementarity": float(np.linalg.norm(z @ x)),
    }
    return residuals, CERTIFICATE_RTOL * (1.0 + float(np.linalg.norm(h)))


def eigh_rows(stack, psd):
    """Positions, among the rows of an (m, k, k) stack that the mask ``psd``
    calls not PSD, of the rows ``constrained_rows`` solves with ``eigh``:
    every one at k != 3.  At k = 3, those whose closed-form spectrum
    l1 <= l2 <= l3 has l1 > -SCREEN_MARGIN, a gap below SPECTRAL_GAP times
    max(|l1|, l3), that scale above SPECTRAL_SCALE, or a NaN."""
    sub = stack[~psd]
    if stack.shape[1] != 3:
        return np.arange(len(sub))
    w = closed_form_eigvalsh(sub)
    scale = np.maximum(np.abs(w[:, 0]), w[:, 2])
    gap = np.diff(w, axis=1).min(axis=1)
    rebuilt = (w[:, 0] <= -SCREEN_MARGIN) & (gap >= SPECTRAL_GAP * scale)
    return np.flatnonzero(~(rebuilt & (scale <= SPECTRAL_SCALE)))


def entrywise_matrices_complex(params) -> np.ndarray:
    """The k-level pair scheme's (m, k, k) estimates from (m, k^2 - 1)
    parameter rows, written with a complex array of the off-diagonal
    entries and its conjugate: diagonal first, then the real and then the
    imaginary parts of the upper triangle in ``triu_indices`` order."""
    k = int(round(np.sqrt(params.shape[1] + 1)))
    rows, cols = np.triu_indices(k, 1)
    diag = np.arange(k - 1)
    phi = np.zeros((params.shape[0], k, k), dtype=complex)
    phi[:, diag, diag] = params[:, : k - 1]
    phi[:, k - 1, k - 1] = 1.0 - params[:, : k - 1].sum(axis=1)
    off = params[:, k - 1 : k - 1 + rows.size] + 1j * params[:, k - 1 + rows.size :]
    phi[:, rows, cols] = off
    phi[:, cols, rows] = off.conj()
    return phi


def random_trace_one_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0):
    """Random Hermitian matrix normalized to unit trace, often indefinite."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (z + z.conj().T) * scale
    h += (1.0 - np.trace(h).real) / dim * np.eye(dim)
    idx = np.arange(dim)
    h[idx, idx] = h[idx, idx].real
    return h


def random_ball_point(rng: np.random.Generator) -> np.ndarray:
    """Uniform point of the closed unit ball in R^3."""
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    radius = rng.uniform() ** (1.0 / 3.0)
    return direction * radius


def random_unit_rows(rng: np.random.Generator) -> np.ndarray:
    """Random 3x3 matrix with unit rows, redrawn until comfortably invertible."""
    while True:
        t = rng.standard_normal((3, 3))
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        if abs(np.linalg.det(t)) > 1e-3:
            return t


def linear_estimator_mse(probs, estimator_rows, n: int) -> np.ndarray:
    """Exact MSE of an unbiased linear read-out of multinomial frequencies.

    For theta_hat = sum_s nu_s estimator_rows[s] with nu the frequencies of
    n multinomial draws from ``probs``, the MSE equals the covariance
    R^T (diag(p) - p p^T) R / n.
    """
    p = np.asarray(probs, dtype=float)
    rows = np.asarray(estimator_rows, dtype=float)
    cov = (np.diag(p) - np.outer(p, p)) / n
    return rows.T @ cov @ rows


def fisher_information(weights, vectors, theta) -> np.ndarray:
    """Classical Fisher information per shot about the Bloch vector theta of
    a setting whose outcome o has probability w_o (1 + a_o . theta): the sum
    over outcomes of grad p_o grad p_o^T / p_o, which is
    sum_o w_o a_o a_o^T / (1 + a_o . theta), one outcome at a time."""
    info = np.zeros((3, 3))
    for w, a in zip(np.asarray(weights, dtype=float), np.asarray(vectors, dtype=float)):
        info += w * np.outer(a, a) / (1.0 + a @ theta)
    return info
