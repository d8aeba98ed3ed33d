"""Mean quadratic error matrices of the qubit schemes and their comparison.

For an estimator theta-hat of the Bloch vector theta, the object of study is
the 3x3 matrix V = E[(theta-hat - theta)(theta-hat - theta)^T].  All three
qubit schemes are unbiased, so V is the covariance of the estimate.  The
closed forms below are exact for every n, not asymptotic.
"""

from __future__ import annotations

import numpy as np

from .linalg import InvariantError
from .measurement import CHUNK_TRIALS, _direction_matrix, linear_scheme, stream_rng
from .states import bloch_to_matrix, is_bloch_state

__all__ = [
    "BALL_SECOND_MOMENT",
    "AVERAGE_MSE_COEFF",
    "mse_three_direction",
    "mse_standard",
    "mse_minimal",
    "empirical_mse",
    "average_mse_over_ball",
    "compare_standard_vs_complementary",
    "compare_traces_min_vs_comp",
]

# E[theta_i theta_j] = (1/5) delta_ij when theta is uniform on the unit ball.
BALL_SECOND_MOMENT = 0.2
# Coefficient of (T^T T)^{-1} in the ball-averaged MSE: 1 - 1/5.
AVERAGE_MSE_COEFF = 1.0 - BALL_SECOND_MOMENT


def _check_theta(theta) -> np.ndarray:
    t = np.asarray(theta, dtype=float)
    if not is_bloch_state(t, tol=1e-9):
        raise InvariantError("theta must lie in the closed unit Bloch ball")
    return t


def _check_total(total: int, divisor: int = 1) -> int:
    n = int(total)
    if n < 1:
        raise InvariantError("the number of copies must be at least 1")
    if n % divisor:
        raise InvariantError(f"the number of copies must be divisible by {divisor}")
    return n


def mse_three_direction(theta, directions, repetitions: int) -> np.ndarray:
    """Error matrix of the three-direction scheme with r shots per direction.

    V = T^{-1} D T^{-T} / r with D = Diag(1 - (u_i . theta)^2), the
    per-direction binomial variances of the +-1 outcomes.
    """
    t = _check_theta(theta)
    if int(repetitions) < 1:
        raise InvariantError("repetitions must be at least 1")
    dirmat = _direction_matrix(directions)
    variances = 1.0 - (dirmat @ t) ** 2
    inv = np.linalg.inv(dirmat)
    return (inv * variances) @ inv.T / int(repetitions)


def _mse_complementary(theta: np.ndarray, total: float) -> np.ndarray:
    # Coordinate-axis special case of the three-direction formula, written
    # in total copies n = 3r.
    return np.diag(3.0 * (1.0 - theta**2)) / total


def mse_standard(theta, total: int) -> np.ndarray:
    """Error matrix of the six-outcome axis POVM with n shots.

    Diagonal entries (3 - theta_i^2) / n, off-diagonal -theta_i theta_j / n.
    """
    t = _check_theta(theta)
    n = _check_total(total)
    return (3.0 * np.eye(3) - np.outer(t, t)) / n


def mse_minimal(theta, total: int) -> np.ndarray:
    """Error matrix of the tetrahedral POVM with n shots.

    Same diagonal as the axis POVM; the (i, j) off-diagonal entry picks up
    sqrt(3) theta_l - theta_i theta_j where l is the remaining index.
    """
    t = _check_theta(theta)
    n = _check_total(total)
    cross = np.sqrt(3.0) * np.array(
        [
            [0.0, t[2], t[1]],
            [t[2], 0.0, t[0]],
            [t[1], t[0], 0.0],
        ]
    )
    return (3.0 * np.eye(3) - np.outer(t, t) + cross) / n


def empirical_mse(
    scheme: str,
    theta,
    total: int,
    trials: int,
    seed: int,
    directions=None,
) -> np.ndarray:
    """Monte Carlo estimate of a scheme's error matrix.

    Simulates ``trials`` independent experiments of ``total`` copies each,
    applies the scheme's unconstrained Bloch estimator, and averages the
    outer products of the estimation errors.  Sampling is chunked over a
    seeded stream per chunk, so results are reproducible bit for bit.

    Parameters
    ----------
    scheme : str
        One of ``"three-direction"``, ``"standard"``, ``"minimal"``.
    directions : array_like, optional
        Row matrix for the three-direction scheme; identity when omitted.
    """
    t = _check_theta(theta)
    if trials < 100:
        raise InvariantError("at least 100 trials are required for a stable average")
    linear = linear_scheme(scheme, directions=directions)
    settings = len(linear.settings)
    shots = _check_total(total, divisor=settings) // settings
    probs = linear.probabilities(bloch_to_matrix(t))
    accum = np.zeros((3, 3))
    for chunk, start in enumerate(range(0, trials, CHUNK_TRIALS)):
        m = min(CHUNK_TRIALS, trials - start)
        err = linear.sample(probs, shots, m, stream_rng(seed, chunk)) - t
        accum += err.T @ err
    return accum / trials


def average_mse_over_ball(directions):
    """Bloch-ball average of the three-direction error matrix at r = 1.

    Averaging 1 - (u . theta)^2 over theta uniform in the unit ball leaves
    (4/5) T^{-1} T^{-T} = (4/5) (T^T T)^{-1}.  Returns the matrix and its
    determinant; among unit-row direction matrices the determinant is
    smallest exactly when the rows are orthogonal.
    """
    dirmat = _direction_matrix(directions)
    avg = AVERAGE_MSE_COEFF * np.linalg.inv(dirmat.T @ dirmat)
    return avg, float(np.linalg.det(avg))


def compare_standard_vs_complementary(theta, total: int):
    """Difference V_standard - V_complementary at equal copy budget n.

    The complementary scheme is the three-direction scheme along the
    coordinate axes with r = n / 3.  Returns the difference matrix and a
    flag for whether it is PSD, i.e. whether the axis POVM is dominated at
    this theta.  The difference works out to (2 diag(theta_i^2) -
    offdiag(theta_i theta_j)) / n, which is PSD for every theta.
    """
    t = _check_theta(theta)
    n = _check_total(total)
    diff = mse_standard(t, n) - _mse_complementary(t, float(n))
    return diff, _psd_flag(diff)


def compare_traces_min_vs_comp(theta, total: int):
    """Traces of the complementary and tetrahedral error matrices at budget n.

    Tr V_comp = 3 (3 - |theta|^2) / n and Tr V_min = (9 - |theta|^2) / n, so
    the complementary scheme never loses on total error; the full matrix
    difference V_min - V_comp is indefinite for generic theta, so neither
    scheme dominates entrywise.  Requires n divisible by 3.

    Returns
    -------
    (float, float, bool)
        (Tr V_comp, Tr V_min, Tr V_comp <= Tr V_min within 1e-12).
    """
    t = _check_theta(theta)
    n = _check_total(total, divisor=3)
    norm_sq = float(t @ t)
    trace_comp = 3.0 * (3.0 - norm_sq) / n
    trace_min = (9.0 - norm_sq) / n
    return trace_comp, trace_min, trace_comp <= trace_min + 1e-12


def _psd_flag(matrix: np.ndarray) -> bool:
    smallest = float(np.linalg.eigvalsh(matrix)[0])
    return smallest >= -1e-12 * float(np.linalg.norm(matrix))
