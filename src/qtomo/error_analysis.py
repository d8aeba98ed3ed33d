"""Mean quadratic error matrices of the qubit schemes and their comparison.

For an estimator theta-hat of the Bloch vector theta, the object of study is
the 3x3 matrix V = E[(theta-hat - theta)(theta-hat - theta)^T].  All three
qubit schemes are unbiased, so V is the covariance of the estimate.  The
closed forms below are exact for every n, not asymptotic.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import InvariantError, is_integer, row_dots
from .measurement import CHUNK_TRIALS, _direction_matrix, linear_scheme, stream_rng
from .states import bloch_to_matrix, bloch_vector, in_bloch_ball

__all__ = [
    "BALL_SECOND_MOMENT",
    "AVERAGE_MSE_COEFF",
    "mse_three_direction",
    "mse_standard",
    "mse_minimal",
    "empirical_mse",
    "average_mse_over_ball",
    "Comparison",
    "compare_batch",
]

# E[theta_i theta_j] = (1/5) delta_ij when theta is uniform on the unit ball.
BALL_SECOND_MOMENT = 0.2
# Coefficient of (T^T T)^{-1} in the ball-averaged MSE: 1 - 1/5.
AVERAGE_MSE_COEFF = 1.0 - BALL_SECOND_MOMENT
_AXES = np.arange(3)


def _check_thetas(thetas) -> np.ndarray:
    """An (m, 3) stack of Bloch vectors, each a state by ``in_bloch_ball``."""
    t = np.asarray(thetas, dtype=float)
    if not np.all(in_bloch_ball(t)):
        raise InvariantError("theta must lie in the closed unit Bloch ball")
    return t


def _check_theta(theta) -> np.ndarray:
    return _check_thetas(bloch_vector(theta)[None])[0]


def _check_total(total: int, divisor: int = 1) -> int:
    if not is_integer(total):
        raise InvariantError("the number of copies must be an integer")
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
    if not (is_integer(repetitions) and repetitions >= 1):
        raise InvariantError("repetitions must be an integer of at least 1")
    dirmat = _direction_matrix(directions)
    variances = 1.0 - (dirmat @ t) ** 2
    inv = np.linalg.inv(dirmat)
    return (inv * variances) @ inv.T / int(repetitions)


def _complementary_rows(t: np.ndarray, total: float) -> np.ndarray:
    # Coordinate-axis special case of the three-direction formula, written
    # in total copies n = 3r, for each row of an (m, 3) stack.
    out = np.zeros((len(t), 3, 3))
    out[:, _AXES, _AXES] = 3.0 * (1.0 - t**2) / total
    return out


def _standard_rows(t: np.ndarray, n: int) -> np.ndarray:
    return (3.0 * np.eye(3) - t[:, :, None] * t[:, None, :]) / n


def mse_standard(theta, total: int) -> np.ndarray:
    """Error matrix of the six-outcome axis POVM with n shots.

    Diagonal entries (3 - theta_i^2) / n, off-diagonal -theta_i theta_j / n.
    """
    t = _check_theta(theta)
    n = _check_total(total)
    return _standard_rows(t[None], n)[0]


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
    if scheme not in ("three-direction", "standard", "minimal"):
        raise InvariantError(f"empirical_mse needs a qubit scheme, got {scheme!r}")
    if not (is_integer(trials) and trials >= 100):
        raise InvariantError("trials must be an integer of at least 100 for a stable average")
    if not (is_integer(seed) and 0 <= seed < 2**64):
        raise InvariantError("seed must be an integer in [0, 2**64)")
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


class Comparison(NamedTuple):
    """Closed-form scheme comparison at each row of an (m, 3) stack of theta."""

    diff: np.ndarray  # (m, 3, 3) V_standard - V_comp
    min_eig: np.ndarray  # smallest eigenvalue of each diff: +0.0 at every row
    dominated: np.ndarray  # diff is PSD: True at every row
    trace_comp: np.ndarray  # Tr V_comp
    trace_min: np.ndarray  # Tr V_min
    trace_ok: np.ndarray  # Tr V_comp <= Tr V_min: True at every row


def compare_batch(thetas, total: int) -> Comparison:
    """Both scheme comparisons at every row of an (m, 3) stack of theta.

    The complementary scheme is the three-direction scheme along the
    coordinate axes with r = n / 3.  Row i holds V_standard - V_comp at
    ``thetas[i]``, its smallest eigenvalue and whether it is PSD, then
    Tr V_comp = 3 (3 - |theta|^2) / n, Tr V_min = (9 - |theta|^2) / n and
    whether Tr V_comp <= Tr V_min.  That comparison needs no slack: it
    reduces to |theta|^2 >= 0.  The matrix gap V_min - V_comp is indefinite
    for generic theta, so neither of those two schemes dominates entrywise.

    With Theta = diag(theta) and J the all-ones matrix, V_standard - V_comp
    = Theta (3I - J) Theta / n, and 3I - J has spectrum {0, 3, 3}.  So the
    difference is PSD and singular at every theta: 1 / theta entrywise is a
    null vector, or a coordinate axis where some theta_i is 0.  ``min_eig``
    is therefore +0.0 and ``dominated`` True at every row, by rank rather
    than by an eigensolver's rounding; no eigensolver runs.  Every row must
    be a state by ``in_bloch_ball``, and n must be an integer of at least 1
    divisible by 3.  Only ``diff`` is a matrix; the other fields are
    constants or functions of |theta|^2, so the CLI's grid writes them with
    no 3x3 stack built.
    """
    t = _check_thetas(thetas)
    n = _check_total(total, divisor=3)
    diff = _standard_rows(t, n) - _complementary_rows(t, float(n))
    return Comparison(diff, *_comparison_scalars(t, n))


def _comparison_scalars(t: np.ndarray, n: int):
    """The ``Comparison`` fields after ``diff`` at each row of a checked
    (m, 3) stack, with n a checked copy budget."""
    norm_sq = row_dots(t)
    trace_comp = 3.0 * (3.0 - norm_sq) / n
    trace_min = (9.0 - norm_sq) / n
    ok = trace_comp <= trace_min
    return np.zeros(len(t)), np.ones(len(t), dtype=bool), trace_comp, trace_min, ok
