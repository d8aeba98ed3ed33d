"""Acceptance suite: ten numbered criteria, one test and one report line each.

Every tolerance is pinned as a module constant.  Monte Carlo checks state
their seed and trial count explicitly so reruns are bit-for-bit identical.
Run with ``pytest -v`` (or ``-s`` for the printed report lines).
"""

import numpy as np
import pytest

from qtomo.cli import main
from qtomo.error_analysis import (
    AVERAGE_MSE_COEFF,
    average_mse_over_ball,
    compare_batch,
    empirical_mse,
    mse_minimal,
    mse_standard,
    mse_three_direction,
)
from qtomo.estimators import (
    constrained_estimate,
    project_nonneg_simplex_rows,
    unconstrained_estimate,
)
from qtomo.measurement import (
    TETRAHEDRON,
    MeasurementPlan,
    minimal_povm,
    outcome_probabilities,
    standard_povm,
    stream_rng,
)
from qtomo.simulation import (
    ExperimentConfig,
    RandomState,
    indefinite_decay_rate,
    pure_state_det_mean,
    run_trajectory,
)
from qtomo.states import bloch_to_matrix, random_density

from oracles import (
    CERTIFICATE_RTOL,
    hermitian_eig,
    project_simplex_sort,
    projection_certificate,
    random_trace_one_hermitian,
    random_unit_rows,
)

# --- pinned tolerances and experiment parameters ---------------------------

PROJECTION_ATOL = 1e-12          # criterion 1: worked projection examples
QP_ORACLE_ATOL = 1e-6            # criterion 2: gap to the SDP oracle
ANALYTIC_UNBIASED_ATOL = 1e-10   # criterion 3a: expected counts reproduce rho
MC_UNBIASED_SIGMA = 4.0          # criterion 3b: Monte Carlo mean vs rho
UNBIASED_TRIALS = 100_000
UNBIASED_REPETITIONS = 10
FIGURE_SPECTRUM = (0.1186, 0.2871, 0.5943)
PURE_ENUM_MAX_R = 6              # criterion 4a: exhaustive outcome enumeration
PURE_PSD_FRACTION_BOUND = 0.1    # criterion 4b
PURE_PSD_REPETITIONS = (10, 100, 1000)
PURE_DET_SIGMA = 5.0             # criterion 4c
DECAY_SCHEDULE = (5, 10, 20, 40, 80, 160)   # criterion 5
DECAY_TRIALS = 20_000
DECAY_MIN_R_SQUARED = 0.9
MSE_SIGMA = 5.0                  # criterion 6
MSE_TRIALS = 100_000
MSE_COPIES = 300
MSE_THETAS = (
    (0.0, 0.0, 0.0),
    (0.6, 0.0, 0.0),
    (0.3, 0.4, 0.5),
)
PSD_EIG_FLOOR = -1e-12           # criterion 7
HADAMARD_ATOL = 1e-12
BALL_MC_SAMPLES = 10_000_000     # criterion 8
BALL_MC_ATOL = 1e-3
DET_TRIPLES = 1000
TRACE_ATOL = 1e-12               # criterion 9
INDEFINITE_THETA = (0.0, 0.0, 0.5)
MASTER_SEED = 42


def report(number: int, text: str):
    print(f"PASS criterion {number:02d}: {text}")


# --- criterion 1: projection worked examples are exact ----------------------


def test_criterion_01_projection_exactness():
    (projected,), (steps,) = project_nonneg_simplex_rows([[0.5, -0.5, 1.0]])
    assert np.abs(projected - [0.25, 0.0, 0.75]).max() <= PROJECTION_ATOL
    assert steps == 1
    (projected,), (steps,) = project_nonneg_simplex_rows([[1 / 6, -1 / 2, 8 / 6]])
    assert np.abs(projected - [0.0, 0.0, 1.0]).max() <= PROJECTION_ATOL
    assert steps == 2
    # Same inputs routed through the matrix-level projection.
    matrix, steps = constrained_estimate(np.diag([0.5, -0.5, 1.0]))
    assert np.abs(matrix - np.diag([0.25, 0.0, 0.75])).max() <= PROJECTION_ATOL
    assert steps == 1
    matrix, steps = constrained_estimate(np.diag([1 / 6, -1 / 2, 8 / 6]))
    assert np.abs(matrix - np.diag([0.0, 0.0, 1.0])).max() <= PROJECTION_ATOL
    assert steps == 2
    report(1, "worked projection examples exact to 1e-12 with stated sweep counts")


# --- criterion 2: least-squares projection vs independent QP oracle ---------


def _sdp_battery(rng):
    return [random_trace_one_hermitian(dim, rng) for dim in (2, 3, 4) for _ in range(4)]


def test_criterion_02_constrained_estimate_matches_qp_oracle():
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(MASTER_SEED)
    worst_sdp = 0.0
    for h in _sdp_battery(rng):
        dim = h.shape[0]
        ours, _ = constrained_estimate(h)
        x = cp.Variable((dim, dim), hermitian=True)
        problem = cp.Problem(
            cp.Minimize(cp.sum_squares(x - h)),
            [x >> 0, cp.real(cp.trace(x)) == 1],
        )
        problem.solve(solver=cp.SCS, eps=1e-11, max_iters=200_000)
        assert problem.status == cp.OPTIMAL
        worst_sdp = max(worst_sdp, float(np.abs(ours - x.value).max()))
    assert worst_sdp <= QP_ORACLE_ATOL
    report(2, f"constrained estimate within {QP_ORACLE_ATOL:g} of SDP oracle "
              f"(worst {worst_sdp:.2e})")


def test_criterion_02_constrained_estimate_matches_sort_oracle():
    # Cheap second route, numpy only, on a larger battery: sort-based simplex
    # projection in the eigenbasis.  The SDP battery is drawn first and
    # discarded so these inputs do not depend on whether cvxpy is installed.
    rng = np.random.default_rng(MASTER_SEED)
    _sdp_battery(rng)
    worst_sort = 0.0
    for dim in (2, 3, 4, 6):
        for _ in range(50):
            h = random_trace_one_hermitian(dim, rng)
            ours, _ = constrained_estimate(h)
            w, u = hermitian_eig(h)
            oracle = (u * project_simplex_sort(w)) @ u.conj().T
            worst_sort = max(worst_sort, float(np.abs(ours - oracle).max()))
    assert worst_sort <= QP_ORACLE_ATOL
    report(2, f"constrained estimate within {QP_ORACLE_ATOL:g} of sort oracle "
              f"(worst {worst_sort:.2e})")


def test_criterion_02_constrained_estimate_meets_the_optimality_conditions():
    # Solver-free, so it runs wherever the suite does: every estimate on the
    # SDP battery and on the sort oracle's battery meets the projection's KKT
    # conditions, within CERTIFICATE_RTOL times 1 + ||H||.
    rng = np.random.default_rng(MASTER_SEED)
    battery = _sdp_battery(rng)
    battery += [random_trace_one_hermitian(dim, rng) for dim in (2, 3, 4, 6) for _ in range(50)]
    worst = 0.0
    for h in battery:
        ours, _ = constrained_estimate(h)
        residuals, tol = projection_certificate(h, ours)
        worst = max(worst, max(residuals.values()) / tol)
    assert worst <= 1.0
    report(2, f"constrained estimate meets the projection's optimality conditions "
              f"within {CERTIFICATE_RTOL:g} (1 + ||H||) (worst {worst:.2e} of that)")


# --- criterion 3: unconstrained estimator is unbiased ------------------------


def _figure_state() -> np.ndarray:
    return random_density(3, stream_rng(MASTER_SEED, 0), FIGURE_SPECTRUM)


def test_criterion_03_unbiasedness_analytic_and_monte_carlo():
    rho = _figure_state()
    plan = MeasurementPlan(3, UNBIASED_REPETITIONS)
    expected = {
        key: plan.repetitions * outcome_probabilities(plan.observables[key], rho)
        for key in plan.keys
    }
    analytic = unconstrained_estimate(plan, expected)
    assert np.abs(analytic - rho).max() <= ANALYTIC_UNBIASED_ATOL

    # Monte Carlo: the estimate is linear in the counts, so the mean matrix
    # is the estimate at the mean counts; entrywise standard errors come
    # from the per-observable frequency variances.
    r = UNBIASED_REPETITIONS
    trials = UNBIASED_TRIALS
    mean_counts = {}
    se = {}
    for index, key in enumerate(plan.keys):
        probs = outcome_probabilities(plan.observables[key], rho)
        counts = stream_rng(MASTER_SEED, 3, index).multinomial(r, probs, size=trials)
        mean_counts[key] = counts.mean(axis=0)
        if key[0] == "z":
            values = counts[:, 0] / r
        else:
            values = 0.5 * (counts[:, 0] - counts[:, 1]) / r
        se[key] = float(values.std(ddof=1)) / np.sqrt(trials)
    mc_mean = unconstrained_estimate(plan, mean_counts)
    gap = mc_mean - rho
    for i in range(1, 3):
        assert abs(gap[i - 1, i - 1].real) <= MC_UNBIASED_SIGMA * se[("z", i)]
    for i in range(1, 3):
        for j in range(i + 1, 4):
            assert abs(gap[i - 1, j - 1].real) <= MC_UNBIASED_SIGMA * se[("x", i, j)]
            assert abs(gap[i - 1, j - 1].imag) <= MC_UNBIASED_SIGMA * se[("y", i, j)]
    # The last diagonal entry aggregates the others.
    corner_se = np.sqrt(sum(se[("z", i)] ** 2 for i in (1, 2)))
    assert abs(gap[2, 2].real) <= MC_UNBIASED_SIGMA * corner_se
    report(3, f"unbiased: analytic gap <= {ANALYTIC_UNBIASED_ATOL:g}, Monte Carlo mean "
              f"within {MC_UNBIASED_SIGMA:g} SE at r={r}, {trials} trials")


# --- criterion 4: pure-state pathology ---------------------------------------


def test_criterion_04_pure_state_determinant_and_psd_fraction():
    from scipy.stats import binom

    # (a) exhaustive enumeration for r <= 6: X is deterministically +1, the
    # Z and Y counts are Binomial(r, 1/2); the determinant never exceeds 0
    # and its exact mean is -1/(2r).
    plan_cache = {}
    for r in range(1, PURE_ENUM_MAX_R + 1):
        plan = plan_cache.setdefault(r, MeasurementPlan(2, r))
        weights = binom.pmf(np.arange(r + 1), r, 0.5)
        mean_det = 0.0
        for z_plus in range(r + 1):
            for y_plus in range(r + 1):
                counts = {
                    ("z", 1): [z_plus, r - z_plus],
                    ("x", 1, 2): [r, 0],
                    ("y", 1, 2): [y_plus, r - y_plus],
                }
                phi = unconstrained_estimate(plan, counts)
                det = float(np.linalg.det(phi).real)
                assert det <= 1e-15
                mean_det += weights[z_plus] * weights[y_plus] * det
        assert abs(mean_det - (-1.0 / (2 * r))) <= 1e-12

    # (b) the constrained region is hit rarely: PSD fraction stays under 0.1.
    pure = bloch_to_matrix([1.0, 0.0, 0.0])
    config = ExperimentConfig(
        state=pure,
        scheme="klevel-pairs",
        schedule=PURE_PSD_REPETITIONS,
        trials=10_000,
        seed=MASTER_SEED,
        metrics=("psd-fraction",),
    )
    record = run_trajectory(config)
    fractions = record.means["psd-fraction"]
    assert np.all(fractions <= PURE_PSD_FRACTION_BOUND)

    # (c) sampled determinant mean stays on -1/(2r).
    for r in (10, 100):
        mean, stderr = pure_state_det_mean(r, trials=100_000, seed=MASTER_SEED)
        assert stderr > 0
        assert abs(mean - (-1.0 / (2 * r))) <= PURE_DET_SIGMA * stderr
    report(4, "pure state: det <= 0 exhaustively for r <= 6 with exact mean -1/(2r), "
              f"PSD fraction <= {PURE_PSD_FRACTION_BOUND} at r in {PURE_PSD_REPETITIONS}, "
              "sampled det mean within 5 SE")


# --- criterion 5: exponential decay of the not-PSD probability ---------------


def test_criterion_05_indefinite_probability_decays_exponentially():
    rho = _figure_state()
    fit = indefinite_decay_rate(rho, DECAY_SCHEDULE, trials=DECAY_TRIALS, seed=MASTER_SEED)
    assert not fit.incomplete
    assert fit.points_used == len(DECAY_SCHEDULE)
    assert fit.slope < 0.0
    assert fit.r_squared >= DECAY_MIN_R_SQUARED
    assert fit.not_psd_fraction[0] > 0.5
    assert fit.not_psd_fraction[-1] < 0.01
    report(5, f"not-PSD fraction decays log-linearly: slope {fit.slope:.3e} < 0, "
              f"R^2 = {fit.r_squared:.4f} >= {DECAY_MIN_R_SQUARED}")


# --- criterion 6: closed-form MSE matrices match simulation ------------------


def _mse_samples(scheme: str, theta: np.ndarray, n: int, trials: int, seed: int):
    """Per-trial error outer products, drawn outside the library loops."""
    rho = bloch_to_matrix(theta)
    rng = stream_rng(seed, 6)
    if scheme == "three-direction":
        r = n // 3
        p = 0.5 * (1.0 + theta)
        nu = np.empty((trials, 3))
        for a in range(3):
            nu[:, a] = rng.binomial(r, p[a], size=trials)
        estimates = 2.0 * nu / r - 1.0
    elif scheme == "standard":
        probs = outcome_probabilities(standard_povm(), rho)
        freq = rng.multinomial(n, probs, size=trials) / n
        estimates = 3.0 * (freq[:, :3] - freq[:, 3:])
    else:
        probs = outcome_probabilities(minimal_povm(), rho)
        freq = rng.multinomial(n, probs, size=trials) / n
        estimates = 3.0 * (freq @ TETRAHEDRON)
    err = estimates - theta
    return np.einsum("ti,tj->tij", err, err)


@pytest.mark.parametrize("scheme", ["three-direction", "standard", "minimal"])
def test_criterion_06_mse_formulas_match_simulation(scheme):
    for theta_tuple in MSE_THETAS:
        theta = np.array(theta_tuple)
        if scheme == "three-direction":
            analytic = mse_three_direction(theta, np.eye(3), MSE_COPIES // 3)
        elif scheme == "standard":
            analytic = mse_standard(theta, MSE_COPIES)
        else:
            analytic = mse_minimal(theta, MSE_COPIES)
        products = _mse_samples(scheme, theta, MSE_COPIES, MSE_TRIALS, MASTER_SEED)
        mean = products.mean(axis=0)
        se = products.std(axis=0, ddof=1) / np.sqrt(MSE_TRIALS)
        assert np.all(np.abs(mean - analytic) <= MSE_SIGMA * se + 1e-15)
        # The library's own sampler must live in the same band.
        library = empirical_mse(
            scheme, theta, MSE_COPIES, MSE_TRIALS, seed=MASTER_SEED,
            directions=np.eye(3) if scheme == "three-direction" else None,
        )
        assert np.all(np.abs(library - analytic) <= MSE_SIGMA * se + 1e-15)
    report(6, f"{scheme}: analytic MSE within {MSE_SIGMA:g} SE of simulation at "
              f"{len(MSE_THETAS)} test points, n={MSE_COPIES}, {MSE_TRIALS} trials")


# --- criterion 7: the axis POVM is dominated by the complementary scheme -----


def test_criterion_07_standard_dominated_and_hadamard_identity():
    hadamard_core = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    assert np.linalg.eigvalsh(hadamard_core)[0] >= -1e-15
    n = 3
    rng = np.random.default_rng(MASTER_SEED)
    grid = np.linspace(-1.0, 1.0, 9)
    points = [
        np.array([a, b, c])
        for a in grid
        for b in grid
        for c in grid
        if a * a + b * b + c * c <= 1.0
    ]
    points += [v * rng.uniform() ** (1 / 3) for v in
               (lambda g: g / np.linalg.norm(g, axis=1, keepdims=True))(
                   rng.standard_normal((200, 3)))]
    for theta in points:
        c = compare_batch([theta], n)
        diff = c.diff[0]
        assert bool(c.dominated[0])
        assert float(np.linalg.eigvalsh(diff)[0]) >= PSD_EIG_FLOOR
        expect = hadamard_core * np.outer(theta, theta) / n
        assert np.abs(diff - expect).max() <= HADAMARD_ATOL
    report(7, f"V_standard - V_comp PSD (min eig >= {PSD_EIG_FLOOR:g}) on "
              f"{len(points)} Bloch points; Hadamard-product identity to 1e-12")


# --- criterion 8: ball-averaged MSE constant and optimal directions ----------


def test_criterion_08_ball_average_constant_and_orthogonal_optimality():
    # Monte Carlo the coefficient: average of 1 - theta_1^2 over the ball.
    chunk = 1_000_000
    total = 0.0
    for part in range(BALL_MC_SAMPLES // chunk):
        rng = stream_rng(MASTER_SEED, 8, part)
        g = rng.standard_normal((chunk, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radius = rng.uniform(size=chunk) ** (1.0 / 3.0)
        total += np.sum(1.0 - (g[:, 0] * radius) ** 2)
    mc = total / BALL_MC_SAMPLES
    assert abs(mc - AVERAGE_MSE_COEFF) <= BALL_MC_ATOL

    baseline, det_orthogonal = average_mse_over_ball(np.eye(3))
    assert np.abs(baseline - AVERAGE_MSE_COEFF * np.eye(3)).max() <= 1e-12
    q, _ = np.linalg.qr(np.random.default_rng(MASTER_SEED).standard_normal((3, 3)))
    _, det_rotated = average_mse_over_ball(q)
    assert det_rotated == pytest.approx(det_orthogonal, rel=1e-10)
    rng = np.random.default_rng(MASTER_SEED + 8)
    for _ in range(DET_TRIPLES):
        _, det = average_mse_over_ball(random_unit_rows(rng))
        assert det >= det_orthogonal - 1e-12
    report(8, f"ball-average coefficient {AVERAGE_MSE_COEFF} within {BALL_MC_ATOL:g} of "
              f"{BALL_MC_SAMPLES:.0e}-sample MC ({mc:.6f}); orthogonal determinant "
              f"minimal against {DET_TRIPLES} random direction triples")


# --- criterion 9: total error favors complementary; no matrix dominance ------


def test_criterion_09_trace_inequality_and_indefinite_gap():
    n = 30
    rng = np.random.default_rng(MASTER_SEED + 9)
    for _ in range(300):
        g = rng.standard_normal(3)
        theta = g / np.linalg.norm(g) * rng.uniform() ** (1 / 3)
        c = compare_batch([theta], n)
        trace_comp, trace_min = float(c.trace_comp[0]), float(c.trace_min[0])
        assert bool(c.trace_ok[0])
        norm_sq = float(theta @ theta)
        assert abs(trace_comp - 3 * (3 - norm_sq) / n) <= TRACE_ATOL
        assert abs(trace_min - (9 - norm_sq) / n) <= TRACE_ATOL
        assert abs(np.trace(mse_minimal(theta, n)) - trace_min) <= TRACE_ATOL
        assert abs(
            np.trace(mse_three_direction(theta, np.eye(3), n // 3)) - trace_comp
        ) <= TRACE_ATOL
    theta = np.array(INDEFINITE_THETA)
    gap = mse_minimal(theta, n) - mse_three_direction(theta, np.eye(3), n // 3)
    eigs = np.sort(np.linalg.eigvalsh(gap))
    expect = np.sort([-np.sqrt(3) / 2 / n, np.sqrt(3) / 2 / n, 0.5 / n])
    assert np.abs(eigs - expect).max() <= 1e-12
    assert eigs[0] < -1e-12 and eigs[-1] > 1e-12
    report(9, "Tr V_comp <= Tr V_min on 300 ball points with exact closed forms; "
              f"V_min - V_comp indefinite at theta={INDEFINITE_THETA}")


# --- criterion 10: reruns and worker counts are byte-identical ---------------


def test_criterion_10_deterministic_output(tmp_path):
    import json

    config = {
        "state": {"random": {"dim": 3, "eigenvalues": list(FIGURE_SPECTRUM)}},
        "scheme": "klevel-pairs",
        "schedule": [5, 10, 20],
        "trials": 5000,
        "seed": MASTER_SEED,
        "metrics": ["hs-unconstrained", "hs-constrained", "psd-fraction", "det-mean"],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    blobs = []
    for name, workers in (("run1", 1), ("run2", 1), ("run3", 3)):
        out = tmp_path / name
        code = main(
            ["simulate", "--config", str(config_path), "--out", str(out),
             "--workers", str(workers)]
        )
        assert code == 0
        blobs.append((out / "trajectory.csv").read_bytes())
    assert blobs[0] == blobs[1], "identical reruns must produce identical bytes"
    assert blobs[0] == blobs[2], "worker count must not change the output"
    code = main(
        ["simulate", "--config", str(config_path), "--out", str(tmp_path / "run4"),
         "--seed", str(MASTER_SEED + 1)]
    )
    assert code == 0
    assert (tmp_path / "run4" / "trajectory.csv").read_bytes() != blobs[0]
    report(10, "simulate CSV byte-identical across reruns and worker counts 1 vs 3")
