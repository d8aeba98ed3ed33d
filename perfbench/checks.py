"""Output checks for the benchmark workloads, and the corruptions that test them.

Every check rests on a law of the paper that holds for any seed, with a
tolerance of several standard errors where the law is statistical.  A check
returns a list of failure messages; an empty list means the output passed.
``corruptions`` yields damaged copies of a good output, each of which its
check must reject, so a broken gate cannot pass silently.
"""

from __future__ import annotations

import copy

import numpy as np
from qtomo.error_analysis import mse_minimal, mse_standard, mse_three_direction
from qtomo.simulation import ExperimentConfig, RandomState

TRAJECTORY_HEADER = ["n", "metric", "mean", "stderr", "trials", "seed"]
GRID_HEADER = [
    "theta1",
    "theta2",
    "theta3",
    "standard_minus_comp_min_eig",
    "comp_dominates_standard",
    "trace_comp",
    "trace_min",
    "trace_comp_le_trace_min",
]
# Band of criterion 06 of the acceptance suite, in standard errors.
MSE_SIGMA = 5.0
# Band for the sampled mean squared Hilbert-Schmidt error.
HS_SIGMA = 6.0


def _trajectory(out, config) -> list[str]:
    """Exit code, header, and one row per (metric, point) with the config's trials and seed."""
    if out["exit"] != 0:
        return [f"simulate exited with {out['exit']}"]
    if out["header"] != TRAJECTORY_HEADER:
        return [f"trajectory header is {out['header']}"]
    k = _dim(config)
    copies = [a * (k * k - 1) for a in config["schedule"]]
    fails = []
    for metric in config["metrics"]:
        rows = out["table"].get(metric, {})
        if sorted(rows) != copies:
            fails.append(f"{metric}: points {sorted(rows)}, expected {copies}")
        for n, (_, stderr, trials, seed) in rows.items():
            if (trials, seed) != (config["trials"], config["seed"]) or not stderr >= 0.0:
                fails.append(f"{metric} at n={n}: trials {trials}, seed {seed}, stderr {stderr}")
    return fails


def _dim(config) -> int:
    state = config["state"]
    return 2 if "bloch" in state else state["random"]["dim"]


def projection(out, config) -> list[str]:
    """The projection never moves the estimate away from the true state, so
    the mean constrained error is at most the mean unconstrained error at every
    point; and ``psd-fraction`` is a fraction."""
    fails = _trajectory(out, config)
    if fails:
        return fails
    table = out["table"]
    for n, (hs_c, *_) in table["hs-constrained"].items():
        hs_u = table["hs-unconstrained"][n][0]
        if not hs_c <= hs_u + 1e-12:
            fails.append(f"n={n}: mean hs-constrained {hs_c} exceeds hs-unconstrained {hs_u}")
    for n, (frac, *_) in table["psd-fraction"].items():
        if not 0.0 <= frac <= 1.0:
            fails.append(f"n={n}: psd-fraction {frac} outside [0, 1]")
    return fails


def _shot_moments(values, probs, shots: int, scale: float):
    """E e^2 and E e^4 for e = scale * (mean of ``shots`` iid outcomes - its expectation)."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    centred = values - values @ probs
    m2 = probs @ centred**2
    m4 = probs @ centred**4
    e2 = m2 / shots
    e4 = (shots * m4 + 3.0 * shots * (shots - 1) * m2**2) / shots**4
    return scale**2 * e2, scale**4 * e4


def hs_squared_moments(rho, shots: int):
    """Mean and variance of ||phi - rho||^2 for the entrywise estimate phi.

    Sums the per-observable binomial (diagonal) and multinomial (pair)
    variances of the frequencies; the last diagonal entry is minus the sum of
    the others, which couples the diagonal errors.
    """
    k = rho.shape[0]
    d = rho.diagonal().real
    diag = [_shot_moments((1.0, 0.0), (d[i], 1.0 - d[i]), shots, 1.0) for i in range(k - 1)]
    s2 = np.array([m[0] for m in diag])
    s4 = np.array([m[1] for m in diag])
    mean = 2.0 * s2.sum()
    var = 4.0 * (s4 - s2**2).sum() + 2.0 * (s2.sum() ** 2 - (s2**2).sum())
    for i in range(k):
        for j in range(i + 1, k):
            half = 0.5 * (d[i] + d[j])
            for part in (rho[i, j].real, rho[i, j].imag):
                probs = (half + part, half - part, 1.0 - d[i] - d[j])
                e2, e4 = _shot_moments((1.0, -1.0, 0.0), probs, shots, 0.5)
                mean += 2.0 * e2
                var += 4.0 * (e4 - e2**2)
    return mean, var


def sampling(out, config) -> list[str]:
    """mean^2 + stderr^2 (trials - 1) of ``hs-unconstrained`` is the sample mean
    of ||phi - rho||^2; it must match the closed form within HS_SIGMA standard
    errors at every point.  ``psd-fraction`` must be a fraction."""
    fails = _trajectory(out, config)
    if fails:
        return fails
    dim = config["state"]["random"]["dim"]
    rho = ExperimentConfig(
        state=RandomState(dim=dim),
        scheme=config["scheme"],
        schedule=tuple(config["schedule"]),
        trials=config["trials"],
        seed=config["seed"],
    ).resolve_state()
    trials = config["trials"]
    for shots in config["schedule"]:
        n = shots * (dim * dim - 1)
        mean, stderr, *_ = out["table"]["hs-unconstrained"][n]
        sampled = mean**2 + stderr**2 * (trials - 1)
        expect, var = hs_squared_moments(rho, shots)
        band = HS_SIGMA * np.sqrt(var / trials)
        if not abs(sampled - expect) <= band:
            fails.append(f"n={n}: mean ||phi-rho||^2 {sampled:.6g}, closed form {expect:.6g}")
        frac = out["table"]["psd-fraction"][n][0]
        if not 0.0 <= frac <= 1.0:
            fails.append(f"n={n}: psd-fraction {frac} outside [0, 1]")
    return fails


def mse(out, theta, copies: int, trials: int) -> list[str]:
    """Each empirical error matrix lies within the criterion-06 band of its
    closed form.  The standard error of entry (i, j) is the Gaussian one,
    sqrt((V_ii V_jj + V_ij^2) / trials), accurate at hundreds of copies."""
    analytic = {
        "standard": mse_standard(theta, copies),
        "minimal": mse_minimal(theta, copies),
        "three-direction": mse_three_direction(theta, np.eye(3), copies // 3),
    }
    fails = []
    for scheme, v in analytic.items():
        got = out["mse"].get(scheme)
        if got is None or np.shape(got) != (3, 3):
            fails.append(f"{scheme}: no 3x3 error matrix")
            continue
        se = np.sqrt((np.outer(v.diagonal(), v.diagonal()) + v**2) / trials)
        worst = float((np.abs(got - v) / se).max())
        if not np.all(np.abs(got - v) <= MSE_SIGMA * se + 1e-15):
            fails.append(f"{scheme}: off by {worst:.2f} standard errors")
    return fails


def ball_points(grid: int) -> int:
    """Grid points of linspace(-1, 1, grid)^3 inside the closed unit ball."""
    axis = np.linspace(-1.0, 1.0, grid)
    t = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    return int((np.linalg.norm(t, axis=-1) <= 1.0 + 1e-12).sum())


def grid(out, grid: int) -> list[str]:
    """One row per ball point; the pair scheme dominates the axis POVM and its
    trace stays at or below the tetrahedral one at every point."""
    if out["exit"] != 0:
        return [f"compare exited with {out['exit']}"]
    if out["header"] != GRID_HEADER:
        return [f"comparison header is {out['header']}"]
    fails = []
    rows = out["rows"]
    want = ball_points(grid)
    if len(rows) != want:
        fails.append(f"{len(rows)} rows, expected {want} ball points")
    bad_dom = sum(1 for r in rows if r[4] != "1")
    bad_trace = sum(1 for r in rows if r[7] != "1")
    if bad_dom:
        fails.append(f"{bad_dom} rows with comp_dominates_standard != 1")
    if bad_trace:
        fails.append(f"{bad_trace} rows with trace_comp_le_trace_min != 1")
    return fails


def corruptions(name: str, out) -> list[tuple[str, dict]]:
    """Damaged copies of a good output of workload ``name``."""
    bad = []

    def damaged(what, edit):
        twin = copy.deepcopy(out)
        edit(twin)
        bad.append((what, twin))

    if name != "qubit-mse-mc":
        damaged("nonzero exit", lambda o: o.update(exit=1))
    if name in ("pairs-k3-project", "pairs-k10-sample"):
        def drop_point(o):
            rows = o["table"]["psd-fraction"]
            del rows[max(rows)]

        def bad_fraction(o):
            rows = o["table"]["psd-fraction"]
            rows[min(rows)] = (1.5,) + rows[min(rows)][1:]

        damaged("missing point", drop_point)
        damaged("psd-fraction above 1", bad_fraction)
    if name == "pairs-k3-project":
        def swap_errors(o):
            t = o["table"]
            n = min(t["hs-constrained"])
            hs_u = t["hs-unconstrained"][n][0]
            t["hs-constrained"][n] = (hs_u + 1e-3,) + t["hs-constrained"][n][1:]

        damaged("projection farther than the estimate", swap_errors)
    if name == "pairs-k10-sample":
        def scale_error(o):
            rows = o["table"]["hs-unconstrained"]
            n = max(rows)
            rows[n] = (rows[n][0] * 1.03,) + rows[n][1:]

        damaged("hs-unconstrained 3% high", scale_error)
    if name == "qubit-mse-mc":
        damaged("minimal swapped for standard",
                lambda o: o["mse"].update(minimal=o["mse"]["standard"]))
        damaged("three-direction 3% high",
                lambda o: o["mse"].update({"three-direction": 1.03 * o["mse"]["three-direction"]}))
    if name == "compare-grid":
        damaged("missing row", lambda o: o["rows"].pop())
        damaged("domination flag cleared", lambda o: o["rows"][0].__setitem__(4, "0"))
        damaged("trace flag cleared", lambda o: o["rows"][-1].__setitem__(7, "0"))
    return bad
