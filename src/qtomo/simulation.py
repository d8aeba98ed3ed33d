"""Seeded Monte Carlo experiments over the estimation pipeline.

A trajectory fixes a true state and a measurement scheme, then sweeps a
schedule of sample sizes; at each size it simulates many independent
experiments, forms the unconstrained and constrained estimates, and records
per-trial error metrics.  Sampling is carved into fixed-size chunks, each
driven by its own stream keyed on (seed, point index, chunk index), so a
trajectory is reproducible bit for bit no matter how many worker processes
execute it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .estimators import constrained_rows
from .linalg import InvariantError, fidelity_rows, psd_mask
from .measurement import CHUNK_TRIALS, SCHEMES, is_integer, linear_scheme, stream_rng
from .states import bloch_to_matrix, random_density, require_density

__all__ = [
    "ConfigError",
    "SCHEMES",
    "METRICS",
    "RandomState",
    "ExperimentConfig",
    "TrajectoryRecord",
    "DecayFit",
    "run_trajectory",
    "indefinite_decay_rate",
    "pure_state_det_mean",
]

METRICS = (
    "hs-unconstrained",
    "hs-constrained",
    "fidelity-unconstrained",
    "fidelity-constrained",
    "psd-fraction",
    "det-mean",
)

# Stream namespaces under the master seed.
_NS_STATE = 0
_NS_SAMPLE = 1


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""


@dataclass(frozen=True)
class RandomState:
    """Request for a seeded random true state: Haar eigenbasis, and either a
    uniform-simplex spectrum or the given fixed one."""

    dim: int
    eigenvalues: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a trajectory.

    ``state`` is a density matrix (array_like) or a ``RandomState`` request
    resolved once per run from the master seed.  ``schedule`` holds the
    per-point sample sizes: shots per observable for ``klevel-pairs`` and
    ``three-direction``, total shots for the POVM schemes.
    """

    state: object
    scheme: str
    schedule: tuple[int, ...]
    trials: int
    seed: int
    metrics: tuple[str, ...] = METRICS
    directions: object = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        sched = tuple(self.schedule)
        if not all(map(is_integer, sched)):
            raise ConfigError("schedule entries must be integers")
        sched = tuple(int(v) for v in sched)
        if not sched:
            raise ConfigError("schedule must be nonempty")
        if any(v < 1 for v in sched):
            raise ConfigError("schedule entries must be positive")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ConfigError("schedule must be strictly increasing")
        object.__setattr__(self, "schedule", sched)
        if not (is_integer(self.trials) and is_integer(self.seed)):
            raise ConfigError("trials and seed must be integers")
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        metrics = tuple(self.metrics)
        if not metrics:
            raise ConfigError("at least one metric is required")
        for m in metrics:
            if m not in METRICS:
                raise ConfigError(f"unknown metric {m!r}, expected one of {METRICS}")
        if len(set(metrics)) != len(metrics):
            raise ConfigError("metrics must be distinct")
        object.__setattr__(self, "metrics", metrics)
        if self.directions is not None:
            if self.scheme != "three-direction":
                raise ConfigError("directions apply to the three-direction scheme only")
            d = np.asarray(self.directions, dtype=float)
            if d.shape != (3, 3):
                raise ConfigError("directions must be a 3x3 matrix")
            object.__setattr__(self, "directions", d)

    def resolve_state(self) -> np.ndarray:
        """The true density matrix, drawing the random one when requested."""
        if isinstance(self.state, RandomState):
            rng = stream_rng(self.seed, _NS_STATE)
            return random_density(self.state.dim, rng, self.state.eigenvalues)
        return require_density(self.state)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Per-point summary of a trajectory: means and standard errors."""

    scheme: str
    seed: int
    trials: int
    state: np.ndarray
    schedule: np.ndarray
    copies: np.ndarray
    means: dict = field(repr=False)
    stderrs: dict = field(repr=False)

    def rows(self):
        """Flat (copies, metric, mean, stderr, trials, seed) rows."""
        out = []
        for metric in self.means:
            for p, n in enumerate(self.copies):
                out.append(
                    (
                        int(n),
                        metric,
                        float(self.means[metric][p]),
                        float(self.stderrs[metric][p]),
                        self.trials,
                        self.seed,
                    )
                )
        return out


def _validate_scheme_state(config: ExperimentConfig, state: np.ndarray):
    dim = state.shape[0]
    if config.scheme != "klevel-pairs" and dim != 2:
        raise ConfigError(f"scheme {config.scheme!r} requires a qubit state, got dim {dim}")
    if dim > 2 and "fidelity-unconstrained" in config.metrics:
        raise ConfigError(
            "fidelity-unconstrained is only defined for qubits, where fidelity "
            "extends to indefinite estimates"
        )


def _metric_block(phi, state, metrics):
    """Per-trial metric values for a block of unconstrained estimates."""
    constrained = eigvals = None
    if "hs-constrained" in metrics or "fidelity-constrained" in metrics:
        constrained, _, eigvals = constrained_rows(phi)
    elif "psd-fraction" in metrics:
        eigvals = np.linalg.eigh(phi)[0]
    values = {}
    for metric in metrics:
        if metric == "hs-unconstrained":
            values[metric] = np.linalg.norm(phi - state, axis=(1, 2))
        elif metric == "hs-constrained":
            values[metric] = np.linalg.norm(constrained - state, axis=(1, 2))
        elif metric == "fidelity-unconstrained":
            values[metric] = fidelity_rows(phi, state)
        elif metric == "fidelity-constrained":
            values[metric] = fidelity_rows(constrained, state)
        elif metric == "psd-fraction":
            values[metric] = psd_mask(eigvals).astype(float)
        else:
            values[metric] = np.linalg.det(phi).real
    return values


def _chunk_task(payload):
    scheme, probs, state, amount, metrics, seed, point, chunk, m = payload
    rng = stream_rng(seed, _NS_SAMPLE, point, chunk)
    phi = scheme.to_matrix(scheme.sample(probs, amount, m, rng))
    return _metric_block(phi, state, metrics)


def _pool_size(workers: int, tasks: int) -> int:
    # A forking pool starts all its processes at once: clamp before it exists.
    return min(workers, tasks, os.cpu_count() or 1)


def run_trajectory(config: ExperimentConfig, workers: int = 1) -> TrajectoryRecord:
    """Execute a trajectory and summarize each schedule point.

    ``workers`` > 1 spreads the sampling chunks over a process pool, at most
    one process per chunk and per CPU; the chunk streams and the aggregation
    order are fixed, so the record is identical for any worker count.
    """
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    state = config.resolve_state()
    _validate_scheme_state(config, state)
    scheme = linear_scheme(config.scheme, state.shape[0], config.directions)
    probs = scheme.probabilities(state)
    tasks = []
    for point, amount in enumerate(config.schedule):
        for chunk, start in enumerate(range(0, config.trials, CHUNK_TRIALS)):
            m = min(CHUNK_TRIALS, config.trials - start)
            tasks.append(
                (
                    scheme,
                    probs,
                    state,
                    amount,
                    config.metrics,
                    config.seed,
                    point,
                    chunk,
                    m,
                )
            )
    processes = _pool_size(workers, len(tasks))
    if processes == 1:
        results = [_chunk_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_chunk_task, tasks))
    n_points = len(config.schedule)
    chunks_per_point = -(-config.trials // CHUNK_TRIALS)
    means = {metric: np.empty(n_points) for metric in config.metrics}
    stderrs = {metric: np.empty(n_points) for metric in config.metrics}
    for point in range(n_points):
        block = results[point * chunks_per_point : (point + 1) * chunks_per_point]
        for metric in config.metrics:
            samples = np.concatenate([b[metric] for b in block])
            means[metric][point] = samples.mean()
            if config.trials > 1:
                stderrs[metric][point] = samples.std(ddof=1) / np.sqrt(config.trials)
            else:
                stderrs[metric][point] = 0.0
    copies = np.array(config.schedule) * len(scheme.settings)
    return TrajectoryRecord(
        scheme=config.scheme,
        seed=config.seed,
        trials=config.trials,
        state=state,
        schedule=np.array(config.schedule),
        copies=copies,
        means=means,
        stderrs=stderrs,
    )


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of the probability that the estimate is not PSD.

    ``slope`` is per copy of the state: log P(not PSD) ~ intercept +
    slope * n.  Points where no failure was observed carry no log value;
    they are dropped and flagged through ``incomplete``.  With fewer than
    two usable points the fit fields are NaN.
    """

    copies: np.ndarray
    not_psd_fraction: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    points_used: int
    incomplete: bool


def indefinite_decay_rate(rho, schedule, trials: int, seed: int) -> DecayFit:
    """Empirical decay rate of P(unconstrained estimate not PSD).

    For an invertible true state this probability falls exponentially in the
    number of copies; the smallest eigenvalue of ``rho`` must be at least
    0.01 so the decay is observable at simulation scale.
    """
    state = require_density(rho)
    if float(np.linalg.eigvalsh(state)[0]) < 0.01:
        raise InvariantError("true state must be invertible: smallest eigenvalue >= 0.01")
    config = ExperimentConfig(
        state=state,
        scheme="klevel-pairs",
        schedule=tuple(schedule),
        trials=trials,
        seed=seed,
        metrics=("psd-fraction",),
    )
    record = run_trajectory(config)
    fraction = 1.0 - record.means["psd-fraction"]
    usable = fraction > 0.0
    used = int(usable.sum())
    if used < 2:
        return DecayFit(
            copies=record.copies,
            not_psd_fraction=fraction,
            slope=float("nan"),
            intercept=float("nan"),
            r_squared=float("nan"),
            points_used=used,
            incomplete=True,
        )
    x = record.copies[usable].astype(float)
    y = np.log(fraction[usable])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = intercept + slope * x
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        copies=record.copies,
        not_psd_fraction=fraction,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        points_used=used,
        incomplete=bool(used < fraction.size),
    )


def pure_state_det_mean(repetitions: int, trials: int, seed: int):
    """Mean and standard error of det(unconstrained estimate) for the pure
    state with Bloch vector (1, 0, 0), measured entrywise with r shots per
    observable.  The determinant is never positive for this state and its
    mean is -1/(2r)."""
    config = ExperimentConfig(
        state=bloch_to_matrix([1.0, 0.0, 0.0]),
        scheme="klevel-pairs",
        schedule=(repetitions,),
        trials=trials,
        seed=seed,
        metrics=("det-mean",),
    )
    record = run_trajectory(config)
    return float(record.means["det-mean"][0]), float(record.stderrs["det-mean"][0])
