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
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice

import numpy as np

from .estimators import constrained_rows
from .linalg import MAX_COPIES, InvariantError, fidelity_rows, is_integer, psd_rows
from .measurement import CHUNK_TRIALS, MAX_DIM, SCHEMES, linear_scheme, stream_rng
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
# Bytes of one row block's complex k x k estimates.  Each stage after
# sampling briefly holds about two more copies of its block (phi - rho, the
# Cholesky working copy, the rebuilt projected rows), so a 4,096-trial chunk
# scored whole holds three 64 MiB stacks at k = 32.  1 MiB blocks (655
# trials at k = 10, 64 at k = 32; a whole chunk at k <= 4) bound that
# working set; psd_screen's column sweep makes about five numpy calls per
# column, so a small block costs little time even at k = 32.
_BLOCK_BYTES = 2**20


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""


@dataclass(frozen=True)
class RandomState:
    """Request for a seeded random true state: Haar eigenbasis, and either a
    uniform-simplex spectrum or the given fixed one.  ``dim`` runs from 2 to
    ``measurement.MAX_DIM``."""

    dim: int
    eigenvalues: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (is_integer(self.dim) and 2 <= self.dim <= MAX_DIM):
            raise ConfigError(f"random state dim must be an integer from 2 to {MAX_DIM}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a trajectory.

    ``state`` is a density matrix (array_like) or a ``RandomState`` request
    resolved once per run from the master seed.  ``schedule`` holds the
    per-point sample sizes, integers from 1 to 2**63 - 1: shots per
    observable for ``klevel-pairs`` and ``three-direction``, total shots for
    the POVM schemes.  Each entry times the number of settings (k**2 - 1
    observables, 3 directions or 1 POVM), the copies n of the point, must
    also be at most 2**63 - 1.  ``metrics`` defaults to every metric the
    state's dimension supports: all of ``METRICS`` for a qubit, all but
    ``fidelity-unconstrained`` beyond.  Every rule here raises
    ``ConfigError`` when the config is built, the two dimension rules too:
    a qubit scheme needs a two-level state, and ``fidelity-unconstrained``
    a qubit; no state has more than ``measurement.MAX_DIM`` levels.
    ``resolve_state`` checks the matrix itself.
    """

    state: object
    scheme: str
    schedule: tuple[int, ...]
    trials: int
    seed: int
    metrics: tuple[str, ...] | None = None
    directions: object = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        try:
            sched = tuple(self.schedule)
        except TypeError:
            raise ConfigError("schedule must be a sequence of integers") from None
        if not all(map(is_integer, sched)):
            raise ConfigError("schedule entries must be integers")
        sched = tuple(int(v) for v in sched)
        if not sched:
            raise ConfigError("schedule must be nonempty")
        if not all(1 <= v <= MAX_COPIES for v in sched):
            raise ConfigError(f"schedule entries must be from 1 to {MAX_COPIES}")
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
        state = self.state
        try:
            rows = (state.dim,) if isinstance(state, RandomState) else np.shape(state)[:1]
        except ValueError:
            raise ConfigError("state must be a matrix or a RandomState, got ragged rows") from None
        qubit = rows == (2,)
        metrics = self.metrics
        if metrics is None:
            metrics = [m for m in METRICS if qubit or m != "fidelity-unconstrained"]
        metrics = tuple(metrics)
        if not metrics:
            raise ConfigError("at least one metric is required")
        for m in metrics:
            if m not in METRICS:
                raise ConfigError(f"unknown metric {m!r}, expected one of {METRICS}")
        if len(set(metrics)) != len(metrics):
            raise ConfigError("metrics must be distinct")
        object.__setattr__(self, "metrics", metrics)
        # A state with no rows is not a matrix: resolve_state rejects it.
        if rows and not qubit and self.scheme != "klevel-pairs":
            raise ConfigError(f"scheme {self.scheme!r} requires a qubit state, got dim {rows[0]}")
        if not qubit and "fidelity-unconstrained" in metrics:
            raise ConfigError(
                "fidelity-unconstrained is only defined for qubits, where fidelity "
                "extends to indefinite estimates"
            )
        if rows and rows[0] > MAX_DIM:
            raise ConfigError(f"state dim {rows[0]} exceeds {MAX_DIM}")
        # trajectory.csv's n is shots times settings, computed in int64.
        settings = 3 if self.scheme == "three-direction" else 1
        if self.scheme == "klevel-pairs" and rows:
            settings = int(rows[0]) ** 2 - 1
        if sched[-1] * settings > MAX_COPIES:
            raise ConfigError(
                f"schedule entry {sched[-1]} times the {settings} settings of {self.scheme} "
                f"exceeds {MAX_COPIES} copies"
            )
        if self.directions is not None:
            if self.scheme != "three-direction":
                raise ConfigError("directions apply to the three-direction scheme only")
            try:
                d = np.asarray(self.directions).astype(float, casting="same_kind")
            except (TypeError, ValueError):
                raise ConfigError("directions must be a 3x3 matrix of real numbers") from None
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
        return [
            (int(n), metric, float(mean), float(stderr), self.trials, self.seed)
            for metric in self.means
            for n, mean, stderr in zip(self.copies, self.means[metric], self.stderrs[metric])
        ]


def _metric_block(phi, state, metrics):
    """Per-trial metric values for a row block of unconstrained estimates,
    one of the consecutive blocks ``_chunk_task`` cuts a chunk into.

    Every value is computed row by row, so it does not depend on the block
    or the subset of rows it is scored in.  ``psd-fraction`` is
    ``linalg.psd_rows``'s mask on either branch: a constrained metric reads
    it from ``constrained_rows``, which rebuilds only the rows that are not
    PSD (at k = 3 mostly without ``eigh``); the others need no eigensolve.
    A PSD row is its own projection: ``hs-constrained`` is ``||phi - rho||``
    with the projected rows' distances written over it, and
    ``fidelity-constrained`` scores ``phi[psd]`` and the projected rows.
    """
    projected = psd = distance = None
    if "hs-unconstrained" in metrics or "hs-constrained" in metrics:
        distance = np.linalg.norm(phi - state, axis=(1, 2))
    if "hs-constrained" in metrics or "fidelity-constrained" in metrics:
        projected, _, psd = constrained_rows(phi)
    elif "psd-fraction" in metrics:
        psd = psd_rows(phi)
    values = {}
    for metric in metrics:
        if metric == "hs-unconstrained":
            values[metric] = distance
        elif metric == "hs-constrained":
            values[metric] = distance.copy()
            values[metric][~psd] = np.linalg.norm(projected - state, axis=(1, 2))
        elif metric == "fidelity-unconstrained":
            values[metric] = fidelity_rows(phi, state)
        elif metric == "fidelity-constrained":
            values[metric] = np.empty(len(phi))
            values[metric][psd] = fidelity_rows(phi[psd], state)
            values[metric][~psd] = fidelity_rows(projected, state)
        elif metric == "psd-fraction":
            values[metric] = psd.astype(float)
        else:
            values[metric] = np.linalg.det(phi).real
    return values


def _chunk_task(run, job):
    scheme, probs, state, metrics, seed = run
    point, amount, chunk, m = job
    rng = stream_rng(seed, _NS_SAMPLE, point, chunk)
    params = scheme.sample(probs, amount, m, rng)
    rows = max(1, _BLOCK_BYTES // (16 * state.size))
    blocks = [
        _metric_block(scheme.to_matrix(params[start : start + rows]), state, metrics)
        for start in range(0, m, rows)
    ]
    return {metric: np.concatenate([b[metric] for b in blocks]) for metric in metrics}


def _pool_size(workers: int, tasks: int) -> int:
    # A forking pool starts all its processes at once: clamp before it exists.
    return min(workers, tasks, os.cpu_count() or 1)


def run_trajectory(config: ExperimentConfig, workers: int = 1) -> TrajectoryRecord:
    """Execute a trajectory and summarize each schedule point.

    ``workers`` > 1 spreads the sampling chunks over a process pool, at most
    one process per chunk and per CPU; the chunk streams and the aggregation
    order are fixed, so the record is identical for any worker count.
    """
    if not (is_integer(workers) and workers >= 1):
        raise ConfigError("workers must be an integer of at least 1")
    state = config.resolve_state()
    scheme = linear_scheme(config.scheme, state.shape[0], config.directions)
    probs = scheme.probabilities(state)
    schedule = np.array(config.schedule)
    copies = schedule * len(scheme.settings)
    # Sampling reads only the read-out; dropping the settings frees their
    # projectors for the run and keeps them out of every pool job.
    scheme = replace(scheme, settings=())
    task = partial(_chunk_task, (scheme, probs, state, config.metrics, config.seed))
    sizes = [min(CHUNK_TRIALS, config.trials - s) for s in range(0, config.trials, CHUNK_TRIALS)]
    jobs = [
        (point, amount, chunk, m)
        for point, amount in enumerate(config.schedule)
        for chunk, m in enumerate(sizes)
    ]
    n_points = len(config.schedule)
    means = {metric: np.empty(n_points) for metric in config.metrics}
    stderrs = {metric: np.zeros(n_points) for metric in config.metrics}

    def summarize(results):
        # Chunks arrive in job order; each point is summarized as its last
        # chunk arrives, so only one point's per-trial values are held.
        for point in range(n_points):
            block = list(islice(results, len(sizes)))
            for metric in config.metrics:
                samples = np.concatenate([b[metric] for b in block])
                means[metric][point] = samples.mean()
                if config.trials > 1:
                    stderrs[metric][point] = samples.std(ddof=1) / np.sqrt(config.trials)

    processes = _pool_size(workers, len(jobs))
    if processes == 1:
        summarize(map(task, jobs))
    else:
        with ProcessPoolExecutor(processes) as pool:
            summarize(pool.map(task, jobs))
    return TrajectoryRecord(
        scheme=config.scheme,
        seed=config.seed,
        trials=config.trials,
        state=state,
        schedule=schedule,
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
        schedule=schedule,
        trials=trials,
        seed=seed,
        metrics=("psd-fraction",),
    )
    record = run_trajectory(config)
    fraction = 1.0 - record.means["psd-fraction"]
    usable = fraction > 0.0
    used = int(usable.sum())
    slope = intercept = r_squared = float("nan")
    if used >= 2:
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
        incomplete=used < max(2, fraction.size),
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
