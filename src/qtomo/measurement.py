"""Measurement models and seeded outcome sampling.

A k-level state is probed entrywise with k^2 - 1 projective observables:
one two-outcome diagonal observable per basis index below k, and for every
index pair i < j a three-outcome pair observable for the real part and one
for the imaginary part of the off-diagonal entry.  Qubits can instead be
measured along arbitrary Bloch directions or with one of two fixed POVMs,
a six-outcome one built from the three coordinate axes and a four-outcome
tetrahedral one.

Every scheme's estimator is linear in the outcome frequencies, so a scheme
is described once, as a ``LinearScheme``: its settings in measurement order,
one real read-out block per setting, and the map from the estimated
parameters to a matrix.  Sampling and ``LinearScheme.estimate``, the one
estimator of every scheme, share its one read-out.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import SINGULAR_ATOL, TRACE_ATOL, InvariantError, is_integer
from .states import PAULI, SIGMA_0, require_density

__all__ = [
    "Observable",
    "Povm",
    "MeasurementPlan",
    "TETRAHEDRON",
    "stream_rng",
    "structure_gaps",
    "pair_observable_x",
    "pair_observable_y",
    "diag_observable_z",
    "direction_observable",
    "standard_povm",
    "minimal_povm",
    "outcome_probabilities",
    "count_frequencies",
    "sample_plan_counts",
    "CHUNK_TRIALS",
    "MAX_DIM",
    "SCHEMES",
    "LinearScheme",
    "linear_scheme",
]

# Tolerance for the algebraic checks on projectors and POVM effects.
_STRUCTURE_ATOL = 1e-10

# Rows are the four unit vectors from the alternating-sign corners of a cube,
# pointing at the vertices of a regular tetrahedron.
TETRAHEDRON = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]
) / np.sqrt(3.0)


# Trials per sampling chunk; part of the reproducibility contract, since the
# stream key of every random number depends on it.
CHUNK_TRIALS = 4096
# The largest k a MeasurementPlan or a RandomState takes.  The plan's k^2 - 1
# observables hold up to three k x k projectors each, about 48 k^4 bytes: at
# k = 32 povm-check takes 0.84 s and 81 MiB, at k = 64 it would need 0.8 GB.
MAX_DIM = 32


def stream_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (master seed, stream key) pair.

    Streams with distinct keys are statistically independent, and the same
    (seed, key) always yields the same stream regardless of how many other
    streams exist.  This is what makes multi-worker runs reproducible.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_GAPS = {
    "hermitian": lambda e: np.abs(e - e.conj().transpose(0, 2, 1)).max(),
    "sums_to_identity": lambda e: np.abs(e.sum(axis=0) - np.eye(e.shape[1])).max(),
    "orthogonal": lambda e: np.abs(
        e[:, None] @ e[None, :] - np.eye(len(e))[:, :, None, None] * e[:, None]
    ).max(),
    "psd": lambda e: -np.linalg.eigvalsh(e)[:, 0].min(),
}


def structure_gaps(ops, *conditions: str) -> dict[str, float]:
    """Gap of a stack of operators E_s from each named condition, which holds
    when its gap is at most ``_STRUCTURE_ATOL``: ``"hermitian"``, max
    |E_s - E_s^dagger|; ``"sums_to_identity"``, max |sum_s E_s - I|;
    ``"orthogonal"`` (idempotent, mutually orthogonal projectors), max
    |E_s E_t - delta_st E_s|; ``"psd"``, minus the smallest eigenvalue of any
    E_s.  Only the named gaps are computed.  This is the one check of an
    operator stack: ``ops`` must have shape (s, k, k) with finite entries.
    """
    e = np.asarray(ops, dtype=complex)
    if e.ndim != 3 or e.shape[1] != e.shape[2]:
        raise InvariantError(f"operators must be a stack of square matrices, got shape {e.shape}")
    if not np.all(np.isfinite(e)):
        raise InvariantError("operator entries must be finite")
    return {name: float(_GAPS[name](e)) for name in conditions}


@dataclass(frozen=True)
class Observable:
    """Projective observable: outcome values with their projectors.

    ``projectors[s]`` is the eigenprojector for ``values[s]``.  Projectors
    must be Hermitian, idempotent, mutually orthogonal, and sum to the
    identity; the values must be distinct finite real numbers.
    """

    values: tuple[float, ...]
    projectors: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.projectors, dtype=complex)
        gaps = structure_gaps(p, "hermitian", "sums_to_identity", "orthogonal")
        if len(self.values) != p.shape[0]:
            raise InvariantError("one projector per outcome value is required")
        values = tuple(float(v) for v in self.values)
        if not all(math.isfinite(v) for v in values):
            raise InvariantError("outcome values must be finite")
        if len(set(values)) != len(values):
            raise InvariantError("outcome values must be distinct")
        if gaps["hermitian"] > _STRUCTURE_ATOL:
            raise InvariantError("projectors must be Hermitian")
        if gaps["sums_to_identity"] > _STRUCTURE_ATOL:
            raise InvariantError("projectors must sum to the identity")
        if gaps["orthogonal"] > _STRUCTURE_ATOL:
            raise InvariantError("projectors must be idempotent and orthogonal")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "projectors", _readonly(p))


@dataclass(frozen=True)
class Povm:
    """Positive operator-valued measure: PSD effects summing to the identity."""

    effects: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.effects, dtype=complex)
        gaps = structure_gaps(e, "hermitian", "sums_to_identity", "psd")
        if gaps["hermitian"] > _STRUCTURE_ATOL:
            raise InvariantError("effects must be Hermitian")
        if gaps["sums_to_identity"] > _STRUCTURE_ATOL:
            raise InvariantError("effects must sum to the identity")
        if gaps["psd"] > _STRUCTURE_ATOL:
            raise InvariantError(f"effects must be PSD, smallest eigenvalue {-gaps['psd']:.3e}")
        object.__setattr__(self, "effects", _readonly(e))

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]


def _unit_matrix(dim: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((dim, dim), dtype=complex)
    e[i - 1, j - 1] = 1.0
    return e


def _check_pair(dim: int, i: int, j: int):
    if not (all(map(is_integer, (dim, i, j))) and dim >= 2):
        raise InvariantError("dimension and indices must be integers, the dimension at least 2")
    if not (1 <= i < j <= dim):
        raise InvariantError(f"need 1 <= i < j <= {dim}, got i={i}, j={j}")


def _pair_observable(dim: int, i: int, j: int, phase: complex) -> Observable:
    # Observable c E_ij + conj(c) E_ji for the unit phase c.
    _check_pair(dim, i, j)
    e_ii, e_jj = _unit_matrix(dim, i, i), _unit_matrix(dim, j, j)
    off = phase * _unit_matrix(dim, i, j) + np.conj(phase) * _unit_matrix(dim, j, i)
    plus = 0.5 * (e_ii + off + e_jj)
    minus = 0.5 * (e_ii - off + e_jj)
    if dim == 2:
        return Observable((1.0, -1.0), np.stack([plus, minus]))
    rest = np.eye(dim, dtype=complex) - e_ii - e_jj
    return Observable((1.0, -1.0, 0.0), np.stack([plus, minus, rest]))


def pair_observable_x(dim: int, i: int, j: int) -> Observable:
    """Observable E_ij + E_ji for the real part of entry (i, j), 1-based.

    Outcomes are +1 and -1 on the two-dimensional (i, j) block and 0 on the
    rest; the 0 outcome is omitted when dim == 2.  Its expectation in a state
    rho is 2 Re rho_ij.
    """
    return _pair_observable(dim, i, j, 1)


def pair_observable_y(dim: int, i: int, j: int) -> Observable:
    """Observable i E_ij - i E_ji for the imaginary part of entry (i, j).

    Same outcome structure as the real-part observable; the expectation is
    2 Im rho_ij, with Prob(+1) - Prob(-1) = 2 Im rho_ij.
    """
    return _pair_observable(dim, i, j, 1j)


def diag_observable_z(dim: int, i: int) -> Observable:
    """Two-outcome observable E_ii (1-based): outcome 1 with probability rho_ii."""
    if not (all(map(is_integer, (dim, i))) and dim >= 2):
        raise InvariantError("dimension and index must be integers, the dimension at least 2")
    if not (1 <= i <= dim):
        raise InvariantError(f"need 1 <= i <= {dim}, got i={i}")
    e_ii = _unit_matrix(dim, i, i)
    return Observable((1.0, 0.0), np.stack([e_ii, np.eye(dim, dtype=complex) - e_ii]))


def direction_observable(direction) -> Observable:
    """Qubit spin observable along a unit Bloch direction u.

    Outcomes +1 and -1 with projectors (I +- u . sigma) / 2; the +1
    probability in the state with Bloch vector theta is (1 + u . theta) / 2.
    """
    u = np.asarray(direction, dtype=float)
    if u.shape != (3,):
        raise InvariantError(f"direction must have shape (3,), got {u.shape}")
    if not abs(float(np.linalg.norm(u)) - 1.0) <= TRACE_ATOL:
        raise InvariantError("direction must be a unit vector")
    spin = np.tensordot(u, PAULI, axes=1)
    plus = 0.5 * (SIGMA_0 + spin)
    minus = 0.5 * (SIGMA_0 - spin)
    return Observable((1.0, -1.0), np.stack([plus, minus]))


def standard_povm() -> Povm:
    """Six-outcome qubit POVM from the three coordinate axes.

    Effects are P_i / 3 for outcomes 1..3 and Q_i / 3 for outcomes 4..6,
    where P_i and Q_i project onto the +1 and -1 eigenvectors of sigma_i.
    """
    effects = []
    for a in range(3):
        effects.append((0.5 * (SIGMA_0 + PAULI[a])) / 3.0)
    for a in range(3):
        effects.append((0.5 * (SIGMA_0 - PAULI[a])) / 3.0)
    return Povm(np.stack(effects))


def minimal_povm() -> Povm:
    """Four-outcome tetrahedral qubit POVM, effects (I + a_i . sigma) / 4."""
    effects = [0.25 * (SIGMA_0 + np.tensordot(a, PAULI, axes=1)) for a in TETRAHEDRON]
    return Povm(np.stack(effects))


def _distribution(measurement, state: np.ndarray) -> np.ndarray:
    # outcome_probabilities for a state that has passed require_density.
    if isinstance(measurement, Observable):
        ops = measurement.projectors
    elif isinstance(measurement, Povm):
        ops = measurement.effects
    else:
        raise InvariantError(f"unsupported measurement type {type(measurement).__name__}")
    if state.shape[0] != ops.shape[1]:
        raise InvariantError(
            f"dimension mismatch: state is {state.shape[0]}-level, measurement is "
            f"{ops.shape[1]}-level"
        )
    probs = np.einsum("sij,ji->s", ops, state).real
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def outcome_probabilities(measurement, rho) -> np.ndarray:
    """Outcome distribution Tr(rho P_s) of an observable or POVM in ``rho``,
    a density matrix of the measurement's dimension.

    ``require_density`` judges ``rho``; the slack its PSD rule allows can
    leave a probability slightly below zero, so negative values are clipped
    to zero and the vector is renormalized to sum to one.  This is
    ``LinearScheme.probabilities`` for one setting.
    """
    return _distribution(measurement, require_density(rho))


def count_frequencies(counts, outcomes: int, shots: int | None = None) -> np.ndarray:
    """The one check of an outcome-count record, returning its relative
    frequencies: ``counts`` has shape (outcomes,), finite nonnegative entries
    (fractions allowed, so expected counts work) and at least one shot.  With
    ``shots`` the total must equal it within ``TRACE_ATOL`` and the result is
    ``counts / shots``; without, it is ``counts / total``."""
    c = np.asarray(counts, dtype=float)
    if c.shape != (outcomes,):
        raise InvariantError(f"expected {outcomes} outcome counts, got shape {c.shape}")
    if not np.all((c >= 0) & (c < np.inf)):
        raise InvariantError("counts must be finite and nonnegative")
    total = float(c.sum())
    if shots is None:
        shots = total
    elif abs(total - shots) > TRACE_ATOL:
        raise InvariantError(f"counts sum to {total!r}, expected {shots}")
    if shots < 1:
        raise InvariantError("counts must contain at least one shot")
    return c / shots


@dataclass(frozen=True)
class MeasurementPlan:
    """Entrywise plan: the k^2 - 1 observables, each measured r times.

    Copies are consumed independently, one fresh copy per shot.
    """

    dim: int
    repetitions: int

    def __post_init__(self):
        if not (is_integer(self.dim) and 2 <= self.dim <= MAX_DIM):
            raise InvariantError(f"dimension must be an integer from 2 to {MAX_DIM}")
        if not (is_integer(self.repetitions) and self.repetitions >= 1):
            raise InvariantError("repetitions must be an integer of at least 1")

    @cached_property
    def keys(self) -> tuple[tuple, ...]:
        """Observable labels: ('z', i) for i < k, then ('x'|'y', i, j) for i < j."""
        k = self.dim
        labels = [("z", i) for i in range(1, k)]
        labels += [("x", i, j) for i in range(1, k) for j in range(i + 1, k + 1)]
        labels += [("y", i, j) for i in range(1, k) for j in range(i + 1, k + 1)]
        return tuple(labels)

    @cached_property
    def scheme(self) -> LinearScheme:
        """The observables in key order with the entrywise read-out.

        Parameter s is the entry that observable s estimates: rho_ii for
        i < k, then Re rho_ij and Im rho_ij for i < j.  Its block is the
        observable's outcome values, halved for the pair observables, whose
        expectations are 2 Re rho_ij and 2 Im rho_ij.
        """
        builders = {"z": diag_observable_z, "x": pair_observable_x, "y": pair_observable_y}
        settings, readout = [], []
        for key in self.keys:
            obs = builders[key[0]](self.dim, *key[1:])
            scale = 1.0 if key[0] == "z" else 0.5
            settings.append(obs)
            readout.append(scale * np.array(obs.values)[:, None])
        columns = tuple(slice(s, s + 1) for s in range(len(settings)))
        return LinearScheme(tuple(settings), tuple(readout), columns, _entrywise_matrices)

    @cached_property
    def observables(self) -> dict:
        return dict(zip(self.keys, self.scheme.settings))

    @property
    def total_copies(self) -> int:
        """n = r (k^2 - 1), the number of state copies the plan consumes."""
        return self.repetitions * (self.dim**2 - 1)


def sample_plan_counts(plan: MeasurementPlan, rho, rng: np.random.Generator) -> dict:
    """Outcome counts for every observable in the plan, keyed by label.

    Observables are sampled in the plan's key order, so a fixed generator
    state always produces the same table; ``rho`` is checked once, by
    ``LinearScheme.probabilities``.
    """
    probs = plan.scheme.probabilities(rho)
    return {key: rng.multinomial(plan.repetitions, p / p.sum()) for key, p in zip(plan.keys, probs)}


@dataclass(frozen=True)
class LinearScheme:
    """Measurement settings whose estimator is linear in the frequencies.

    The settings (``Observable`` or ``Povm``) are measured in order, each
    with the same number of shots.  ``readout[s]`` has one row per outcome
    of setting ``s`` and one column per parameter in the slice
    ``columns[s]``; the parameter estimate is the sum over settings of the
    setting's relative frequencies times its block.  ``to_matrix`` maps
    parameter rows (m, d) to the estimated matrices (m, k, k).
    """

    settings: tuple
    readout: tuple[np.ndarray, ...]
    columns: tuple[slice, ...]
    to_matrix: Callable[[np.ndarray], np.ndarray]

    def probabilities(self, rho) -> tuple[np.ndarray, ...]:
        """Outcome distribution of every setting in ``rho``, each as
        ``outcome_probabilities`` gives it; ``rho`` is validated as a density
        matrix once, however many settings there are."""
        state = require_density(rho)
        return tuple(_distribution(setting, state) for setting in self.settings)

    def estimate(self, frequencies, m: int = 1) -> np.ndarray:
        """Parameter estimates (m, d) from per-setting relative frequencies.

        ``frequencies`` yields one (m, outcomes) array, or for m = 1 one
        outcome vector, per setting in order; it is consumed one setting at
        a time, so a generator never holds all outcomes at once.
        """
        params = np.zeros((m, max(c.stop for c in self.columns)))
        for nu, block, cols in zip(frequencies, self.readout, self.columns):
            params[:, cols] += nu @ block
        return params

    def sample(self, probs, shots: int, m: int, rng: np.random.Generator) -> np.ndarray:
        """Parameter estimates of ``m`` independent runs of ``shots`` shots per
        setting, given the settings' outcome distributions ``probs``.

        Draws one multinomial block per setting, in setting order.
        """
        draws = (rng.multinomial(shots, p, size=m) / shots for p in probs)
        return self.estimate(draws, m)


def _entrywise_matrices(params: np.ndarray) -> np.ndarray:
    k = math.isqrt(params.shape[1] + 1)
    rows, cols = np.triu_indices(k, 1)
    diag = np.arange(k - 1)
    phi = np.zeros((params.shape[0], k, k), dtype=complex)
    # Real and imaginary views, no complex temporaries; -0.0 where conj() puts it.
    phi.real[:, diag, diag] = params[:, : k - 1]
    phi.real[:, k - 1, k - 1] = 1.0 - params[:, : k - 1].sum(axis=1)
    phi.real[:, rows, cols] = phi.real[:, cols, rows] = params[:, k - 1 : k - 1 + rows.size]
    phi.imag[:, rows, cols] = params[:, k - 1 + rows.size :]
    phi.imag[:, cols, rows] = -params[:, k - 1 + rows.size :]
    return phi


def _bloch_matrices(theta: np.ndarray) -> np.ndarray:
    return 0.5 * (SIGMA_0 + np.einsum("ma,aij->mij", theta, PAULI))


def _direction_matrix(directions) -> np.ndarray:
    try:
        t = np.asarray(directions).astype(float, casting="same_kind")
    except (TypeError, ValueError):
        raise InvariantError("directions must be a 3x3 matrix of real numbers") from None
    if t.shape != (3, 3):
        raise InvariantError(f"directions must be a 3x3 matrix, got {t.shape}")
    norms = np.linalg.norm(t, axis=1)
    if not np.abs(norms - 1.0).max() <= TRACE_ATOL:
        raise InvariantError("direction rows must be unit vectors")
    if abs(float(np.linalg.det(t))) <= SINGULAR_ATOL:
        raise InvariantError("direction matrix is singular")
    return t


_BLOCH = slice(0, 3)
# The names ``linear_scheme`` accepts.
SCHEMES = ("klevel-pairs", "three-direction", "standard", "minimal")


def linear_scheme(name: str, dim: int = 2, directions=None) -> LinearScheme:
    """The settings and read-out of one of the four estimation schemes.

    ``"klevel-pairs"`` is the ``dim``-level entrywise plan.  The qubit
    schemes take only ``dim`` 2 and estimate the Bloch vector theta:

    - ``"three-direction"``: one spin observable per row u of the unit-row
      matrix ``directions`` (identity when omitted); with T the row matrix,
      theta = T^{-1} (nu(+1) - nu(-1)), so direction a has the block
      [+c_a; -c_a] with c_a column a of T^{-1}.
    - ``"standard"``: the six-outcome axis POVM, block 3 [I; -I].
    - ``"minimal"``: the tetrahedral POVM, block 3 TETRAHEDRON.
    """
    if directions is not None and name != "three-direction":
        raise InvariantError("directions apply to the three-direction scheme only")
    if name == "klevel-pairs":
        return MeasurementPlan(dim, 1).scheme
    if name in SCHEMES and not (is_integer(dim) and dim == 2):
        raise InvariantError(f"scheme {name!r} measures qubits, got dim {dim!r}")
    if name == "three-direction":
        dirmat = np.eye(3) if directions is None else _direction_matrix(directions)
        settings = tuple(direction_observable(u) for u in dirmat)
        inverse = np.linalg.inv(dirmat)
        readout = tuple(np.outer(obs.values, inverse[:, a]) for a, obs in enumerate(settings))
        return LinearScheme(settings, readout, (_BLOCH,) * 3, _bloch_matrices)
    if name == "standard":
        block = 3.0 * np.vstack([np.eye(3), -np.eye(3)])
        return LinearScheme((standard_povm(),), (block,), (_BLOCH,), _bloch_matrices)
    if name == "minimal":
        block = 3.0 * TETRAHEDRON
        return LinearScheme((minimal_povm(),), (block,), (_BLOCH,), _bloch_matrices)
    raise InvariantError(f"unknown scheme {name!r}")
