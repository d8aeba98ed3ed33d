import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtomo import measurement
from qtomo.error_analysis import average_mse_over_ball, mse_three_direction
from qtomo.estimators import unconstrained_estimate
from qtomo.linalg import InvariantError, hs_distance
from qtomo.measurement import (
    MAX_DIM,
    SCHEMES,
    TETRAHEDRON,
    MeasurementPlan,
    Observable,
    Povm,
    count_frequencies,
    diag_observable_z,
    direction_observable,
    linear_scheme,
    minimal_povm,
    outcome_probabilities,
    pair_observable_x,
    pair_observable_y,
    sample_plan_counts,
    standard_povm,
    stream_rng,
)
from qtomo.simulation import ExperimentConfig, run_trajectory
from qtomo.states import PAULI, bloch_to_matrix, bloch_vector, in_bloch_ball, random_density

from oracles import entrywise_matrices_complex, multinomial_pmf, random_ball_point


class TestObservableStructure:
    def test_qubit_x_is_sigma1(self):
        obs = pair_observable_x(2, 1, 2)
        recombined = sum(v * p for v, p in zip(obs.values, obs.projectors))
        assert np.abs(recombined - PAULI[0]).max() < 1e-15

    def test_qubit_y_reads_imaginary_part(self):
        # i E_12 - i E_21 is -sigma_2: its expectation is +2 Im rho_12,
        # while Tr(rho sigma_2) = theta_2 = -2 Im rho_12.
        obs = pair_observable_y(2, 1, 2)
        recombined = sum(v * p for v, p in zip(obs.values, obs.projectors))
        assert np.abs(recombined + PAULI[1]).max() < 1e-15

    def test_z_projector_is_unit_entry(self):
        obs = diag_observable_z(3, 2)
        expect = np.zeros((3, 3))
        expect[1, 1] = 1.0
        assert np.abs(obs.projectors[0] - expect).max() == 0.0

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_outcome_counts(self, dim):
        x = pair_observable_x(dim, 1, dim)
        y = pair_observable_y(dim, 1, dim)
        z = diag_observable_z(dim, 1)
        expected = 2 if dim == 2 else 3
        assert len(x.values) == expected
        assert len(y.values) == expected
        assert z.values == (1.0, 0.0)

    def test_pair_index_validation(self):
        with pytest.raises(InvariantError):
            pair_observable_x(3, 2, 2)
        with pytest.raises(InvariantError):
            pair_observable_y(3, 0, 1)
        with pytest.raises(InvariantError):
            pair_observable_x(3, 1, 4)
        with pytest.raises(InvariantError):
            diag_observable_z(3, 4)
        # Dimensions and indices follow the integer rule.
        for build, args in (
            (pair_observable_x, (2.0, 1, 2)),
            (pair_observable_x, (3, 1.0, 2)),
            (pair_observable_y, (3, 1, True)),
            (diag_observable_z, (2.5, 1)),
            (diag_observable_z, (3, np.float64(1))),
        ):
            with pytest.raises(InvariantError, match="integers"):
                build(*args)

    def test_constructor_rejects_bad_projectors(self):
        # Not idempotent.
        with pytest.raises(InvariantError):
            Observable((1.0, -1.0), np.stack([0.5 * np.eye(2), 0.5 * np.eye(2)]))
        # Values collide.
        e = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InvariantError):
            Observable((1.0, 1.0), np.stack([e, np.eye(2) - e]))
        with pytest.raises(InvariantError, match="one projector per outcome value"):
            Observable((1.0, -1.0, 0.0), np.stack([e, np.eye(2) - e]))
        with pytest.raises(InvariantError, match="sum to the identity"):
            Observable((1.0, 0.0), np.stack([e, np.zeros((2, 2))]))
        for stack in (np.eye(2), np.zeros((2, 2, 3))):
            with pytest.raises(InvariantError, match="stack of square matrices"):
                Observable((1.0, 0.0), stack)
        # An oblique pair: P = [[1, 3], [0, 0]] and I - P are idempotent,
        # orthogonal and sum to I, but are not Hermitian.
        p = np.array([[1.0, 3.0], [0.0, 0.0]])
        with pytest.raises(InvariantError, match="Hermitian"):
            Observable((1.0, -1.0), np.stack([p, np.eye(2) - p]))

    def test_projectors_read_only(self):
        obs = pair_observable_x(2, 1, 2)
        with pytest.raises(ValueError):
            obs.projectors[0, 0, 0] = 5.0

    def test_direction_observable_along_z(self):
        obs = direction_observable([0.0, 0.0, 1.0])
        assert np.abs(obs.projectors[0] - np.diag([1.0, 0.0])).max() == 0.0
        assert np.abs(obs.projectors[1] - np.diag([0.0, 1.0])).max() == 0.0

    def test_direction_must_be_unit(self):
        with pytest.raises(InvariantError):
            direction_observable([1.0, 1.0, 0.0])
        with pytest.raises(InvariantError, match="shape"):
            direction_observable([1.0, 0.0])


class TestProbabilities:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_pair_probability_identities(self, dim):
        rng = np.random.default_rng(100 + dim)
        rho = random_density(dim, rng)
        for i in range(1, dim):
            for j in range(i + 1, dim + 1):
                px = outcome_probabilities(pair_observable_x(dim, i, j), rho)
                py = outcome_probabilities(pair_observable_y(dim, i, j), rho)
                block = rho[i - 1, i - 1].real + rho[j - 1, j - 1].real
                assert px[0] - px[1] == pytest.approx(2 * rho[i - 1, j - 1].real, abs=1e-12)
                assert py[0] - py[1] == pytest.approx(2 * rho[i - 1, j - 1].imag, abs=1e-12)
                assert px[0] + px[1] == pytest.approx(block, abs=1e-12)
                assert py[0] + py[1] == pytest.approx(block, abs=1e-12)
        for i in range(1, dim + 1):
            pz = outcome_probabilities(diag_observable_z(dim, i), rho)
            assert pz[0] == pytest.approx(rho[i - 1, i - 1].real, abs=1e-12)

    def test_expectations_read_entries(self):
        rho = random_density(3, np.random.default_rng(9))

        def expectation(obs):
            return np.dot(obs.values, outcome_probabilities(obs, rho))

        assert expectation(pair_observable_x(3, 1, 2)) == pytest.approx(
            2 * rho[0, 1].real, abs=1e-12
        )
        assert expectation(pair_observable_y(3, 1, 2)) == pytest.approx(
            2 * rho[0, 1].imag, abs=1e-12
        )
        assert expectation(diag_observable_z(3, 3)) == pytest.approx(rho[2, 2].real, abs=1e-12)

    def test_direction_probability(self):
        rng = np.random.default_rng(11)
        theta = random_ball_point(rng)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        probs = outcome_probabilities(direction_observable(u), bloch_to_matrix(theta))
        assert probs[0] == pytest.approx(0.5 * (1 + u @ theta), abs=1e-12)

    def test_probabilities_normalized_and_clipped(self):
        # Outcome -1 along the state direction has probability exactly 0.
        probs = outcome_probabilities(
            direction_observable([1.0, 0.0, 0.0]), bloch_to_matrix([1.0, 0.0, 0.0])
        )
        assert probs[1] == 0.0
        assert probs.sum() == 1.0

    def test_invalid_state_rejected(self):
        with pytest.raises(InvariantError):
            outcome_probabilities(diag_observable_z(2, 1), np.diag([1.5, -0.5]))

    def test_dimension_mismatch(self):
        with pytest.raises(InvariantError):
            outcome_probabilities(diag_observable_z(3, 1), np.eye(2) / 2)

    def test_unsupported_measurement_type(self):
        with pytest.raises(InvariantError):
            outcome_probabilities(np.eye(2), np.eye(2) / 2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda rho: linear_scheme("klevel-pairs", 10).probabilities(rho),
            lambda rho: sample_plan_counts(MeasurementPlan(10, 3), rho, stream_rng(0, 0)),
        ],
        ids=["probabilities", "sample_plan_counts"],
    )
    def test_state_checked_once_per_scheme(self, monkeypatch, call):
        # One eigvalsh of rho, its PSD check, not one for each of the 99 settings.
        rho = random_density(10, np.random.default_rng(3))
        original, calls = np.linalg.eigvalsh, []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        call(rho)
        assert len(calls) == 1

    def test_qubit_schemes_take_only_dim_2(self):
        for name in ("three-direction", "standard", "minimal"):
            for dim in (7, 3, 2.0):
                with pytest.raises(InvariantError, match="qubits"):
                    linear_scheme(name, dim)
            assert linear_scheme(name, 2).to_matrix(np.zeros((1, 3))).shape == (1, 2, 2)

    def test_unknown_scheme(self):
        with pytest.raises(InvariantError, match="unknown scheme 'bogus'"):
            linear_scheme("bogus")


class TestPovms:
    def test_standard_effects(self):
        povm = standard_povm()
        assert povm.n_outcomes == 6
        assert povm.effects.shape == (6, 2, 2)
        theta = np.array([0.3, -0.2, 0.4])
        probs = outcome_probabilities(povm, bloch_to_matrix(theta))
        for a in range(3):
            assert probs[a] == pytest.approx((1 + theta[a]) / 6, abs=1e-12)
            assert probs[a + 3] == pytest.approx((1 - theta[a]) / 6, abs=1e-12)

    def test_minimal_effects(self):
        povm = minimal_povm()
        assert povm.n_outcomes == 4
        theta = np.array([0.1, 0.5, -0.3])
        probs = outcome_probabilities(povm, bloch_to_matrix(theta))
        for s in range(4):
            assert probs[s] == pytest.approx((1 + TETRAHEDRON[s] @ theta) / 4, abs=1e-12)

    def test_tetrahedron_geometry(self):
        norms = np.linalg.norm(TETRAHEDRON, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-15
        gram = TETRAHEDRON @ TETRAHEDRON.T
        off = gram[~np.eye(4, dtype=bool)]
        assert np.abs(off + 1 / 3).max() < 1e-15
        frame = TETRAHEDRON.T @ TETRAHEDRON
        assert np.abs(frame - (4 / 3) * np.eye(3)).max() < 1e-15

    def test_povm_constructor_rejects_bad_effects(self):
        with pytest.raises(InvariantError):
            Povm(np.stack([np.eye(2, dtype=complex)] * 2))
        with pytest.raises(InvariantError):
            Povm(np.stack([np.diag([1.5, 0.0]).astype(complex), np.diag([-0.5, 1.0])]))
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvariantError, match="Hermitian"):
            Povm(np.stack([0.5 * np.eye(2) + skew, 0.5 * np.eye(2) - skew]))
        for stack in (np.eye(2), np.zeros((2, 3, 2))):
            with pytest.raises(InvariantError, match="stack of square matrices"):
                Povm(stack)


class TestSampling:
    def test_stream_determinism(self):
        a = stream_rng(42, 1, 2).standard_normal(5)
        b = stream_rng(42, 1, 2).standard_normal(5)
        c = stream_rng(42, 1, 3).standard_normal(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_count_frequencies(self):
        assert np.array_equal(count_frequencies([3, 1], 2), [0.75, 0.25])
        assert np.array_equal(count_frequencies([1.5, 0.5], 2, shots=2), [0.75, 0.25])
        for counts, outcomes, shots, message in (
            ([1, 2, 3], 2, None, "expected 2 outcome counts"),
            ([[1, 2]], 2, None, "expected 2 outcome counts"),
            ([-1, 2], 2, None, "finite and nonnegative"),
            ([np.inf, 2], 2, None, "finite and nonnegative"),
            ([0, 0], 2, None, "at least one shot"),
            ([0.25, 0.5], 2, None, "at least one shot"),
            ([1, 2], 2, 4, "sum to 3.0, expected 4"),
        ):
            with pytest.raises(InvariantError, match=message):
                count_frequencies(counts, outcomes, shots)


# The largest shots the table takes at d outcomes: those whose count
# simplex over max(d, 3) outcomes has at most _TABLE_CELLS cells.
CAP_EDGE = {1: 126, 2: 126, 3: 126, 4: 34, 6: 12}
# (shots, outcome distribution) pairs whose table is checked against the
# exact law.  Large simplexes take dyadic probabilities, which keep the
# exact powers small.
EXACT_LAW_CASES = [
    (1, (0.3, 0.7)),
    (7, (0.3, 0.7)),
    (CAP_EDGE[2], (0.3, 0.7)),
    (CAP_EDGE[1], (1.0,)),
    (1, (0.2, 0.3, 0.5)),
    (9, (0.2, 0.3, 0.5)),
    (CAP_EDGE[3], (0.125, 0.375, 0.5)),
    (1, (0.1, 0.2, 0.3, 0.4)),
    (6, (0.1, 0.2, 0.3, 0.4)),
    (CAP_EDGE[4], (0.1, 0.2, 0.3, 0.4)),
    (30, (0.0, 0.4, 0.6)),
    (12, (1.0, 0.0, 0.0)),
    (5, (0.0, 1.0)),
]
LAW_TV = 1e-11


def _table_law(shots, probs):
    """The table's cells and the probability of each under inversion of a
    uniform draw, the steps of its CDF."""
    cells, cdf = measurement._count_table(shots, np.array(probs))
    return cells, np.diff(cdf, prepend=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDrawCounts:
    """``measurement._draw_counts`` draws the exact multinomial law: by
    inverting the count CDF up to ``_TABLE_CELLS`` cells, counting at least
    three outcomes, and by numpy above."""

    @pytest.mark.parametrize("d", sorted(CAP_EDGE))
    def test_cap_edges_pick_the_path(self, monkeypatch, d):
        e = max(d, 3)
        assert math.comb(CAP_EDGE[d] + e - 1, e - 1) <= measurement._TABLE_CELLS
        assert math.comb(CAP_EDGE[d] + e, e - 1) > measurement._TABLE_CELLS
        built, table = [], measurement._count_table
        monkeypatch.setattr(measurement, "_count_table", lambda n, p: built.append(n) or table(n, p))
        for shots in (CAP_EDGE[d], CAP_EDGE[d] + 1):
            measurement._draw_counts(stream_rng(2), shots, np.full(d, 1.0 / d), 3)
        assert built == [CAP_EDGE[d]]

    @pytest.mark.parametrize("shots, probs", EXACT_LAW_CASES)
    def test_table_matches_exact_law(self, shots, probs):
        cells, law = _table_law(shots, probs)
        d = len(probs)
        # Every count vector once, in lexicographic order.
        assert cells.shape == (math.comb(shots + d - 1, d - 1), d)
        assert (cells >= 0).all() and (cells.sum(axis=1) == shots).all()
        rows = cells.tolist()
        assert rows == sorted(rows) and len(set(map(tuple, rows))) == len(rows)
        assert (law >= 0.0).all() and law.sum() == pytest.approx(1.0, abs=1e-15)
        exact = [float(multinomial_pmf(c, probs)) for c in cells.tolist()]
        assert 0.5 * np.abs(law - exact).sum() <= LAW_TV

    @pytest.mark.parametrize("shots, probs", [(10, (0.2, 0.3, 0.5)), (5, (0.0, 0.1, 0.3, 0.6))])
    def test_draws_fit_the_exact_law(self, shots, probs):
        m = 200_000
        draws = measurement._draw_counts(stream_rng(3, shots), shots, np.array(probs), m)
        cells = _table_law(shots, probs)[0].tolist()
        index = {tuple(c): i for i, c in enumerate(cells)}
        observed = np.bincount([index[tuple(c)] for c in draws.tolist()], minlength=len(cells))
        expected = m * np.array([float(multinomial_pmf(c, probs)) for c in cells])
        # A cell the law excludes is never drawn; the rest are pooled into
        # one bin below an expectation of 5 and scored by chi-square.
        assert observed[expected == 0.0].sum() == 0
        big = expected >= 5.0
        obs = np.append(observed[big], observed[~big].sum())
        exp = np.append(expected[big], expected[~big].sum())
        df = len(obs) - 1
        assert ((obs - exp) ** 2 / exp).sum() <= df + 6.0 * math.sqrt(2.0 * df)

    @pytest.mark.parametrize(
        "shots, probs",
        [
            (CAP_EDGE[1] + 1, (1.0,)),
            (CAP_EDGE[2] + 1, (0.3, 0.7)),
            (16383, (0.3, 0.7)),
            (CAP_EDGE[3] + 1, (0.2, 0.3, 0.5)),
            (CAP_EDGE[4] + 1, (0.1, 0.2, 0.3, 0.4)),
            (CAP_EDGE[6] + 1, (0.1, 0.1, 0.2, 0.2, 0.2, 0.2)),
            (300, (0.0, 0.5, 0.5)),
        ],
    )
    def test_above_the_cap_draws_numpy_multinomial_bits(self, shots, probs):
        p = np.array(probs)
        got = measurement._draw_counts(stream_rng(4, shots), shots, p, 1000)
        want = stream_rng(4, shots).multinomial(shots, p, size=1000)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize(
        "shots, probs", [(CAP_EDGE[3], (0.2, 0.3, 0.5)), (CAP_EDGE[2], (0.3, 0.7)), (3, (0.5, 0.5))]
    )
    def test_table_draws_one_uniform_per_row(self, shots, probs):
        rng, twin = stream_rng(5, shots), stream_rng(5, shots)
        draws = measurement._draw_counts(rng, shots, np.array(probs), 700)
        cells, cdf = measurement._count_table(shots, np.array(probs))
        assert draws.dtype == np.int64
        assert np.array_equal(draws, cells[np.searchsorted(cdf, twin.random(700), side="right")])
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("shots", [2**63 - 1, np.int64(2**63 - 1)])
    @pytest.mark.parametrize("probs", [(1.0,), (0.5, 0.5), (0.2, 0.3, 0.5)])
    def test_largest_shots_pick_the_path_without_allocating(self, shots, probs):
        p = np.array(probs)
        measurement._draw_counts(stream_rng(6), shots, p, 3)
        tracemalloc.start()
        try:
            got = measurement._draw_counts(stream_rng(6), shots, p, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert np.array_equal(got, stream_rng(6).multinomial(2**63 - 1, p, size=3))


class TestEntrywiseMatrices:
    """The pair scheme's estimates are filled through real and imaginary
    views and keep every bit of the complex construction, signed zeros
    included."""

    @pytest.mark.parametrize("k", [2, 3, 4, 10, 32])
    def test_views_keep_the_complex_construction_bits(self, k):
        rng = np.random.default_rng(60 + k)
        # Quarter steps from -1/2 to 1/2 hold exact zeros in every column,
        # and a zero row; the normal rows carry no zero.
        params = np.concatenate(
            [rng.integers(-2, 3, size=(40, k * k - 1)) / 4.0, rng.standard_normal((8, k * k - 1))]
        )
        params[0] = 0.0
        got = measurement._entrywise_matrices(params)
        want = entrywise_matrices_complex(params)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        rows, cols = np.triu_indices(k, 1)
        assert np.signbit(got.imag[0, cols, rows]).all()
        assert not np.signbit(got.imag[0, rows, cols]).any()

    @pytest.mark.parametrize("k", [3, 10])
    def test_sampled_estimates_keep_the_bits(self, k):
        scheme = linear_scheme("klevel-pairs", k)
        probs = scheme.probabilities(random_density(k, np.random.default_rng(k)))
        params = scheme.sample(probs, 5, 500, stream_rng(61, k))
        got = scheme.to_matrix(params)
        assert np.array_equal(got.view(np.int64), entrywise_matrices_complex(params).view(np.int64))


class TestMeasurementPlan:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_key_layout(self, dim):
        plan = MeasurementPlan(dim, 3)
        assert len(plan.keys) == dim * dim - 1
        z_keys = [k for k in plan.keys if k[0] == "z"]
        x_keys = [k for k in plan.keys if k[0] == "x"]
        y_keys = [k for k in plan.keys if k[0] == "y"]
        assert len(z_keys) == dim - 1
        assert len(x_keys) == len(y_keys) == dim * (dim - 1) // 2
        assert plan.total_copies == 3 * (dim * dim - 1)

    def test_invalid_plans(self):
        with pytest.raises(InvariantError):
            MeasurementPlan(1, 5)
        with pytest.raises(InvariantError):
            MeasurementPlan(2, 0)
        for dim, repetitions in ((2, 2.5), (2, True), (2.0, 3), (np.float64(3), 1)):
            with pytest.raises(InvariantError, match="integer"):
                MeasurementPlan(dim, repetitions)
        assert MeasurementPlan(np.int64(3), np.int32(2)).total_copies == 16

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 2**62])
    def test_dim_above_the_bound_is_rejected_before_building(self, monkeypatch, dim):
        # Every observable builder starts from _unit_matrix.
        monkeypatch.setattr(measurement, "_unit_matrix", None)
        with pytest.raises(InvariantError, match=f"from 2 to {MAX_DIM}"):
            MeasurementPlan(dim, 1)

    def test_dim_at_the_bound_is_accepted(self):
        plan = MeasurementPlan(MAX_DIM, 1)
        assert plan.total_copies == MAX_DIM**2 - 1

    def test_sample_plan_counts_complete_and_deterministic(self):
        rho = random_density(3, np.random.default_rng(12))
        plan = MeasurementPlan(3, 20)
        t1 = sample_plan_counts(plan, rho, stream_rng(5, 0))
        t2 = sample_plan_counts(plan, rho, stream_rng(5, 0))
        assert set(t1) == set(plan.keys)
        for key in plan.keys:
            assert t1[key].sum() == 20
            assert np.array_equal(t1[key], t2[key])

    def test_sample_plan_counts_dim_mismatch(self):
        with pytest.raises(InvariantError):
            sample_plan_counts(MeasurementPlan(3, 2), np.eye(2) / 2, stream_rng(0, 0))

    def test_sample_plan_counts_law(self):
        # Frequencies concentrate around the probabilities.
        rho = random_density(3, np.random.default_rng(13))
        plan = MeasurementPlan(3, 200000)
        counts = sample_plan_counts(plan, rho, stream_rng(3, 0))
        for key, probs in zip(plan.keys, plan.scheme.probabilities(rho)):
            assert np.abs(counts[key] / 200000 - probs).max() < 0.01


NAN = float("nan")


def _directions(x):
    return [[x, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def _counts(x):
    return {("z", 1): [x, 1.0], ("x", 1, 2): [1.0, 0.0], ("y", 1, 2): [1.0, 0.0]}


# Each entry puts the non-finite value x into one input of one library call.
NON_FINITE_INPUTS = {
    "direction_observable": lambda x: direction_observable([x, 0.0, 0.0]),
    "linear_scheme": lambda x: linear_scheme("three-direction", directions=_directions(x)),
    "mse_three_direction": lambda x: mse_three_direction([0.1, 0.0, 0.0], _directions(x), 1),
    "average_mse_over_ball": lambda x: average_mse_over_ball(_directions(x)),
    "Observable": lambda x: Observable((1.0, -1.0), np.full((2, 2, 2), x)),
    "Observable-values": lambda x: Observable((x, -1.0), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
    "Povm": lambda x: Povm(np.full((2, 2, 2), x)),
    "Povm-3x3": lambda x: Povm(np.array([np.diag([1.0, x, 1.0])] * 3)),
    "random_density": lambda x: random_density(2, stream_rng(0, 0), [x, 1.0]),
    "unconstrained_estimate": lambda x: unconstrained_estimate(MeasurementPlan(2, 1), _counts(x)),
    "run_trajectory": lambda x: run_trajectory(
        ExperimentConfig(
            state=bloch_to_matrix([0.0, 0.0, 0.5]),
            scheme="three-direction",
            schedule=(2,),
            trials=3,
            seed=1,
            directions=_directions(x),
        )
    ),
    # Whether one vector is a state: ``bloch_vector`` raises before
    # ``in_bloch_ball``, which answers a stack's non-finite row with False.
    "is_bloch_state": lambda x: in_bloch_ball(bloch_vector([x, 0.0, 0.0])[None])[0],
    "bloch_to_matrix": lambda x: bloch_to_matrix([0.0, x, 0.0]),
    "hs_distance": lambda x: hs_distance([[x, 0.0], [0.0, 1.0]], np.eye(2)),
}


@pytest.mark.parametrize(
    "name, x",
    [
        # The NaN case of each entry keeps the entry's bare name as its id.
        pytest.param(name, x, id=name + suffix)
        for name in sorted(NON_FINITE_INPUTS)
        for suffix, x in (("", NAN), ("-inf", np.inf), ("-minus-inf", -np.inf))
    ],
)
def test_nan_input_raises(name, x):
    # Each check is written so that NaN and +-inf fail it: a NaN passes
    # ``gap > tol`` and ``x < 0`` alike, and an inf passes ``x >= 0``.
    with pytest.raises(InvariantError):
        NON_FINITE_INPUTS[name](x)


@pytest.mark.parametrize("name", ["linear_scheme", "mse_three_direction", "average_mse_over_ball"])
def test_complex_directions_raise(name):
    # The real part is the identity: a cast to float would drop the
    # imaginary part with only a warning and run.
    directions = np.eye(3) * (1 + 1j)
    call = {
        "linear_scheme": lambda: linear_scheme("three-direction", directions=directions),
        "mse_three_direction": lambda: mse_three_direction([0.1, 0.0, 0.0], directions, 1),
        "average_mse_over_ball": lambda: average_mse_over_ball(directions),
    }[name]
    with pytest.raises(InvariantError, match="3x3 matrix of real numbers"):
        call()


UNIT_CUBE = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array)
# A point of the closed unit ball: the cube pulled in radially, so the
# sphere of pure states is drawn too.
BALL_STATES = UNIT_CUBE.map(lambda v: bloch_to_matrix(v / max(1.0, np.linalg.norm(v))))


@st.composite
def _direction_rows(draw):
    rows = np.array([draw(UNIT_CUBE) for _ in range(3)])
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    assume(norms.min() > 0.1)
    rows /= norms
    assume(abs(np.linalg.det(rows)) >= 0.1)
    return rows


# Per scheme: (true state, linear_scheme keyword arguments).
UNBIASED_CASES = {
    "klevel-pairs": st.builds(
        lambda k, seed: (random_density(k, np.random.default_rng(seed)), {"dim": k}),
        st.integers(2, 5),
        st.integers(0, 2**32 - 1),
    ),
    "three-direction": st.tuples(
        BALL_STATES, _direction_rows().map(lambda rows: {"directions": rows})
    ),
    "standard": st.tuples(BALL_STATES, st.just({})),
    "minimal": st.tuples(BALL_STATES, st.just({})),
}


@pytest.mark.parametrize("name", SCHEMES)
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_every_linear_scheme_is_unbiased(name, data):
    # At the exact outcome probabilities the read-out returns the state.
    rho, kwargs = data.draw(UNBIASED_CASES[name])
    scheme = linear_scheme(name, **kwargs)
    phi = scheme.to_matrix(scheme.estimate(scheme.probabilities(rho)))
    assert np.abs(phi[0] - rho).max() <= 1e-12
