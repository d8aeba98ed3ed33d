import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtomo.error_analysis import (
    AVERAGE_MSE_COEFF,
    average_mse_over_ball,
    compare_batch,
    empirical_mse,
    mse_minimal,
    mse_standard,
    mse_three_direction,
)
from qtomo.linalg import InvariantError
from qtomo.measurement import (
    TETRAHEDRON,
    minimal_povm,
    outcome_probabilities,
    standard_povm,
)
from qtomo.states import bloch_to_matrix, in_bloch_ball

from oracles import fisher_information, linear_estimator_mse, random_ball_point, random_unit_rows
from test_acceptance import HADAMARD_ATOL

THETAS = [
    np.zeros(3),
    np.array([0.6, 0.0, 0.0]),
    np.array([0.3, 0.4, 0.5]),
    np.array([0.0, 0.0, 0.5]),
]


class TestClosedForms:
    def test_complementary_is_diagonal(self):
        v = mse_three_direction([0.0, 0.0, 0.0], np.eye(3), 100)
        assert np.abs(v - 0.01 * np.eye(3)).max() < 1e-15

    @pytest.mark.parametrize("theta", THETAS, ids=["origin", "x06", "generic", "z05"])
    def test_axis_directions_formula(self, theta):
        r = 50
        v = mse_three_direction(theta, np.eye(3), r)
        assert np.abs(v - np.diag(1.0 - theta**2) / r).max() < 1e-14

    def test_general_directions_from_binomial_variances(self):
        rng = np.random.default_rng(600)
        for _ in range(25):
            t = random_unit_rows(rng)
            theta = random_ball_point(rng)
            r = 40
            # Independent route: theta_hat = T^{-1}(2 nu - 1) with nu_a an
            # independent binomial mean, Var(2 nu_a - 1) = 4 p (1-p) / r.
            p = 0.5 * (1.0 + t @ theta)
            cov = np.diag(4.0 * p * (1.0 - p) / r)
            inv = np.linalg.inv(t)
            expect = inv @ cov @ inv.T
            assert np.abs(mse_three_direction(theta, t, r) - expect).max() < 1e-13

    @pytest.mark.parametrize("theta", THETAS, ids=["origin", "x06", "generic", "z05"])
    def test_standard_matches_multinomial_covariance(self, theta):
        n = 120
        probs = outcome_probabilities(standard_povm(), bloch_to_matrix(theta))
        rows = 3.0 * np.vstack([np.eye(3), -np.eye(3)])
        expect = linear_estimator_mse(probs, rows, n)
        assert np.abs(mse_standard(theta, n) - expect).max() < 1e-14

    @pytest.mark.parametrize("theta", THETAS, ids=["origin", "x06", "generic", "z05"])
    def test_minimal_matches_multinomial_covariance(self, theta):
        n = 120
        probs = outcome_probabilities(minimal_povm(), bloch_to_matrix(theta))
        rows = 3.0 * TETRAHEDRON
        expect = linear_estimator_mse(probs, rows, n)
        assert np.abs(mse_minimal(theta, n) - expect).max() < 1e-14

    def test_trace_identities(self):
        for theta in THETAS:
            n = 300
            norm_sq = float(theta @ theta)
            assert np.trace(mse_standard(theta, n)) == pytest.approx(
                (9 - norm_sq) / n, abs=1e-14
            )
            assert np.trace(mse_minimal(theta, n)) == pytest.approx(
                (9 - norm_sq) / n, abs=1e-14
            )
            assert np.trace(mse_three_direction(theta, np.eye(3), n // 3)) == pytest.approx(
                3 * (3 - norm_sq) / n, abs=1e-14
            )

    def test_input_validation(self):
        with pytest.raises(InvariantError):
            mse_standard([1.1, 0.0, 0.0], 100)
        with pytest.raises(InvariantError):
            mse_standard([0.0, 0.0, 0.0], 0)
        with pytest.raises(InvariantError):
            mse_three_direction([0.0, 0.0, 0.0], np.eye(3), 0)
        with pytest.raises(InvariantError):
            mse_minimal([2.0, 0.0, 0.0], 100)
        with pytest.raises(InvariantError, match="3x3"):
            mse_three_direction([0.0, 0.0, 0.0], np.eye(2), 1)
        with pytest.raises(InvariantError, match="Bloch vector must have shape"):
            mse_standard([0.1, 0.2], 300)
        with pytest.raises(InvariantError, match="finite"):
            mse_standard([np.nan, 0.0, 0.0], 300)
        # A stack has no shape (3,) to check: it is judged by its rows.
        with pytest.raises(InvariantError, match=r"stacked as \(m, 3\)"):
            compare_batch([[0.1, 0.2]], 300)
        with pytest.raises(InvariantError, match="closed unit Bloch ball"):
            compare_batch([[np.nan, 0.0, 0.0]], 300)

    @pytest.mark.parametrize("count", [300.7, 300.0, 2.5, True, "300"])
    def test_counts_must_be_integers(self, count):
        # Non-integers are rejected, never truncated.
        theta = [0.3, 0.4, 0.5]
        for call in (mse_standard, mse_minimal):
            with pytest.raises(InvariantError, match="integer"):
                call(theta, count)
        with pytest.raises(InvariantError, match="integer"):
            compare_batch([theta], count)
        with pytest.raises(InvariantError, match="integer"):
            mse_three_direction(theta, np.eye(3), count)
        assert np.array_equal(mse_standard(theta, np.int64(300)), mse_standard(theta, 300))


class TestEmpiricalMse:
    def test_reproducible(self):
        a = empirical_mse("minimal", [0.3, 0.4, 0.5], 60, 500, seed=9)
        b = empirical_mse("minimal", [0.3, 0.4, 0.5], 60, 500, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("scheme", ["three-direction", "standard", "minimal"])
    def test_matches_closed_form(self, scheme):
        theta = np.array([0.3, 0.4, 0.5])
        n, trials = 90, 40000
        got = empirical_mse(scheme, theta, n, trials, seed=17)
        if scheme == "three-direction":
            expect = mse_three_direction(theta, np.eye(3), n // 3)
        elif scheme == "standard":
            expect = mse_standard(theta, n)
        else:
            expect = mse_minimal(theta, n)
        # Entries are averages of products of O(1/sqrt(n)) errors; at this
        # trial count a 6 sigma-ish band is ~6e-4.
        scale = np.abs(expect).max()
        assert np.abs(got - expect).max() < 8 * scale / np.sqrt(trials) + 1e-4

    def test_symmetric_output(self):
        v = empirical_mse("standard", [0.2, 0.0, 0.1], 30, 1000, seed=3)
        assert np.array_equal(v, v.T)

    def test_validation(self):
        with pytest.raises(InvariantError):
            empirical_mse("unknown", [0, 0, 0], 30, 1000, seed=0)
        with pytest.raises(InvariantError):
            empirical_mse("standard", [0, 0, 0], 30, 50, seed=0)
        with pytest.raises(InvariantError):
            empirical_mse("three-direction", [0, 0, 0], 31, 1000, seed=0)
        with pytest.raises(InvariantError):
            empirical_mse("standard", [0, 0, 0], 30, 1000, seed=0, directions=np.eye(3))
        # The pair scheme estimates matrix entries, not theta.
        with pytest.raises(InvariantError, match="qubit scheme"):
            empirical_mse("klevel-pairs", [0, 0, 0], 300, 100, seed=1)
        for trials in (1000.5, 1000.0):
            with pytest.raises(InvariantError, match="integer"):
                empirical_mse("standard", [0, 0, 0], 30, trials, seed=0)
        for seed in (1.5, 1.0, True, -1, 2**64):
            with pytest.raises(InvariantError, match="seed must be an integer"):
                empirical_mse("standard", [0, 0, 0], 30, 1000, seed=seed)


class TestBallAverage:
    def test_orthogonal_directions_value(self):
        avg, det = average_mse_over_ball(np.eye(3))
        assert np.abs(avg - AVERAGE_MSE_COEFF * np.eye(3)).max() < 1e-15
        assert det == pytest.approx(AVERAGE_MSE_COEFF**3, abs=1e-15)

    def test_monte_carlo_cross_check(self):
        # E[1 - (u . theta)^2] over the unit ball is 1 - 1/5 for any unit u.
        rng = np.random.default_rng(601)
        samples = np.array([random_ball_point(rng) for _ in range(200000)])
        mc = 1.0 - np.mean(samples[:, 0] ** 2)
        assert mc == pytest.approx(AVERAGE_MSE_COEFF, abs=5e-3)

    def test_rotation_invariance(self):
        # Any orthogonal direction matrix gives the same average.
        q, _ = np.linalg.qr(np.random.default_rng(602).standard_normal((3, 3)))
        avg, det = average_mse_over_ball(q)
        assert np.abs(avg - AVERAGE_MSE_COEFF * np.eye(3)).max() < 1e-12
        assert det == pytest.approx(AVERAGE_MSE_COEFF**3, rel=1e-12)

    def test_oblique_directions_increase_determinant(self):
        rng = np.random.default_rng(603)
        baseline = AVERAGE_MSE_COEFF**3
        for _ in range(100):
            t = random_unit_rows(rng)
            _, det = average_mse_over_ball(t)
            assert det >= baseline - 1e-12


class TestComparisons:
    @pytest.mark.parametrize("theta", THETAS, ids=["origin", "x06", "generic", "z05"])
    def test_difference_closed_form(self, theta):
        n = 300
        c = compare_batch([theta], n)
        # diag 2 theta_i^2 / n, off-diagonal -theta_i theta_j / n.
        expect = (3.0 * np.diag(theta**2) - np.outer(theta, theta)) / n
        assert np.abs(c.diff[0] - expect).max() < 1e-14
        assert bool(c.dominated[0])

    def test_difference_psd_everywhere(self):
        rng = np.random.default_rng(604)
        for _ in range(200):
            theta = random_ball_point(rng)
            c = compare_batch([theta], 30)
            assert bool(c.dominated[0])
            assert np.linalg.eigvalsh(c.diff[0])[0] >= -1e-12 * np.linalg.norm(c.diff[0])

    def test_zero_at_origin(self):
        c = compare_batch([[0.0, 0.0, 0.0]], 30)
        assert np.abs(c.diff[0]).max() == 0.0
        assert bool(c.dominated[0])

    def test_trace_comparison(self):
        c = compare_batch([[0.0, 0.0, 0.5]], 300)
        assert float(c.trace_comp[0]) == pytest.approx(3 * (3 - 0.25) / 300, abs=1e-15)
        assert float(c.trace_min[0]) == pytest.approx((9 - 0.25) / 300, abs=1e-15)
        assert bool(c.trace_ok[0])

    def test_trace_comparison_on_ball(self):
        rng = np.random.default_rng(605)
        for _ in range(100):
            theta = random_ball_point(rng)
            c = compare_batch([theta], 30)
            assert bool(c.trace_ok[0])
            assert float(c.trace_comp[0]) <= float(c.trace_min[0]) + 1e-15

    def test_minimal_not_dominated_entrywise(self):
        # The matrix gap V_min - V_comp has eigenvalues of both signs at
        # theta = (0, 0, 0.5): total error favors the complementary scheme,
        # but not uniformly in every direction.
        theta = np.array([0.0, 0.0, 0.5])
        n = 300
        gap = mse_minimal(theta, n) - mse_three_direction(theta, np.eye(3), n // 3)
        eigs = np.linalg.eigvalsh(gap)
        assert eigs[0] < -1e-12
        assert eigs[-1] > 1e-12

    def test_divisibility_checked(self):
        with pytest.raises(InvariantError):
            compare_batch([[0.0, 0.0, 0.0]], 100)
        with pytest.raises(InvariantError, match="divisible by 3"):
            compare_batch([[0.3, 0.4, 0.5]], 100)


@st.composite
def ball_stacks(draw):
    """An (m, 3) stack of Bloch vectors: zero, inside the ball, or scaled onto
    the unit sphere (within rounding of the unit norm)."""
    m = draw(st.integers(1, 12))
    entry = st.floats(-1.0, 1.0, allow_subnormal=False)
    rows = []
    for _ in range(m):
        v = np.array(draw(st.lists(entry, min_size=3, max_size=3)))
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            radius = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
            v = v / norm * radius
        rows.append(v)
    return np.array(rows)


COPIES = st.integers(1, 10**6).map(lambda a: 3 * a)
BATCH = settings(max_examples=200, deadline=None, database=None, derandomize=True)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


# LAPACK's smallest eigenvalue of V_standard - V_comp, relative to the
# Frobenius norm of V_standard, reached 2.6e-16 on the ball points of grids
# 7 to 101 and 3.1e-16 at 600,000 random ball points.
GAP_EIG_RTOL = 1e-15


def _assert_gap_is_exact(c, thetas, n):
    """The reported 0 is what ``eigvalsh`` finds up to rounding, and the
    difference is (3I - J) o theta theta^T / n entrywise."""
    outer = thetas[:, :, None] * thetas[:, None, :]
    standard_norm = np.linalg.norm((3.0 * np.eye(3) - outer) / n, axis=(1, 2))
    assert np.all(c.min_eig == 0.0) and c.dominated.all()
    smallest = np.linalg.eigvalsh(c.diff)[:, 0]
    assert np.all(np.abs(smallest - c.min_eig) <= GAP_EIG_RTOL * standard_norm)
    expect = (3.0 * np.eye(3) - 1.0) * outer / n
    assert np.abs(c.diff - expect).max() <= HADAMARD_ATOL


def _grid_41_ball():
    """The ball points of `compare --grid 41`."""
    axis = np.linspace(-1.0, 1.0, 41)
    cube = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    thetas = cube[in_bloch_ball(cube)]
    assert len(thetas) == 33_401
    return thetas


class TestCompareBatch:
    @BATCH
    @given(ball_stacks(), COPIES)
    def test_rows_equal_one_vector_formulas(self, thetas, n):
        # The closed forms evaluated one theta at a time with 1-d dot and
        # norm, as the grid sweep did before it was batched.
        c = compare_batch(thetas, n)
        for i, t in enumerate(thetas):
            standard = (3.0 * np.eye(3) - np.outer(t, t)) / n
            diff = standard - np.diag(3.0 * (1.0 - t**2)) / float(n)
            norm_sq = float(t @ t)
            assert _bits(c.diff[i]) == _bits(diff)
            assert _bits(c.min_eig[i]) == _bits(0.0)
            assert c.dominated[i]
            assert _bits(c.trace_comp[i]) == _bits(3.0 * (3.0 - norm_sq) / n)
            assert _bits(c.trace_min[i]) == _bits((9.0 - norm_sq) / n)

    @BATCH
    @given(ball_stacks(), COPIES)
    def test_claims_hold_on_every_row(self, thetas, n):
        c = compare_batch(thetas, n)
        assert c.dominated.all()
        assert c.trace_ok.all()

    @BATCH
    @given(ball_stacks(), COPIES)
    def test_gap_is_exactly_psd(self, thetas, n):
        _assert_gap_is_exact(compare_batch(thetas, n), thetas, n)

    def test_gap_is_exactly_psd_on_grid_41(self):
        thetas = _grid_41_ball()
        _assert_gap_is_exact(compare_batch(thetas, 300), thetas, 300)

    @BATCH
    @given(ball_stacks(), st.one_of(COPIES, st.integers(1, 2**40).map(lambda a: 3 * a)))
    def test_trace_order_needs_no_slack(self, thetas, n):
        # 3 (3 - s) / n <= (9 - s) / n holds in floating point as written.
        c = compare_batch(thetas, n)
        assert np.all(c.trace_comp <= c.trace_min)

    def test_trace_order_needs_no_slack_on_grid_41(self):
        c = compare_batch(_grid_41_ball(), 300)
        assert np.all(c.trace_comp <= c.trace_min)

    @BATCH
    @given(ball_stacks(), st.data())
    def test_point_outside_ball_rejected(self, thetas, data):
        row = data.draw(st.integers(0, len(thetas) - 1))
        direction = np.array(data.draw(st.sampled_from([(1.0, 0.0, 0.0), (0.6, -0.8, 0.0)])))
        thetas[row] = direction * data.draw(st.floats(1.0 + 1e-8, 2.0))
        with pytest.raises(InvariantError, match="closed unit Bloch ball"):
            compare_batch(thetas, 300)

    @pytest.mark.parametrize("tiny", [1e-9, -1.1102230246251565e-16, 5e-86])
    def test_dominated_near_origin(self, tiny):
        # The diagonal of V_standard - V_comp cancels to rounding here and the
        # off-diagonal -theta_i theta_j / n survives, so an eigensolver finds
        # the computed difference indefinite at the level of V_standard's
        # rounding; the factorization reports the exact 0 instead.
        # -1.1e-16 is the middle of np.linspace(-1, 1, 99), the centre of
        # the `compare --grid 99` cube.
        c = compare_batch(np.full((1, 3), tiny), 300)
        assert c.min_eig[0] == 0.0
        assert c.dominated[0]

    def test_empty_stack(self):
        c = compare_batch(np.empty((0, 3)), 300)
        assert c.diff.shape == (0, 3, 3)
        assert all(field.shape == (0,) for field in c[1:])

    @pytest.mark.parametrize("thetas", [[0.0, 0.0, 0.0], np.zeros((2, 2)), np.zeros((1, 3, 1))])
    def test_shape_validated(self, thetas):
        with pytest.raises(InvariantError, match=r"stacked as \(m, 3\)"):
            compare_batch(thetas, 300)

    @pytest.mark.parametrize("n, message", [(0, "at least 1"), (-3, "at least 1"), (100, "by 3")])
    def test_copies_validated(self, n, message):
        with pytest.raises(InvariantError, match=message):
            compare_batch(np.zeros((1, 3)), n)


# Each setting of a scheme as (weights, vectors): its outcome o has
# probability w_o (1 + a_o . theta).
STANDARD_SETTINGS = [(np.full(6, 1.0 / 6.0), np.vstack([np.eye(3), -np.eye(3)]))]
MINIMAL_SETTINGS = [(np.full(4, 0.25), TETRAHEDRON)]
UNIT_ROWS = st.integers(0, 2**32 - 1).map(lambda s: random_unit_rows(np.random.default_rng(s)))
# Relative slack of the Fisher-information identities, times the condition
# number of the matrix they invert.
FISHER_RTOL = 1e-12


def direction_settings(t):
    return [((0.5, 0.5), np.stack([u, -u])) for u in t]


def total_information(settings, theta, shots):
    """Information of ``shots`` shots of each setting."""
    return shots * sum(fisher_information(w, a, theta) for w, a in settings)


def null_outcome(settings, theta) -> bool:
    """Some outcome never occurs: a pure state, where F has no bound."""
    return any(np.min(1.0 + a @ theta) <= 0.0 for _, a in settings)


def assert_inverse(v, info):
    assert np.abs(v @ info - np.eye(3)).max() <= FISHER_RTOL * np.linalg.cond(info)


class TestFisherInformation:
    """Each error matrix against the Cramer-Rao bound V >= F^-1, with F the
    scheme's total classical Fisher information about theta."""

    @BATCH
    @given(ball_stacks(), UNIT_ROWS, st.integers(1, 1000))
    def test_three_direction_is_efficient(self, thetas, t, r):
        # V F = I: linear inversion of the three binomials attains the bound.
        settings = direction_settings(t)
        for theta in thetas:
            if not null_outcome(settings, theta):
                info = total_information(settings, theta, r)
                assert_inverse(mse_three_direction(theta, t, r), info)

    @BATCH
    @given(ball_stacks(), COPIES)
    def test_minimal_is_efficient(self, thetas, n):
        # n V_min = F_min^-1: four outcome frequencies for three parameters
        # are sufficient, so the linear estimator attains the bound.
        for theta in thetas:
            if not null_outcome(MINIMAL_SETTINGS, theta):
                info = total_information(MINIMAL_SETTINGS, theta, n)
                assert_inverse(mse_minimal(theta, n), info)

    @BATCH
    @given(ball_stacks(), COPIES)
    def test_standard_bound_is_the_complementary_error(self, thetas, n):
        # F_std^-1 / n = V_comp: the axis POVM carries the complementary
        # scheme's information, so V_standard - V_comp, the dominance gap,
        # is all that its linear estimator loses to the bound.
        for theta in thetas:
            if not null_outcome(STANDARD_SETTINGS, theta):
                info = total_information(STANDARD_SETTINGS, theta, n)
                assert_inverse(mse_three_direction(theta, np.eye(3), n // 3), info)

    @BATCH
    @given(ball_stacks(), UNIT_ROWS)
    def test_every_setting_saturates_gill_massar(self, thetas, t):
        # Tr((I - theta theta^T) F) = 1 per shot, the most that any
        # measurement of one copy at a time can reach.
        settings = STANDARD_SETTINGS + MINIMAL_SETTINGS + direction_settings(t)
        for theta in thetas:
            sld_inverse = np.eye(3) - np.outer(theta, theta)
            for w, a in settings:
                if not null_outcome([(w, a)], theta):
                    info = fisher_information(w, a, theta)
                    gap = abs(np.trace(sld_inverse @ info) - 1.0)
                    assert gap <= FISHER_RTOL * np.linalg.cond(info)

    @BATCH
    @given(ball_stacks(), UNIT_ROWS, st.integers(1, 1000))
    def test_no_scheme_beats_the_floor(self, thetas, t, r):
        # n Tr V >= (Tr sqrt(I - theta theta^T))^2 = (2 + sqrt(1 - |theta|^2))^2,
        # the Gill-Massar floor; the three-direction error carries the
        # rounding of inverting T twice.
        n = 3 * r
        for theta in thetas:
            floor = (2.0 + np.sqrt(max(0.0, 1.0 - theta @ theta))) ** 2
            for v, cond in (
                (mse_standard(theta, n), 1.0),
                (mse_minimal(theta, n), 1.0),
                (mse_three_direction(theta, t, r), np.linalg.cond(t) ** 2),
            ):
                assert n * np.trace(v) >= floor * (1.0 - FISHER_RTOL * cond)
