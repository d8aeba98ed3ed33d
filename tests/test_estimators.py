from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtomo import estimators
from qtomo.estimators import (
    constrained_estimate,
    constrained_rows,
    project_nonneg_simplex_rows,
    unconstrained_estimate,
)
from qtomo.linalg import (
    PSD_ATOL,
    SCREEN_MARGIN,
    EigenDecompositionError,
    InvariantError,
    hs_distance,
    psd_mask,
    psd_rows,
    psd_screen,
    require_hermitian,
)
from qtomo.measurement import (
    TETRAHEDRON,
    MeasurementPlan,
    count_frequencies,
    linear_scheme,
    minimal_povm,
    outcome_probabilities,
    sample_plan_counts,
    standard_povm,
    stream_rng,
)
from qtomo.states import bloch_to_matrix, haar_unitary, random_density

from oracles import (
    bloch_radial_projection,
    eigh_rows,
    hermitian_eig,
    matrix_to_bloch,
    project_density_dykstra,
    project_simplex_bisect,
    project_simplex_loop,
    project_simplex_sort,
    projection_certificate,
    random_ball_point,
    random_trace_one_hermitian,
    random_unit_rows,
)
from strategies import PSD_ROWS_K, edge_stacks
from strategies import rotated_rows as rotated_rows_k


def expected_counts(plan: MeasurementPlan, rho) -> dict:
    """Fractional count table equal to r times the outcome distribution."""
    return {
        key: plan.repetitions * outcome_probabilities(plan.observables[key], rho)
        for key in plan.keys
    }


class TestUnconstrainedEstimate:
    def test_single_shot_worked_example(self):
        # One shot each: Z lands on 0, X on +1, Y on +1.
        plan = MeasurementPlan(2, 1)
        counts = {("z", 1): [0, 1], ("x", 1, 2): [1, 0], ("y", 1, 2): [1, 0]}
        phi = unconstrained_estimate(plan, counts)
        expect = np.array([[0.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])
        assert np.abs(phi - expect).max() == 0.0
        assert not psd_mask(np.linalg.eigvalsh(phi))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_expected_counts_reproduce_state(self, dim):
        rng = np.random.default_rng(200 + dim)
        rho = random_density(dim, rng)
        plan = MeasurementPlan(dim, 10)
        phi = unconstrained_estimate(plan, expected_counts(plan, rho))
        assert np.abs(phi - rho).max() < 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sampled_counts_give_trace_one_hermitian(self, dim):
        rho = random_density(dim, np.random.default_rng(210 + dim))
        plan = MeasurementPlan(dim, 7)
        for trial in range(20):
            counts = sample_plan_counts(plan, rho, stream_rng(33, trial))
            phi = unconstrained_estimate(plan, counts)
            assert np.abs(phi - phi.conj().T).max() == 0.0
            assert np.trace(phi).real == pytest.approx(1.0, abs=1e-12)

    def test_missing_observable(self):
        plan = MeasurementPlan(2, 1)
        with pytest.raises(InvariantError, match="missing"):
            unconstrained_estimate(plan, {("z", 1): [0, 1], ("x", 1, 2): [1, 0]})

    def test_inconsistent_totals(self):
        plan = MeasurementPlan(2, 2)
        counts = {("z", 1): [1, 1], ("x", 1, 2): [1, 0], ("y", 1, 2): [2, 0]}
        with pytest.raises(InvariantError, match="sum"):
            unconstrained_estimate(plan, counts)

    def test_negative_counts(self):
        plan = MeasurementPlan(2, 1)
        counts = {("z", 1): [2, -1], ("x", 1, 2): [1, 0], ("y", 1, 2): [1, 0]}
        with pytest.raises(InvariantError, match="nonnegative"):
            unconstrained_estimate(plan, counts)

    def test_row_errors_name_the_key(self):
        plan = MeasurementPlan(3, 1)
        counts = {key: np.eye(len(obs.values))[0] for key, obs in plan.observables.items()}
        counts[("x", 1, 3)] = [1.0, 0.0]
        with pytest.raises(InvariantError, match=r"counts for \('x', 1, 3\): expected 3 outcome"):
            unconstrained_estimate(plan, counts)


class TestSimplexProjection:
    def test_first_worked_example(self):
        (projected,), (steps,) = project_nonneg_simplex_rows([[0.5, -0.5, 1.0]])
        assert np.abs(projected - [0.25, 0.0, 0.75]).max() < 1e-15
        assert steps == 1

    def test_second_worked_example_needs_two_sweeps(self):
        (projected,), (steps,) = project_nonneg_simplex_rows([[1 / 6, -1 / 2, 8 / 6]])
        assert np.abs(projected - [0.0, 0.0, 1.0]).max() < 1e-15
        assert steps == 2

    def test_nonnegative_input_unchanged(self):
        x = np.array([0.2, 0.3, 0.5])
        (projected,), (steps,) = project_nonneg_simplex_rows([x])
        assert np.array_equal(projected, x)
        assert steps == 0

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 8])
    def test_matches_sort_and_bisection_oracles(self, dim):
        rng = np.random.default_rng(300 + dim)
        for _ in range(200):
            x = rng.standard_normal(dim)
            x += (1.0 - x.sum()) / dim
            (projected,), (steps,) = project_nonneg_simplex_rows([x])
            assert steps <= dim - 1
            assert np.abs(projected - project_simplex_sort(x)).max() < 1e-12
            assert np.abs(projected - project_simplex_bisect(x)).max() < 1e-10
            assert projected.min() >= 0.0
            assert projected.sum() == pytest.approx(1.0, abs=1e-12)

    def test_clipped_entries_are_exact_zeros(self):
        (projected,), _ = project_nonneg_simplex_rows([[1.2, -0.1, -0.1]])
        assert projected[1] == 0.0 and projected[2] == 0.0

    def test_unit_sum_required(self):
        with pytest.raises(InvariantError):
            project_nonneg_simplex_rows([[0.5, 0.6]])

    def test_minimizer_property(self):
        # The projection is the closest simplex point: no random simplex
        # point may be closer.
        rng = np.random.default_rng(301)
        for _ in range(50):
            x = rng.standard_normal(5)
            x += (1.0 - x.sum()) / 5
            (projected,), _ = project_nonneg_simplex_rows([x])
            best = np.linalg.norm(x - projected)
            for _ in range(40):
                candidate = rng.dirichlet(np.ones(5))
                assert best <= np.linalg.norm(x - candidate) + 1e-12


@st.composite
def unit_sum_rows(draw):
    """An (m, k) batch of unit-sum rows, k from 1 to 12, each row either
    nonnegative or shifted from arbitrary entries (often indefinite)."""
    k = draw(st.integers(1, 12))
    m = draw(st.integers(1, 8))
    entry = st.floats(-2.0, 2.0, allow_subnormal=False)
    rows = []
    for _ in range(m):
        raw = np.array(draw(st.lists(entry, min_size=k, max_size=k)))
        if draw(st.booleans()):
            weights = np.abs(raw) + 1e-3
            rows.append(weights / weights.sum())
        else:
            rows.append(raw + (1.0 - raw.sum()) / k)
    return np.array(rows)


ROWS = settings(max_examples=200, deadline=None, database=None, derandomize=True)


class TestSimplexProjectionRows:
    @ROWS
    @given(unit_sum_rows())
    def test_rows_match_sort_oracle(self, x):
        projected, _ = project_nonneg_simplex_rows(x)
        for row, out in zip(x, projected):
            assert np.abs(out - project_simplex_sort(row)).max() < 1e-12

    @ROWS
    @given(unit_sum_rows())
    def test_output_on_simplex(self, x):
        projected, _ = project_nonneg_simplex_rows(x)
        assert projected.shape == x.shape
        assert projected.min() >= 0.0
        assert np.abs(projected.sum(axis=1) - 1.0).max() < 1e-12

    @ROWS
    @given(unit_sum_rows())
    def test_idempotent(self, x):
        once, _ = project_nonneg_simplex_rows(x)
        twice, steps = project_nonneg_simplex_rows(once)
        assert np.array_equal(twice, once)
        assert not steps.any()

    @ROWS
    @given(unit_sum_rows())
    def test_sweeps_bounded_and_untouched_rows_exact(self, x):
        projected, steps = project_nonneg_simplex_rows(x)
        assert steps.shape == (x.shape[0],)
        assert steps.max() <= x.shape[1] - 1
        untouched = ~(x < 0.0).any(axis=1)
        assert np.array_equal(steps == 0, untouched)
        assert np.array_equal(projected[untouched], x[untouched])

    @ROWS
    @given(unit_sum_rows(), st.data())
    def test_bad_row_sum_rejected(self, x, data):
        bad = data.draw(st.integers(0, x.shape[0] - 1))
        x[bad:, 0] += 0.5
        with pytest.raises(InvariantError, match=f"row {bad} sums to"):
            project_nonneg_simplex_rows(x)

    @ROWS
    @given(unit_sum_rows())
    def test_rows_equal_per_vector_loop(self, x):
        # Same arithmetic in the same order as the one-vector loop: equal bits.
        projected, steps = project_nonneg_simplex_rows(x)
        for row, out, n in zip(x, projected, steps):
            expect, expect_steps = project_simplex_loop(row)
            assert np.array_equal(out, expect)
            assert n == expect_steps

    def test_worked_examples_in_one_batch(self):
        x = [[0.5, -0.5, 1.0], [1 / 6, -1 / 2, 8 / 6], [0.2, 0.3, 0.5]]
        projected, steps = project_nonneg_simplex_rows(x)
        expect = [[0.25, 0.0, 0.75], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]]
        assert np.abs(projected - expect).max() < 1e-15
        assert steps.tolist() == [1, 2, 0]

    def test_empty_batch(self):
        projected, steps = project_nonneg_simplex_rows(np.empty((0, 3)))
        assert projected.shape == (0, 3)
        assert steps.shape == (0,)

    @pytest.mark.parametrize("x", [[0.5, 0.5], [[[1.0]]], np.empty((2, 0))])
    def test_shape_validated(self, x):
        with pytest.raises(InvariantError, match="2-d array of nonempty rows"):
            project_nonneg_simplex_rows(x)

    def test_nan_row_rejected(self):
        with pytest.raises(InvariantError, match="row 1 sums to nan"):
            project_nonneg_simplex_rows([[1.0, 0.0], [np.nan, 0.0]])


class TestConstrainedEstimate:
    def test_density_input_returned_unchanged(self):
        rho = random_density(3, np.random.default_rng(42))
        out, steps = constrained_estimate(rho)
        assert steps == 0
        assert np.array_equal(out, rho)

    def test_diagonal_example(self):
        out, steps = constrained_estimate(np.diag([0.5, -0.5, 1.0]))
        assert np.abs(out - np.diag([0.25, 0.0, 0.75])).max() < 1e-15
        assert steps == 1

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_matches_eigenbasis_sort_oracle(self, dim):
        rng = np.random.default_rng(400 + dim)
        for _ in range(40):
            h = random_trace_one_hermitian(dim, rng)
            out, _ = constrained_estimate(h)
            w, u = hermitian_eig(h)
            oracle = (u * project_simplex_sort(w)) @ u.conj().T
            assert np.abs(out - oracle).max() < 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_output_is_density_and_optimal(self, dim):
        rng = np.random.default_rng(410 + dim)
        for _ in range(20):
            h = random_trace_one_hermitian(dim, rng)
            out, steps = constrained_estimate(h)
            assert np.linalg.eigvalsh(require_hermitian(out))[0] >= -1e-12
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            assert 0 <= steps <= dim - 1
            best = hs_distance(h, out)
            for _ in range(30):
                other = random_density(dim, rng)
                assert best <= hs_distance(h, other) + 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_matches_dykstra_matrix_oracle(self, dim):
        # The whole matrix projection against alternating projections
        # between the PSD cone and the trace-one hyperplane.
        rng = np.random.default_rng(430 + dim)
        checked = 0
        while checked < 20:
            h = random_trace_one_hermitian(dim, rng)
            if np.linalg.eigvalsh(h)[0] >= 0.0:
                continue
            out, steps = constrained_estimate(h)
            assert steps >= 1
            assert np.abs(out - project_density_dykstra(h)).max() < 1e-10
            checked += 1

    def test_qubit_matches_radial_bloch_projection(self):
        rng = np.random.default_rng(420)
        for _ in range(50):
            theta = rng.standard_normal(3)
            theta *= rng.uniform(1.01, 2.5) / np.linalg.norm(theta)
            out, steps = constrained_estimate(bloch_to_matrix(theta))
            expect = bloch_to_matrix(bloch_radial_projection(theta))
            assert np.abs(out - expect).max() < 1e-12
            assert steps == 1

    def test_trace_validated(self):
        with pytest.raises(InvariantError):
            constrained_estimate(np.diag([1.0, 1.0]))

    def test_hermiticity_validated(self):
        with pytest.raises(InvariantError):
            constrained_estimate(np.array([[0.5, 0.4], [0.1, 0.5]]))


@st.composite
def trace_one_hermitians(draw):
    """A k x k trace-one Hermitian, k from 2 to 6, from arbitrary entries:
    PSD for some draws, indefinite for most."""
    k = draw(st.integers(2, 6))
    entry = st.floats(-1.0, 1.0, allow_subnormal=False)
    parts = np.array(draw(st.lists(entry, min_size=2 * k * k, max_size=2 * k * k)))
    a = (parts[: k * k] + 1j * parts[k * k :]).reshape(k, k)
    h = 0.5 * (a + a.conj().T)
    return h + np.eye(k) * (1.0 - np.trace(h).real) / k


class TestConstrainedEstimateProperties:
    @ROWS
    @given(trace_one_hermitians())
    def test_output_is_psd(self, h):
        out, _ = constrained_estimate(h)
        assert np.linalg.eigvalsh(require_hermitian(out))[0] >= -1e-12

    @ROWS
    @given(trace_one_hermitians())
    def test_output_has_unit_trace(self, h):
        out, steps = constrained_estimate(h)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert 0 <= steps <= h.shape[0] - 1

    @ROWS
    @given(trace_one_hermitians())
    def test_idempotent(self, h):
        once, _ = constrained_estimate(h)
        twice, again = constrained_estimate(once)
        assert again == 0
        assert np.array_equal(twice, once)


def rotated_rows(smallest, seed):
    """(m, 3, 3) trace-one Hermitians, Haar-rotated, with the given smallest
    eigenvalues and the rest of the trace split 0.4 / 0.6."""
    rng = np.random.default_rng(seed)
    rows = []
    for low in smallest:
        u = haar_unitary(3, rng)
        rows.append((u * np.array([low, 0.4, 0.6 - low])) @ u.conj().T)
    return np.stack(rows)


def lapack_constrained_rows(phi):
    """The projection with no screen: one eigvalsh on the whole stack decides
    which rows are PSD, and one eigh on the whole stack projects the rest.
    Returns the rows that are not PSD, rebuilt, their sweeps and the mask."""
    psd = psd_mask(np.linalg.eigvalsh(phi))
    w, u = np.linalg.eigh(phi)
    rows = np.flatnonzero(~psd)
    clipped, steps = project_nonneg_simplex_rows(w[rows])
    return (u[rows] * clipped[:, None, :]) @ u[rows].conj().swapaxes(1, 2), steps, psd


def assert_matches_reference(stack, result):
    """``result = constrained_rows(stack)`` against
    ``lapack_constrained_rows``: the mask and the sweeps bit for bit, the
    rows solved by eigh bit for bit, and the rows rebuilt from the k = 3
    closed form within 1e-13 (1 + ||H||) of the reference and certified at
    0.05 of the certificate's tolerance.  Returns the positions, among the
    projected rows, of those solved by eigh."""
    out, steps, psd = result
    expected, expected_steps, expected_psd = lapack_constrained_rows(stack)
    assert np.array_equal(psd, expected_psd) and np.array_equal(steps, expected_steps)
    lapack = eigh_rows(stack, psd)
    assert np.array_equal(out[lapack], expected[lapack])
    rebuilt = np.setdiff1d(np.arange(len(out)), lapack)
    for h, x, y in zip(stack[~psd][rebuilt], out[rebuilt], expected[rebuilt]):
        assert np.linalg.norm(x - y) <= 1e-13 * (1.0 + np.linalg.norm(h))
        residuals, tol = projection_certificate(h, x)
        assert max(residuals.values()) <= 0.05 * tol, residuals
    return lapack


def _recorder(original, seen):
    def recorded(a, *args, **kwargs):
        seen.append(np.array(a))
        return original(a, *args, **kwargs)

    return recorded


@contextmanager
def recorded_lapack():
    """Patches ``np.linalg.eigvalsh`` and ``np.linalg.eigh`` to keep a copy
    of every stack each is handed, listed under its name."""
    seen = {"eigvalsh": [], "eigh": []}
    with (
        mock.patch.object(np.linalg, "eigvalsh", _recorder(np.linalg.eigvalsh, seen["eigvalsh"])),
        mock.patch.object(np.linalg, "eigh", _recorder(np.linalg.eigh, seen["eigh"])),
    ):
        yield seen


class TestPsdScreen:
    """constrained_rows decides PSD as linalg.psd_rows does, with eigvalsh
    on the rows the screen leaves, and sends only the rows that are not PSD
    to eigh, at every k."""

    def test_rows_inside_the_margin_reach_eigh(self):
        # eigvalsh judges the rows inside the margin and eigh solves those
        # it calls not PSD; the two rows the screen decides not PSD are
        # rebuilt from the closed form.
        edge = np.linspace(-2 * PSD_ATOL, SCREEN_MARGIN, 40, endpoint=False)
        smallest = np.concatenate([edge, [0.05, 0.2, -0.1, -0.3]])
        phi = rotated_rows(smallest, seed=11)
        with recorded_lapack() as seen:
            result = constrained_rows(phi)
        _, steps, psd = result
        near = psd_screen(phi)[1]
        not_psd = ~psd_mask(np.linalg.eigvalsh(phi))
        inside = np.flatnonzero(not_psd[near])
        assert near.tolist() == list(range(40))
        assert len(seen["eigvalsh"]) == 1 and np.array_equal(seen["eigvalsh"][0], phi[near])
        assert len(seen["eigh"]) == 1 and np.array_equal(seen["eigh"][0], phi[inside])
        assert np.array_equal(assert_matches_reference(phi, result), np.arange(len(inside)))
        assert 0 < len(inside) < len(near)
        assert np.array_equal(psd, ~not_psd)
        assert psd[-4:].tolist() == [True, True, False, False]
        assert steps[-2:].tolist() == [1, 1]

    def test_edge_rows_decided_as_by_one_eigh(self):
        # Rows within 1e-15 of the PSD slack, mixed with rows the screen
        # clears: every near row must come out bit for bit as one eigvalsh
        # and one eigh on the whole stack leave it, psd or projected alike.
        offsets = np.linspace(-1e-15, 1e-15, 64)
        smallest = np.empty(128)
        smallest[0::2] = -PSD_ATOL + offsets
        smallest[1::2] = 0.1
        phi = rotated_rows(smallest, seed=12)
        result = constrained_rows(phi)
        for got, expect in zip(result, lapack_constrained_rows(phi)):
            assert np.array_equal(got, expect)
        assert 0 < result[1].sum() < 64

    @ROWS
    @given(edge_stacks())
    def test_matches_one_eigh_at_every_k(self, case):
        stack, _ = case
        before = stack.copy()
        try:
            expected = lapack_constrained_rows(stack)
        except InvariantError:
            # A one-level row other than [[1]] is not trace one: both paths
            # reject its projection.
            expected = None
        with recorded_lapack() as seen:
            if expected is None:
                with pytest.raises(InvariantError):
                    constrained_rows(stack)
            else:
                result = constrained_rows(stack)
        if expected is not None:
            assert_matches_reference(stack, result)
            assert len(result[1]) == np.count_nonzero(~result[2])
            assert (result[1] >= 1).all()
        assert stack.tobytes() == before.tobytes()
        assert len(seen["eigvalsh"]) == len(seen["eigh"]) == 1
        assert np.array_equal(seen["eigvalsh"][0], stack[psd_screen(stack)[1]])
        psd = psd_rows(stack)
        assert np.array_equal(seen["eigh"][0], stack[~psd][eigh_rows(stack, psd)])

    def test_screened_rows_return_unchanged(self):
        # PSD rows are their own projections: none is rebuilt or returned.
        phi = rotated_rows([0.05, 0.1, 0.2], seed=13)
        before = phi.copy()
        with recorded_lapack() as seen:
            out, steps, psd = constrained_rows(phi)
        assert [a.shape[0] for a in seen["eigvalsh"] + seen["eigh"]] == [0, 0]
        assert out.shape == (0, 3, 3) and steps.shape == (0,)
        assert np.array_equal(phi, before)
        assert psd.all()

    @pytest.mark.parametrize("k", [1, 2])
    def test_other_k_send_the_whole_stack(self, k):
        # No row is cleared by the Cholesky sweep: at k = 1 every row sits
        # inside the margin and is PSD; at k = 2 four rows sit inside it and
        # four are indefinite. Every row must reach LAPACK once: eigvalsh
        # judges the rows inside the margin, eigh projects the indefinite.
        inside = [0.0, 1e-12, -PSD_ATOL / 2, SCREEN_MARGIN / 2]
        if k == 1:
            phi = np.array(inside, dtype=complex)[:, None, None]
            near = np.arange(4)
        else:
            lows = np.ravel(np.column_stack([[-1.0, -0.3, -0.1, -0.01], inside]))
            phi = rotated_rows_k(np.column_stack([lows, 1.0 - lows]), seed=15)
            near = np.arange(1, 8, 2)
        psd, screened_near = psd_screen(phi)
        assert not psd.any() and np.array_equal(screened_near, near)
        with recorded_lapack() as seen:
            result = constrained_rows(phi)
        assert len(seen["eigvalsh"]) == 1 and np.array_equal(seen["eigvalsh"][0], phi[near])
        assert len(seen["eigh"]) == 1
        assert np.array_equal(seen["eigh"][0], np.delete(phi, near, axis=0))
        for got, expect in zip(result, lapack_constrained_rows(phi)):
            assert np.array_equal(got, expect)
        assert result[1].sum() == (4 if k == 2 else 0)
        assert result[2].sum() == 4

    def test_unsorted_nan_row_raises(self):
        # eigh converges on this row but leaves NaN eigenvalues unsorted in
        # the middle; the row is neither judged PSD nor projected.
        phi = np.stack([np.eye(4, dtype=complex) / 4] * 2)
        phi[1, 2, 1] = np.nan
        with pytest.raises(EigenDecompositionError, match="non-finite eigenvalue"):
            constrained_rows(phi)

    def test_nan_row_still_raises(self):
        phi = rotated_rows([0.1, 0.1], seed=14)
        phi[1] = np.nan
        with pytest.raises(EigenDecompositionError):
            constrained_rows(phi)


class TestProjectionCertificate:
    """Every row constrained_rows rebuilds meets the optimality conditions of
    the projection, checked with no solver."""

    @pytest.mark.parametrize("k", PSD_ROWS_K)
    @ROWS
    @given(data=st.data())
    def test_every_projected_row_is_certified(self, k, data):
        self.certify(k, data.draw(edge_stacks(k))[0])

    @settings(max_examples=3000, deadline=None, database=None, derandomize=True)
    @given(edge_stacks(3))
    def test_k3_rows_over_many_examples(self, case):
        # The rows rebuilt from the closed form, edge and large rows among
        # them, over many more examples than the other k get.
        self.certify(3, case[0])

    @staticmethod
    def certify(k, stack):
        """``constrained_rows(stack)`` raises exactly where the reference
        does; otherwise it matches the reference and each row it rebuilds is
        the closest density matrix, and a nearby one is not."""
        if k == 1:
            # A one-level row that is not PSD is not trace one either: the
            # stack projects no row, or it is rejected.
            if psd_mask(stack[:, :, 0].real).all():
                assert len(constrained_rows(stack)[0]) == 0
            else:
                with pytest.raises(InvariantError):
                    constrained_rows(stack)
            return
        try:
            lapack_constrained_rows(stack)
        except InvariantError:
            # A row of norm near 1e6 whose eigenvalues miss a unit sum by
            # more than TRACE_ATOL: both paths reject the stack.
            with pytest.raises(InvariantError):
                constrained_rows(stack)
            return
        result = constrained_rows(stack)
        assert_matches_reference(stack, result)
        projected, _, psd = result
        for h, x in zip(stack[~psd], projected):
            residuals, tol = projection_certificate(h, x)
            assert max(residuals.values()) <= tol, residuals
            # Moving 1e-3 of the weight from X's top eigenvector to its
            # bottom one keeps a density matrix, not the closest one.
            v = np.linalg.eigh(x)[1]
            moved = np.outer(v[:, 0], v[:, 0].conj()) - np.outer(v[:, -1], v[:, -1].conj())
            residuals, tol = projection_certificate(h, x + 1e-3 * moved)
            assert max(residuals.values()) > tol, residuals

    @pytest.mark.parametrize("corrupt", ["trace", "indefinite"])
    def test_corrupted_projection_fails(self, corrupt):
        # Criterion 01's worked example: X = diag(0.25, 0, 0.75).
        h = np.diag([0.5, -0.5, 1.0]).astype(complex)
        x, _ = constrained_estimate(h)
        residuals, tol = projection_certificate(h, x)
        assert max(residuals.values()) <= tol
        bad = 1.001 * x if corrupt == "trace" else x + 1e-6 * np.diag([0.0, -1.0, 1.0])
        residuals, tol = projection_certificate(h, bad)
        assert residuals["trace" if corrupt == "trace" else "x_psd"] > tol


def spectra_near_double_roots():
    """Trace-one spectra with lambda_1 from -1e-6 to -0.3 and a bottom or a
    top gap from 2e-7 to 0.9, sorted.  The gaps keep lambda_2 off 0 and off
    -lambda_1/2, where rounding decides between one sweep and two."""
    spectra = []
    for low in [-1e-6, -1e-5, -1e-4, -1e-3, -1e-2, -0.1, -0.3]:
        for gap in [2e-7, 2e-6, 2e-5, 2e-4, 2e-3, 2e-2, 0.2, 0.9]:
            spectra.append([low, low + gap, 1.0 - 2.0 * low - gap])
            middle = (1.0 - low - gap) / 2.0
            spectra.append([low, middle, middle + gap])
    return np.sort(spectra, axis=1)


class TestProjectorRebuild:
    """At k = 3, constrained_rows rebuilds a projected row from its
    closed-form spectrum and one spectral projector wherever the limits in
    linalg hold, and leaves every other row to eigh."""

    def test_near_double_roots_are_certified(self):
        spectra = np.repeat(spectra_near_double_roots(), 8, axis=0)
        stack = rotated_rows_k(spectra, seed=60)
        result = constrained_rows(stack)
        lapack = assert_matches_reference(stack, result)
        assert 0 < len(lapack) < len(result[0]) == len(stack)
        for h, x in zip(stack, result[0]):
            residuals, tol = projection_certificate(h, x)
            assert max(residuals.values()) <= 0.05 * tol, residuals

    def test_reads_the_triangle_eigh_reads(self):
        # eigh and the closed form read the lower triangle and the real
        # part of the diagonal, and so does the rebuild: whatever the upper
        # triangle and the diagonal's imaginary parts hold, every row comes
        # out bit for bit as from the Hermitian stack.
        spectra = [[-0.2, 0.5, 0.7], [-0.4, -0.1, 1.5], [-1e-8, 0.5, 0.5 + 1e-8]]
        spectra = np.repeat(spectra, 4, axis=0)
        stack = rotated_rows_k(spectra, seed=62)
        noisy = stack.copy()
        upper = np.triu_indices(3, 1)
        noisy[:, upper[0], upper[1]] += 1e-3 * (1 + 1j)
        noisy[:, [0, 1, 2], [0, 1, 2]] += 1e-3j
        for got, want in zip(constrained_rows(noisy), constrained_rows(stack)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "spectrum", [(-1e-6, 9e-6, 1.0 - 8e-6), (-1e5, 5e4, 5e4 + 1.0)], ids=["gap", "scale"]
    )
    def test_rows_outside_the_limits_need_eigh(self, monkeypatch, spectrum):
        # A bottom gap of 1e-5 at lambda_1 = -1e-6, or a norm of 1e5: with
        # the limits lifted, the closed form alone fails the certificate.
        # (At a norm of 1e6 the rows' eigenvalue sums already come within
        # a tenth of TRACE_ATOL.)
        stack = rotated_rows_k(np.array([spectrum] * 64), seed=61)
        stack[:, 2, 2] = 1.0 - stack[:, 0, 0].real - stack[:, 1, 1].real

        def worst(projected):
            ratios = [
                max(residuals.values()) / tol
                for residuals, tol in map(projection_certificate, stack, projected)
            ]
            return max(ratios)

        with recorded_lapack() as seen:
            projected, _, psd = constrained_rows(stack)
        assert not psd.any() and np.array_equal(seen["eigh"][0], stack)
        assert worst(projected) <= 0.05
        monkeypatch.setattr(estimators, "SCREEN_MARGIN", 0.0)
        monkeypatch.setattr(estimators, "SPECTRAL_GAP", 0.0)
        monkeypatch.setattr(estimators, "SPECTRAL_SCALE", np.inf)
        with recorded_lapack() as seen:
            projected, _, _ = constrained_rows(stack)
        assert seen["eigh"][0].shape == (0, 3, 3)
        assert worst(projected) > 1.0

    def test_large_rows_are_checked_with_eigh_sums(self, monkeypatch):
        # Wide gaps at a norm of 3e6: the closed-form eigenvalues sum to one
        # within TRACE_ATOL where eigh's do not, so without the scale limit
        # the stack would be projected where the reference rejects it.
        stack = rotated_rows_k(np.array([[-3e6, 9e5, 2.1e6 + 1.0]] * 16), seed=63)
        stack[:, 2, 2] = 1.0 - stack[:, 0, 0].real - stack[:, 1, 1].real
        with pytest.raises(InvariantError):
            lapack_constrained_rows(stack)
        with pytest.raises(InvariantError):
            constrained_rows(stack)
        monkeypatch.setattr(estimators, "SPECTRAL_SCALE", np.inf)
        assert constrained_rows(stack)[2].sum() == 0


class TestThreeDirectionEstimate:
    """The three-direction scheme's read-out solves T theta = 2 nu - 1."""

    @staticmethod
    def estimate(nu, directions):
        scheme = linear_scheme("three-direction", directions=directions)
        return scheme.estimate(np.stack([nu, 1.0 - nu], axis=1))[0]

    def test_identity_directions(self):
        nu = np.array([0.8, 0.5, 0.3])
        assert np.abs(self.estimate(nu, np.eye(3)) - (2 * nu - 1)).max() < 1e-15

    def test_forward_map_round_trip(self):
        rng = np.random.default_rng(500)
        for _ in range(50):
            t = random_unit_rows(rng)
            theta = random_ball_point(rng)
            nu = 0.5 * (1.0 + t @ theta)
            assert np.abs(self.estimate(nu, t) - theta).max() < 1e-10


class TestPovmEstimates:
    """The axis and tetrahedral POVMs' read-outs, from outcome counts."""

    @staticmethod
    def estimate(name, counts):
        return linear_scheme(name).estimate([count_frequencies(counts, len(counts))])[0]

    def test_standard_estimate_formula(self):
        counts = np.array([30, 10, 20, 10, 20, 10])
        nu = counts / 100
        expect = 3 * (nu[:3] - nu[3:])
        assert np.abs(self.estimate("standard", counts) - expect).max() < 1e-15

    def test_standard_unbiased_at_expected_counts(self):
        rng = np.random.default_rng(510)
        for _ in range(25):
            theta = random_ball_point(rng)
            probs = outcome_probabilities(standard_povm(), bloch_to_matrix(theta))
            assert np.abs(self.estimate("standard", 1000 * probs) - theta).max() < 1e-12

    def test_minimal_unbiased_at_expected_counts(self):
        rng = np.random.default_rng(511)
        for _ in range(25):
            theta = random_ball_point(rng)
            probs = outcome_probabilities(minimal_povm(), bloch_to_matrix(theta))
            assert np.abs(self.estimate("minimal", 1000 * probs) - theta).max() < 1e-12

    def test_minimal_estimate_formula(self):
        counts = np.array([4, 3, 2, 1])
        expect = 3.0 * TETRAHEDRON.T @ (counts / 10)
        assert np.abs(self.estimate("minimal", counts) - expect).max() < 1e-15

    def test_estimates_give_trace_one_hermitian(self):
        rng = stream_rng(77, 0)
        counts = rng.multinomial(60, np.ones(6) / 6)
        theta = self.estimate("standard", counts)
        m = bloch_to_matrix(theta)
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-14)
        assert np.abs(matrix_to_bloch(m) - theta).max() < 1e-14
