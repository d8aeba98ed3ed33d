from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtomo.estimators import constrained_rows
from qtomo.linalg import (
    SCREEN_MARGIN,
    EigenDecompositionError,
    InvariantError,
    closed_form_eigvalsh,
    determinant,
    fidelity,
    fidelity_rows,
    hs_distance,
    psd_mask,
    psd_rows,
    psd_screen,
    require_hermitian,
    row_dots,
)
from qtomo.states import bloch_to_matrix, haar_unitary, random_density

from oracles import fidelity_eig, hermitian_eig, hs_distance_brute, random_trace_one_hermitian
from strategies import PSD_ROWS_K, edge_stacks, rotated_rows


def rng_for(label: int) -> np.random.Generator:
    return np.random.default_rng(1000 + label)


class TestRequireHermitian:
    def test_accepts_hermitian(self):
        m = np.array([[1.0, 1 - 2j], [1 + 2j, -0.5]])
        out = require_hermitian(m)
        assert np.array_equal(out, m)

    def test_rejects_rectangular(self):
        with pytest.raises(InvariantError):
            require_hermitian(np.ones((2, 3)))

    def test_rejects_dimension_one(self):
        with pytest.raises(InvariantError):
            require_hermitian(np.array([[1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvariantError):
            require_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_rather_than_symmetrizes(self):
        m = np.array([[1.0, 0.1], [0.3, 1.0]], dtype=complex)
        with pytest.raises(InvariantError):
            require_hermitian(m)

    def test_within_tolerance_passes(self):
        m = np.array([[1.0, 0.5 + 1e-13j], [0.5 - 1.2e-13j, 0.0]])
        out = require_hermitian(m)
        assert out[0, 0].imag == 0.0

    def test_diagonal_made_exactly_real(self):
        m = np.array([[1.0 + 1e-13j, 0.0], [0.0, -1.0 - 1e-13j]])
        out = require_hermitian(m)
        assert np.all(out.diagonal().imag == 0.0)


class TestHermitianEig:
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_reconstruction_and_order(self, dim):
        rng = rng_for(dim)
        h = random_trace_one_hermitian(dim, rng)
        w, u = hermitian_eig(h)
        assert np.all(np.diff(w) <= 0)
        assert np.abs((u * w) @ u.conj().T - h).max() < 1e-10
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-12

    def test_matches_characteristic_roots_2x2(self):
        # For trace-one 2x2 matrices the roots are (1 +- sqrt(1 - 4 det)) / 2.
        h = np.array([[0.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])
        w, _ = hermitian_eig(h)
        disc = np.sqrt(1.0 - 4.0 * determinant(h))
        assert w == pytest.approx([(1 + disc) / 2, (1 - disc) / 2], abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_unitary_invariance_of_eigenvalues(self, dim):
        rng = rng_for(10 + dim)
        h = random_trace_one_hermitian(dim, rng)
        u = haar_unitary(dim, rng)
        w1, _ = hermitian_eig(h)
        w2, _ = hermitian_eig(u @ h @ u.conj().T)
        assert np.abs(w1 - w2).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_error_type_is_distinct(self):
        assert issubclass(EigenDecompositionError, RuntimeError)


class TestPsdAndDeterminant:
    def test_psd_accepts_density(self):
        rho = random_density(3, rng_for(20))
        assert psd_mask(np.linalg.eigvalsh(rho))

    def test_detects_indefinite(self):
        assert not psd_mask(np.linalg.eigvalsh(np.diag([1.5, -0.5]).astype(complex)))

    def test_boundary_tolerance(self):
        assert psd_mask(np.linalg.eigvalsh(np.diag([1.0, -1e-10])))
        assert not psd_mask(np.linalg.eigvalsh(np.diag([1.0, -1e-6])))

    def test_unsorted_nan_row_is_not_psd(self):
        # LAPACK returns [0.25, nan, nan, 0.25] for this row: the NaNs sit
        # in the middle, so the first value alone would call it PSD.
        row = np.eye(4, dtype=complex) / 4
        row[2, 1] = np.nan
        eigenvalues = np.linalg.eigvalsh(row)
        assert eigenvalues[0] >= 0.0 and np.isnan(eigenvalues).any()
        assert not psd_mask(eigenvalues)
        # psd_rows does not judge such a row: it raises, as constrained_rows does.
        with pytest.raises(EigenDecompositionError, match="non-finite eigenvalue"):
            psd_rows(np.stack([row, np.eye(4) / 4]))

    def test_determinant_is_eigenvalue_product(self):
        h = random_trace_one_hermitian(4, rng_for(21))
        w, _ = hermitian_eig(h)
        assert determinant(h) == pytest.approx(float(np.prod(w)), rel=1e-10)

    def test_single_shot_pathology_value(self):
        phi = np.array([[0.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])
        assert determinant(phi) == pytest.approx(-0.5, abs=1e-15)
        assert not psd_mask(np.linalg.eigvalsh(phi))


class TestRowDots:
    @pytest.mark.parametrize("d", [3, 9])
    def test_bits_of_the_one_row_dot(self, d):
        rng = rng_for(22 + d)
        rows = rng.standard_normal((500, d)) * rng.choice([1e-150, 1e-8, 1.0, 1e8], (500, 1))
        got = row_dots(rows)
        assert got.tobytes() == np.array([np.dot(r, r) for r in rows]).tobytes()
        norms = np.array([np.linalg.norm(r) for r in rows])
        assert np.sqrt(got).tobytes() == norms.tobytes()

    def test_empty_stack(self):
        assert row_dots(np.empty((0, 3))).shape == (0,)


class TestHsDistance:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_matches_brute_force(self, dim):
        rng = rng_for(30 + dim)
        for _ in range(20):
            a = random_trace_one_hermitian(dim, rng)
            b = random_trace_one_hermitian(dim, rng)
            assert hs_distance(a, b) == pytest.approx(hs_distance_brute(a, b), abs=1e-12)

    def test_zero_on_equal(self):
        rho = random_density(3, rng_for(31))
        assert hs_distance(rho, rho) == 0.0

    def test_known_value_pure_vs_mixed(self):
        pure = bloch_to_matrix([1.0, 0.0, 0.0])
        assert hs_distance(pure, np.eye(2) / 2) == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InvariantError):
            hs_distance(np.eye(2), np.eye(3))

    def test_triangle_inequality(self):
        rng = rng_for(32)
        a, b, c = (random_trace_one_hermitian(3, rng) for _ in range(3))
        assert hs_distance(a, c) <= hs_distance(a, b) + hs_distance(b, c) + 1e-12


class TestFidelity:
    def test_equal_states_give_one(self):
        rho = random_density(3, rng_for(40))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_range_and_symmetry(self, dim):
        rng = rng_for(41 + dim)
        pairs = [(random_density(dim, rng), random_density(dim, rng)) for _ in range(10)]
        stack = np.array([b for _, b in pairs])
        for i, (a, b) in enumerate(pairs):
            f = fidelity(a, b)
            assert 0.0 <= f <= 1.0
            assert f == pytest.approx(fidelity(b, a), abs=1e-10)
            assert fidelity_rows(stack, a)[i] == pytest.approx(f, abs=1e-12)

    def test_qubit_closed_form_matches_eigen_route(self):
        rng = rng_for(50)
        for _ in range(50):
            a = random_density(2, rng)
            b = random_density(2, rng)
            assert fidelity(a, b) == pytest.approx(fidelity_eig(a, b), abs=1e-9)

    def test_matches_eigen_route_dim3(self):
        rng = rng_for(51)
        for _ in range(20):
            a = random_density(3, rng)
            b = random_density(3, rng)
            assert fidelity(a, b) == pytest.approx(fidelity_eig(a, b), abs=1e-9)

    def test_commuting_diagonal_case(self):
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.5, 0.25, 0.25])
        expect = float(np.sum(np.sqrt(p * q)) ** 2)
        assert fidelity(np.diag(p), np.diag(q)) == pytest.approx(expect, abs=1e-12)

    def test_known_value_pure_vs_mixed(self):
        pure = bloch_to_matrix([1.0, 0.0, 0.0])
        assert fidelity(pure, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_pure_states(self):
        up = bloch_to_matrix([0.0, 0.0, 1.0])
        down = bloch_to_matrix([0.0, 0.0, -1.0])
        assert fidelity(up, down) == pytest.approx(0.0, abs=1e-12)

    def test_indefinite_qubit_input_can_exceed_one(self):
        stretched = bloch_to_matrix([1.2, 0.0, 0.0])
        pure = bloch_to_matrix([1.0, 0.0, 0.0])
        assert fidelity(stretched, pure) == pytest.approx(1.1, abs=1e-12)

    def test_indefinite_rejected_beyond_qubits(self):
        bad = np.diag([0.8, 0.5, -0.3])
        with pytest.raises(InvariantError):
            fidelity(bad, np.eye(3) / 3)

    def test_trace_checked(self):
        with pytest.raises(InvariantError):
            fidelity(np.eye(2), np.eye(2) / 2)

    def test_dimension_mismatch(self):
        with pytest.raises(InvariantError):
            fidelity(np.eye(2) / 2, np.eye(3) / 3)


SCREEN = settings(max_examples=300, deadline=None, database=None, derandomize=True)
# Trace-one spectra with double and triple eigenvalues, where the arccos of
# the closed form is least accurate.
DEGENERATE = [(0.0, 0.0, 1.0), (-0.2, 0.6, 0.6), (1 / 3, 1 / 3, 1 / 3), (-1e-9, 0.5, 0.5 + 1e-9)]


def rotated(spectrum, seed):
    u = haar_unitary(len(spectrum), np.random.default_rng(seed))
    return (u * np.asarray(spectrum, dtype=float)) @ u.conj().T


@st.composite
def trace_one_hermitians(draw):
    """A 3x3 trace-one Hermitian: a Haar-rotated degenerate spectrum, a
    rotated double root (t, t, 1 - 2t), a diagonal with zero off-diagonals,
    or arbitrary entries in [-1, 1]."""
    kind = draw(st.sampled_from(["degenerate", "double", "diagonal", "entries"]))
    seed = draw(st.integers(0, 2**32 - 1))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    if kind == "degenerate":
        return rotated(draw(st.sampled_from(DEGENERATE)), seed)
    if kind == "double":
        t = draw(unit)
        return rotated((t, t, 1.0 - 2.0 * t), seed)
    if kind == "diagonal":
        head = draw(st.lists(unit, min_size=2, max_size=2))
        return np.diag(head + [1.0 - sum(head)]).astype(complex)
    parts = np.array(draw(st.lists(unit, min_size=18, max_size=18)))
    a = (parts[:9] + 1j * parts[9:]).reshape(3, 3)
    h = 0.5 * (a + a.conj().T)
    return h + np.eye(3) * (1.0 - np.trace(h).real) / 3


@st.composite
def large_trace_one_hermitians(draw):
    """A Haar-rotated trace-one spectrum with a negative eigenvalue -x, x from
    1e-10 to 1e6: (-x, -x, 1 + 2x) or (-x, 0.5, 0.5 + x)."""
    x = 10.0 ** draw(st.floats(-10.0, 6.0))
    spectra = [(-x, -x, 1.0 + 2.0 * x), (-x, 0.5, 0.5 + x)]
    return rotated(draw(st.sampled_from(spectra)), draw(st.integers(0, 2**32 - 1)))


class TestClosedFormEigvalsh:
    @SCREEN
    @given(trace_one_hermitians())
    def test_matches_lapack(self, h):
        values = closed_form_eigvalsh(h[None])
        assert np.abs(values - np.linalg.eigvalsh(h[None])).max() <= 1e-7

    @SCREEN
    @given(large_trace_one_hermitians())
    def test_screen_passes_no_indefinite_row(self, h):
        # Any trace-one row near the PSD edge has a norm of about 1, so the
        # closed form's error stays far below SCREEN_MARGIN; a large norm
        # comes with a large negative eigenvalue.
        psd, _ = psd_screen(h[None])
        if not psd_mask(np.linalg.eigvalsh(h[None]))[0]:
            assert not psd[0]

    def test_ascending_rows_of_a_stack(self):
        rng = rng_for(33)
        stack = np.stack([random_trace_one_hermitian(3, rng) for _ in range(64)])
        values = closed_form_eigvalsh(stack)
        assert values.shape == (64, 3)
        assert np.all(np.diff(values, axis=1) >= 0.0)
        assert np.abs(values - np.linalg.eigvalsh(stack)).max() < 1e-12

    def test_triple_root_is_exact(self):
        assert np.array_equal(closed_form_eigvalsh((np.eye(3) / 4)[None]), [[0.25] * 3])

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 4), (2, 3), (3,)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(InvariantError):
            closed_form_eigvalsh(np.zeros((1,) + shape))

    def test_screen_sends_nan_rows_to_lapack(self):
        stack = np.stack([np.eye(3) / 3] * 3).astype(complex)
        stack[1, 2, 0] = np.nan
        psd, near = psd_screen(stack)
        assert psd.tolist() == [True, False, True]
        assert near.tolist() == [1]


class TestPsdScreen:
    @pytest.mark.parametrize("k", PSD_ROWS_K)
    def test_one_contract_at_every_k(self, k):
        # A row far on each side of the edge is decided without LAPACK; a row
        # on the edge and a row with a NaN entry are left to it.
        lows = np.array([1.0 / k, 0.0, -0.1, 1.0 / k])
        spectra = np.c_[lows, np.outer(1.0 - lows, np.ones(k - 1)) / max(k - 1, 1)]
        stack = rotated_rows(spectra, 50 + k)
        stack[3, k - 1, 0] = np.nan
        before = stack.copy()
        psd, near = psd_screen(stack)
        assert psd.dtype == bool and psd.tolist() == [True, False, False, False]
        assert near.tolist() == [1, 3]
        assert stack.tobytes() == before.tobytes()


class CountedEigvalsh:
    """Wraps ``np.linalg.eigvalsh``, keeping every stack it was handed."""

    def __init__(self):
        self.stacks = []
        self.original = np.linalg.eigvalsh

    def __call__(self, a, *args, **kwargs):
        self.stacks.append(np.array(a))
        return self.original(a, *args, **kwargs)

    def __enter__(self):
        self.patch = mock.patch.object(np.linalg, "eigvalsh", self)
        self.patch.__enter__()
        return self

    def __exit__(self, *exc):
        return self.patch.__exit__(*exc)


class TestPsdRows:
    @SCREEN
    @given(edge_stacks())
    def test_agrees_with_lapack_and_leaves_the_band_to_it(self, case):
        stack, low = case
        before = stack.copy()
        with np.errstate(all="raise"), CountedEigvalsh() as counted:
            psd = psd_rows(stack)
        assert np.array_equal(stack, before)
        assert psd.dtype == bool
        assert np.array_equal(psd, psd_mask(np.linalg.eigvalsh(stack)))
        # Every row inside the margin reaches LAPACK; the screen's rounding
        # is about 1e-13, far below the 1e-9 slack used here.
        (solved,) = counted.stacks
        for row in stack[np.abs(low) < SCREEN_MARGIN - 1e-9]:
            assert any(np.array_equal(row, s) for s in solved)
        assert np.array_equal(solved, stack[psd_screen(stack)[1]])

    @SCREEN
    @given(edge_stacks(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    def test_non_finite_rows_reach_lapack(self, case, bad, data):
        stack, _ = case
        m, k, _ = stack.shape
        row = data.draw(st.integers(0, m - 1))
        i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
        stack[row, i, j] = bad
        before = stack.copy()
        try:
            w = np.linalg.eigvalsh(stack)
        except np.linalg.LinAlgError:
            w = np.full(k, np.nan)
        # Where LAPACK does not converge or returns a non-finite eigenvalue,
        # psd_rows raises EigenDecompositionError, as constrained_rows does;
        # an entry above the diagonal is not read, and the row is judged.
        with CountedEigvalsh() as counted:
            if not np.isfinite(w).all():
                with pytest.raises(EigenDecompositionError):
                    psd_rows(stack)
            else:
                assert np.array_equal(psd_rows(stack), psd_mask(w))
        assert stack.tobytes() == before.tobytes()
        (solved,) = counted.stacks
        assert (~np.isfinite(solved)).sum() == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_nan_row_raises_as_constrained_rows_does(self, k):
        # eigvalsh and eigh return NaN eigenvalues for an all-NaN row at k = 1
        # and 2 and do not converge on it at k = 3 and 4; both eigen paths
        # raise the same error either way.
        phi = np.stack([np.eye(k, dtype=complex) / k] * 2)
        phi[1] = np.nan
        for solve in (psd_rows, constrained_rows):
            with pytest.raises(EigenDecompositionError, match="did not converge"):
                solve(phi)

    @pytest.mark.parametrize("k", PSD_ROWS_K)
    def test_empty_stack(self, k):
        psd = psd_rows(np.empty((0, k, k), dtype=complex))
        assert psd.shape == (0,) and psd.dtype == bool

    def test_sweep_keeps_far_rows_from_lapack(self):
        # Random ten-level trace-one rows, PSD and not, none near the edge.
        rng = rng_for(40)
        spectra = rng.dirichlet(np.ones(10), size=64)
        spectra[::2, 0] = -0.05
        spectra[::2, 1:] *= 1.05 / spectra[::2, 1:].sum(axis=1, keepdims=True)
        stack = rotated_rows(spectra, 41)
        with CountedEigvalsh() as counted:
            psd = psd_rows(stack)
        assert psd.tolist() == [False, True] * 32
        assert [len(s) for s in counted.stacks] == [0]

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (4,)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(InvariantError):
            psd_rows(np.zeros(shape))
