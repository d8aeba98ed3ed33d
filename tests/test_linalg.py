import numpy as np
import pytest

from qtomo.linalg import (
    EigenDecompositionError,
    InvariantError,
    determinant,
    fidelity,
    fidelity_rows,
    hermitian_eig,
    hs_distance,
    is_psd,
    require_hermitian,
    row_dots,
)
from qtomo.states import bloch_to_matrix, haar_unitary, random_density

from oracles import fidelity_eig, hs_distance_brute, random_trace_one_hermitian


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
        assert is_psd(rho)

    def test_detects_indefinite(self):
        assert not is_psd(np.diag([1.5, -0.5]).astype(complex))

    def test_boundary_tolerance(self):
        assert is_psd(np.diag([1.0, -1e-10]))
        assert not is_psd(np.diag([1.0, -1e-6]))

    def test_determinant_is_eigenvalue_product(self):
        h = random_trace_one_hermitian(4, rng_for(21))
        w, _ = hermitian_eig(h)
        assert determinant(h) == pytest.approx(float(np.prod(w)), rel=1e-10)

    def test_single_shot_pathology_value(self):
        phi = np.array([[0.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])
        assert determinant(phi) == pytest.approx(-0.5, abs=1e-15)
        assert not is_psd(phi)


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
