import numpy as np
import pytest

from qtomo.linalg import InvariantError, psd_mask
from qtomo.states import (
    PAULI,
    SIGMA_0,
    bloch_to_matrix,
    bloch_vector,
    haar_unitary,
    in_bloch_ball,
    random_density,
    require_density,
    require_trace_one,
)

from oracles import matrix_to_bloch, random_ball_point


def test_pauli_algebra():
    for a in range(3):
        assert np.array_equal(PAULI[a], PAULI[a].conj().T)
        assert np.abs(PAULI[a] @ PAULI[a] - SIGMA_0).max() == 0.0
        for b in range(3):
            trace = np.trace(PAULI[a] @ PAULI[b])
            assert trace == pytest.approx(2.0 if a == b else 0.0, abs=1e-15)


def test_pauli_cyclic_products():
    assert np.abs(PAULI[0] @ PAULI[1] - 1j * PAULI[2]).max() == 0.0
    assert np.abs(PAULI[1] @ PAULI[2] - 1j * PAULI[0]).max() == 0.0
    assert np.abs(PAULI[2] @ PAULI[0] - 1j * PAULI[1]).max() == 0.0


class TestBlochMaps:
    def test_maximally_mixed(self):
        assert np.array_equal(bloch_to_matrix([0.0, 0.0, 0.0]), SIGMA_0 / 2)

    def test_explicit_pure_state(self):
        m = bloch_to_matrix([1.0, 0.0, 0.0])
        assert np.abs(m - 0.5 * np.array([[1, 1], [1, 1]])).max() == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            theta = random_ball_point(rng)
            back = matrix_to_bloch(bloch_to_matrix(theta))
            assert np.abs(back - theta).max() < 1e-14

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rho = random_density(2, rng)
            again = bloch_to_matrix(matrix_to_bloch(rho))
            assert np.abs(again - rho).max() < 1e-14

    def test_density_iff_inside_ball(self):
        assert psd_mask(np.linalg.eigvalsh(bloch_to_matrix([0.6, 0.0, 0.8])))
        assert not psd_mask(np.linalg.eigvalsh(bloch_to_matrix([0.8, 0.0, 0.8])))

    def test_trace_one_for_any_vector(self):
        m = bloch_to_matrix([2.0, -1.0, 5.0])
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-15)

    def test_shape_validation(self):
        with pytest.raises(InvariantError):
            bloch_to_matrix([1.0, 0.0])

    def test_is_bloch_state(self):
        # One vector: checked by ``bloch_vector``, judged by ``in_bloch_ball``.
        def is_state(theta):
            return bool(in_bloch_ball(bloch_vector(theta)[None])[0])

        assert is_state([0.3, 0.4, 0.5])
        assert is_state([1.0, 0.0, 0.0])
        assert not is_state([1.0, 0.1, 0.0])
        with pytest.raises(InvariantError, match="Bloch vector must have shape"):
            is_state([[0.3, 0.4, 0.5]])

    def test_bloch_vector(self):
        t = bloch_vector([1, 2, 3])
        assert t.dtype == float and np.array_equal(t, [1.0, 2.0, 3.0])
        for theta, message in (([0.1, 0.2], "shape"), ([0.1, np.inf, 0.0], "finite")):
            with pytest.raises(InvariantError, match=message):
                bloch_vector(theta)

    def test_in_bloch_ball_rows(self):
        thetas = [[0.3, 0.4, 0.5], [1.0, 0.0, 0.0], [1.0, 0.1, 0.0], [1.0 + 1e-10, 0.0, 0.0]]
        assert in_bloch_ball(thetas).tolist() == [True, True, False, True]
        assert in_bloch_ball([[1 + 1.5e-9, 0, 0], [1 + 2.5e-9, 0, 0]]).tolist() == [True, False]
        assert in_bloch_ball(np.empty((0, 3))).shape == (0,)
        with pytest.raises(InvariantError, match=r"stacked as \(m, 3\)"):
            in_bloch_ball([0.3, 0.4, 0.5])


class TestValidators:
    def test_require_trace_one(self):
        require_trace_one(np.diag([0.5, 0.7, -0.2]))
        with pytest.raises(InvariantError):
            require_trace_one(np.diag([0.5, 0.7]))

    def test_require_density_accepts(self):
        require_density(np.diag([0.25, 0.75]))

    def test_require_density_rejects_indefinite(self):
        with pytest.raises(InvariantError):
            require_density(np.diag([1.2, -0.2]))

    def test_require_density_rejects_non_hermitian(self):
        with pytest.raises(InvariantError):
            require_density(np.array([[0.5, 0.4], [0.1, 0.5]]))


class TestHaarUnitary:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_unitarity(self, dim):
        u = haar_unitary(dim, np.random.default_rng(11))
        assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-12

    def test_deterministic_per_seed(self):
        a = haar_unitary(3, np.random.default_rng(12))
        b = haar_unitary(3, np.random.default_rng(12))
        assert np.array_equal(a, b)

    def test_phase_convention_fixed(self):
        # With the R-diagonal phases divided out, the first column of the
        # product U R~ has positive diagonal R; a crude invariance check is
        # that two draws differ, i.e. the generator state is consumed.
        rng = np.random.default_rng(13)
        assert not np.array_equal(haar_unitary(3, rng), haar_unitary(3, rng))


class TestRandomDensity:
    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_is_density(self, dim):
        rho = random_density(dim, np.random.default_rng(dim))
        require_density(rho)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_fixed_spectrum(self):
        target = np.array([0.1186, 0.2871, 0.5943])
        rho = random_density(3, np.random.default_rng(5), target)
        got = np.sort(np.linalg.eigvalsh(rho))
        assert np.abs(got - np.sort(target)).max() < 1e-9

    def test_fixed_spectrum_validation(self):
        rng = np.random.default_rng(6)
        with pytest.raises(InvariantError):
            random_density(3, rng, [0.5, 0.5, 0.5])
        with pytest.raises(InvariantError):
            random_density(3, rng, [1.2, -0.2, 0.0])
        with pytest.raises(InvariantError):
            random_density(3, rng, [0.5, 0.5])

    def test_deterministic_per_seed(self):
        a = random_density(4, np.random.default_rng(9))
        b = random_density(4, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_dimension_validation(self):
        for dim in (1, 2.5, 2.0, True):
            with pytest.raises(InvariantError, match="dimension must be an integer of at least 2"):
                random_density(dim, np.random.default_rng(0))
            with pytest.raises(InvariantError, match="dimension must be an integer of at least 2"):
                haar_unitary(dim, np.random.default_rng(0))

    def test_uniform_spectrum_covers_simplex(self):
        # Coarse sanity: eigenvalue means over many draws approach the
        # symmetric point (1/k, ..., 1/k).
        rng = np.random.default_rng(14)
        sums = np.zeros(3)
        draws = 400
        for _ in range(draws):
            sums += np.sort(np.linalg.eigvalsh(random_density(3, rng)))
        means = sums / draws
        assert means.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.05 < means[0] < 0.2
        assert 0.45 < means[2] < 0.75
