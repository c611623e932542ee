import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    basis_state,
    commutator,
    commutator_hamiltonian,
    hermitian_propagator,
    is_hermitian,
    is_skew_hermitian,
    is_unitary,
    matrix_exponential,
    naive_generator,
    operator_norm,
    power_limit_approx,
    uniform_state,
    walsh_hadamard,
)
from groverlab.grover import SearchProblem
from groverlab.linalg import mat_mul, mat_power, spectral_norm


def random_block(gen):
    m = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
    return tuple(tuple(complex(v) for v in row) for row in m)


class TestPlaneAlgebra:
    """The pure-Python 2x2 algebra against numpy and, for the norm, mpmath."""

    def test_products_match_numpy(self, rng):
        for _ in range(20):
            a, b = random_block(rng), random_block(rng)
            np.testing.assert_allclose(mat_mul(a, b), np.asarray(a) @ np.asarray(b), rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 64, 1000])
    def test_power_matches_numpy(self, k):
        theta = 0.3
        rotation = ((math.cos(theta), -math.sin(theta)), (math.sin(theta), math.cos(theta)))
        np.testing.assert_allclose(
            mat_power(rotation, k), np.linalg.matrix_power(np.asarray(rotation), k), rtol=0.0, atol=1e-12
        )
        with pytest.raises(ValueError):
            mat_power(rotation, -1)

    def test_spectral_norm_matches_svd(self, rng):
        for _ in range(50):
            a = random_block(rng)
            assert spectral_norm(a) == pytest.approx(np.linalg.norm(np.asarray(a), 2), rel=1e-14)
        assert spectral_norm(((0.0, 0.0), (0.0, 0.0))) == 0.0
        assert spectral_norm(((3.0, 0.0), (0.0, -5.0))) == 5.0

    @pytest.mark.parametrize("exponent", range(3, 10))
    def test_spectral_norm_of_a_small_difference_matches_mpmath(self, exponent):
        # I - R(phi): two nearby unitaries, the shape of every norm_gap
        # measurement; the Gram form adds no cancellation of its own
        phi = 10.0**-exponent
        c, s = math.cos(phi), math.sin(phi)
        difference = ((1.0 - c, s), (-s, 1.0 - c))
        with mpmath.workdps(60):
            exact = max(mpmath.svd_r(mpmath.matrix(difference), compute_uv=False))
            assert abs(spectral_norm(difference) - exact) <= 2e-16 * exact


class TestUniformState:
    def test_one_qubit(self):
        np.testing.assert_allclose(uniform_state(1), [0.70710678, 0.70710678], atol=1e-8)

    def test_two_qubits(self):
        np.testing.assert_allclose(uniform_state(2), [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_overlap_with_any_basis_state(self, n):
        psi = uniform_state(n)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        for w in (0, 2**n - 1):
            assert basis_state(2**n, w).conj() @ psi == pytest.approx(2 ** (-n / 2), abs=1e-14)

    @pytest.mark.parametrize("n", [0, -1, 21])
    def test_rejects_bad_qubit_count(self, n):
        with pytest.raises(ValueError):
            uniform_state(n)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert operator_norm(np.diag([1.0, 2.0])) == pytest.approx(2.0, abs=1e-12)

    def test_commutator_hamiltonian_norm(self):
        # independent oracle: largest |eigenvalue| of the hermitian matrix
        sigma = walsh_hadamard(2)[:, 0]  # x = 0.5
        h = commutator_hamiltonian(sigma, 3, energy=1.0)
        oracle = max(abs(np.linalg.eigvalsh(h)))
        assert operator_norm(h) == pytest.approx(oracle, rel=1e-12)
        # equals E*sin(2*theta) = 2x*sqrt(1-x^2), not half of it
        assert operator_norm(h) == pytest.approx(math.sin(2 * math.acos(0.5)), abs=1e-12)
        assert operator_norm(h) == pytest.approx(0.8660254037844386, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            operator_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            operator_norm(np.ones((2, 3)))

    def test_submultiplicative(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 24))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-9


class TestMatrixExponential:
    def test_zero_matrix(self):
        np.testing.assert_allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal_phases(self):
        result = matrix_exponential(np.diag([1j * np.pi, 0.0]))
        np.testing.assert_allclose(result, np.diag([-1.0, 1.0]), atol=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.ones((2, 3)))

    def test_series_and_eigen_paths_agree_on_stepper_generator(self):
        a = naive_generator(SearchProblem(n=2, w=2))
        series = matrix_exponential(a)
        # e^A = e^{-i (iA)} with iA hermitian
        eigen = hermitian_propagator(1j * a, 1.0)
        assert operator_norm(series - eigen) < 1e-12

    def test_against_scipy_oracle(self, rng):
        for dim in (3, 8, 17):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            assert operator_norm(matrix_exponential(a) - scipy.linalg.expm(a)) < 1e-11

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_skew_hermitian_exponential_is_unitary(self, seed):
        gen = np.random.default_rng(seed)
        dim = int(gen.integers(2, 16))
        m = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        a = m - m.conj().T
        assert is_skew_hermitian(a)
        assert is_unitary(matrix_exponential(a), atol=1e-10)


class TestHermitianPropagator:
    def test_requires_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_propagator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_matches_series_path(self, rng):
        for dim in (4, 16, 64):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (m + m.conj().T) / 2
            t = 0.7
            series = matrix_exponential(-1j * t * h)
            eigen = hermitian_propagator(h, t)
            assert operator_norm(series - eigen) < 1e-11
            assert is_unitary(eigen, atol=1e-10)


class TestPowerLimit:
    def test_zero_generator(self):
        np.testing.assert_allclose(power_limit_approx(np.zeros((3, 3)), 5), np.eye(3), atol=1e-15)

    def test_single_factor(self):
        a = np.diag([0.25, -0.5])
        np.testing.assert_allclose(power_limit_approx(a, 1), np.eye(2) + a, atol=1e-15)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            power_limit_approx(np.eye(2), 0)

    def test_error_halves_as_k_doubles(self):
        a = 0.5 * naive_generator(SearchProblem(n=2, w=2))
        exact = matrix_exponential(a)
        distances = [
            operator_norm(power_limit_approx(a, k) - exact) for k in (1, 2, 4, 8, 16, 32, 64, 128, 256)
        ]
        assert all(d1 > d2 for d1, d2 in zip(distances, distances[1:]))
        ratios = [d1 / d2 for d1, d2 in zip(distances, distances[1:])]
        # O(1/k) error: each doubling of k roughly halves the distance
        assert all(1.6 < r < 2.4 for r in ratios)


class TestPredicates:
    def test_hermitian(self):
        assert is_hermitian(np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]]))
        assert not is_hermitian(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_skew_hermitian(self):
        assert is_skew_hermitian(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert not is_skew_hermitian(np.eye(2))

    def test_unitary(self):
        assert is_unitary(np.diag([1j, -1.0]))
        assert not is_unitary(np.diag([2.0, 1.0]))

    def test_commutator_of_commuting_matrices_vanishes(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 4.0])
        np.testing.assert_allclose(commutator(a, b), np.zeros((2, 2)), atol=1e-15)
