import math

import numpy as np
import pytest

from dense_oracle import (
    DriverUnitary,
    grover_iterate,
    grover_on_plane,
    is_unitary,
    make_driver,
    operator_norm,
    oracle_inverter,
    plane_projector_complement,
    run_grover,
    success_trajectory,
    uniform_state,
    walsh_hadamard,
    zero_inverter,
)
from groverlab.errors import OrthogonalStartError
from groverlab.grover import SearchProblem, iteration_count


def uniform_driver(n: int, w: int) -> tuple[SearchProblem, DriverUnitary]:
    problem = SearchProblem(n=n, w=w)
    return problem, make_driver(walsh_hadamard(n), problem)


class TestSearchProblem:
    def test_dim(self):
        assert SearchProblem(n=3, w=5).dim == 8

    @pytest.mark.parametrize("n,w", [(0, 0), (21, 0), (2, 4), (2, -1)])
    def test_rejects_bad_instances(self, n, w):
        with pytest.raises(ValueError):
            SearchProblem(n=n, w=w)


class TestInverters:
    def test_oracle_inverter_small(self):
        np.testing.assert_allclose(
            oracle_inverter(SearchProblem(n=1, w=0)), np.diag([-1.0, 1.0]), atol=1e-15
        )

    def test_oracle_inverter_is_involutive(self):
        iw = oracle_inverter(SearchProblem(n=3, w=6))
        np.testing.assert_allclose(iw @ iw, np.eye(8), atol=1e-14)

    def test_oracle_inverter_flips_marked_amplitude(self):
        iw = oracle_inverter(SearchProblem(n=2, w=3))
        np.testing.assert_allclose(iw @ uniform_state(2), [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_zero_inverter_matches_oracle_at_zero(self):
        np.testing.assert_allclose(
            zero_inverter(4), oracle_inverter(SearchProblem(n=2, w=0)), atol=1e-15
        )
        np.testing.assert_allclose(zero_inverter(2), np.diag([-1.0, 1.0]), atol=1e-15)

    def test_zero_inverter_squares_to_identity(self):
        i0 = zero_inverter(8)
        np.testing.assert_allclose(i0 @ i0, np.eye(8), atol=1e-15)

    def test_oracle_inverter_keeps_the_dense_cap(self):
        SearchProblem(n=20, w=0)  # the plane route's cap
        with pytest.raises(ValueError):
            oracle_inverter(SearchProblem(n=13, w=0))

    def test_zero_inverter_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            zero_inverter(1)


class TestWalshHadamard:
    def test_single_qubit(self):
        r = 2 ** (-0.5)
        np.testing.assert_allclose(walsh_hadamard(1), [[r, r], [r, -r]], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_self_inverse(self, n):
        w = walsh_hadamard(n)
        np.testing.assert_allclose(w @ w, np.eye(2**n), atol=1e-12)
        assert is_unitary(w)

    def test_maps_zero_to_uniform(self):
        for n in (1, 3, 5):
            np.testing.assert_allclose(
                walsh_hadamard(n) @ np.eye(2**n)[:, 0], uniform_state(n), atol=1e-13
            )

    def test_entries_follow_bit_parity(self):
        n = 3
        w = walsh_hadamard(n)
        for i in range(8):
            for j in range(8):
                expected = 2 ** (-n / 2) * (-1) ** bin(i & j).count("1")
                assert w[i, j] == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("n", [0, 13])
    def test_rejects_bad_qubit_count(self, n):
        with pytest.raises(ValueError):
            walsh_hadamard(n)


class TestMakeDriver:
    def test_uniform_driver_overlap(self):
        for n in (1, 2, 5):
            _, driver = uniform_driver(n, w=2**n - 1)
            assert driver.x == pytest.approx(2 ** (-n / 2), abs=1e-12)
            assert driver.theta == pytest.approx(math.acos(2 ** (-n / 2)), abs=1e-12)
            assert math.cos(driver.theta) == pytest.approx(driver.x, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_uniform_overlap_is_exact(self, n):
        _, driver = uniform_driver(n, w=2**n - 1)
        assert driver.x == 2 ** (-n / 2)

    def test_negative_overlap_gets_phase_flipped(self):
        problem = SearchProblem(n=2, w=1)
        driver = make_driver(-walsh_hadamard(2), problem)
        assert driver.matrix[1, 0].real == pytest.approx(0.5, abs=1e-12)
        assert driver.matrix[1, 0].imag == pytest.approx(0.0, abs=1e-12)

    def test_complex_phase_gets_removed(self):
        problem = SearchProblem(n=3, w=2)
        u = np.exp(0.71j) * walsh_hadamard(3)
        driver = make_driver(u, problem)
        overlap = driver.matrix[2, 0]
        assert overlap.imag == pytest.approx(0.0, abs=1e-12)
        assert overlap.real > 0

    def test_orthogonal_start_rejected(self):
        # identity driver leaves |0>, which never overlaps target 1
        with pytest.raises(OrthogonalStartError):
            make_driver(np.eye(4), SearchProblem(n=2, w=1))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            make_driver(np.ones((4, 4)), SearchProblem(n=2, w=1))

    def test_phase_adjustment_leaves_iterate_unchanged(self, random_unitary, rng):
        problem = SearchProblem(n=3, w=5)
        for _ in range(5):
            raw = random_unitary(8, rng)
            if abs(raw[5, 0]) < 1e-6:  # overlap too small to be a useful case
                continue
            adjusted = make_driver(raw, problem)
            gap = operator_norm(
                grover_iterate(raw, problem) - grover_iterate(adjusted.matrix, problem)
            )
            assert gap < 1e-12


class TestGroverIterate:
    def test_two_qubits_reaches_target_in_one_step(self):
        # x = 1/2 makes 1 - 4x^2 = 0, so G psi = |w> exactly
        for w in range(4):
            problem, driver = uniform_driver(2, w)
            iterate = grover_iterate(driver.matrix, problem)
            result = iterate @ uniform_state(2)
            np.testing.assert_allclose(result, np.eye(4)[:, w], atol=1e-12)

    def test_unitary(self):
        problem, driver = uniform_driver(4, 11)
        iterate = grover_iterate(driver.matrix, problem)
        assert is_unitary(iterate, atol=1e-12)

    def test_acts_as_minus_identity_off_the_plane(self, rng):
        problem, driver = uniform_driver(3, 4)
        iterate = grover_iterate(driver.matrix, problem)
        projector = plane_projector_complement(driver.matrix[:, 0], 4)
        alpha = projector @ (rng.normal(size=8) + 1j * rng.normal(size=8))
        alpha = alpha / np.linalg.norm(alpha)
        assert np.linalg.norm(iterate @ alpha + alpha) < 1e-12

    @pytest.mark.parametrize("n,w", [(2, 3), (3, 0), (4, 9)])
    def test_dyadic_expansion(self, n, w):
        problem, driver = uniform_driver(n, w)
        iterate = grover_iterate(driver.matrix, problem)
        sigma = driver.matrix[:, 0]
        wv = np.eye(2**n)[:, w].astype(complex)
        x = driver.x
        expansion = (
            -np.eye(2**n, dtype=complex)
            + 2.0 * np.outer(sigma, sigma.conj())
            + 2.0 * np.outer(wv, wv.conj())
            - 4.0 * x * np.outer(sigma, wv.conj())
        )
        assert np.max(np.abs(iterate - expansion)) < 1e-10

    def test_plane_is_invariant(self):
        problem, driver = uniform_driver(3, 6)
        iterate = grover_iterate(driver.matrix, problem)
        projector = plane_projector_complement(driver.matrix[:, 0], 6)
        sigma = driver.matrix[:, 0]
        wv = np.eye(8)[:, 6].astype(complex)
        assert np.linalg.norm(projector @ (iterate @ sigma)) < 1e-10
        assert np.linalg.norm(projector @ (iterate @ wv)) < 1e-10


class TestGroverOnPlane:
    def test_half_overlap(self):
        np.testing.assert_allclose(
            grover_on_plane(0.5), [[0.0, -1.0], [1.0, 1.0]], atol=1e-14
        )

    def test_small_overlap_approaches_identity(self):
        np.testing.assert_allclose(grover_on_plane(1e-9), np.eye(2), atol=1e-8)

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.3, 1.5])
    def test_rejects_bad_overlap(self, x):
        with pytest.raises(ValueError):
            grover_on_plane(x)

    def test_matches_dense_iterate_coordinates(self):
        # solve the 2x2 Gram system for the coordinates of G|sigma> and G|w>
        problem, driver = uniform_driver(3, 1)
        iterate = grover_iterate(driver.matrix, problem)
        sigma = driver.matrix[:, 0]
        wv = np.eye(8)[:, 1].astype(complex)
        x = driver.x
        gram = np.array([[1.0, x], [x, 1.0]], dtype=complex)
        plane = np.asarray(grover_on_plane(x))
        for column, vector in ((0, sigma), (1, wv)):
            image = iterate @ vector
            rhs = np.array([sigma.conj() @ image, wv.conj() @ image])
            coords = np.linalg.solve(gram, rhs)
            np.testing.assert_allclose(coords, plane[:, column], atol=1e-10)


class TestIterationCount:
    def test_half_overlap(self):
        counts = iteration_count(0.5)
        assert counts.paper == 2
        assert counts.optimal == 1

    def test_small_overlap(self):
        assert iteration_count(1 / 32).paper == 26

    def test_optimal_matches_brute_force(self):
        # oracle: brute-force argmax of the closed-form success probability
        for x in (0.5, 0.25, 1 / 32):
            probs = [math.sin((2 * k + 1) * math.asin(x)) ** 2 for k in range(9)]
            brute = int(np.argmax(probs))
            counts = iteration_count(x)
            if counts.optimal <= 8:
                assert counts.optimal == brute

    def test_optimal_achieves_unit_probability_at_half(self):
        problem, driver = uniform_driver(2, 3)
        _, prob = run_grover(problem, driver, iteration_count(0.5).optimal)
        assert prob == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_rejects_bad_overlap(self, x):
        with pytest.raises(ValueError):
            iteration_count(x)


class TestRunGrover:
    def test_two_qubits_single_iteration(self):
        problem, driver = uniform_driver(2, 2)
        _, prob = run_grover(problem, driver, 1)
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_four_qubits_optimal(self):
        problem, driver = uniform_driver(4, 5)
        _, prob = run_grover(problem, driver, 3)
        oracle = math.sin(7 * math.asin(0.25)) ** 2
        assert prob == pytest.approx(oracle, abs=1e-10)
        assert prob == pytest.approx(0.9613, abs=5e-4)

    def test_zero_iterations_gives_squared_overlap(self):
        problem, driver = uniform_driver(5, 17)
        _, prob = run_grover(problem, driver, 0)
        assert prob == pytest.approx(driver.x**2, abs=1e-12)

    def test_rejects_negative_count(self):
        problem, driver = uniform_driver(2, 0)
        with pytest.raises(ValueError):
            run_grover(problem, driver, -1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_trajectory_matches_amplitude_identity(self, n):
        problem, driver = uniform_driver(n, 2)
        trajectory = success_trajectory(problem, driver, 10)
        x = driver.x
        for k, prob in enumerate(trajectory):
            assert prob == pytest.approx(math.sin((2 * k + 1) * math.asin(x)) ** 2, abs=1e-10)
