import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    augmented_hamiltonian,
    basis_state,
    commutator,
    commutator_hamiltonian,
    fg_hamiltonian,
    grover_iterate,
    grover_on_plane,
    h_eigensystem,
    h_evolution_closed_form,
    hermitian_propagator,
    is_hermitian,
    lift,
    make_driver,
    matrix_exponential,
    naive_generator,
    naive_step,
    operator_norm,
    plane_projector_complement,
    uniform_state,
    walsh_hadamard,
)
from groverlab.errors import DegeneratePlaneError, OrthogonalStartError
from groverlab.grover import SearchProblem
from groverlab.hamiltonians import (
    fg_evolution_closed_form,
    grover_time,
    naive_search,
    t0_series,
)

overlaps = st.floats(min_value=0.01, max_value=0.99)
times = st.floats(min_value=0.0, max_value=40.0)


def uniform_sigma(n: int) -> np.ndarray:
    return walsh_hadamard(n)[:, 0]


class TestFgHamiltonian:
    def test_hermitian(self):
        h = fg_hamiltonian(uniform_sigma(3), 5)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_plane_eigenvalues(self):
        # rank 2: the only nonzero eigenvalues are E(1 +/- x)
        h = fg_hamiltonian(uniform_sigma(2), 3, energy=1.0)
        eigenvalues = np.sort(np.linalg.eigvalsh(h))
        np.testing.assert_allclose(eigenvalues[-2:], [0.5, 1.5], atol=1e-12)
        np.testing.assert_allclose(eigenvalues[:-2], np.zeros(2), atol=1e-12)

    def test_plane_eigenvalues_scale_with_energy(self):
        h = fg_hamiltonian(uniform_sigma(2), 1, energy=2.0)
        eigenvalues = np.sort(np.linalg.eigvalsh(h))
        np.testing.assert_allclose(eigenvalues[-2:], [1.0, 3.0], atol=1e-12)

    def test_sum_eigenvector(self):
        sigma = uniform_sigma(3)
        x = 2 ** (-1.5)
        h = fg_hamiltonian(sigma, 6)
        vector = (sigma + basis_state(8, 6)) / math.sqrt(2 + 2 * x)
        assert np.linalg.norm(h @ vector - (1 + x) * vector) < 1e-10

    def test_phase_invariance(self):
        sigma = np.exp(1.3j) * uniform_sigma(2)
        np.testing.assert_allclose(
            fg_hamiltonian(sigma, 2), fg_hamiltonian(uniform_sigma(2), 2), atol=1e-13
        )

    def test_orthogonal_start_rejected(self):
        with pytest.raises(OrthogonalStartError):
            fg_hamiltonian(basis_state(4, 0), 1)


class TestFgEvolution:
    def test_no_evolution_at_zero_time(self):
        # the start x|w> + sqrt(1 - x^2)|u>, i.e. 1|s> + 0|w>
        x = 0.3
        coords = fg_evolution_closed_form(x, 1.0, 0.0)
        assert coords.along_w == pytest.approx(x, abs=1e-15)
        assert coords.along_u == pytest.approx(math.sqrt(1 - x * x), abs=1e-15)
        assert coords.start_target(x) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_arrival(self):
        x, energy = 0.25, 1.0
        t = math.pi / (2 * energy * x)
        coords = fg_evolution_closed_form(x, energy, t)
        expected = -1j * np.exp(-1j * math.pi / (2 * x))
        assert coords.along_u == pytest.approx(0.0, abs=1e-12)
        assert coords.along_w == pytest.approx(expected, abs=1e-12)
        assert coords.start_target(x) == pytest.approx((0.0, expected), abs=1e-12)

    @pytest.mark.parametrize("t", [0.37, 1.9, 7.3, -1.9, -7.3])
    def test_matches_dense_evolution(self, t):
        # the closed form holds at every real t, backwards in time too
        n, w = 3, 4
        sigma = uniform_sigma(n)
        h = fg_hamiltonian(sigma, w)
        dense = hermitian_propagator(h, t) @ sigma
        coords = fg_evolution_closed_form(2 ** (-n / 2), 1.0, t)
        assert np.linalg.norm(lift(coords, sigma, w) - dense) < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(x=overlaps, t=times)
    def test_normalization_identity(self, x, t):
        # |x cos - i sin|^2 + (1 - x^2) cos^2 = 1
        coords = fg_evolution_closed_form(x, 1.0, t)
        assert coords.distance() == pytest.approx(1.0, abs=1e-12)


class TestCommutatorHamiltonian:
    def test_hermitian_and_traceless(self):
        h = commutator_hamiltonian(uniform_sigma(3), 2)
        assert np.max(np.abs(h - h.conj().T)) < 1e-13
        assert abs(np.trace(h)) < 1e-13

    def test_equals_commutator_route(self):
        # dyadic output against (2i/E)[H_w, H_D] built from the projectors
        n, w, energy = 2, 3, 1.0
        sigma = uniform_sigma(n)
        wv = basis_state(2**n, w)
        h_target = energy * np.outer(wv, wv.conj())
        h_driver = energy * np.outer(sigma, sigma.conj())
        via_commutator = (2j / energy) * commutator(h_target, h_driver)
        assert np.max(np.abs(commutator_hamiltonian(sigma, w, energy) - via_commutator)) < 1e-13

    def test_plane_eigenvalues(self):
        # E sin(2 theta) at x = 1/2 is sin(2 pi/3) = sqrt(3)/2
        h = commutator_hamiltonian(uniform_sigma(2), 3, energy=1.0)
        eigenvalues = np.linalg.eigvalsh(h)
        assert eigenvalues[-1] == pytest.approx(0.8660254037844386, abs=1e-12)
        assert eigenvalues[0] == pytest.approx(-0.8660254037844386, abs=1e-12)
        np.testing.assert_allclose(eigenvalues[1:-1], np.zeros(2), atol=1e-13)

    def test_energy_scaling(self):
        h1 = commutator_hamiltonian(uniform_sigma(2), 1, energy=1.0)
        h2 = commutator_hamiltonian(uniform_sigma(2), 1, energy=2.0)
        np.testing.assert_allclose(h2, 2.0 * h1, atol=1e-14)

    def test_orthogonal_start_rejected(self):
        with pytest.raises(OrthogonalStartError):
            commutator_hamiltonian(basis_state(4, 0), 3)

    def test_parallel_start_rejected(self):
        with pytest.raises(DegeneratePlaneError):
            commutator_hamiltonian(basis_state(4, 3), 3)


class TestEigensystem:
    def test_eigenvalues_at_half_overlap(self):
        (plus, _), (minus, _) = h_eigensystem(0.5, 1.0)
        assert plus == pytest.approx(0.8660254037844386, abs=1e-12)
        assert minus == -plus

    @pytest.mark.parametrize("n,w", [(2, 3), (3, 1)])
    def test_eigen_equation_in_full_space(self, n, w):
        sigma = uniform_sigma(n)
        x = 2 ** (-n / 2)
        h = commutator_hamiltonian(sigma, w)
        for eigenvalue, coords in h_eigensystem(x):
            vector = lift(coords, sigma, w)
            assert np.linalg.norm(h @ vector - eigenvalue * vector) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(x=overlaps)
    def test_eigenvectors_are_unit_norm(self, x):
        for _, coords in h_eigensystem(x):
            assert coords.distance() == pytest.approx(1.0, abs=1e-12)


class TestCommutatorEvolution:
    def test_identity_at_zero_time(self):
        np.testing.assert_allclose(h_evolution_closed_form(0.3, 1.0, 0.0), np.eye(2), atol=1e-14)

    def test_arrival_column(self):
        x = 0.35
        theta = math.acos(x)
        eta = math.sin(2 * theta)
        propagator = np.asarray(h_evolution_closed_form(x, 1.0, theta / eta))
        np.testing.assert_allclose(propagator[:, 0], [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.25, 0.5, 0.8])
    def test_matches_iterate_at_t0(self, x):
        propagator = h_evolution_closed_form(x, 1.0, grover_time(x))
        np.testing.assert_allclose(propagator, grover_on_plane(x), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_dense_evolution(self, n):
        w = 2**n - 1
        sigma = uniform_sigma(n)
        x = 2 ** (-n / 2)
        h = commutator_hamiltonian(sigma, w)
        wv = basis_state(2**n, w)
        for t in np.linspace(0.0, 3.0, 7):
            propagator = np.asarray(h_evolution_closed_form(x, 1.0, float(t)))
            dense = hermitian_propagator(h, float(t))
            for column, start in ((0, sigma), (1, wv)):
                lifted = propagator[0, column] * sigma + propagator[1, column] * wv
                assert np.linalg.norm(lifted - dense @ start) < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(x=overlaps, t=times)
    def test_normalization_identity(self, x, t):
        # sin^2(a) + sin^2(b) + 2 sin(a) sin(b) cos(a+b) = sin^2(a+b)
        theta = math.acos(x)
        eta = math.sin(2 * theta)
        a = theta - eta * t
        b = eta * t
        lhs = math.sin(a) ** 2 + math.sin(b) ** 2 + 2 * math.sin(a) * math.sin(b) * math.cos(theta)
        assert lhs == pytest.approx(math.sin(theta) ** 2, abs=1e-12)


class TestArrivalTimes:
    def test_both_routes_arrive_on_the_sqrt_dim_scale(self):
        # driver-sum arrival is pi/(2x); commutator arrival theta/eta tends to
        # pi/(4x): same sqrt(N) order, a factor 2 apart
        for n in (6, 10, 14):
            x = 2 ** (-n / 2)
            theta = math.acos(x)
            fg_arrival = math.pi / (2 * x)
            commutator_arrival = theta / math.sin(2 * theta)
            assert commutator_arrival / fg_arrival == pytest.approx(0.5, abs=2 * x)


class TestGroverTime:
    def test_half_overlap(self):
        assert grover_time(0.5) == pytest.approx(2 * math.pi / (3 * math.sqrt(3)), rel=1e-12)
        assert grover_time(0.5) == pytest.approx(1.2091995761561452, abs=1e-12)

    def test_quarter_overlap(self):
        assert grover_time(0.25) == pytest.approx(1.0438681814194255, abs=1e-12)
        assert grover_time(0.25) == pytest.approx(1.0439, abs=1e-4)

    def test_small_overlap_tends_to_one(self):
        assert grover_time(1e-7) == pytest.approx(1.0, abs=1e-10)

    def test_series_handoff_is_continuous(self):
        # no jump near x = 1e-6, where the arccos form loses half its digits
        assert grover_time(1.0000001e-6) == pytest.approx(grover_time(0.9999999e-6), abs=1e-9)

    @pytest.mark.parametrize("n", range(2, 80))
    def test_matches_mpmath(self, n):
        # every uniform overlap the plane route accepts: n = 79 is the last
        # above the overlap floor of 1e-12
        x = 2.0 ** (-n / 2)
        with mpmath.workdps(60):
            exact = mpmath.asin(x) / (x * mpmath.sqrt(1 - mpmath.mpf(x) ** 2))
            assert abs(grover_time(x) - exact) / exact <= 1e-15

    def test_rejects_degenerate_overlaps(self):
        with pytest.raises(OrthogonalStartError):
            grover_time(0.0)
        with pytest.raises(DegeneratePlaneError):
            grover_time(1.0)


class TestT0Series:
    def test_values(self):
        assert t0_series(0.0) == pytest.approx(1.0, abs=1e-15)
        assert t0_series(0.1) == pytest.approx(1.0066666666666666, abs=1e-12)

    def test_quartic_remainder(self):
        # |t0 - series| ~ (8/15) x^4: each halving of x shrinks it ~16x
        xs = [0.2, 0.1, 0.05, 0.025]
        diffs = [abs(grover_time(x) - t0_series(x)) for x in xs]
        ratios = [d1 / d2 for d1, d2 in zip(diffs, diffs[1:])]
        assert all(14.0 < r < 18.0 for r in ratios)
        constant = max(d / x**4 for d, x in zip(diffs, xs))
        assert all(d <= constant * x**4 for d, x in zip(diffs, xs))


class TestPlaneProjector:
    def test_annihilates_the_plane(self):
        sigma = uniform_sigma(3)
        projector = plane_projector_complement(sigma, 2)
        assert np.linalg.norm(projector @ sigma) < 1e-12
        assert np.linalg.norm(projector @ basis_state(8, 2)) < 1e-12

    def test_idempotent_and_hermitian(self):
        projector = plane_projector_complement(uniform_sigma(2), 1)
        assert np.max(np.abs(projector @ projector - projector)) < 1e-12
        assert is_hermitian(projector)

    def test_trace_counts_the_complement(self):
        projector = plane_projector_complement(uniform_sigma(3), 0)
        assert np.trace(projector).real == pytest.approx(6.0, abs=1e-12)

    def test_rejects_parallel_start(self):
        with pytest.raises(DegeneratePlaneError):
            plane_projector_complement(basis_state(4, 2), 2)

    @pytest.mark.parametrize("n,w", [(2, 3), (4, 7)])
    def test_iterate_annihilation_identity(self, n, w):
        # G P = P G = -P
        problem = SearchProblem(n=n, w=w)
        driver = make_driver(walsh_hadamard(n), problem)
        iterate = grover_iterate(driver.matrix, problem)
        projector = plane_projector_complement(driver.matrix[:, 0], w)
        assert np.max(np.abs(iterate @ projector + projector)) < 1e-10
        assert np.max(np.abs(projector @ iterate + projector)) < 1e-10


class TestAugmented:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_iterate_on_whole_space(self, n):
        w = 2**n - 1
        problem = SearchProblem(n=n, w=w)
        driver = make_driver(walsh_hadamard(n), problem)
        iterate = grover_iterate(driver.matrix, problem)
        for energy in (1.0, 2.0):
            h_augmented = augmented_hamiltonian(driver.matrix[:, 0], w, energy)
            t = grover_time(driver.x) / energy
            gap = operator_norm(hermitian_propagator(h_augmented, t) - iterate)
            assert gap < 1e-9, energy

    def test_plane_action_matches_plain_generator(self):
        sigma = uniform_sigma(3)
        difference = augmented_hamiltonian(sigma, 2) - commutator_hamiltonian(sigma, 2)
        wv = basis_state(8, 2)
        assert np.linalg.norm(difference @ sigma) < 1e-12
        assert np.linalg.norm(difference @ wv) < 1e-12

    def test_builders_agree_at_energy(self):
        # one (sigma, w, energy) signature: the three builders and the
        # projector fit together at a non-unit energy
        sigma, w, energy = uniform_sigma(3), 5, 1.5
        wv = basis_state(8, w)
        h_fg = fg_hamiltonian(sigma, w, energy)
        np.testing.assert_allclose(
            h_fg, energy * (np.outer(sigma, sigma.conj()) + np.outer(wv, wv.conj())), atol=1e-14
        )
        h_commutator = commutator_hamiltonian(sigma, w, energy)
        h_augmented = augmented_hamiltonian(sigma, w, energy)
        assert is_hermitian(h_commutator)
        assert is_hermitian(h_augmented)
        complement = (math.pi * energy / grover_time(2 ** (-1.5))) * plane_projector_complement(sigma, w)
        np.testing.assert_allclose(h_augmented - h_commutator, complement, atol=1e-13)


class TestNaiveGenerator:
    def test_entries(self):
        a = naive_generator(SearchProblem(n=2, w=2))
        assert a[2, 0] == 1.0
        assert a[0, 2] == -1.0
        assert a[2, 2] == 0.0
        expected = np.zeros((4, 4))
        expected[2, :] = 1.0
        expected[:, 2] = -1.0
        expected[2, 2] = 0.0
        np.testing.assert_allclose(a, expected, atol=0.0)

    def test_real_skew_symmetric_exactly(self):
        a = naive_generator(SearchProblem(n=3, w=5))
        assert np.array_equal(a.T, -a)
        assert np.all(a.imag == 0.0)

    def test_keeps_the_dense_cap(self):
        with pytest.raises(ValueError):
            naive_generator(SearchProblem(n=13, w=0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_commutator_hamiltonian_is_scaled_generator(self, n):
        # H = (2ix/sqrt(N)) A for the uniform start and unit energy
        w = 1
        sigma = uniform_sigma(n)
        x = 2 ** (-n / 2)
        h = commutator_hamiltonian(sigma, w)
        a = naive_generator(SearchProblem(n=n, w=w))
        assert np.max(np.abs(h - (2j * x / math.sqrt(2**n)) * a)) < 1e-13

    def test_dyadic_form(self):
        n, w = 3, 4
        a = naive_generator(SearchProblem(n=n, w=w))
        psi = uniform_state(n)
        wv = basis_state(8, w)
        dyadic = math.sqrt(8) * (np.outer(wv, psi.conj()) - np.outer(psi, wv.conj()))
        assert np.max(np.abs(a - dyadic)) < 1e-13


class TestNaiveStep:
    def test_zero_step_is_identity(self):
        state = uniform_state(2)
        a = naive_generator(SearchProblem(n=2, w=0))
        np.testing.assert_allclose(naive_step(state, a, 0.0), state, atol=0.0)

    def test_single_step_amplitude(self):
        # (1 - eps) / sqrt(N) + eps sqrt(N) at N=4, eps=0.1 is 0.65
        a = naive_generator(SearchProblem(n=2, w=1))
        stepped = naive_step(uniform_state(2), a, 0.1)
        assert stepped[1].real == pytest.approx(0.65, abs=1e-12)

    def test_norm_deviation_is_second_order(self):
        a = naive_generator(SearchProblem(n=2, w=1))
        state = uniform_state(2)
        deviations = [
            abs(np.linalg.norm(naive_step(state, a, eps)) - 1.0) for eps in (0.1, 0.05, 0.025)
        ]
        ratios = [d1 / d2 for d1, d2 in zip(deviations, deviations[1:])]
        assert all(3.5 < r < 4.5 for r in ratios)


class TestNaiveSearch:
    def test_four_state_peak(self):
        result = naive_search(SearchProblem(n=2, w=1), eps=0.01, max_steps=91)
        assert result.peak_amplitude >= 0.999
        assert result.peak_step == 60  # continuous-time estimate is 60.46

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_trajectory_climbs_to_first_peak(self, n):
        x = 2 ** (-n / 2)
        theta = math.acos(x)
        window = math.ceil(1.5 * theta / (0.01 * math.sqrt(2**n) * math.sin(theta)))
        result = naive_search(SearchProblem(n=n, w=1), eps=0.01, max_steps=window)
        climb = np.diff(result.amplitudes[: result.peak_step + 1])
        assert np.all(climb > 0)

    def test_exponential_step_equals_squared_iterate(self):
        # eps = 4 t0 x / sqrt(N) turns one exponential step into G^2
        for n in (2, 3, 4):
            w = 2**n - 1
            x = 2 ** (-n / 2)
            eps = 4 * grover_time(x) * x / math.sqrt(2**n)
            a = naive_generator(SearchProblem(n=n, w=w))
            problem = SearchProblem(n=n, w=w)
            driver = make_driver(walsh_hadamard(n), problem)
            iterate = grover_iterate(driver.matrix, problem)
            assert operator_norm(matrix_exponential(eps * a) - iterate @ iterate) < 1e-9

    @pytest.mark.parametrize("eps", [0.0, -0.01, 0.2])
    def test_rejects_bad_step_size(self, eps):
        with pytest.raises(ValueError):
            naive_search(SearchProblem(n=2, w=1), eps=eps, max_steps=10)
