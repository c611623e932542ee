"""Cross-route tests: every command computes on the (start, target) plane with
2x2 algebra; here the same quantities are measured with dense N x N matrices
(the generator builders, the dense iterate, eigendecomposition propagators
and SVD norms), which share no code with the plane route.  The two routes
must agree to 1e-12.
"""

import json
import math

import numpy as np
import pytest

from dense_oracle import (
    augmented_hamiltonian,
    basis_state,
    commutator_hamiltonian,
    fg_hamiltonian,
    grover_iterate,
    hermitian_propagator,
    make_driver,
    naive_generator,
    naive_step,
    operator_norm,
    plane_projector_complement,
    run_grover,
    success_trajectory,
    uniform_state,
    walsh_hadamard,
)
from groverlab.cli import main
from groverlab.grover import SearchProblem, iterate_operator, iteration_count
from groverlab.hamiltonians import augmented_propagator, grover_time, naive_search
from groverlab.verification import CHECK_NAMES, run_sweep

ROUTE_TOL = 1e-12

BUILDERS = {
    "fg": fg_hamiltonian,
    "commutator": commutator_hamiltonian,
    "augmented": augmented_hamiltonian,
}


def uniform_driver(n: int, w: int):
    problem = SearchProblem(n=n, w=w)
    return problem, make_driver(walsh_hadamard(n), problem)


def run_json(capsys, *argv) -> dict:
    assert main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def assert_fields_close(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, abs=ROUTE_TOL), key
        elif isinstance(value, list):
            np.testing.assert_allclose(got[key], value, rtol=0.0, atol=ROUTE_TOL, err_msg=key)
        else:
            assert got[key] == value, key


# --- verify -------------------------------------------------------------------


def dense_verify_rows(n: int) -> dict:
    """The measured column of every verify row at register size n, by the dense route."""
    problem, driver = uniform_driver(n, 2**n - 1)
    sigma, x, w = driver.matrix[:, 0], driver.x, problem.w
    target_vector = basis_state(problem.dim, w)
    iterate = grover_iterate(driver.matrix, problem)
    iterate_plus_projector = iterate + 2.0 * plane_projector_complement(sigma, w)
    h = commutator_hamiltonian(sigma, w)
    t0 = grover_time(x)
    corollary_t = math.pi / 4.0 * math.sqrt(problem.dim)
    arrival = math.pi / (2.0 * x)
    fg_state = hermitian_propagator(fg_hamiltonian(sigma, w), arrival) @ sigma
    fg_target = -1j * np.exp(-1j * math.pi / (2.0 * x)) * target_vector
    return {
        "theorem_main_iterate": operator_norm(hermitian_propagator(h, t0) - iterate_plus_projector),
        "theorem_main_square": operator_norm(hermitian_propagator(h, 2.0 * t0) - iterate @ iterate),
        "norm_gap": operator_norm(hermitian_propagator(h, 1.0) - iterate_plus_projector),
        "corollary": np.linalg.norm(hermitian_propagator(h, corollary_t) @ sigma - target_vector),
        "fg_arrival_fidelity": abs(fg_state[w]),
        "fg_arrival_state": np.linalg.norm(fg_state - fg_target),
    }


def test_every_verify_row_matches_the_dense_route():
    rows = run_sweep(CHECK_NAMES, (2, 10)).rows
    assert len(rows) == 6 * 9
    dense = {n: dense_verify_rows(n) for n in range(2, 11)}
    for row in rows:
        assert row.x == 2.0 ** (-row.n / 2)
        assert row.measured == pytest.approx(dense[row.n][row.check_name], abs=ROUTE_TOL), (row.check_name, row.n)


# --- evolve -------------------------------------------------------------------


def dense_evolve(n: int, w: int, hamiltonian: str, t_arg: str, energy: float) -> dict:
    """The JSON fields of ``evolve``, computed from the dense propagator."""
    problem, driver = uniform_driver(n, w)
    sigma, x = driver.matrix[:, 0], driver.x
    t0 = grover_time(x) / energy
    arrival = math.pi / (2.0 * energy * x)
    t = {"t0": t0, "arrival": arrival}[t_arg] if t_arg in ("t0", "arrival") else float(t_arg)
    propagator = hermitian_propagator(BUILDERS[hamiltonian](sigma, w, energy), t)
    state = propagator @ sigma
    gram = np.array([[1.0, x], [x, 1.0]], dtype=complex)
    c_sigma, c_w = np.linalg.solve(gram, [sigma.conj() @ state, state[w]])
    out_of_plane = np.linalg.norm(state - c_sigma * sigma - c_w * basis_state(problem.dim, w))
    power = distance = None
    ratio = t / t0
    if hamiltonian != "fg" and abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 0:
        power = int(round(ratio))
        reference = grover_iterate(driver.matrix, problem)
        if hamiltonian == "commutator":
            reference = reference + 2.0 * plane_projector_complement(sigma, w)
        distance = operator_norm(propagator - np.linalg.matrix_power(reference, power))
    return {
        "n": n,
        "w": w,
        "hamiltonian": hamiltonian,
        "energy": energy,
        "x": x,
        "theta": driver.theta,
        "t0": t0,
        "arrival_time": arrival,
        "t": t,
        "fidelity": float(abs(state[w]) ** 2),
        "c_sigma": [c_sigma.real, c_sigma.imag],
        "c_w": [c_w.real, c_w.imag],
        "out_of_plane": float(out_of_plane),
        "grover_power": power,
        "grover_power_distance": distance,
    }


def evolve_times(n: int, energy: float) -> list[str]:
    """The two sentinels, numeric times off and on a multiple of t0/E, and negative times."""
    t0 = grover_time(2.0 ** (-n / 2)) / energy
    return ["t0", "arrival", "2.5", repr(3.0 * t0), "-1.7", repr(-t0)]


EVOLVE_CASES = [(1, 0), (1, 1), (2, 3), *((3, w) for w in range(8)), (4, 9), (6, 37)]


@pytest.mark.parametrize("n,w", EVOLVE_CASES)
def test_every_evolve_field_matches_the_dense_route(capsys, n, w):
    for hamiltonian in BUILDERS:
        for energy in (1.0, 2.0):
            for t_arg in evolve_times(n, energy):
                got = run_json(
                    capsys, "evolve", "--n", str(n), "--w", str(w), "--hamiltonian", hamiltonian,
                    "--t", t_arg, "--energy", repr(energy),
                )  # fmt: skip
                assert_fields_close(got, dense_evolve(n, w, hamiltonian, t_arg, energy))


@pytest.mark.parametrize("hamiltonian", sorted(BUILDERS))
def test_evolve_depends_on_energy_and_time_only_through_their_product(capsys, hamiltonian):
    for t in (0.8, 3.1, -2.2, 41.0):
        states = []
        for energy in (0.5, 1.0, 4.0):
            got = run_json(
                capsys, "evolve", "--n", "5", "--w", "6", "--hamiltonian", hamiltonian,
                "--t", repr(t / energy), "--energy", repr(energy),
            )  # fmt: skip
            states.append([got["fidelity"], *got["c_sigma"], *got["c_w"], got["out_of_plane"]])
        for state in states[1:]:
            np.testing.assert_allclose(state, states[0], rtol=0.0, atol=ROUTE_TOL)


# --- grover -------------------------------------------------------------------


GROVER_CASES = [(1, 0), (1, 1), (2, 2), *((3, w) for w in range(8)), (5, 17), (8, 200)]


@pytest.mark.parametrize("n,w", GROVER_CASES)
def test_grover_trajectory_and_top_outcomes_match_the_dense_route(capsys, n, w):
    problem, driver = uniform_driver(n, w)
    iterate = grover_iterate(driver.matrix, problem)
    optimal = iteration_count(driver.x).optimal
    for k_arg in ("optimal", "paper", str(3 * optimal + 1)):
        got = run_json(capsys, "grover", "--n", str(n), "--w", str(w), "--k", k_arg)
        state = driver.matrix[:, 0]
        trajectory = []
        for _ in range(got["k"] + 1):
            trajectory.append(abs(state[w]) ** 2)
            final, state = state, iterate @ state
        np.testing.assert_allclose(got["trajectory"], trajectory, rtol=0.0, atol=ROUTE_TOL)
        assert got["p_final"] == pytest.approx(trajectory[-1], abs=ROUTE_TOL)
        top = np.sort(np.abs(final) ** 2)[::-1][: min(4, problem.dim)]
        np.testing.assert_allclose(
            [entry["probability"] for entry in got["top_outcomes"]], top, rtol=0.0, atol=ROUTE_TOL
        )
        if trajectory[-1] > top[-1] + ROUTE_TOL:
            assert got["top_outcomes"][0]["index"] == w


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_random_drivers_walk_like_the_dense_iterate(rng, random_unitary, n):
    for _ in range(3):
        problem = SearchProblem(n=n, w=int(rng.integers(2**n)))
        driver = make_driver(random_unitary(problem.dim, rng), problem)
        iterate = grover_iterate(driver.matrix, problem)
        state = driver.matrix[:, 0]
        dense_trajectory = []
        for k in range(13):
            plane_state, plane_probability = run_grover(problem, driver, k)
            np.testing.assert_allclose(plane_state, state, rtol=0.0, atol=ROUTE_TOL)
            assert plane_probability == pytest.approx(abs(state[problem.w]) ** 2, abs=ROUTE_TOL)
            dense_trajectory.append(abs(state[problem.w]) ** 2)
            state = iterate @ state
        np.testing.assert_allclose(
            success_trajectory(problem, driver, 12), dense_trajectory, rtol=0.0, atol=ROUTE_TOL
        )


def test_one_iterate_is_exact_at_two_qubits():
    for w in range(4):
        problem, driver = uniform_driver(2, w)
        _, probability = run_grover(problem, driver, 1)
        assert probability == pytest.approx(1.0, abs=1e-15)
        assert success_trajectory(problem, driver, 1)[1] == pytest.approx(1.0, abs=1e-15)


# --- naive --------------------------------------------------------------------


@pytest.mark.parametrize("n,w", [(1, 1), (2, 0), (3, 5), (6, 40)])
def test_naive_stepper_matches_the_dense_route(n, w):
    problem = SearchProblem(n=n, w=w)
    generator = naive_generator(problem)
    state = uniform_state(n)
    dense = [abs(state[w])]
    for _ in range(80):
        state = naive_step(state, generator, 0.01)
        state = state / np.linalg.norm(state)
        dense.append(abs(state[w]))
    np.testing.assert_allclose(naive_search(problem, 0.01, 80).amplitudes, dense, rtol=0.0, atol=ROUTE_TOL)


# --- the complement term of the norm ------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_complement_enters_the_norm_only_when_it_exists(n):
    # off the iterate-matching time the augmented propagator and G differ on
    # the complement by |e^{-i pi/2} + 1| = sqrt 2, which must count at N > 2
    # and must not at N = 2, where the complement is empty
    problem, driver = uniform_driver(n, 2**n - 1)
    sigma, x = driver.matrix[:, 0], driver.x
    t = 0.5 * grover_time(x)
    plane = (augmented_propagator(x, 1.0, t, problem.dim) - iterate_operator(x, problem.dim)).norm()
    dense = operator_norm(
        hermitian_propagator(augmented_hamiltonian(sigma, problem.w), t) - grover_iterate(driver.matrix, problem)
    )
    assert plane == pytest.approx(dense, abs=ROUTE_TOL)
    assert (plane >= math.sqrt(2.0) - ROUTE_TOL) == (n > 1)
