"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criteria 3 and 5 assert reference constants that the measured
dynamics refute (the norm-gap constant measures 4/3 rather than the asserted
2/3, and the rounded-time arrival miss scales as N^{-1/2} so its
N-normalisation is not flat); both are kept exactly as stated and fail
honestly.  The surrounding assertions pin down what the measurements actually
do, so the failures are sharp rather than silent.
"""

import math
import time

import numpy as np
import pytest

from dense_oracle import (
    augmented_hamiltonian,
    basis_state,
    commutator_hamiltonian,
    fg_hamiltonian,
    grover_iterate,
    h_evolution_closed_form,
    is_unitary,
    lift,
    make_driver,
    matrix_exponential,
    naive_generator,
    operator_norm,
    plane_projector_complement,
    run_grover,
    walsh_hadamard,
)
from groverlab.grover import SearchProblem, iteration_count
from groverlab.hamiltonians import (
    fg_evolution_closed_form,
    grover_time,
    naive_search,
    t0_series,
)
from groverlab.verification import (
    norm_gap_vs_prediction,
    verify_corollary,
    verify_fg_arrival,
    verify_theorem_main,
)


def report(index: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {index:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def uniform_setup(n: int):
    problem = SearchProblem(n=n, w=2**n - 1)
    driver = make_driver(walsh_hadamard(n), problem)
    return problem, driver, driver.matrix[:, 0]


def eigh_states(h: np.ndarray, start: np.ndarray, times) -> list[np.ndarray]:
    """States e^{-iht} start for every t, from one eigendecomposition."""
    eigenvalues, vectors = np.linalg.eigh(h)
    projected = vectors.conj().T @ start
    return [vectors @ (np.exp(-1j * eigenvalues * t) * projected) for t in times]


def test_criterion_01_iterate_exactness():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 11):
        once, twice = verify_theorem_main(n)
        worst = max(worst, once.measured, twice.measured)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    report(1, ok, f"max gap {worst:.3e} over n=2..10 (tol 1e-9), runtime {elapsed:.1f}s (< 30s)")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_02_augmented_generator():
    worst = 0.0
    for n in range(2, 9):
        problem, driver, sigma = uniform_setup(n)
        iterate = grover_iterate(driver.matrix, problem)
        propagator_gap = operator_norm(
            matrix_exponential(-1j * grover_time(driver.x) * augmented_hamiltonian(sigma, problem.w))
            - iterate
        )
        worst = max(worst, propagator_gap)
    ok = worst <= 1e-9
    report(2, ok, f"max |e^(-i H~ t0) - G| = {worst:.3e} over n=2..8 (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_03_norm_gap_asymptotic():
    rows = [norm_gap_vs_prediction(n) for n in (4, 6, 8, 10)]
    agreement = all(abs(row.measured - row.predicted) <= row.tolerance for row in rows)
    ratio = rows[-1].measured / rows[-1].x ** 3
    ratio_ok = abs(ratio - 2.0 / 3.0) <= 0.02 * (2.0 / 3.0)
    ok = agreement and ratio_ok
    report(
        3,
        ok,
        "|e^(-iH) - (G+2P)| vs (2/3)x^3*sqrt(1-x^2) within 5x^5 for n=4,6,8,10: "
        f"{agreement}; measured/x^3 at n=10 is {ratio:.4f} (asserted 2/3 +/- 2%); "
        "measured constant is 4/3 (see notes)",
    )
    assert agreement, (
        "measured gaps "
        + ", ".join(f"n={r.n}: {r.measured:.6e} vs predicted {r.predicted:.6e} (tol {r.tolerance:.2e})" for r in rows)
    )
    assert ratio_ok, f"measured/x^3 at n=10 is {ratio:.6f}, not within 2% of 2/3"


def test_criterion_04_fg_arrival():
    worst_fidelity_gap = 0.0
    worst_state_gap = 0.0
    for n in range(2, 11):
        for energy in (0.5, 1.0, 2.0):
            fidelity, state = verify_fg_arrival(n, energy)
            worst_fidelity_gap = max(worst_fidelity_gap, abs(fidelity.measured - 1.0))
            worst_state_gap = max(worst_state_gap, state.measured)
    ok = worst_fidelity_gap <= 1e-9 and worst_state_gap <= 1e-9
    report(
        4,
        ok,
        f"arrival fidelity gap {worst_fidelity_gap:.3e}, state gap {worst_state_gap:.3e} "
        "over n=2..10, E in {0.5, 1, 2} (tol 1e-9)",
    )
    assert worst_fidelity_gap <= 1e-9
    assert worst_state_gap <= 1e-9


def test_criterion_05_corollary_scaling():
    rows = [verify_corollary(n) for n in range(4, 13)]
    measured = [row.measured for row in rows]
    scaled = [row.measured * row.dim for row in rows]
    fitted = math.exp(sum(math.log(value) for value in scaled) / len(scaled))
    factor_ok = all(max(value / fitted, fitted / value) <= 3.0 for value in scaled)
    monotone_ok = all(a > b for a, b in zip(measured, measured[1:]))
    ok = factor_ok and monotone_ok
    report(
        5,
        ok,
        f"miss*N over n=4..12 spans [{min(scaled):.2f}, {max(scaled):.2f}] "
        f"(fitted constant {fitted:.2f}, factor-3 band: {factor_ok}); "
        f"monotone decreasing miss: {monotone_ok}; miss scales as N^-1/2 (see notes)",
    )
    assert monotone_ok
    assert factor_ok, (
        "miss*N values "
        + ", ".join(f"n={row.n}: {row.measured * row.dim:.2f}" for row in rows)
        + f" do not stay within a factor of 3 of any single constant (spread {max(scaled) / min(scaled):.1f}x)"
    )


def test_criterion_06_closed_form_vs_dense():
    worst = 0.0
    for n in range(2, 11):
        problem, driver, sigma = uniform_setup(n)
        x, w = driver.x, problem.w
        wv = basis_state(problem.dim, w)
        theta = driver.theta
        eta = math.sin(2.0 * theta)
        h_commutator = commutator_hamiltonian(sigma, w)

        fg_times = np.linspace(0.0, 2.5 * math.pi / (2.0 * x), 20)
        for t, dense in zip(fg_times, eigh_states(fg_hamiltonian(sigma, w), sigma, fg_times)):
            coords = fg_evolution_closed_form(x, 1.0, float(t))
            worst = max(worst, float(np.linalg.norm(lift(coords, sigma, w) - dense)))

        h_times = np.linspace(0.0, 2.5 * theta / eta, 20)
        dense_sigma = eigh_states(h_commutator, sigma, h_times)
        dense_target = eigh_states(h_commutator, wv, h_times)
        for i, t in enumerate(h_times):
            propagator = np.asarray(h_evolution_closed_form(x, 1.0, float(t)))
            lifted_sigma = propagator[0, 0] * sigma + propagator[1, 0] * wv
            lifted_target = propagator[0, 1] * sigma + propagator[1, 1] * wv
            worst = max(worst, float(np.linalg.norm(lifted_sigma - dense_sigma[i])))
            worst = max(worst, float(np.linalg.norm(lifted_target - dense_target[i])))
    ok = worst <= 1e-10
    report(6, ok, f"closed-form vs dense propagator: max state distance {worst:.3e} "
                  "on 20-point grids, n=2..10 (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_07_digital_search():
    problem2, driver2, _ = uniform_setup(2)
    assert iteration_count(driver2.x).optimal == 1
    _, prob2 = run_grover(problem2, driver2, 1)

    problem4, driver4, _ = uniform_setup(4)
    assert iteration_count(driver4.x).optimal == 3
    _, prob4 = run_grover(problem4, driver4, 3)
    oracle4 = math.sin(7 * math.asin(0.25)) ** 2

    ok = abs(prob2 - 1.0) <= 1e-12 and abs(prob4 - oracle4) <= 1e-6 and abs(oracle4 - 0.9613) < 5e-4
    report(7, ok, f"n=2 k=1 success {prob2:.15f}; n=4 k=3 success {prob4:.10f} "
                  f"vs closed form {oracle4:.10f}")
    assert abs(prob2 - 1.0) <= 1e-12
    assert abs(prob4 - oracle4) <= 1e-6
    assert abs(oracle4 - 0.9613) < 5e-4


def test_criterion_08_stepper_consistency():
    worst = 0.0
    for n in range(2, 7):
        problem, driver, _ = uniform_setup(n)
        x = driver.x
        eps = 4.0 * grover_time(x) * x / math.sqrt(problem.dim)
        generator = naive_generator(problem)
        iterate = grover_iterate(driver.matrix, problem)
        worst = max(worst, operator_norm(matrix_exponential(eps * generator) - iterate @ iterate))

    result = naive_search(SearchProblem(n=2, w=1), eps=0.01, max_steps=91)
    ok = worst <= 1e-9 and result.peak_amplitude >= 0.999
    report(8, ok, f"max |e^(eps A) - G^2| = {worst:.3e} over n=2..6 (tol 1e-9); "
                  f"n=2 eps=0.01 peak amplitude {result.peak_amplitude:.6f} at step {result.peak_step}")
    assert worst <= 1e-9
    assert result.peak_amplitude >= 0.999


def test_criterion_09_t0_series():
    xs = (0.2, 0.1, 0.05, 0.025)
    diffs = [abs(grover_time(x) - t0_series(x)) for x in xs]
    ratios = [a / b for a, b in zip(diffs, diffs[1:])]
    ok = all(14.0 < r < 18.0 for r in ratios)
    report(9, ok, "series remainder ratios per halving of x: "
                  + ", ".join(f"{r:.2f}" for r in ratios) + " (~16 expected)")
    assert ok, f"ratios {ratios}"


def test_criterion_10_property_battery():
    failures = []

    for n in (2, 3, 4):
        problem, driver, sigma = uniform_setup(n)
        x, w = driver.x, problem.w
        iterate = grover_iterate(driver.matrix, problem)
        t0 = grover_time(x)
        eps = 4.0 * t0 * x / math.sqrt(problem.dim)
        h = commutator_hamiltonian(sigma, w)
        unitaries = {
            "walsh_hadamard": walsh_hadamard(n),
            "driver": driver.matrix,
            "iterate": iterate,
            "commutator_propagator": matrix_exponential(-1j * t0 * h),
            "augmented_propagator": matrix_exponential(-1j * t0 * augmented_hamiltonian(sigma, w)),
            "fg_propagator": matrix_exponential(
                -1j * (math.pi / (2.0 * x)) * fg_hamiltonian(sigma, w)
            ),
            "stepper_exponential": matrix_exponential(eps * naive_generator(problem)),
        }
        for name, matrix in unitaries.items():
            if not is_unitary(matrix, atol=1e-10):
                failures.append(f"{name} not unitary at n={n}")

        if np.max(np.abs(h - h.conj().T)) > 1e-13:
            failures.append(f"commutator generator not hermitian at n={n}")
        if abs(np.trace(h)) > 1e-13:
            failures.append(f"commutator generator not traceless at n={n}")

        a = naive_generator(problem)
        if not (np.array_equal(a.T, -a) and np.all(a.imag == 0.0)):
            failures.append(f"stepper generator not real skew-symmetric at n={n}")

        # evolution never leaves the plane
        grid = np.linspace(0.0, 3.0 * driver.theta / math.sin(2.0 * driver.theta), 20)
        projector = plane_projector_complement(sigma, w)
        for t, state in zip(grid, eigh_states(h, sigma, grid)):
            if np.linalg.norm(projector @ state) > 1e-10:
                failures.append(f"evolution left the plane at n={n}, t={t:.3f}")
                break

    # closed-form normalisation identities
    for x in (0.05, 0.2, 0.5, 0.9):
        theta = math.acos(x)
        eta = math.sin(2.0 * theta)
        for t in np.linspace(0.0, 12.0, 25):
            if abs(fg_evolution_closed_form(x, 1.0, float(t)).distance() - 1.0) > 1e-12:
                failures.append(f"driver-sum normalisation identity broken at x={x}")
                break
            a_angle = theta - eta * t
            b_angle = eta * t
            lhs = (
                math.sin(a_angle) ** 2
                + math.sin(b_angle) ** 2
                + 2.0 * math.sin(a_angle) * math.sin(b_angle) * math.cos(theta)
            )
            if abs(lhs - math.sin(theta) ** 2) > 1e-12:
                failures.append(f"commutator normalisation identity broken at x={x}")
                break

    # negative control: a perturbed time must break the exact match
    for n in (2, 3, 4):
        once, _ = verify_theorem_main(n, time_scale=1.1)
        if once.measured < 1e-3:
            failures.append(f"negative control too small at n={n}: {once.measured:.2e}")

    ok = not failures
    report(10, ok, "unitarity/hermiticity/skew-symmetry/normalisation/plane-invariance "
                   f"battery plus negative controls: {len(failures)} failure(s)")
    assert not failures, failures
