"""Every ``verify`` row and the state fields of ``evolve`` against mpmath at 60
digits, up to the qubit cap.

The exact value is the identity evaluated at the float inputs the command
used (the overlap x and the evolution time t it reports), so the bounds
measure the rounding of the plane route alone.
"""

import json

import mpmath
import pytest

from groverlab.cli import main
from groverlab.hamiltonians import grover_time
from groverlab.linalg import MAX_QUBITS
from groverlab.verification import CHECK_NAMES, run_sweep

#: digits of the exact evaluation
DIGITS = 60
#: relative bounds of the rows that measure a small nonzero quantity
RELATIVE = {"norm_gap": 1e-10, "corollary": 1e-12}
#: absolute bound of the rows whose exact value is (near) 0, and of evolve's fields
ABSOLUTE = 1e-15


def plane_angles(x: float, energy: float = 1.0):
    """a = asin x, sqrt(1 - x^2) and the rotation rate eta = 2Ex sqrt(1 - x^2)."""
    x = mpmath.mpf(x)
    r = mpmath.sqrt(1 - x * x)
    return mpmath.asin(x), r, 2 * energy * x * r


def fg_state(x: float, t: float, energy: float = 1.0):
    """(c_sigma, c_w) of e^{-iEt} [cos(xEt)|s> - i sin(xEt)|w>]."""
    x, t = mpmath.mpf(x), mpmath.mpf(t)
    phase = mpmath.expj(-energy * t)
    return phase * mpmath.cos(x * energy * t), -1j * phase * mpmath.sin(x * energy * t)


def exact_row(row) -> mpmath.mpf:
    """The quantity a verify row measures, at the row's x and t."""
    a, r, eta = plane_angles(row.x)
    t = mpmath.mpf(row.t0)
    if row.check_name == "theorem_main_iterate":
        # rotations by eta t and by 2a; the complements agree (1 and 1)
        return abs(2 * mpmath.sin((eta * t - 2 * a) / 2))
    if row.check_name == "theorem_main_square":
        # rotations by eta t (t is already 2 t0) and by 4a; 1 and (-1)^2 agree
        return abs(2 * mpmath.sin((eta * t - 4 * a) / 2))
    if row.check_name == "norm_gap":
        return abs(2 * mpmath.sin((eta - 2 * a) / 2))
    if row.check_name == "corollary":
        # two unit vectors at the angles a + eta t and pi/2
        return abs(2 * mpmath.sin((mpmath.pi / 2 - a - eta * t) / 2))
    # fg_arrival_state: the state at t against its arrival -i e^{-it}|w>
    c_sigma, c_w = fg_state(row.x, row.t0)
    along_w, along_u = c_sigma * row.x + c_w, c_sigma * r
    arrival = -1j * mpmath.expj(-t)
    return mpmath.sqrt(abs(along_w - arrival) ** 2 + abs(along_u) ** 2)


@pytest.mark.parametrize("n", range(2, MAX_QUBITS + 1))
def test_verify_rows(n):
    rows = run_sweep(CHECK_NAMES, (n, n)).rows
    assert len(rows) == 6
    with mpmath.workdps(DIGITS):
        for row in rows:
            if row.check_name == "fg_arrival_fidelity":
                assert abs(1.0 - row.measured) <= ABSOLUTE, row.measured
                continue
            exact = exact_row(row)
            error = abs(row.measured - exact)
            if row.check_name in RELATIVE:
                assert error <= RELATIVE[row.check_name] * exact, (row.check_name, float(error / exact))
            else:
                assert error <= ABSOLUTE, (row.check_name, float(error))


def exact_evolve(hamiltonian: str, x: float, t: float):
    """(fidelity, c_sigma, c_w) of the evolved start at unit energy."""
    if hamiltonian == "fg":
        c_sigma, c_w = fg_state(x, t)
    else:
        a, r, eta = plane_angles(x)
        angle = eta * mpmath.mpf(t)
        c_sigma, c_w = mpmath.cos(a + angle) / r, mpmath.sin(angle) / r
    return abs(c_sigma * x + c_w) ** 2, mpmath.mpc(c_sigma), mpmath.mpc(c_w)


@pytest.mark.parametrize("hamiltonian", ["fg", "commutator", "augmented"])
def test_evolve_fields(capsys, hamiltonian):
    for n in range(1, MAX_QUBITS + 1):
        t0 = grover_time(2.0 ** (-n / 2))
        for t_arg in ("t0", "arrival", repr(0.37 * t0)):
            argv = ["evolve", "--n", str(n), "--hamiltonian", hamiltonian, "--t", t_arg, "--format", "json"]
            assert main(argv) == 0
            got = json.loads(capsys.readouterr().out)
            with mpmath.workdps(DIGITS):
                fidelity, c_sigma, c_w = exact_evolve(hamiltonian, got["x"], got["t"])
                where = (n, t_arg)
                assert abs(got["fidelity"] - fidelity) <= ABSOLUTE, where
                for key, exact in (("c_sigma", c_sigma), ("c_w", c_w)):
                    assert abs(got[key][0] - exact.real) <= ABSOLUTE, (key, where)
                    assert abs(got[key][1] - exact.imag) <= ABSOLUTE, (key, where)


def test_corollary_model_is_the_plane_distance():
    # the distance of e^{-iHt}|s> from |w>, read off the paper's (start,
    # target) form, at a time where it is not small
    x, t = 0.3, 0.8
    with mpmath.workdps(DIGITS):
        a, r, eta = plane_angles(x)
        theta = mpmath.acos(x)
        c_sigma = mpmath.sin(theta - eta * t) / mpmath.sin(theta)
        c_w = mpmath.sin(eta * t) / mpmath.sin(theta)
        direct = mpmath.sqrt((c_sigma * x + c_w - 1) ** 2 + (c_sigma * r) ** 2)
        assert abs(direct - abs(2 * mpmath.sin((mpmath.pi / 2 - a - eta * t) / 2))) < 1e-50
