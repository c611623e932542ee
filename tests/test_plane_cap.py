"""Every command and check at the plane route's cap of 20 qubits, beyond the
reach of the dense N x N oracle (12 qubits).  Each output is held against a
closed form written here: in the orthonormal plane basis every instance is a
rotation of the start state, which sits at angle asin(x) from the target's
complement, with x = 2**(-n/2).
"""

import json
import math

import pytest

from groverlab.cli import main
from groverlab.linalg import MAX_QUBITS

X20 = 2.0 ** -10


def grover_time(x: float) -> float:
    theta = math.acos(x)
    return (math.pi - 2.0 * theta) / math.sin(2.0 * theta)


def rotation_rate(x: float, energy: float = 1.0) -> float:
    return energy * math.sin(2.0 * math.acos(x))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> dict:
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    return json.loads(out)


def test_cap_is_twenty_qubits():
    assert MAX_QUBITS == 20


def test_verify_all_checks_to_the_cap(capsys):
    code, out, err = run(capsys, "verify", "--checks", "all", "--n", "2..20")
    lines = out.splitlines()
    assert lines[0] == "check_name,n,N,x,t0,measured,predicted,tolerance,passed"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 114  # six rows per n, n = 2..20
    failing = set()
    for name, n_text, dim_text, *values, passed in rows:
        n = int(n_text)
        x, t, measured, predicted, tolerance = map(float, values)
        assert int(dim_text) == 2**n
        assert x == 2.0 ** (-n / 2)
        t0 = grover_time(x)
        eta = rotation_rate(x)
        if name.startswith("theorem_main"):
            assert t == pytest.approx(t0 if name.endswith("iterate") else 2.0 * t0, rel=1e-12)
            assert measured <= 1e-9
        elif name == "norm_gap":
            assert t == pytest.approx(t0, rel=1e-12)
            assert measured == pytest.approx(2.0 * math.sin(eta * (t0 - 1.0) / 2.0), abs=1e-12)
            assert predicted == pytest.approx((2.0 / 3.0) * x**3 * math.sqrt(1.0 - x * x), rel=1e-12)
        elif name == "corollary":
            assert t == pytest.approx(math.pi / 4.0 * math.sqrt(2**n), rel=1e-12)
            # the chord 2 |sin((pi/2 - a)/2)| between the rotated start and the target
            a = math.asin(x) + eta * t
            assert measured == pytest.approx(2.0 * abs(math.sin((math.pi / 2.0 - a) / 2.0)), abs=1e-12)
        elif name == "fg_arrival_fidelity":
            assert t == pytest.approx(math.pi / (2.0 * x), rel=1e-12)
            assert measured == pytest.approx(1.0, abs=1e-12)
        else:
            assert name == "fg_arrival_state"
            assert measured <= 1e-9
        assert passed == ("true" if abs(measured - predicted) <= tolerance else "false")
        if passed == "false":
            failing.add((name, n))
    assert failing == {("norm_gap", n) for n in range(3, 21)}
    assert code == 1
    assert err.startswith("18 failing check row(s):")


def test_grover_at_the_cap(capsys):
    w = 12345
    payload = run_json(capsys, "grover", "--n", "20", "--w", str(w))
    k = payload["k_optimal"]
    assert payload["k"] == k == round(math.pi / (4.0 * math.asin(X20)) - 0.5)
    expected = [math.sin((2 * j + 1) * math.asin(X20)) ** 2 for j in range(k + 1)]
    assert payload["trajectory"] == pytest.approx(expected, abs=1e-10)
    # every other outcome is equally likely, so they follow the target by index
    rest = (1.0 - expected[-1]) / (2**20 - 1)
    top = payload["top_outcomes"]
    assert [entry["index"] for entry in top] == [w, 0, 1, 2]
    assert top[0]["probability"] == pytest.approx(expected[-1], abs=1e-10)
    assert [entry["probability"] for entry in top[1:]] == pytest.approx([rest] * 3, rel=1e-6)


@pytest.mark.parametrize("hamiltonian", ["fg", "commutator", "augmented"])
@pytest.mark.parametrize("t_arg", ["t0", "arrival"])
def test_evolve_at_the_cap(capsys, hamiltonian, t_arg):
    payload = run_json(capsys, "evolve", "--n", "20", "--w", "777", "--hamiltonian", hamiltonian, "--t", t_arg)
    x, t0, arrival = X20, grover_time(X20), math.pi / (2.0 * X20)
    t = t0 if t_arg == "t0" else arrival
    assert payload["t"] == pytest.approx(t, rel=1e-12)
    if hamiltonian == "fg":
        # e^{-iEt} [cos(xEt)|s> - i sin(xEt)|w>]
        phase = complex(math.cos(t), -math.sin(t))
        c_sigma, c_w = phase * math.cos(x * t), phase * complex(0.0, -math.sin(x * t))
        fidelity = x * x * math.cos(x * t) ** 2 + math.sin(x * t) ** 2
    else:
        # (sin(theta - eta t)|s> + sin(eta t)|w>) / sin(theta)
        theta, eta = math.acos(x), rotation_rate(x)
        c_sigma = complex(math.sin(theta - eta * t) / math.sin(theta))
        c_w = complex(math.sin(eta * t) / math.sin(theta))
        fidelity = math.sin(math.asin(x) + eta * t) ** 2
    assert payload["fidelity"] == pytest.approx(fidelity, abs=1e-9)
    assert payload["c_sigma"] == pytest.approx([c_sigma.real, c_sigma.imag], abs=1e-9)
    assert payload["c_w"] == pytest.approx([c_w.real, c_w.imag], abs=1e-9)
    assert payload["out_of_plane"] < 1e-9
    if hamiltonian != "fg" and t_arg == "t0":
        assert payload["grover_power"] == 1
        assert payload["grover_power_distance"] <= 1e-9
    else:
        assert payload["grover_power"] is None


def test_naive_at_the_cap(capsys):
    eps = 0.001
    payload = run_json(capsys, "naive", "--n", "20", "--w", "5", "--eps", repr(eps))
    turn = math.atan(eps * math.sqrt(2**20 - 1))
    expected = [abs(math.sin(math.asin(X20) + k * turn)) for k in range(payload["max_steps"] + 1)]
    assert payload["trajectory"] == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ("grover", "--n", "21"),
        ("evolve", "--n", "21", "--hamiltonian", "fg"),
        ("naive", "--n", "21", "--eps", "0.01"),
        ("verify", "--n", "21"),
        ("verify", "--n", "2..21"),
    ],
)
def test_beyond_the_cap_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    assert "20" in capsys.readouterr().err
