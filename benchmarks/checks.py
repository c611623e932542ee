"""Output checks for each groverlab command the benchmark runs.

Each factory returns ``check(rc, out, err) -> list[str]``: the problems found
in one invocation's exit code, standard output and standard error, empty when
the output is correct.  Every value is compared with :mod:`oracle`, or with a
property of the output contract (row set, recomputed ``passed`` column, exit
status); none is compared with a saved copy of an earlier output.
"""

from __future__ import annotations

import json
import math

import oracle

#: outputs against closed-form values, and the "at most" properties
VALUE_TOL = 1e-9
#: the tolerance column of the rows that assert an exact identity
EXACT_ROW_TOL = 1e-9
#: the overlap column against the exact 2**(-n/2)
X_TOL = 1e-12
#: relative tolerance on quantities the program derives from x by a formula
FORMULA_RTOL = 1e-12

VERIFY_HEADER = "check_name,n,N,x,t0,measured,predicted,tolerance,passed"

#: the rows each ``verify`` check emits per register size
ROW_KINDS = {
    "theorem_main": ("theorem_main_iterate", "theorem_main_square"),
    "norm_gap": ("norm_gap",),
    "corollary": ("corollary",),
    "fg_arrival": ("fg_arrival_fidelity", "fg_arrival_state"),
}


def _close(got: float, want: float, atol: float = 0.0, rtol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


class _Problems(list):
    """Collects one message per failed comparison."""

    def expect(self, ok: bool, what: str, got, want) -> None:
        if not ok:
            self.append(f"{what}: got {got!r}, want {want!r}")

    def equal(self, what: str, got, want) -> None:
        self.expect(got == want, what, got, want)

    def near(self, what: str, got: float, want: float, atol: float = 0.0, rtol: float = 0.0) -> None:
        self.expect(_close(got, want, atol, rtol), what, got, want)

    def at_most(self, what: str, got, limit: float) -> None:
        self.expect(got is not None and got <= limit, what, got, f"<= {limit}")


def _parse_guard(check):
    """Turn a malformed output (missing key, bad number, short row) into a problem."""

    def guarded(rc, out, err):
        try:
            return check(rc, out, err)
        except (ValueError, KeyError, IndexError, TypeError) as error:
            return [f"malformed output: {type(error).__name__}: {error}"]

    return guarded


# --- verify -----------------------------------------------------------------


def _verify_reference(name: str, n: int) -> tuple[float, float, float, float]:
    """(t, measured, predicted, tolerance) the oracle gives for one row."""
    x = oracle.overlap(n)
    t0 = oracle.grover_time(x)
    if name == "theorem_main_iterate":
        return t0, 0.0, 0.0, EXACT_ROW_TOL
    if name == "theorem_main_square":
        return 2.0 * t0, 0.0, 0.0, EXACT_ROW_TOL
    if name == "norm_gap":
        return t0, oracle.norm_gap(x), oracle.norm_gap_estimate(x), oracle.norm_gap_tolerance(x)
    if name == "corollary":
        t = oracle.corollary_time(n)
        return t, oracle.corollary_miss(x, t), 0.0, x
    arrival = oracle.arrival_time(x, 1.0)
    if name == "fg_arrival_fidelity":
        return arrival, 1.0, 1.0, EXACT_ROW_TOL
    return arrival, 0.0, 0.0, EXACT_ROW_TOL  # fg_arrival_state


def verify_check(checks: tuple[str, ...], n_lo: int, n_hi: int):
    """Check ``verify --checks <checks> --n <n_lo>..<n_hi> --format csv``."""
    names = sorted(kind for check in checks for kind in ROW_KINDS[check])
    expected_rows = [(name, n) for name in names for n in range(n_lo, n_hi + 1)]

    @_parse_guard
    def check(rc, out, err):
        problems = _Problems()
        lines = out.splitlines()
        if not lines or lines[0] != VERIFY_HEADER:
            return ["CSV header missing or changed"]
        rows = [line.split(",") for line in lines[1:]]
        got_rows = [(row[0], int(row[1])) for row in rows]
        if got_rows != expected_rows:
            return [f"row set {got_rows} differs from checks x n {expected_rows}"]
        failing = 0
        for row in rows:
            name, n = row[0], int(row[1])
            x, t, measured, predicted, tolerance = (float(v) for v in row[3:8])
            ref_t, ref_measured, ref_predicted, ref_tolerance = _verify_reference(name, n)
            where = f"{name} n={n}"
            problems.equal(f"{where} N", int(row[2]), 2**n)
            problems.near(f"{where} x", x, oracle.overlap(n), atol=X_TOL)
            problems.near(f"{where} t", t, ref_t, rtol=FORMULA_RTOL)
            problems.near(f"{where} measured", measured, ref_measured, atol=VALUE_TOL)
            problems.near(f"{where} predicted", predicted, ref_predicted, rtol=FORMULA_RTOL)
            problems.near(f"{where} tolerance", tolerance, ref_tolerance, rtol=FORMULA_RTOL)
            passes = abs(ref_measured - ref_predicted) <= ref_tolerance
            failing += not passes
            problems.equal(f"{where} passed", row[8], "true" if passes else "false")
        problems.equal("exit status", rc, 1 if failing else 0)
        if failing:
            problems.equal("stderr summary", err.split("\n", 1)[0], f"{failing} failing check row(s):")
        return problems

    return check


# --- grover -----------------------------------------------------------------


def grover_check(n: int, w: int, k_arg: str):
    """Check ``grover --n <n> --w <w> --k <k_arg> --format json``."""
    x = oracle.overlap(n)
    dim = 2**n
    optimal, paper = oracle.iteration_counts(x)
    k = {"optimal": optimal, "paper": paper}[k_arg] if k_arg in ("optimal", "paper") else int(k_arg)
    trajectory = [oracle.grover_success(x, j) for j in range(k + 1)]
    p_final = trajectory[k]
    p_other = (1.0 - p_final) / (dim - 1)

    @_parse_guard
    def check(rc, out, err):
        problems = _Problems()
        problems.equal("exit status", rc, 0)
        got = json.loads(out)
        fields = {"n": n, "w": w, "k": k, "k_requested": k_arg, "k_optimal": optimal, "k_paper": paper}
        for key, want in fields.items():
            problems.equal(key, got[key], want)
        problems.near("x", got["x"], x, atol=X_TOL)
        for key, j in (("p_final", k), ("p_optimal", optimal), ("p_paper", paper)):
            problems.near(key, got[key], oracle.grover_success(x, j), atol=VALUE_TOL)
        problems.equal("trajectory length", len(got["trajectory"]), k + 1)
        for j, (p, want) in enumerate(zip(got["trajectory"], trajectory)):
            problems.near(f"trajectory[{j}]", p, want, atol=VALUE_TOL)
        top = got["top_outcomes"]
        problems.equal("top_outcomes length", len(top), min(4, dim))
        indices = [entry["index"] for entry in top]
        probabilities = [entry["probability"] for entry in top]
        problems.equal("top_outcomes distinct", len(set(indices)), len(indices))
        problems.equal("top_outcomes order", probabilities, sorted(probabilities, reverse=True))
        for index, p in zip(indices, probabilities):
            problems.expect(0 <= index < dim, "top_outcomes index", index, f"in [0, {dim})")
            problems.near(f"top_outcomes[{index}]", p, p_final if index == w else p_other, atol=VALUE_TOL)
        if abs(p_final - p_other) > VALUE_TOL:
            problems.equal("target ranked first", indices[0] == w, p_final > p_other)
        return problems

    return check


# --- naive ------------------------------------------------------------------


def naive_check(n: int, w: int, eps: float):
    """Check ``naive --n <n> --w <w> --eps <eps> --format json``."""
    x = oracle.overlap(n)
    dim = 2**n
    predicted = oracle.naive_predicted_peak(x, dim, eps)
    max_steps = math.ceil(1.5 * predicted) + 10
    amplitudes = [oracle.naive_amplitude(x, dim, eps, k) for k in range(max_steps + 1)]
    peak = max(range(max_steps + 1), key=amplitudes.__getitem__)

    @_parse_guard
    def check(rc, out, err):
        problems = _Problems()
        problems.equal("exit status", rc, 0)
        got = json.loads(out)
        for key, want in (("n", n), ("w", w), ("eps", eps), ("max_steps", max_steps)):
            problems.equal(key, got[key], want)
        problems.near("predicted_peak_step", got["predicted_peak_step"], predicted, rtol=FORMULA_RTOL)
        trajectory = got["trajectory"]
        problems.equal("trajectory length", len(trajectory), max_steps + 1)
        for k, (a, want) in enumerate(zip(trajectory, amplitudes)):
            problems.near(f"trajectory[{k}]", a, want, atol=VALUE_TOL)
        step = got["peak_step"]
        tied = 0 <= step <= max_steps and _close(amplitudes[step], amplitudes[peak], VALUE_TOL)
        problems.expect(step == peak or tied, "peak_step", step, peak)  # a near-tie may resolve either way
        problems.near("peak_amplitude", got["peak_amplitude"], amplitudes[peak], atol=VALUE_TOL)
        return problems

    return check


# --- evolve -----------------------------------------------------------------


def evolve_time(n: int, t_arg: str, energy: float) -> float:
    """The time an ``evolve --t`` argument stands for.

    ``t0`` is the iterate-matching time at energy E, t0(x)/E: the commutator
    evolution at that time equals G + 2P whatever E is.
    """
    x = oracle.overlap(n)
    if t_arg == "t0":
        return oracle.grover_time(x) / energy
    if t_arg == "arrival":
        return oracle.arrival_time(x, energy)
    return float(t_arg)


def evolve_check(n: int, w: int, hamiltonian: str, t_arg: str, energy: float):
    """Check ``evolve --n <n> --w <w> --hamiltonian <h> --t <t_arg> --energy <E> --format json``."""
    x = oracle.overlap(n)
    t0 = oracle.grover_time(x)
    t = evolve_time(n, t_arg, energy)
    if hamiltonian == "fg":
        fidelity = oracle.fg_fidelity(x, energy, t)
        c_sigma, c_w = oracle.fg_coefficients(x, energy, t)
        power = None
    else:
        fidelity = oracle.commutator_fidelity(x, energy, t)
        c_sigma, c_w = oracle.commutator_coefficients(x, energy, t)
        ratio = t / (t0 / energy)
        power = round(ratio) if abs(ratio - round(ratio)) < 1e-9 else None

    @_parse_guard
    def check(rc, out, err):
        problems = _Problems()
        problems.equal("exit status", rc, 0)
        got = json.loads(out)
        for key, want in (("n", n), ("w", w), ("hamiltonian", hamiltonian), ("energy", energy)):
            problems.equal(key, got[key], want)
        problems.near("x", got["x"], x, atol=X_TOL)
        for key, want in (("theta", math.acos(x)), ("arrival_time", oracle.arrival_time(x, energy)), ("t", t)):
            problems.near(key, got[key], want, rtol=FORMULA_RTOL)
        if energy == 1.0:  # what the t0 field should hold at other energies is part of the open fix
            problems.near("t0", got["t0"], t0, rtol=FORMULA_RTOL)
        problems.near("fidelity", got["fidelity"], fidelity, atol=VALUE_TOL)
        for key, want in (("c_sigma", c_sigma), ("c_w", c_w)):
            problems.near(f"{key} real", got[key][0], want.real, atol=VALUE_TOL)
            problems.near(f"{key} imag", got[key][1], want.imag, atol=VALUE_TOL)
        problems.at_most("out_of_plane", got["out_of_plane"], VALUE_TOL)
        problems.equal("grover_power", got["grover_power"], power)
        if power is None:
            problems.equal("grover_power_distance", got["grover_power_distance"], None)
        else:
            problems.at_most("grover_power_distance", got["grover_power_distance"], VALUE_TOL)
        return problems

    return check


# --- self-check ---------------------------------------------------------------


def perturbed(out: str) -> list[str]:
    """Copies of a correct output, each with one value changed, that a check must reject."""
    if out.startswith("{"):
        payload = json.loads(out)
        key = next(k for k in ("p_final", "peak_amplitude", "fidelity") if k in payload)
        payload[key] += 1e-6
        return [json.dumps(payload, indent=2) + "\n"]
    header, first, *rest = out.split("\n")
    cells = first.split(",")
    bumped = cells[:5] + [repr(float(cells[5]) + 1e-6)] + cells[6:]
    flipped = cells[:8] + ["false" if cells[8] == "true" else "true"]
    return ["\n".join([header, ",".join(row), *rest]) for row in (bumped, flipped)]
