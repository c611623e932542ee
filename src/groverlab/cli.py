"""Command-line front end: search runs, analog evolution, the incremental
stepper, and verification sweeps, with CSV or JSON output.

Sentinels make every closed-form quantity reachable from the shell:

* ``--k optimal`` resolves to round(pi/(4 arcsin x) - 1/2), ``--k paper`` to
  ceil(pi/(4x)) (the estimate from Grover's original analysis);
* ``--t t0`` resolves to the iterate-matching time t0/E at energy E,
  ``--t arrival`` to the driver-plus-target arrival time pi/(2Ex).

``verify`` sweeps run at unit energy and take no seed: nothing in them is
random.  Check names and the n-range are validated by
:func:`groverlab.verification.validate_sweep`.

Exit status is 0 exactly when all requested computations succeed and, for
``verify``, every check passed.  Outputs carry no timestamps, so identical
flags give identical bytes (the JSON metadata of ``verify`` is the one
exception).
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import islice

import numpy as np

from .errors import DegeneratePlaneError, OrthogonalStartError
from .grover import (
    MAX_QUBITS,
    SearchProblem,
    grover_walk,
    iterate_operator,
    iteration_count,
    uniform_start,
)
from .hamiltonians import (
    augmented_propagator,
    commutator_propagator,
    fg_evolution_closed_form,
    h_evolution_closed_form,
    iterate_plus_projector,
    matching_time,
    naive_search,
    validate_energy,
    validate_stepper,
)
from .plane import PlaneCoords
from .verification import CHECK_NAMES, run_sweep, to_csv, to_json, validate_sweep

#: evolve's --n cap, below grover's: the inputs evolve accepts are kept as they
#: were when it built dense N x N propagators; its own cost is O(N)
_EVOLVE_MAX_QUBITS = 10


def _write(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_dumps(payload) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


def _parse_n_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            return int(lo_text), int(hi_text)
        value = int(text)
    except ValueError:
        raise ValueError(f"could not parse --n {text!r}; expected e.g. 4 or 2..8") from None
    return value, value


def cmd_grover(args, parser: argparse.ArgumentParser) -> int:
    problem = SearchProblem(n=args.n, w=args.w)
    sigma, x = uniform_start(problem)
    counts = iteration_count(x)
    if args.k == "optimal":
        k = counts.optimal
    elif args.k == "paper":
        k = counts.paper
    else:
        k = int(args.k)
        if k < 0:
            parser.error("--k must be a nonnegative integer, 'optimal', or 'paper'")
    k_max = max(k, counts.optimal, counts.paper)
    k_trajectory = np.empty(k_max + 1)
    for j, coords in enumerate(islice(grover_walk(x), k_max + 1)):
        k_trajectory[j] = abs(coords.target_amplitude(x)) ** 2
        if j == k:
            probabilities = np.abs(coords.lift(sigma, problem.w)) ** 2  # final measurement distribution
    p_final = float(k_trajectory[k])
    p_optimal = float(k_trajectory[counts.optimal])
    p_paper = float(k_trajectory[counts.paper])
    # stable, so outcomes of equal probability are listed by index
    order = np.argsort(-probabilities, kind="stable")[: min(4, problem.dim)]
    top = ";".join(f"{int(i)}:{float(probabilities[i])!r}" for i in order)

    if args.format == "json":
        payload = {
            "n": args.n,
            "w": args.w,
            "x": x,
            "k": k,
            "k_requested": args.k,
            "k_optimal": counts.optimal,
            "k_paper": counts.paper,
            "p_final": p_final,
            "p_optimal": p_optimal,
            "p_paper": p_paper,
            "trajectory": [float(p) for p in k_trajectory[: k + 1]],
            "top_outcomes": [
                {"index": int(i), "probability": float(probabilities[i])} for i in order
            ],
        }
        _write(_json_dumps(payload), args.out)
    else:
        lines = [
            f"# n={args.n} w={args.w} x={x!r}",
            f"# k={k} requested={args.k}",
            f"# k_optimal={counts.optimal} p_optimal={p_optimal!r}",
            f"# k_paper={counts.paper} p_paper={p_paper!r}",
            f"# p_final={p_final!r}",
            f"# top_outcomes={top}",
            "iteration,success_probability",
        ]
        lines += [f"{j},{float(p)!r}" for j, p in enumerate(k_trajectory[: k + 1])]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_evolve(args, parser: argparse.ArgumentParser) -> int:
    problem = SearchProblem(n=args.n, w=args.w)
    sigma, x = uniform_start(problem)
    theta = math.acos(x)
    t0 = matching_time(x, args.energy)
    arrival = math.pi / (2.0 * args.energy * x)
    if not math.isfinite(arrival):  # t0/E < arrival, so this covers both sentinels
        parser.error(f"--energy {args.energy!r} is too small: the evolution times overflow")
    if args.t == "t0":
        t = t0
    elif args.t == "arrival":
        t = arrival
    else:
        t = float(args.t)

    if args.hamiltonian == "fg":
        # the closed form covers t >= 0; H' is real in the (start, target)
        # basis, so running time backwards conjugates the coefficients
        evolved = fg_evolution_closed_form(x, args.energy, abs(t))
        if t < 0.0:
            evolved = PlaneCoords(evolved.c_sigma.conjugate(), evolved.c_w.conjugate())
    else:
        # e^{-iHt} and e^{-iH~t} act alike on the plane
        column = h_evolution_closed_form(x, args.energy, t)[:, 0]
        evolved = PlaneCoords(complex(column[0]), complex(column[1]))
    state = evolved.lift(sigma, problem.w)
    fidelity = float(abs(state[problem.w]) ** 2)

    # coefficients in the non-orthogonal (start, target) basis; they give the
    # orthogonal projection onto the plane, so the rest is the leakage out of it
    gram = np.array([[1.0, x], [x, 1.0]], dtype=complex)
    rhs = np.array([sigma.conj() @ state, state[problem.w]], dtype=complex)
    c_sigma, c_w = np.linalg.solve(gram, rhs)
    out_of_plane = float(np.linalg.norm(state - PlaneCoords(c_sigma, c_w).lift(sigma, problem.w)))

    power = None
    power_distance = None
    if args.hamiltonian in ("commutator", "augmented"):
        ratio = t / t0
        if abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 0:
            power = int(round(ratio))
            if args.hamiltonian == "commutator":
                propagator = commutator_propagator(x, args.energy, t, problem.dim)
                reference = iterate_plus_projector(x, problem.dim)
            else:
                propagator = augmented_propagator(x, args.energy, t, problem.dim)
                reference = iterate_operator(x, problem.dim)
            power_distance = (propagator - reference.power(power)).norm()

    if args.format == "json":
        payload = {
            "n": args.n,
            "w": args.w,
            "hamiltonian": args.hamiltonian,
            "energy": args.energy,
            "x": x,
            "theta": theta,
            "t0": t0,
            "arrival_time": arrival,
            "t": t,
            "fidelity": fidelity,
            "c_sigma": [float(c_sigma.real), float(c_sigma.imag)],
            "c_w": [float(c_w.real), float(c_w.imag)],
            "out_of_plane": out_of_plane,
            "grover_power": power,
            "grover_power_distance": power_distance,
        }
        _write(_json_dumps(payload), args.out)
    else:
        lines = [
            f"# n={args.n} w={args.w} hamiltonian={args.hamiltonian} energy={args.energy!r}",
            f"# x={x!r} theta={theta!r} t0={t0!r} arrival={arrival!r}",
        ]
        if power is not None:
            lines.append(f"# grover_power={power} grover_power_distance={power_distance!r}")
        lines.append("t,fidelity,c_sigma_re,c_sigma_im,c_w_re,c_w_im,out_of_plane")
        lines.append(
            ",".join(
                repr(float(v))
                for v in (
                    t,
                    fidelity,
                    c_sigma.real,
                    c_sigma.imag,
                    c_w.real,
                    c_w.imag,
                    out_of_plane,
                )
            )
        )
        _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_naive(args, parser: argparse.ArgumentParser) -> int:
    problem = SearchProblem(n=args.n, w=args.w)
    _, x = uniform_start(problem)
    theta = math.acos(x)
    predicted_peak = theta / (args.eps * math.sqrt(problem.dim) * math.sin(theta))
    max_steps = args.max_steps if args.max_steps is not None else math.ceil(1.5 * predicted_peak) + 10
    result = naive_search(problem, args.eps, max_steps)

    if args.format == "json":
        payload = {
            "n": args.n,
            "w": args.w,
            "eps": args.eps,
            "max_steps": max_steps,
            "peak_step": result.peak_step,
            "peak_amplitude": result.peak_amplitude,
            "predicted_peak_step": predicted_peak,
            "trajectory": [float(a) for a in result.amplitudes],
        }
        _write(_json_dumps(payload), args.out)
    else:
        lines = [
            f"# n={args.n} w={args.w} eps={args.eps!r} max_steps={max_steps}",
            f"# peak_step={result.peak_step} peak_amplitude={result.peak_amplitude!r}",
            f"# predicted_peak_step={predicted_peak!r}",
            "step,w_amplitude",
        ]
        lines += [f"{j},{float(a)!r}" for j, a in enumerate(result.amplitudes)]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    if args.checks == "all":
        checks = list(CHECK_NAMES)
    else:
        checks = [name.strip() for name in args.checks.split(",") if name.strip()]
    try:
        n_range = _parse_n_range(args.n)
        validate_sweep(checks, n_range)
    except ValueError as error:
        parser.error(str(error))

    result = run_sweep(checks, n_range)
    text = to_json(result) if args.format == "json" else to_csv(result)
    _write(text, args.out)
    failing = [row for row in result.rows if not row.passed]
    if failing:
        print(f"{len(failing)} failing check row(s):", file=sys.stderr)
        for row in failing:
            print(
                f"  {row.check_name} n={row.n}: measured={row.measured!r} "
                f"predicted={row.predicted!r} tolerance={row.tolerance!r}",
                file=sys.stderr,
            )
        return 1
    return 0


def _int_in(parser, value: str, lo: int, hi: int, flag: str) -> int:
    try:
        number = int(value)
    except ValueError:
        parser.error(f"{flag} expects an integer, got {value!r}")
    if not lo <= number <= hi:
        parser.error(f"{flag} must lie in [{lo}, {hi}], got {number}")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groverlab",
        description=(
            "Search runs, analog evolution, and verification sweeps, computed on the "
            "two-dimensional (start, target) plane."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    grover = sub.add_parser("grover", help="run the digital search")
    grover.add_argument("--n", required=True, help=f"qubit count (1..{MAX_QUBITS})")
    grover.add_argument("--w", default="0", help="target index (default 0)")
    grover.add_argument("--k", default="optimal", help="iteration count, 'optimal', or 'paper'")

    evolve = sub.add_parser("evolve", help="evolve the start state under one generator")
    evolve.add_argument("--n", required=True, help=f"qubit count (1..{_EVOLVE_MAX_QUBITS})")
    evolve.add_argument("--w", default="0", help="target index (default 0)")
    evolve.add_argument(
        "--hamiltonian",
        choices=("fg", "commutator", "augmented"),
        required=True,
        help="which generator drives the evolution",
    )
    evolve.add_argument("--t", default="t0", help="evolution time, 't0', or 'arrival'")
    evolve.add_argument("--energy", type=float, default=1.0, help="energy scale E (default 1)")

    naive = sub.add_parser("naive", help="run the renormalised incremental stepper")
    naive.add_argument("--n", required=True, help=f"qubit count (1..{MAX_QUBITS})")
    naive.add_argument("--w", default="0", help="target index (default 0)")
    naive.add_argument("--eps", type=float, required=True, help="step size in (0, 0.1]")
    naive.add_argument("--max-steps", type=int, default=None, help="trajectory length (default: auto)")

    verify = sub.add_parser("verify", help="run verification sweeps")
    verify.add_argument("--checks", default="all", help=f"'all' or comma list of {', '.join(CHECK_NAMES)}")
    verify.add_argument("--n", default="2..8", help="inclusive n range, e.g. 2..8")

    for command in (grover, evolve, naive, verify):
        command.add_argument("--format", choices=("csv", "json"), default="csv")
        command.add_argument("--out", default="-", help="output path, or '-' for stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "grover":
        args.n = _int_in(parser, args.n, 1, MAX_QUBITS, "--n")
        args.w = _int_in(parser, args.w, 0, 2**args.n - 1, "--w")
        if args.k not in ("optimal", "paper"):
            try:
                int(args.k)
            except ValueError:
                parser.error("--k must be a nonnegative integer, 'optimal', or 'paper'")
        handler = cmd_grover
    elif args.command == "evolve":
        args.n = _int_in(parser, args.n, 1, _EVOLVE_MAX_QUBITS, "--n")
        args.w = _int_in(parser, args.w, 0, 2**args.n - 1, "--w")
        try:
            validate_energy(args.energy)
        except ValueError as error:
            parser.error(f"--energy: {error}")
        if args.t not in ("t0", "arrival"):
            try:
                t = float(args.t)
            except ValueError:
                parser.error("--t must be a number, 't0', or 'arrival'")
            if not math.isfinite(t):
                parser.error(f"--t must be finite, got {args.t}")
        handler = cmd_evolve
    elif args.command == "naive":
        args.n = _int_in(parser, args.n, 1, MAX_QUBITS, "--n")
        args.w = _int_in(parser, args.w, 0, 2**args.n - 1, "--w")
        try:
            validate_stepper(args.eps, args.max_steps)
        except ValueError as error:
            parser.error(f"--eps/--max-steps: {error}")
        handler = cmd_naive
    else:
        handler = cmd_verify

    try:
        return handler(args, parser)
    except (OrthogonalStartError, DegeneratePlaneError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
