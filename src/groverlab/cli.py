"""Command-line front end: search runs, analog evolution, the incremental
stepper, and verification sweeps, with CSV or JSON output.

Sentinels make every closed-form quantity reachable from the shell:

* ``--k optimal`` resolves to round(pi/(4 arcsin x) - 1/2), ``--k paper`` to
  ceil(pi/(4x)) (the estimate from Grover's original analysis);
* ``--t t0`` resolves to the iterate-matching time t0/E at energy E,
  ``--t arrival`` to the driver-plus-target arrival time pi/(2Ex).

``verify`` sweeps run at unit energy and take no seed: nothing in them is
random.

Each flag is checked once, by the rule that defines its range: ``--n`` and
``--w`` by :class:`~groverlab.grover.SearchProblem` (up to ``MAX_QUBITS``
qubits), ``--k`` and the ``naive`` step count by
:func:`~groverlab.grover.check_steps` (up to ``MAX_STEPS``), ``--energy``,
``--eps`` and ``--max-steps`` by the rules in :mod:`groverlab.hamiltonians`,
and ``verify``'s check names and n-range by
:func:`groverlab.verification.validate_sweep`.  A rule's ``ValueError`` is the
exit-2 usage error, and so is an ``--out`` file that cannot be written.

Exit status is 0 exactly when all requested computations succeed and, for
``verify``, every check passed.  Outputs carry no timestamps, so identical
flags give identical bytes (the JSON metadata of ``verify`` is the one
exception).
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import DegeneratePlaneError, OrthogonalStartError
from .grover import (
    MAX_STEPS,
    SearchProblem,
    check_steps,
    grover_state,
    iterate_operator,
    iteration_count,
    success_probabilities,
    success_trajectory,
    uniform_overlap,
)
from .hamiltonians import (
    augmented_propagator,
    commutator_propagator,
    fg_evolution_closed_form,
    iterate_plus_projector,
    matching_time,
    naive_search,
    rotation_rate,
    validate_energy,
    validate_stepper,
)
from .linalg import MAX_QUBITS
from .plane import PlaneCoords
from .verification import CHECK_NAMES, run_sweep, to_csv, to_json, validate_sweep

#: evolve reports t as a Grover power when t/(t0/E) is this close to an integer
_POWER_TOL = 1e-9


def _write(text: str, out: str, parser: argparse.ArgumentParser) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as error:
        parser.error(f"--out: cannot write {out!r}: {error.strerror}")


def _json_dumps(payload) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


def _checked(parser: argparse.ArgumentParser, flags: str, rule, *args):
    """Apply an input rule; its ValueError becomes the exit-2 usage error."""
    try:
        return rule(*args)
    except ValueError as error:
        parser.error(f"{flags}: {error}")


def _time(text: str):
    """Parse --t: 't0', 'arrival', or a finite number."""
    if text in ("t0", "arrival"):
        return text
    try:
        t = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be a number, 't0', or 'arrival'") from None
    if not math.isfinite(t):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return t


def _iterations(text: str, counts) -> int:
    """Resolve --k: 'optimal', 'paper', or an integer in [0, MAX_STEPS]."""
    if text in ("optimal", "paper"):
        return getattr(counts, text)
    try:
        k = int(text)
    except ValueError:
        raise ValueError(f"expected an integer, 'optimal', or 'paper', got {text!r}") from None
    return check_steps(k)


def _parse_n_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            return int(lo_text), int(hi_text)
        value = int(text)
    except ValueError:
        raise ValueError(f"could not parse --n {text!r}; expected e.g. 4 or 2..8") from None
    return value, value


def _top_outcomes(coords: PlaneCoords, x: float, problem: SearchProblem) -> list[tuple[int, float]]:
    """The four (at most N) likeliest measurement outcomes of the state with
    plane coordinates ``coords`` from the uniform start, as (index,
    probability), likeliest first and ties by index.

    |u> has the amplitude x / sqrt(1 - x^2) at every index but w, so those
    share one probability: only w and the lowest other indices can be listed.
    """
    count = min(4, problem.dim)
    others = [i for i in range(min(count + 1, problem.dim)) if i != problem.w][:count]
    other = abs(coords.along_u / math.sqrt(1.0 - x * x) * x) ** 2
    outcomes = [(problem.w, abs(coords.along_w) ** 2), *((i, other) for i in others)]
    return sorted(outcomes, key=lambda outcome: (-outcome[1], outcome[0]))[:count]


def cmd_grover(args, parser: argparse.ArgumentParser) -> int:
    problem = _checked(parser, "--n/--w", SearchProblem, args.n, args.w)
    x = uniform_overlap(problem.n)
    counts = iteration_count(x)
    k = _checked(parser, "--k", _iterations, args.k, counts)
    k_trajectory = success_trajectory(x, k)
    outcomes = _top_outcomes(grover_state(x, k), x, problem)  # final measurement distribution
    p_final = k_trajectory[k]
    p_optimal, p_paper = success_probabilities(x, (counts.optimal, counts.paper))
    top = ";".join(f"{i}:{p!r}" for i, p in outcomes)

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
            "trajectory": k_trajectory,
            "top_outcomes": [{"index": i, "probability": p} for i, p in outcomes],
        }
        _write(_json_dumps(payload), args.out, parser)
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
        lines += [f"{j},{p!r}" for j, p in enumerate(k_trajectory)]
        _write("\n".join(lines) + "\n", args.out, parser)
    return 0


def cmd_evolve(args, parser: argparse.ArgumentParser) -> int:
    problem = _checked(parser, "--n/--w", SearchProblem, args.n, args.w)
    _checked(parser, "--energy", validate_energy, args.energy)
    x = uniform_overlap(problem.n)
    theta = math.acos(x)
    t0 = matching_time(x, args.energy)
    arrival = math.pi / (2.0 * args.energy * x)
    if not math.isfinite(arrival):  # t0/E < arrival, so this covers both sentinels
        parser.error(f"--energy {args.energy!r} is too small: the evolution times overflow")
    t = {"t0": t0, "arrival": arrival}.get(args.t, args.t)

    if args.hamiltonian == "fg":
        evolved = fg_evolution_closed_form(x, args.energy, t)
    else:
        # e^{-iHt} and e^{-iH~t} act alike on the plane: they turn it by eta t
        evolved = PlaneCoords.rotated(x, rotation_rate(x, args.energy) * t)
    c_sigma, c_w = evolved.start_target(x)
    fidelity = abs(evolved.along_w) ** 2
    # the evolved state is built on the plane, so it has no part off it
    out_of_plane = 0.0

    power = None
    power_distance = None
    ratio = t / t0
    # the integer test needs the float spacing of the ratio below its
    # tolerance, i.e. t below about 8e6 t0/E; beyond that no power is reported
    if args.hamiltonian != "fg" and math.ulp(ratio) < _POWER_TOL:
        nearest = round(ratio)
        if abs(ratio - nearest) < _POWER_TOL and nearest >= 0:
            power = nearest
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
            "c_sigma": [c_sigma.real, c_sigma.imag],
            "c_w": [c_w.real, c_w.imag],
            "out_of_plane": out_of_plane,
            "grover_power": power,
            "grover_power_distance": power_distance,
        }
        _write(_json_dumps(payload), args.out, parser)
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
        _write("\n".join(lines) + "\n", args.out, parser)
    return 0


def cmd_naive(args, parser: argparse.ArgumentParser) -> int:
    problem = _checked(parser, "--n/--w", SearchProblem, args.n, args.w)
    _checked(parser, "--eps/--max-steps", validate_stepper, args.eps, args.max_steps)
    x = uniform_overlap(problem.n)
    theta = math.acos(x)
    predicted_peak = theta / (args.eps * math.sqrt(problem.dim) * math.sin(theta))
    max_steps = args.max_steps
    if max_steps is None:
        # half again past the predicted first arrival; a subnormal --eps makes
        # the prediction inf, which the step limit rejects unrounded
        auto = 1.5 * predicted_peak
        max_steps = math.ceil(auto) + 10 if math.isfinite(auto) else auto
        _checked(parser, "--eps (automatic --max-steps)", check_steps, max_steps, 1)
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
            "trajectory": result.amplitudes,
        }
        _write(_json_dumps(payload), args.out, parser)
    else:
        lines = [
            f"# n={args.n} w={args.w} eps={args.eps!r} max_steps={max_steps}",
            f"# peak_step={result.peak_step} peak_amplitude={result.peak_amplitude!r}",
            f"# predicted_peak_step={predicted_peak!r}",
            "step,w_amplitude",
        ]
        lines += [f"{j},{a!r}" for j, a in enumerate(result.amplitudes)]
        _write("\n".join(lines) + "\n", args.out, parser)
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
    _write(text, args.out, parser)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groverlab",
        description=(
            "Search runs, analog evolution, and verification sweeps, computed on the "
            "two-dimensional (start, target) plane."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def search_command(name: str, help: str) -> argparse.ArgumentParser:
        command = sub.add_parser(name, help=help)
        command.add_argument("--n", type=int, required=True, help=f"qubit count (1..{MAX_QUBITS})")
        command.add_argument("--w", type=int, default=0, help="target index (default 0)")
        return command

    grover = search_command("grover", "run the digital search")
    grover.add_argument("--k", default="optimal", help=f"iteration count (0..{MAX_STEPS}), 'optimal', or 'paper'")

    evolve = search_command("evolve", "evolve the start state under one generator")
    evolve.add_argument(
        "--hamiltonian",
        choices=("fg", "commutator", "augmented"),
        required=True,
        help="which generator drives the evolution",
    )
    evolve.add_argument("--t", type=_time, default="t0", help="evolution time, 't0', or 'arrival'")
    evolve.add_argument("--energy", type=float, default=1.0, help="energy scale E (default 1)")

    naive = search_command("naive", "run the renormalised incremental stepper")
    naive.add_argument("--eps", type=float, required=True, help="step size in (0, 0.1]")
    naive.add_argument(
        "--max-steps", type=int, default=None, help=f"trajectory length (1..{MAX_STEPS}; default: auto)"
    )

    verify = sub.add_parser("verify", help="run verification sweeps")
    verify.add_argument("--checks", default="all", help=f"'all' or comma list of {', '.join(CHECK_NAMES)}")
    verify.add_argument("--n", default="2..8", help="inclusive n range, e.g. 2..8")

    for command in (grover, evolve, naive, verify):
        command.add_argument("--format", choices=("csv", "json"), default="csv")
        command.add_argument("--out", default="-", help="output path, or '-' for stdout")
        # a handler's usage errors name its subcommand and show its options
        command.set_defaults(command_parser=command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # looked up at call time, so a wrapper installed on the module is called
    handlers = {"grover": cmd_grover, "evolve": cmd_evolve, "naive": cmd_naive, "verify": cmd_verify}
    try:
        return handlers[args.command](args, args.command_parser)
    except (OrthogonalStartError, DegeneratePlaneError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
