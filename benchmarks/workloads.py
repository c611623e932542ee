"""The benchmark's workloads: lists of groverlab command lines, each with its check.

A workload is built from a seed; the same seed gives the same command lines.
``small=True`` gives the same mix at small n, used for the warm-up pass of
set-up and for the smoke mode.  With the uniform driver no operation's cost
depends on what the seed chooses (targets w and numeric evolution times), so
passes cost the same under every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks
import oracle

#: the step size that puts the stepper's first arrival tens of steps out at n = 10..12
NAIVE_EPS = 0.001
NAIVE_EPS_SMALL = 0.01


@dataclass(frozen=True)
class Op:
    """One groverlab command line and the check its output must pass.

    ``known_fault`` names the program fault that makes this operation fail on
    every run; such an operation counts as failed without making the run
    incorrect.
    """

    argv: tuple[str, ...]
    check: Callable[[int, str, str], list[str]]
    known_fault: str | None = None


def _verify(checks_arg: str, n_lo: int, n_hi: int) -> Op:
    names = tuple(checks.ROW_KINDS) if checks_arg == "all" else tuple(checks_arg.split(","))
    argv = ("verify", "--checks", checks_arg, "--n", f"{n_lo}..{n_hi}", "--format", "csv")
    return Op(argv, checks.verify_check(names, n_lo, n_hi))


def verify_sweep(rng: random.Random, small: bool = False) -> list[Op]:
    """The ROADMAP's end-to-end sweep, plus the Taylor-action corollary at n = 11, 12.

    Nothing in it is random: ``verify`` takes no target or time.
    """
    if small:
        return [_verify("all", 2, 6), _verify("corollary", 7, 8)]
    return [_verify("all", 2, 10), _verify("corollary", 11, 12)]


def digital_search(rng: random.Random, small: bool = False) -> list[Op]:
    """``grover`` at three seeded targets (optimal, paper and a larger explicit k),
    then the incremental stepper at three sizes."""
    n = 5 if small else 11
    optimal, _ = oracle.iteration_counts(oracle.overlap(n))
    ops = []
    for k_arg in ("optimal", "paper", str(3 * optimal)):
        w = rng.randrange(2**n)
        argv = ("grover", "--n", str(n), "--w", str(w), "--k", k_arg, "--format", "json")
        ops.append(Op(argv, checks.grover_check(n, w, k_arg)))
    eps = NAIVE_EPS_SMALL if small else NAIVE_EPS
    for n in (4, 5, 6) if small else (10, 11, 12):
        w = rng.randrange(2**n)
        argv = ("naive", "--n", str(n), "--w", str(w), "--eps", repr(eps), "--format", "json")
        ops.append(Op(argv, checks.naive_check(n, w, eps)))
    return ops


T0_ENERGY_FAULT = (
    "the evolve --t t0 sentinel resolves to the unit-energy t0 instead of t0/E, "
    "so at --energy 2 the reported Grover power does not match the propagator"
)


def analog_evolve(rng: random.Random, small: bool = False) -> list[Op]:
    """``evolve`` under each generator at the t0 and arrival sentinels and at
    seeded numeric times, with unit and doubled energy.

    A numeric time is (m + u) t0/E with u in [0.1, 0.9], never an integer
    multiple of the iterate-matching time, so it never takes the Grover-power
    branch and costs the same under every seed.  The one known-failing
    operation keeps w = 0 so that its inputs do not depend on the seed.
    """
    n = 4 if small else 10
    t0 = oracle.grover_time(oracle.overlap(n))

    def numeric(energy: float) -> str:
        return repr((rng.randrange(40) + rng.uniform(0.1, 0.9)) * t0 / energy)

    plan = [
        ("fg", "arrival", 1.0),
        ("fg", numeric(2.0), 2.0),
        ("commutator", "t0", 1.0),
        ("commutator", "t0", 2.0),
        ("commutator", numeric(1.0), 1.0),
        ("augmented", "t0", 1.0),
        ("augmented", "arrival", 2.0),
    ]
    ops = []
    for hamiltonian, t_arg, energy in plan:
        fault = T0_ENERGY_FAULT if (t_arg, energy) == ("t0", 2.0) else None
        w = 0 if fault else rng.randrange(2**n)
        argv = (
            "evolve", "--n", str(n), "--w", str(w), "--hamiltonian", hamiltonian,
            "--t", t_arg, "--energy", repr(energy), "--format", "json",
        )  # fmt: skip
        ops.append(Op(argv, checks.evolve_check(n, w, hamiltonian, t_arg, energy), fault))
    return ops


WORKLOADS = {
    "verify_sweep": verify_sweep,
    "digital_search": digital_search,
    "analog_evolve": analog_evolve,
}


def build(name: str, seed: int, small: bool = False) -> list[Op]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), small)
