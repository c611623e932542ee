"""Benchmark of groverlab's three user-facing workloads.

    python3 benchmarks/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py                 # every workload, each in its own process
    python3 benchmarks/run.py --smoke         # each workload once at small n, plus the oracle self-check

A run imports numpy and groverlab from ``src/`` of the checkout and runs one
warm-up pass of the workload at small n (together these are set-up).  Then
it runs whole passes through the workload's command lines, calling
``groverlab.cli.main`` in-process: at least three, and more while the next
one should end within ``--seconds``.  Every command's output is checked
against the closed forms in ``oracle.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs two
untraced passes, then wraps the public functions of every groverlab layer (see
``tracer.py``) and reports the per-layer metrics of the traced passes; the
spans go to ``benchmarks/results/``.  The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment and the failures.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: set-up is timed this many times per run: once in the run, the rest in fresh processes
SETUP_SAMPLES = 5
#: the fewest passes a run makes, so that medians pass over one slow pass
MIN_PASSES = 3
#: a traced run first makes two untraced passes: the first pays for growing the
#: heap to full size, the second is the reference for the tracing overhead
UNTRACED_IN_TRACED_RUN = 2
#: a child process that takes longer than this has hung
CHILD_TIMEOUT_S = 170


def _layer(metric: str, unit: str, *names: str):
    """One per-layer metric: its kind is the last dotted part of its name."""
    kind = metric.rsplit(".", 1)[1]
    return metric, unit, kind, names or (metric.rsplit(".", 1)[0],)


#: (metric, unit, kind, span names); the metric names follow the pipeline
#: stages, the span names the functions that implement them today
PER_LAYER = (
    _layer("linalg.hermitian_propagator.self_s", "s"),
    _layer("linalg.hermitian_propagator.calls", "count"),
    _layer("linalg.hermitian_propagator.alloc_peak_mb", "MB"),
    _layer("linalg.operator_norm.self_s", "s"),
    _layer("linalg.operator_norm.calls", "count"),
    _layer("linalg.apply_exponential.self_s", "s"),
    _layer("linalg.is_unitary.self_s", "s"),
    _layer("linalg.operand_mb", "MB-computed"),
    _layer("grover.walsh_hadamard.self_s", "s"),
    _layer("grover.walsh_hadamard.alloc_peak_mb", "MB"),
    _layer("grover.make_driver.self_s", "s"),
    _layer("grover.iterate.self_s", "s", "grover.grover_iterate", "grover.iterate_from_unitary"),
    _layer("grover.iterate.calls", "count", "grover.grover_iterate", "grover.iterate_from_unitary"),
    _layer("grover.success_trajectory.self_s", "s"),
    _layer("hamiltonians.hamiltonian_family.self_s", "s"),
    _layer("hamiltonians.hamiltonian_family.alloc_peak_mb", "MB"),
    _layer("hamiltonians.commutator_hamiltonian.self_s", "s"),
    _layer("hamiltonians.fg_hamiltonian.self_s", "s"),
    _layer("hamiltonians.naive_search.self_s", "s", "hamiltonians.naive_search", "hamiltonians.naive_step"),
    _layer("verification.theorem_main.total_s", "s", "verification.verify_theorem_main"),
    _layer("verification.norm_gap.total_s", "s", "verification.norm_gap_vs_prediction"),
    _layer("verification.corollary.total_s", "s", "verification.verify_corollary"),
    _layer("verification.fg_arrival.total_s", "s", "verification.verify_fg_arrival"),
    _layer("verification.run_sweep.self_s", "s"),
    _layer("verification.to_csv.self_s", "s"),
    _layer("cli.cmd_grover.self_s", "s"),
    _layer("cli.cmd_evolve.self_s", "s"),
    _layer("cli.cmd_naive.self_s", "s"),
    _layer("cli.cmd_verify.self_s", "s"),
)
TRACE_OVERHEAD = ("trace.overhead_s", "s")


class SetupError(RuntimeError):
    """The program could not be imported or set up."""


@dataclass
class Tally:
    """Operations attempted and failed, and the failures no known fault explains."""

    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)
    unexpected: list = field(default_factory=list)

    def record(self, op: workloads.Op, problems: list[str]) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        command = " ".join(op.argv)
        self.failures[command] = self.failures.get(command, 0) + 1
        if op.known_fault is None:
            self.unexpected.append(f"{command}: {'; '.join(problems[:5])}")


@dataclass
class Outcome:
    """One command line's exit status, output, timing and problems."""

    rc: object
    out: str
    err: str
    wall_s: float
    cpu_s: float
    problems: list


@dataclass
class Pass:
    outcomes: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)


def run_op(main, op: workloads.Op) -> Outcome:
    """Run one command line in-process, timing only the call."""
    out, err = io.StringIO(), io.StringIO()
    rc, crash = None, None
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
    except SystemExit as stop:  # argparse rejects a command line this way
        rc = stop.code
    except Exception:  # a crash is a failed operation; the run goes on
        crash = traceback.format_exc(limit=3)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    problems = [f"raised {crash}"] if crash else op.check(rc, out.getvalue(), err.getvalue())
    return Outcome(rc, out.getvalue(), err.getvalue(), wall, cpu, problems)


def run_pass(main, ops, tally: Tally, first: Pass | None = None) -> Pass:
    """One pass through ``ops``; outputs must repeat the first pass's byte for byte."""
    result = Pass()
    for i, op in enumerate(ops):
        outcome = run_op(main, op)
        if first is not None and outcome.out != first.outcomes[i].out:
            outcome.problems.append("output differs from the first pass")
        tally.record(op, outcome.problems)
        result.outcomes.append(outcome)
    return result


def import_program():
    """Import numpy and groverlab from the checkout's sources; return the CLI entry point."""
    if not (SRC / "groverlab" / "__init__.py").is_file():
        raise SetupError(f"no groverlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import groverlab.cli  # imports numpy too: set-up pays for both

    if Path(groverlab.__file__).resolve().parent != (SRC / "groverlab").resolve():
        raise SetupError(f"imported groverlab from {groverlab.__file__}, not from {SRC}")
    return groverlab.cli.main


def set_up(name: str, seed: int, tally: Tally):
    """Import the program and run the warm-up pass; return main and the seconds taken.

    Warm-up operations are checked but not counted: only their unexpected
    failures reach ``tally``.
    """
    start = time.perf_counter()
    main = import_program()
    warm_up = Tally()
    run_pass(main, workloads.build(name, seed, small=True), warm_up)
    tally.unexpected += [f"warm-up {problem}" for problem in warm_up.unexpected]
    return main, time.perf_counter() - start


def _child(*args: str) -> list[dict]:
    """Run this script in a fresh process and return its output lines, parsed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )  # fmt: skip
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SetupError(f"child run {' '.join(args)} failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return [json.loads(line) for line in lines]


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        ):  # fmt: skip
            if hasattr(library, symbol):
                return int(getattr(library, symbol)())
    return None


def environment(seed: int) -> dict:
    import numpy

    config = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": config.get("name"),
        "blas_version": config.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def typical_pass(passes: list[Pass], attr: str) -> float:
    """A pass's time as the sum over operations of each one's median across passes.

    An operation stalled in one pass (a BLAS thread descheduled on a shared
    machine) then does not move the figure, as it would the median of pass sums.
    """
    per_op = zip(*(p.outcomes for p in passes))
    return sum(statistics.median(getattr(o, attr) for o in outcomes) for outcomes in per_op)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict, dict]:
    """Set up, then measure passes for ``seconds``; return the tally, metrics and run record."""
    tally = Tally()
    main, own_setup = set_up(name, seed, tally)
    setups = [own_setup]
    if not trace:
        probe = ("--workload", name, "--seed", str(seed), "--setup-probe")
        setups += [_child(*probe)[-1]["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    ops = workloads.build(name, seed)
    spy = tracer.Tracer() if trace else None
    passes, span_ranges = [], []
    start = time.perf_counter()
    # whole passes only: after MIN_PASSES, start one only if it should end within `seconds`
    min_passes = UNTRACED_IN_TRACED_RUN + MIN_PASSES if trace else MIN_PASSES
    while len(passes) < min_passes or time.perf_counter() - start + passes[-1].wall_s <= seconds:
        traced = spy is not None and len(passes) >= UNTRACED_IN_TRACED_RUN
        if traced and not span_ranges:
            spy.install()
        first_span = len(spy.spans) if traced else 0
        passes.append(run_pass(main, ops, tally, passes[0] if passes else None))
        if traced:
            span_ranges.append((first_span, len(spy.spans)))
    if spy is not None and span_ranges:
        spy.uninstall()
    record = {"workload": name, "seconds": seconds, "trace": int(trace), "passes": len(passes),
              "pass_wall_s": [p.wall_s for p in passes], "setup_samples_s": setups}  # fmt: skip

    if not trace:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(typical_pass(passes, "wall_s"), "s"),
            "cpu_s": _metric(typical_pass(passes, "cpu_s"), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        return tally, metrics, record
    per_pass = [tracer.layer_metrics(spy.spans[a:b], PER_LAYER) for a, b in span_ranges]
    metrics = {
        metric: _metric(statistics.median(p[metric] for p in per_pass), unit) for metric, unit, _, _ in PER_LAYER
    }
    reference = passes[UNTRACED_IN_TRACED_RUN - 1].wall_s
    overhead = typical_pass(passes[UNTRACED_IN_TRACED_RUN:], "wall_s") - reference
    metrics[TRACE_OVERHEAD[0]] = _metric(overhead, TRACE_OVERHEAD[1])
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{name}-seed{seed}.json"
    spans_path.write_text(json.dumps({"run": record, "spans": spy.records()}) + "\n", encoding="utf-8")
    record["spans_file"] = str(spans_path.relative_to(HERE.parent))
    return tally, metrics, record


def result_line(tally: Tally, metrics: dict) -> str:
    return json.dumps(
        {"correct": not tally.unexpected, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    )


def cmd_workload(args) -> int:
    tally, metrics, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record.update(
        environment=environment(args.seed), attempted=tally.attempted, failed=tally.failed,
        failures=tally.failures, unexpected_failures=tally.unexpected,
    )  # fmt: skip
    for problem in tally.unexpected[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(result_line(tally, metrics))
    return 0


def cmd_setup_probe(args) -> int:
    """Set up once in this fresh process; the warm-up is checked by the run that asked."""
    _, seconds = set_up(args.workload, args.seed, Tally())
    print(json.dumps({"setup_s": seconds}))
    return 0


def cmd_all(args) -> int:
    """Run every workload in its own process and print their metrics side by side."""
    total = Tally()
    metrics = {}
    for name in workloads.WORKLOADS:
        *_, record, result = _child(
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)
        )  # fmt: skip
        if not metrics:
            print(f"environment: {json.dumps(record['environment'])}")
        total.attempted += result["attempted"]
        total.failed += result["failed"]
        if not result["correct"]:
            total.unexpected.append(name)
        print(f"{name}: attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
            metrics[f"{name}.{metric}"] = entry
    print(result_line(total, metrics))
    return 0


def cmd_smoke(args) -> int:
    """Each workload once at small n, then show that the checks reject perturbed outputs."""
    tally = Tally()
    main = import_program()
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, args.seed, small=True)
        before = tally.failed
        outcomes = run_pass(main, ops, tally).outcomes
        print(f"smoke {name}: {len(ops)} operations, {tally.failed - before} failed")
        rejected = total = 0
        for op, outcome in zip(ops, outcomes):
            if not outcome.problems:
                for bad in checks.perturbed(outcome.out):
                    total += 1
                    rejected += bool(op.check(outcome.rc, bad, outcome.err))
        print(f"self-check {name}: {rejected} of {total} perturbed outputs rejected")
        if rejected != total:
            tally.unexpected.append(f"{name}: the checks accepted a perturbed output")
    for problem in tally.unexpected:
        print(f"FAILED {problem}", file=sys.stderr)
    print(result_line(tally, {}))
    return 0 if not tally.unexpected else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0, help="chooses targets and numeric times")
    parser.add_argument("--seconds", type=float, default=30.0, help="measure whole passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true", help="each workload once at small n, plus the self-check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return cmd_smoke(args)
        if args.workload == "all":
            return cmd_all(args)
        if args.setup_probe:
            return cmd_setup_probe(args)
        return cmd_workload(args)
    except (SetupError, subprocess.TimeoutExpired) as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
