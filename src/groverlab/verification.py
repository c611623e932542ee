"""Sweep engine that turns the closed-form identities into check reports.

Four named checks are provided, each producing one or two rows per register
size n (the target is fixed to the top index N-1; for the uniform driver the
overlap x = 2**(-n/2) does not depend on the target):

``theorem_main``
    Exactness of the iterate match: |e^{-iHt0} - (G + 2P)| and
    |e^{-2iHt0} - G^2|, both expected 0 within 1e-9.
``norm_gap``
    Distance |e^{-iH} - (G + 2P)| of the unit-time evolution from the exact
    iterate, compared against the first-order estimate (2/3) x^3 sqrt(1-x^2).
    The directly measured gap is 2 sin(eta (t0 - 1)/2), which expands to
    (4/3) x^3 sqrt(1-x^2) + O(x^5) -- twice the estimate carried in the
    ``predicted`` column -- so rows from this check report passed=false.  The
    x^3 order itself is confirmed by the scaling assertions in the test suite.
``corollary``
    Arrival quality |e^{-iHt}|s> - |w>| at the rounded time t = (pi/4) sqrt(N).
    The row-level envelope only asserts the miss is below x = N^{-1/2} (its
    leading order; the rounded time is off the exact arrival theta/eta by
    about 1/2, which the rotation rate eta ~ 2x turns into an angle error of
    about x).  Cross-n scaling assertions live in the test suite.
``fg_arrival``
    Farhi-Gutmann arrival: |<w| e^{-iH't} |s>| = 1 at t = pi/(2Ex), plus the
    full-state match against -i e^{-i pi/(2x)} |w>.

Every check is computed on the (start, target) plane: the operators are
plane operators built from the closed forms, so a row costs the same at every
n.  The test suite measures the same rows with dense matrices as an
independent route.

Rows are plain data: ``passed`` is always recomputable as
|measured - predicted| <= tolerance.  Sweeps are deterministic: nothing in
them is random, and all run at unit energy.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone

from ._version import __version__
from .grover import iterate_operator, uniform_overlap
from .hamiltonians import (
    commutator_propagator,
    fg_evolution_closed_form,
    grover_time,
    iterate_plus_projector,
    rotation_rate,
    validate_energy,
)
from .linalg import MAX_QUBITS
from .plane import PlaneCoords

CHECK_NAMES = ("theorem_main", "norm_gap", "corollary", "fg_arrival")

CSV_COLUMNS = ("check_name", "n", "N", "x", "t0", "measured", "predicted", "tolerance", "passed")

_EXACT_TOL = 1e-9


@dataclass(frozen=True)
class CheckReport:
    """One measured-versus-predicted comparison."""

    check_name: str
    n: int
    dim: int
    x: float
    t0: float
    measured: float
    predicted: float
    tolerance: float
    passed: bool

    @classmethod
    def from_measurement(
        cls,
        check_name: str,
        n: int,
        x: float,
        t0: float,
        measured: float,
        predicted: float,
        tolerance: float,
    ) -> "CheckReport":
        return cls(
            check_name=check_name,
            n=n,
            dim=2**n,
            x=x,
            t0=t0,
            measured=float(measured),
            predicted=float(predicted),
            tolerance=float(tolerance),
            passed=bool(abs(measured - predicted) <= tolerance),
        )


@dataclass(frozen=True)
class SweepResult:
    """Ordered check rows plus reproducibility metadata."""

    rows: tuple[CheckReport, ...]
    timestamp: str
    version: str

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def _check_n_range(lo: int, hi: int) -> None:
    if lo > hi:
        raise ValueError(f"n-range is reversed: {lo}..{hi}")
    if lo < 2 or hi > MAX_QUBITS:
        raise ValueError(f"n-range must lie within [2, {MAX_QUBITS}], got {lo}..{hi}")


def _uniform_overlap(n: int) -> float:
    """Overlap x = 2**(-n/2) of the uniform start with the target N-1, for a
    register size n the sweep accepts."""
    _check_n_range(n, n)
    return uniform_overlap(n)


def _commutator_setup(n: int):
    """Overlap, dimension, the iterate G and the reference G + 2P."""
    x, dim = _uniform_overlap(n), 2**n
    return x, dim, iterate_operator(x, dim), iterate_plus_projector(x, dim)


def verify_theorem_main(n: int, time_scale: float = 1.0) -> tuple[CheckReport, CheckReport]:
    """Exact-match rows |e^{-iHt0} - (G+2P)| and |e^{-2iHt0} - G^2|.

    ``time_scale`` perturbs the evolution time (t = time_scale * t0); the
    default 1.0 is the identity regime, anything else serves as a negative
    control that must break the match.
    """
    x, dim, iterate, target = _commutator_setup(n)
    t = time_scale * grover_time(x)
    gap_once = (commutator_propagator(x, 1.0, t, dim) - target).norm()
    gap_twice = (commutator_propagator(x, 1.0, 2.0 * t, dim) - iterate.power(2)).norm()
    once = CheckReport.from_measurement("theorem_main_iterate", n, x, t, gap_once, 0.0, _EXACT_TOL)
    twice = CheckReport.from_measurement("theorem_main_square", n, x, 2.0 * t, gap_twice, 0.0, _EXACT_TOL)
    return once, twice


def norm_gap_vs_prediction(n: int) -> CheckReport:
    """Gap |e^{-iH} - (G + 2P)| against the (2/3) x^3 sqrt(1-x^2) estimate."""
    x, dim, _, target = _commutator_setup(n)
    measured = (commutator_propagator(x, 1.0, 1.0, dim) - target).norm()
    predicted = (2.0 / 3.0) * x**3 * math.sqrt(1.0 - x * x)
    return CheckReport.from_measurement(
        "norm_gap", n, x, grover_time(x), measured, predicted, 5.0 * x**5
    )


def verify_corollary(n: int, t: float | None = None) -> CheckReport:
    """Arrival miss |e^{-iHt}|s> - |w>| at t = (pi/4) sqrt(N) (or a caller
    supplied time, e.g. the exact arrival theta/eta).

    The evolved start is the start turned by eta t, so the row costs the same
    at every n.
    """
    x = _uniform_overlap(n)
    if t is None:
        t = math.pi / 4.0 * math.sqrt(2**n)
    measured = PlaneCoords.rotated(x, rotation_rate(x, 1.0) * t).distance(1.0)
    return CheckReport.from_measurement("corollary", n, x, t, measured, 0.0, x)


def verify_fg_arrival(n: int, energy: float = 1.0, time_scale: float = 1.0) -> tuple[CheckReport, CheckReport]:
    """Arrival rows for the driver-plus-target generator at t = pi/(2Ex).

    The fidelity row compares |<w|state>| against 1; the state row compares
    the full vector against -i e^{-i pi/(2x)} |w>.  ``time_scale`` shortens or
    stretches the evolution for control runs.
    """
    validate_energy(energy)
    x = _uniform_overlap(n)
    t = time_scale * math.pi / (2.0 * energy * x)
    state = fg_evolution_closed_form(x, energy, t)
    arrival = -1j * cmath.exp(-1j * math.pi / (2.0 * x))
    return (
        CheckReport.from_measurement("fg_arrival_fidelity", n, x, t, abs(state.along_w), 1.0, _EXACT_TOL),
        CheckReport.from_measurement("fg_arrival_state", n, x, t, state.distance(arrival), 0.0, _EXACT_TOL),
    )


# each runner looks its check up at call time, so a wrapper installed on the
# module is called
_CHECK_RUNNERS = {
    "theorem_main": lambda n: verify_theorem_main(n),
    "norm_gap": lambda n: (norm_gap_vs_prediction(n),),
    "corollary": lambda n: (verify_corollary(n),),
    "fg_arrival": lambda n: verify_fg_arrival(n),
}


def validate_sweep(checks: list[str], n_range: tuple[int, int]) -> None:
    """Reject unknown check names (listing the valid ones), repeated names and
    an n-range that is reversed or leaves [2, MAX_QUBITS]; every check runs at
    every n in it."""
    unknown = [name for name in checks if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(
            f"unknown check name(s) {unknown}; valid names: {', '.join(CHECK_NAMES)}"
        )
    duplicates = sorted({name for name in checks if checks.count(name) > 1})
    if duplicates:
        raise ValueError(f"check name(s) {duplicates} given more than once")
    _check_n_range(*n_range)


def run_sweep(checks, n_range: tuple[int, int]) -> SweepResult:
    """Run the named checks over an inclusive n-range.

    The request is checked by :func:`validate_sweep`.  Rows come back sorted by
    (check_name, n).
    """
    checks = list(checks)
    validate_sweep(checks, n_range)
    lo, hi = n_range
    rows: list[CheckReport] = []
    for name in checks:
        for n in range(lo, hi + 1):
            rows.extend(_CHECK_RUNNERS[name](n))
    rows.sort(key=lambda row: (row.check_name, row.n))
    return SweepResult(
        rows=tuple(rows),
        timestamp=datetime.now(timezone.utc).isoformat(),
        version=__version__,
    )


def _row_record(row: CheckReport) -> dict:
    return {
        "check_name": row.check_name,
        "n": row.n,
        "N": row.dim,
        "x": row.x,
        "t0": row.t0,
        "measured": row.measured,
        "predicted": row.predicted,
        "tolerance": row.tolerance,
        "passed": row.passed,
    }


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def to_csv(result: SweepResult) -> str:
    """Render rows as CSV.  Carries no metadata, so equal sweeps give equal bytes."""
    lines = [",".join(CSV_COLUMNS)]
    for row in result.rows:
        record = _row_record(row)
        lines.append(",".join(_format_cell(record[col]) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def to_json(result: SweepResult) -> str:
    """Render rows plus metadata (timestamp, tool version) as JSON."""
    payload = {
        "metadata": {
            "timestamp": result.timestamp,
            "version": result.version,
        },
        "rows": [_row_record(row) for row in result.rows],
    }
    return json.dumps(payload, indent=2) + "\n"
