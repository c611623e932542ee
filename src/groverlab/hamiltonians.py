"""Continuous-time formulations of the search: rank-2 Hamiltonians on the
plane spanned by the start and target states.

Two generators are studied for a start state |s>, target index w and energy
scale E (hbar = 1, so E*t is dimensionless):

* the driver-plus-target sum of Farhi and Gutmann,
  H' = E(|s><s| + |w><w|), whose evolution reaches the target at
  t = pi / (2 E x);
* the commutator Hamiltonian H = (2i/E)[H_w, H_D] = 2iEx(|w><s| - |s><w|),
  whose evolution retraces the digital iterate: e^{-iHt0} = G + 2P at
  t0 = (pi - 2 arccos x) / (2 x sqrt(1 - x^2)) = arcsin x / (x sqrt(1 - x^2)).

Here x = <w|s> is made real positive by a phase adjustment of the start
state, theta = arccos x.  In the orthonormal plane basis (|w>, |u>) of
:mod:`groverlab.plane`, e^{-iHt} is the rotation by eta t, with
eta = 2Ex sqrt(1 - x^2) = E sin 2theta (:func:`rotation_rate`), and G is the
rotation by 2 asin x: they agree at t0/E.  P projects onto the orthogonal
complement of the plane, where G acts as -1 and e^{-iHt} as +1; adding
(pi E/t0) P to H yields an augmented generator H~ whose evolution at t0/E
equals G on the whole space.

The closed forms give the dynamics on the plane in O(1):
:func:`fg_evolution_closed_form` for e^{-iH't}|s>, and
:func:`commutator_propagator` and :func:`augmented_propagator` for e^{-iHt}
and e^{-iH~t}.  The test suite builds the generators as dense matrices and
holds the closed forms against them.

The incremental stepper of the last section applies I + eps*A for the integer
matrix A = sqrt(N)(|w><u| - |u><w|) built on the uniform state |u>, moving
amplitude from all unmarked states onto the target a little at a time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .grover import (
    SearchProblem,
    check_overlap,
    check_steps,
    iterate_operator,
    uniform_overlap,
)
from .plane import PlaneCoords, PlaneOperator


def validate_energy(energy: float) -> None:
    """Reject an energy scale E that is not positive and finite."""
    if not (math.isfinite(energy) and energy > 0.0):
        raise ValueError(f"energy must be positive and finite, got {energy}")


def fg_evolution_closed_form(x: float, energy: float, t: float) -> PlaneCoords:
    """Closed form of e^{-iH't} applied to the start state:

        e^{-iEt} [ cos(xEt) |s> - i sin(xEt) |w> ]
          = e^{-iEt} [ (x cos(xEt) - i sin(xEt)) |w> + sqrt(1 - x^2) cos(xEt) |u> ].

    It holds at every real t.  At t = pi/(2Ex) the state is
    -i e^{-i pi/(2x)} |w>, i.e. the target up to phase.
    """
    check_overlap(x)
    phase = cmath.exp(-1j * energy * t)
    angle = x * energy * t
    along_u = math.sqrt(1.0 - x * x) * math.cos(angle)
    return PlaneCoords(phase * complex(x * math.cos(angle), -math.sin(angle)), phase * along_u)


def rotation_rate(x: float, energy: float) -> float:
    """Angle eta = 2Ex sqrt(1 - x^2) = E sin 2theta by which e^{-iHt} turns
    the plane per unit time."""
    check_overlap(x)
    return 2.0 * energy * x * math.sqrt(1.0 - x * x)


def commutator_propagator(x: float, energy: float, t: float, dim: int) -> PlaneOperator:
    """e^{-iHt} as a plane operator: the rotation by eta t, and 1 on the
    complement, which H annihilates."""
    return PlaneOperator.rotation(rotation_rate(x, energy) * t, 1.0, dim)


def augmented_propagator(x: float, energy: float, t: float, dim: int) -> PlaneOperator:
    """e^{-iH~t} for the augmented generator H~ = H + (pi E/t0) P as a plane
    operator: e^{-iHt} on the plane, where P vanishes, and e^{-i pi t E/t0} on
    the complement."""
    propagator = commutator_propagator(x, energy, t, dim)
    return replace(propagator, complement=cmath.exp(-1j * math.pi * t / matching_time(x, energy)))


def grover_time(x: float) -> float:
    """Time t0 at which e^{-iHt0} reproduces one digital iterate on the plane:

        t0 = (pi - 2 theta) / sin(2 theta) = arcsin x / (x sqrt(1 - x^2)).

    Evaluated from the arcsin form, since pi - 2 arccos x = 2 arcsin x: the
    difference would cancel at small x, the arcsin does not.
    """
    check_overlap(x)
    return math.asin(x) / (x * math.sqrt(1.0 - x * x))


def matching_time(x: float, energy: float) -> float:
    """Time t0/E at which e^{-iHt} reproduces one digital iterate at energy E.

    H scales with E, so the unit-energy time :func:`grover_time` shrinks by E.
    """
    return grover_time(x) / energy


def t0_series(x: float) -> float:
    """Quadratic series 1 + (2/3) x^2 of :func:`grover_time` about x = 0.

    The neglected term is (8/15) x^4 + O(x^6).
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"overlap must lie in [0, 1), got {x}")
    return 1.0 + (2.0 / 3.0) * x * x


def iterate_plus_projector(x: float, dim: int) -> PlaneOperator:
    """G + 2P as a plane operator, the operator e^{-iHt0} equals: G on the
    plane, where P vanishes, and -1 + 2 = 1 on the complement."""
    return replace(iterate_operator(x, dim), complement=1.0)


def validate_stepper(eps: float, max_steps: int | None = None) -> None:
    """Reject a step size outside (0, 0.1] and a step count outside
    [1, MAX_STEPS] (``None`` leaves the count to the caller)."""
    if not 0.0 < eps <= 0.1:
        raise ValueError(f"step size must lie in (0, 0.1], got {eps}")
    if max_steps is not None:
        check_steps(max_steps, 1)


@dataclass(frozen=True)
class NaiveSearchResult:
    """Target-amplitude trajectory of the renormalised incremental search."""

    amplitudes: list[float]
    peak_step: int
    peak_amplitude: float


def naive_search(problem: SearchProblem, eps: float, max_steps: int) -> NaiveSearchResult:
    """|<w|state>| after 0, 1, ..., max_steps applications of I + eps*A to the
    uniform state, each followed by renormalisation.

    I + eps*A is not unitary, so the state is renormalised; this preserves the
    amplitude ratios the scheme relies on.  The reported peak is the first
    argmax over the recorded window, so ``max_steps`` should cover the
    expected first arrival near theta / (eps sqrt(N) sin theta); the
    trajectory climbs strictly up to that first peak and oscillates beyond it.
    """
    validate_stepper(eps, max_steps)
    # the uniform start never leaves the plane, where A = sqrt(N - 1) J turns
    # the orthonormal basis (see groverlab.plane) by J = [[0, 1], [-1, 0]]:
    # I + eps*A is the rotation by atan(eps sqrt(N - 1)) scaled by
    # sqrt(1 + eps^2 (N - 1)), and renormalising removes the scale
    start = math.asin(uniform_overlap(problem.n))
    turn = math.atan(eps * math.sqrt(problem.dim - 1))
    amplitudes = [abs(math.sin(start + k * turn)) for k in range(max_steps + 1)]
    peak_step = max(range(len(amplitudes)), key=amplitudes.__getitem__)
    return NaiveSearchResult(
        amplitudes=amplitudes,
        peak_step=peak_step,
        peak_amplitude=amplitudes[peak_step],
    )
