"""Digital Grover search over a single marked element.

The search iterate G = -U I_0 U^{-1} I_w, built from the two reflections
(about |0> and about the target) and a driver unitary U, turns the (start,
target) plane by 2 asin x and acts as -1 on its orthogonal complement,
whatever the driver, once the driver's phase makes the overlap
x = <w|U|0> real positive (a phase that never changes G).  So after j
iterates the start has turned to the angle (2j + 1) asin x from the target's
complement, and the iteration counts, the success trajectory and
:func:`iterate_operator` need only x; for the Walsh-Hadamard driver
x = 2**(-n/2) (:func:`uniform_overlap`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneratePlaneError, OrthogonalStartError
from .linalg import check_qubits
from .plane import PlaneCoords, PlaneOperator

#: most iterates or stepper steps a walk takes (grover's k, naive's step
#: count); its trajectory holds one more point, the start
MAX_STEPS = 10**7

#: overlaps within this distance of 0 or 1 leave no (start, target) plane
_OVERLAP_EPS = 1e-12


def check_overlap(x: float) -> float:
    """Return the start-target overlap x if it lies numerically inside (0, 1).

    Raises :class:`OrthogonalStartError` when x is numerically zero (the start
    state never moves toward the target) and :class:`DegeneratePlaneError`
    when x is numerically one (the start state already is the target); every
    plane formula divides by x or by sin(theta).
    """
    if x < _OVERLAP_EPS:
        raise OrthogonalStartError(f"overlap {x!r} is not above zero; the start never reaches the target")
    if x > 1.0 - _OVERLAP_EPS:
        raise DegeneratePlaneError(f"overlap {x!r} is not below one; the start coincides with the target")
    return x


def check_steps(count: int, least: int = 0) -> int:
    """Return a walk length ``count`` if it lies in [least, MAX_STEPS]."""
    if not least <= count <= MAX_STEPS:
        raise ValueError(f"step count must lie in [{least}, {MAX_STEPS}], got {count}")
    return count


@dataclass(frozen=True)
class SearchProblem:
    """A search instance: n qubits and the single marked index w.

    The indicator function being searched is f(i) = [i == w]; it is
    represented by the index alone.
    """

    n: int
    w: int

    def __post_init__(self) -> None:
        check_qubits(self.n)
        if not 0 <= self.w < 2**self.n:
            raise ValueError(f"target index {self.w} out of range [0, {2 ** self.n})")

    @property
    def dim(self) -> int:
        return 2**self.n


def uniform_overlap(n: int) -> float:
    """Overlap x = 2**(-n/2) of the uniform start, the Walsh-Hadamard driver's
    U|0>, with any target of an n-qubit register; validated by
    :func:`check_overlap`."""
    return check_overlap(2.0 ** (-n / 2))


@dataclass(frozen=True)
class IterationCount:
    """The two standard iteration-count prescriptions.

    ``paper`` is ceil(pi / (4x)), the estimate from Grover's original
    analysis; it overshoots for large overlaps.  ``optimal`` is
    round(pi / (4 arcsin x) - 1/2), the count that lands the first peak of the
    success probability sin^2((2k+1) arcsin x).
    """

    paper: int
    optimal: int


def iteration_count(x: float) -> IterationCount:
    """Iteration counts for a given start-target overlap x."""
    check_overlap(x)
    paper = math.ceil(math.pi / (4.0 * x))
    optimal = max(0, round(math.pi / (4.0 * math.asin(x)) - 0.5))
    return IterationCount(paper=paper, optimal=optimal)


def iterate_operator(x: float, dim: int) -> PlaneOperator:
    """G as a plane operator: the rotation by 2 asin x, and -1 on the complement."""
    check_overlap(x)
    return PlaneOperator.rotation(2.0 * math.asin(x), -1.0, dim)


def grover_state(x: float, k: int) -> PlaneCoords:
    """Plane coordinates of G^k U|0>: the start turned by k times 2 asin x."""
    return PlaneCoords.rotated(x, 2.0 * k * math.asin(x))


def success_probabilities(x: float, counts) -> list[float]:
    """Probability sin^2((2j + 1) asin x) of measuring the target after j
    iterates, for each j in ``counts``."""
    a = math.asin(check_overlap(x))
    return [math.sin((2 * j + 1) * a) ** 2 for j in counts]


def success_trajectory(x: float, k: int) -> list[float]:
    """Probability of measuring the target after 0, 1, ..., k iterates."""
    return success_probabilities(x, range(k + 1))
