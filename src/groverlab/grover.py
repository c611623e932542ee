"""Digital Grover search over a single marked element.

Builds the two reflections (about |0> and about the target), an arbitrary
driver unitary with nonzero start-target overlap, the search iterate

    G = -U I_0 U^{-1} I_w,

and runs the iterated search.  The driver is phase-adjusted so that the
overlap x = <w|U|0> is real and positive; this adjustment never changes G.

G acts on the (start, target) plane by :func:`grover_on_plane` and as -1 on
its orthogonal complement, whatever the driver, so the walk, the iteration
counts and :func:`iterate_operator` need only x; the dense
:func:`grover_iterate` is kept as the independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DegeneratePlaneError, OrthogonalStartError
from .linalg import MAX_DENSE_QUBITS, check_qubits, is_unitary, uniform_state
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


def overlap_phase(overlap: complex) -> tuple[complex, float]:
    """Unit phase that makes ``overlap`` real positive, and its modulus x.

    Multiplying a start state (or a driver) by the phase leaves every
    projector and the iterate unchanged.  x is validated by
    :func:`check_overlap`.
    """
    x = check_overlap(abs(overlap))
    return overlap.conjugate() / x, x


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


@dataclass(frozen=True)
class DriverUnitary:
    """A driver unitary together with its (phase-adjusted) start-target overlap.

    ``matrix`` already carries the phase that makes x = <w|U|0> real positive,
    and theta = arccos(x).
    """

    matrix: np.ndarray
    x: float
    theta: float


def oracle_inverter(problem: SearchProblem) -> np.ndarray:
    """Reflection I - 2|w><w| that flips the phase of the marked basis state.

    Diagonal with entry -1 at (w, w) and +1 elsewhere, so it can be realised
    from oracle access to the indicator function alone.  Dense, so the
    register is capped at ``MAX_DENSE_QUBITS``.
    """
    check_qubits(problem.n, MAX_DENSE_QUBITS)
    d = np.ones(problem.dim, dtype=complex)
    d[problem.w] = -1.0
    return np.diag(d)


def zero_inverter(dim: int) -> np.ndarray:
    """Reflection I - 2|0><0| about the all-zeros basis state."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    d = np.ones(dim, dtype=complex)
    d[0] = -1.0
    return np.diag(d)


def uniform_start(problem: SearchProblem) -> tuple[np.ndarray, float]:
    """Start state U|0> of the Walsh-Hadamard driver, the uniform superposition,
    and its overlap x = 2**(-n/2) with the target.

    Built in O(N) by :func:`uniform_state` rather than as a column of the
    N x N driver.  Every amplitude is real positive, so no phase adjustment is
    needed; x is validated by :func:`check_overlap`.
    """
    sigma = uniform_state(problem.n)
    return sigma, check_overlap(float(sigma[problem.w].real))


def walsh_hadamard(n: int) -> np.ndarray:
    """The n-qubit Walsh-Hadamard transform.

    Entry (i, j) is 2**(-n/2) * (-1)**popcount(i & j).  Self-inverse, unitary,
    and maps |0> to the uniform superposition.  The +/-1 pattern is built
    exactly and scaled once, so every entry is exactly +/- 2**(-n/2).  Dense,
    so n is capped at ``MAX_DENSE_QUBITS``.
    """
    check_qubits(n, MAX_DENSE_QUBITS)
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    m = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        m = np.kron(m, h)
    m *= 2.0 ** (-n / 2)
    return m


def make_driver(matrix, problem: SearchProblem) -> DriverUnitary:
    """Phase-adjust a unitary so <w|U|0> is real positive and package it.

    The overlap is validated by :func:`check_overlap`.
    """
    matrix = _driver_matrix(matrix, problem)
    if not is_unitary(matrix):
        raise ValueError("driver matrix is not unitary")
    phase, x = overlap_phase(complex(matrix[problem.w, 0]))
    return DriverUnitary(matrix=matrix * phase, x=x, theta=math.acos(x))


def _driver_matrix(matrix, problem: SearchProblem) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (problem.dim, problem.dim):
        raise ValueError(f"driver shape {matrix.shape} does not match dimension {problem.dim}")
    return matrix


def grover_iterate(matrix, problem: SearchProblem) -> np.ndarray:
    """Search iterate G = -U I_0 U^{-1} I_w for a driver matrix U.

    U need not be phase-adjusted: a global phase cancels between U and
    U^{-1}.  The two inverters are diagonal, so they are applied as column
    scalings of their neighbours; the result is the exact four-factor product.
    """
    matrix = _driver_matrix(matrix, problem)
    d0 = np.ones(problem.dim)
    d0[0] = -1.0
    dw = np.ones(problem.dim)
    dw[problem.w] = -1.0
    return -(((matrix * d0) @ matrix.conj().T) * dw)


def grover_on_plane(x: float) -> np.ndarray:
    """Action of G on coordinates in the non-orthogonal (start, target) basis.

    Columns are the images of the start and target states:

        G|s> = (1 - 4x^2)|s> + 2x|w>,      G|w> = -2x|s> + |w>.
    """
    check_overlap(x)
    return np.array([[1.0 - 4.0 * x * x, -2.0 * x], [2.0 * x, 1.0]])


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
    """G as a plane operator: :func:`grover_on_plane` on the plane, -1 on the complement."""
    return PlaneOperator.from_start_target(grover_on_plane(x), x, -1.0, dim)


def grover_walk(x: float):
    """Yield the (start, target) coordinates of U|0>, G U|0>, G^2 U|0>, ... without end.

    Each step is the 2x2 product with :func:`grover_on_plane`.
    """
    step = grover_on_plane(x)
    coords = np.array([1.0, 0.0])
    while True:
        yield PlaneCoords(complex(coords[0]), complex(coords[1]))
        coords = step @ coords


def run_grover(problem: SearchProblem, driver: DriverUnitary, k: int) -> tuple[np.ndarray, float]:
    """Apply G k times to the prepared state U|0> and report the final state
    and the probability of measuring the target.  k is checked by
    :func:`check_steps`."""
    check_steps(k)
    coords = next(islice(grover_walk(driver.x), k, None))
    state = coords.lift(driver.matrix[:, 0], problem.w)
    return state, float(abs(coords.target_amplitude(driver.x)) ** 2)


def success_trajectory(problem: SearchProblem, driver: DriverUnitary, k_max: int) -> np.ndarray:
    """Success probability after 0, 1, ..., k_max applications of G; k_max is
    checked by :func:`check_steps`."""
    check_steps(k_max)
    walk = islice(grover_walk(driver.x), k_max + 1)
    return np.array([abs(coords.target_amplitude(driver.x)) ** 2 for coords in walk])
