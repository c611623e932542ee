"""Continuous-time formulations of the search: rank-2 Hamiltonians on the
plane spanned by the start and target states.

Two generators are built for a start state |s>, target index w and energy
scale E (hbar = 1, so E*t is dimensionless):

* the driver-plus-target sum of Farhi and Gutmann,
  H' = E(|s><s| + |w><w|), whose evolution reaches the target at
  t = pi / (2 E x);
* the commutator Hamiltonian H = (2i/E)[H_w, H_D] = 2iEx(|w><s| - |s><w|),
  whose evolution retraces the digital iterate: e^{-iHt0} = G + 2P at
  t0 = (pi - 2 arccos x) / (2 x sqrt(1 - x^2)).

Here x = <w|s> is made real positive by a phase adjustment of the start
state, theta = arccos x, and eta = E sin 2theta is the plane rotation rate of
H.  At energy E the iterate is matched at t0/E.  P projects onto the
orthogonal complement of the plane, where G acts as -1 and e^{-iHt} as +1;
adding (pi E/t0) P to H yields an augmented generator whose evolution at t0/E
equals G on the whole space.

The three generators are built as dense matrices by :func:`fg_hamiltonian`,
:func:`commutator_hamiltonian` and :func:`augmented_hamiltonian`, which share
one signature ``(sigma, w, energy)``; they are the independent reference for
the closed forms, which give the same dynamics on the plane in O(1):
:func:`fg_evolution_closed_form` for e^{-iH't}|s>, and
:func:`commutator_propagator` and :func:`augmented_propagator` (built on
:func:`h_evolution_closed_form`) for e^{-iHt} and e^{-iH~t}.

The incremental stepper of the last section applies I + eps*A for the integer
matrix A = sqrt(N)(|w><u| - |u><w|) built on the uniform state |u>, moving
amplitude from all unmarked states onto the target a little at a time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegeneratePlaneError
from .grover import (
    _OVERLAP_EPS,
    SearchProblem,
    check_overlap,
    check_steps,
    iterate_operator,
    overlap_phase,
    uniform_start,
)
from .linalg import MAX_DENSE_QUBITS, basis_state, check_qubits
from .plane import PlaneCoords, PlaneOperator, plane_basis

_T0_SERIES_CUTOFF = 1e-6


def _start_vector(sigma, w: int) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.ndim != 1:
        raise ValueError(f"start state must be a vector, got shape {sigma.shape}")
    if not 0 <= w < sigma.size:
        raise ValueError(f"target index {w} out of range [0, {sigma.size})")
    return sigma


def validate_energy(energy: float) -> None:
    """Reject an energy scale E that is not positive and finite."""
    if not (math.isfinite(energy) and energy > 0.0):
        raise ValueError(f"energy must be positive and finite, got {energy}")


def _plane(sigma, w: int, energy: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Validated inputs of a generator builder: the start state phase-adjusted
    so <w|sigma> is real positive, the target vector, and the overlap x."""
    validate_energy(energy)
    sigma = _start_vector(sigma, w)
    phase, x = overlap_phase(complex(sigma[w]))
    return sigma * phase, basis_state(sigma.size, w), x


def fg_hamiltonian(sigma, w: int, energy: float = 1.0) -> np.ndarray:
    """Farhi-Gutmann generator E(|s><s| + |w><w|).

    Hermitian and rank 2; restricted to the (start, target) plane its
    eigenvalues are E(1 + x) and E(1 - x) with eigenvectors proportional to
    |s> + |w> and |s> - |w>.
    """
    sigma, wv, _ = _plane(sigma, w, energy)
    return energy * (np.outer(sigma, sigma.conj()) + np.outer(wv, wv.conj()))


def fg_evolution_closed_form(x: float, energy: float, t: float) -> PlaneCoords:
    """Closed form of e^{-iH't} applied to the start state:

        e^{-iEt} [ cos(xEt) |s> - i sin(xEt) |w> ].

    At t = pi/(2Ex) the state is -i e^{-i pi/(2x)} |w>, i.e. the target up to
    phase.
    """
    check_overlap(x)
    if t < 0.0:
        raise ValueError(f"evolution time must be nonnegative, got {t}")
    phase = np.exp(-1j * energy * t)
    angle = x * energy * t
    return PlaneCoords(c_sigma=phase * math.cos(angle), c_w=-1j * phase * math.sin(angle))


def commutator_hamiltonian(sigma, w: int, energy: float = 1.0) -> np.ndarray:
    """Commutator generator (2i/E)[H_w, H_D] = 2iEx(|w><s| - |s><w|).

    Built from the dyadic form (fewer rounding steps than multiplying the
    projectors out); hermitian and traceless.  Restricted to the plane its
    eigenvalues are +/- E sin(2 theta) with eigenvectors given by
    :func:`h_eigensystem`, and it annihilates the orthogonal complement.
    """
    sigma, wv, x = _plane(sigma, w, energy)
    return 2j * energy * x * (np.outer(wv, sigma.conj()) - np.outer(sigma, wv.conj()))


def h_eigensystem(x: float, energy: float = 1.0) -> tuple[tuple[float, PlaneCoords], tuple[float, PlaneCoords]]:
    """Plane eigensystem of the commutator generator.

    Returns ((+eta, v+), (-eta, v-)) with eta = E sin(2 theta) and

        v(+/-) = (e^{+/- i theta} |s> - |w>) / (sqrt(2) sin theta),

    each of unit norm under the non-orthogonal plane metric.
    """
    check_overlap(x)
    theta = math.acos(x)
    eta = energy * math.sin(2.0 * theta)
    scale = 1.0 / (math.sqrt(2.0) * math.sin(theta))
    plus = PlaneCoords(c_sigma=scale * np.exp(1j * theta), c_w=-scale)
    minus = PlaneCoords(c_sigma=scale * np.exp(-1j * theta), c_w=-scale)
    return (eta, plus), (-eta, minus)


def h_evolution_closed_form(x: float, energy: float, t: float) -> np.ndarray:
    """Plane propagator of e^{-iHt} in (start, target) coordinates:

        [ sin(theta - eta t)   -sin(eta t)        ]
        [ sin(eta t)            sin(theta + eta t)] / sin(theta).

    At t = theta/eta the first column is (0, 1): the start state has rotated
    exactly onto the target.  At t = t0 the matrix equals the plane action of
    the digital iterate G.
    """
    check_overlap(x)
    theta = math.acos(x)
    eta = energy * math.sin(2.0 * theta)
    s = math.sin(theta)
    return np.array(
        [
            [math.sin(theta - eta * t) / s, -math.sin(eta * t) / s],
            [math.sin(eta * t) / s, math.sin(theta + eta * t) / s],
        ],
        dtype=complex,
    )


def commutator_propagator(x: float, energy: float, t: float, dim: int) -> PlaneOperator:
    """e^{-iHt} as a plane operator: :func:`h_evolution_closed_form` on the
    plane, and 1 on the complement, which H annihilates."""
    return PlaneOperator.from_start_target(h_evolution_closed_form(x, energy, t), x, 1.0, dim)


def augmented_propagator(x: float, energy: float, t: float, dim: int) -> PlaneOperator:
    """e^{-iH~t} for the augmented generator H~ = H + (pi E/t0) P as a plane
    operator: e^{-iHt} on the plane, where P vanishes, and e^{-i pi t E/t0} on
    the complement."""
    propagator = commutator_propagator(x, energy, t, dim)
    return replace(propagator, complement=cmath.exp(-1j * math.pi * t / matching_time(x, energy)))


def grover_time(x: float) -> float:
    """Time t0 at which e^{-iHt0} reproduces one digital iterate on the plane:

        t0 = (pi - 2 arccos x) / (2 x sqrt(1 - x^2)) = (pi - 2 theta) / sin(2 theta).

    Evaluated from the arccos form for x >= 1e-6; below that the series
    1 + (2/3) x^2 is used to dodge the cancellation in pi - 2 arccos x.
    """
    check_overlap(x)
    if x < _T0_SERIES_CUTOFF:
        return t0_series(x)
    theta = math.acos(x)
    return (math.pi - 2.0 * theta) / math.sin(2.0 * theta)


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


def plane_projector_complement(sigma, w: int) -> np.ndarray:
    """Orthogonal projector P onto the complement of span{|s>, |w>}.

    Idempotent, hermitian, annihilates both spanning states, and has trace
    N - 2.
    """
    sigma = _start_vector(sigma, w)
    wv = basis_state(sigma.size, w)
    residual = sigma - sigma[w] * wv
    residual_norm = np.linalg.norm(residual)
    if residual_norm < _OVERLAP_EPS:
        raise DegeneratePlaneError("start state is (numerically) parallel to the target")
    u = residual / residual_norm
    return np.eye(sigma.size, dtype=complex) - np.outer(wv, wv.conj()) - np.outer(u, u.conj())


def iterate_plus_projector(x: float, dim: int) -> PlaneOperator:
    """G + 2P as a plane operator, the operator e^{-iHt0} equals: G on the
    plane, where P vanishes, and -1 + 2 = 1 on the complement."""
    return replace(iterate_operator(x, dim), complement=1.0)


def augmented_hamiltonian(sigma, w: int, energy: float = 1.0) -> np.ndarray:
    """Generator H + (pi E/t0) P whose evolution at t0/E equals G on the whole space.

    On the plane P vanishes, so the action is that of the commutator
    generator H; on the complement the added term contributes the phase
    e^{-i pi} = -1 that G applies there.
    """
    _, _, x = _plane(sigma, w, energy)
    h = commutator_hamiltonian(sigma, w, energy)
    h += (math.pi / matching_time(x, energy)) * plane_projector_complement(sigma, w)
    return h


def naive_generator(problem: SearchProblem) -> np.ndarray:
    """Stepper matrix A = sqrt(N)(|w><u| - |u><w|) for the uniform state |u>.

    Real skew-symmetric with integer entries: row w is all +1, column w all
    -1, zero elsewhere (and on the diagonal).  Applying I + eps*A moves an eps
    fraction of every unmarked amplitude onto the target.  Dense, so the
    register is capped at ``MAX_DENSE_QUBITS``.
    """
    check_qubits(problem.n, MAX_DENSE_QUBITS)
    dim = problem.dim
    a = np.zeros((dim, dim), dtype=complex)
    a[problem.w, :] = 1.0
    a[:, problem.w] = -1.0
    a[problem.w, problem.w] = 0.0
    return a


def naive_step(phi, generator, eps: float) -> np.ndarray:
    """One unnormalised increment (I + eps*A)|phi>."""
    if eps < 0.0:
        raise ValueError(f"step size must be nonnegative, got {eps}")
    phi = np.asarray(phi, dtype=complex)
    return phi + eps * (generator @ phi)


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

    amplitudes: np.ndarray
    peak_step: int
    peak_amplitude: float


def naive_search(problem: SearchProblem, eps: float, max_steps: int) -> NaiveSearchResult:
    """Repeatedly apply I + eps*A from the uniform state, renormalising after
    each step, and record |<w|state>| at every step.

    I + eps*A is not unitary, so the state is renormalised; this preserves the
    amplitude ratios the scheme relies on.  The reported peak is the argmax
    over the recorded window, so ``max_steps`` should cover the expected first
    arrival near theta / (eps sqrt(N) sin theta); the trajectory climbs
    strictly up to that first peak and oscillates beyond it.
    """
    validate_stepper(eps, max_steps)
    _, x = uniform_start(problem)
    # the uniform start never leaves the plane; in its orthonormal basis (see
    # groverlab.plane) A keeps the dyadic form sqrt(N)(|w><s| - |s><w|), with
    # |s> the uniform start
    state = plane_basis(x)[:, 0]
    target = np.array([1.0, 0.0])
    generator = math.sqrt(problem.dim) * (np.outer(target, state) - np.outer(state, target))
    amplitudes = np.empty(max_steps + 1)
    amplitudes[0] = abs(state[0])
    for step in range(1, max_steps + 1):
        state = naive_step(state, generator, eps)
        state = state / np.linalg.norm(state)
        amplitudes[step] = abs(state[0])
    peak_step = int(np.argmax(amplitudes))
    return NaiveSearchResult(
        amplitudes=amplitudes,
        peak_step=peak_step,
        peak_amplitude=float(amplitudes[peak_step]),
    )
