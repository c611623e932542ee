"""Dense N x N reference routes: the independent oracle the test suite holds
the plane route of :mod:`groverlab` against.

Conventions:

* a *state* is a one-dimensional ``complex128`` array of unit Euclidean norm;
* an *operator* is a square ``complex128`` array, stored dense and row-major;
* the *operator norm* is the spectral norm ``sup_{|v|=1} |Av|``, i.e. the
  largest singular value.

States are O(N) vectors; the operator routes (spectral norm, series and
eigendecomposition exponentials, the compound-interest limit, the iterate,
the generator builders) take or build dense N x N matrices, cost up to
O(N^3), and share no code with the 2x2 plane algebra of the package.  The
builders that take a register are capped at ``MAX_DENSE_QUBITS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from groverlab.errors import DegeneratePlaneError
from groverlab.grover import _OVERLAP_EPS, SearchProblem, check_overlap, check_steps, grover_state
from groverlab.hamiltonians import matching_time, validate_energy
from groverlab.linalg import check_qubits
from groverlab.plane import PlaneCoords

#: absolute entrywise tolerance for the structural predicates below
PREDICATE_ATOL = 1e-10

_SERIES_TOL = 1e-16

#: largest register a dense N x N reference builder accepts
MAX_DENSE_QUBITS = 12


def _check_dense_qubits(n: int) -> int:
    if not 1 <= n <= MAX_DENSE_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_DENSE_QUBITS}], got {n}")
    return n


# --- states and operators ------------------------------------------------------


def _as_operator(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _require_finite(a: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in a dim-dimensional space."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range [0, {dim})")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def uniform_state(n: int) -> np.ndarray:
    """Equal superposition over all 2**n basis states of an n-qubit register.

    Every amplitude is 2**(-n/2), so the overlap with any basis state is
    exactly 2**(-n/2).
    """
    dim = 2 ** check_qubits(n)
    return np.full(dim, 2.0 ** (-n / 2), dtype=complex)


def lift(coords: PlaneCoords, sigma: np.ndarray, w: int) -> np.ndarray:
    """Expand plane coordinates back into a full state vector
    along_w|w> + along_u|u>, where |u> is the normalised residual of the
    start ``sigma`` (with <w|sigma> real positive) off |w>."""
    wv = basis_state(sigma.size, w)
    residual = sigma - sigma[w] * wv
    return coords.along_w * wv + coords.along_u * residual / np.linalg.norm(residual)


def is_hermitian(a, atol: float = PREDICATE_ATOL) -> bool:
    a = _as_operator(a)
    return bool(np.allclose(a, a.conj().T, rtol=0.0, atol=atol))


def is_skew_hermitian(a, atol: float = PREDICATE_ATOL) -> bool:
    a = _as_operator(a)
    return bool(np.allclose(a, -a.conj().T, rtol=0.0, atol=atol))


def is_unitary(a, atol: float = PREDICATE_ATOL) -> bool:
    a = _as_operator(a)
    return bool(np.allclose(a @ a.conj().T, np.eye(a.shape[0]), rtol=0.0, atol=atol))


def operator_norm(a) -> float:
    """Spectral norm (largest singular value) of an operator.

    Submultiplicative, and equal to 1 for every unitary.
    """
    a = _require_finite(_as_operator(a))
    return float(np.linalg.norm(a, 2))


def matrix_exponential(a) -> np.ndarray:
    """Exponential ``e^A`` summed from the power series, with scaling and squaring.

    The argument is halved until its spectral norm is at most 0.5, the series
    I + A + A^2/2! + ... is summed until the next term falls below 1e-16 in
    Frobenius norm, and the result is squared back up.  Works for arbitrary
    square matrices; see :func:`hermitian_propagator` for the eigenvalue-based
    route available when the generator is hermitian.
    """
    a = _require_finite(_as_operator(a))
    dim = a.shape[0]
    norm = operator_norm(a)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        a = a / (2.0**squarings)
    result = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    k = 1
    while True:
        term = term @ a / k
        result = result + term
        if np.linalg.norm(term) < _SERIES_TOL:
            break
        k += 1
        if k > 128:  # unreachable for scaled norm <= 0.5; guards bad input
            raise RuntimeError("matrix exponential series failed to converge")
    for _ in range(squarings):
        result = result @ result
    return result


def hermitian_propagator(h, t: float = 1.0) -> np.ndarray:
    """Unitary ``e^{-i h t}`` for hermitian ``h``, via eigendecomposition.

    Independent of the series route in :func:`matrix_exponential`; the two are
    cross-checked in the test suite.
    """
    h = _require_finite(_as_operator(h))
    if not is_hermitian(h):
        raise ValueError("propagator generator must be hermitian")
    eigenvalues, vectors = np.linalg.eigh(h)
    phases = np.exp(-1j * eigenvalues * t)
    return (vectors * phases) @ vectors.conj().T


def power_limit_approx(a, k: int) -> np.ndarray:
    """Compound-interest approximation ``(I + A/k)^k`` of the exponential.

    Converges to ``e^A`` as k grows, with error O(1/k) for fixed A.
    """
    a = _as_operator(a)
    if k < 1:
        raise ValueError(f"power count must be a positive integer, got {k}")
    factor = np.eye(a.shape[0], dtype=complex) + a / k
    return np.linalg.matrix_power(factor, k)


def commutator(a, b) -> np.ndarray:
    """Commutator ``AB - BA``."""
    a = _as_operator(a)
    b = _as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


# --- the digital search -------------------------------------------------------


def overlap_phase(overlap: complex) -> tuple[complex, float]:
    """Unit phase that makes ``overlap`` real positive, and its modulus x.

    Multiplying a start state (or a driver) by the phase leaves every
    projector and the iterate unchanged.  x is validated by
    :func:`~groverlab.grover.check_overlap`.
    """
    x = check_overlap(abs(overlap))
    return overlap.conjugate() / x, x


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
    from oracle access to the indicator function alone.
    """
    _check_dense_qubits(problem.n)
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


def walsh_hadamard(n: int) -> np.ndarray:
    """The n-qubit Walsh-Hadamard transform.

    Entry (i, j) is 2**(-n/2) * (-1)**popcount(i & j).  Self-inverse, unitary,
    and maps |0> to the uniform superposition.  The +/-1 pattern is built
    exactly and scaled once, so every entry is exactly +/- 2**(-n/2).
    """
    _check_dense_qubits(n)
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    m = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        m = np.kron(m, h)
    m *= 2.0 ** (-n / 2)
    return m


def make_driver(matrix, problem: SearchProblem) -> DriverUnitary:
    """Phase-adjust a unitary so <w|U|0> is real positive and package it."""
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


def grover_on_plane(x: float):
    """Action of G on coordinates in the non-orthogonal (start, target) basis,
    the paper's form.

    Columns are the images of the start and target states:

        G|s> = (1 - 4x^2)|s> + 2x|w>,      G|w> = -2x|s> + |w>.
    """
    check_overlap(x)
    return ((1.0 - 4.0 * x * x, -2.0 * x), (2.0 * x, 1.0))


def run_grover(problem: SearchProblem, driver: DriverUnitary, k: int) -> tuple[np.ndarray, float]:
    """Lift G^k U|0> from the plane of an arbitrary driver to a full state;
    report it with the probability of measuring the target."""
    check_steps(k)
    coords = grover_state(driver.x, k)
    state = lift(coords, driver.matrix[:, 0], problem.w)
    return state, float(abs(coords.along_w) ** 2)


def success_trajectory(problem: SearchProblem, driver: DriverUnitary, k_max: int) -> np.ndarray:
    """Success probability after 0, 1, ..., k_max applications of G, read off
    the plane of an arbitrary driver."""
    check_steps(k_max)
    return np.array([abs(grover_state(driver.x, k).along_w) ** 2 for k in range(k_max + 1)])


# --- the generators -----------------------------------------------------------


def _start_vector(sigma, w: int) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.ndim != 1:
        raise ValueError(f"start state must be a vector, got shape {sigma.shape}")
    if not 0 <= w < sigma.size:
        raise ValueError(f"target index {w} out of range [0, {sigma.size})")
    return sigma


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


def commutator_hamiltonian(sigma, w: int, energy: float = 1.0) -> np.ndarray:
    """Commutator generator (2i/E)[H_w, H_D] = 2iEx(|w><s| - |s><w|).

    Built from the dyadic form (fewer rounding steps than multiplying the
    projectors out); hermitian and traceless.  Restricted to the plane its
    eigenvalues are +/- E sin(2 theta) with eigenvectors given by
    :func:`h_eigensystem`, and it annihilates the orthogonal complement.
    """
    sigma, wv, x = _plane(sigma, w, energy)
    return 2j * energy * x * (np.outer(wv, sigma.conj()) - np.outer(sigma, wv.conj()))


def h_evolution_closed_form(x: float, energy: float, t: float):
    """Plane propagator of e^{-iHt} in (start, target) coordinates, the
    paper's form:

        [ sin(theta - eta t)   -sin(eta t)        ]
        [ sin(eta t)            sin(theta + eta t)] / sin(theta).

    At t = theta/eta the first column is (0, 1): the start state has rotated
    exactly onto the target.  At t = t0 the matrix equals the plane action of
    the digital iterate G.  eta = E sin(2 theta) is evaluated as
    2Ex sqrt(1 - x^2): sin(2 arccos x) would lose digits to the rounding of
    2 theta near pi, 1e-13 relative at x = 2**-10.
    """
    check_overlap(x)
    theta = math.acos(x)
    s = math.sqrt(1.0 - x * x)
    eta = 2.0 * energy * x * s
    return (
        (math.sin(theta - eta * t) / s, -math.sin(eta * t) / s),
        (math.sin(eta * t) / s, math.sin(theta + eta * t) / s),
    )


def h_eigensystem(x: float, energy: float = 1.0) -> tuple[tuple[float, PlaneCoords], tuple[float, PlaneCoords]]:
    """Plane eigensystem of the commutator generator.

    Returns ((+eta, v+), (-eta, v-)) with eta = E sin(2 theta) and

        v(+/-) = (e^{+/- i theta} |s> - |w>) / (sqrt(2) sin theta),

    each of unit norm, given by its components on (|w>, |u>) through
    |s> = x|w> + sin(theta)|u>.
    """
    check_overlap(x)
    theta = math.acos(x)
    eta = energy * math.sin(2.0 * theta)
    scale = 1.0 / (math.sqrt(2.0) * math.sin(theta))

    def eigenvector(phase: complex) -> PlaneCoords:
        return PlaneCoords(along_w=scale * (phase * x - 1.0), along_u=scale * phase * math.sin(theta))

    return (eta, eigenvector(np.exp(1j * theta))), (-eta, eigenvector(np.exp(-1j * theta)))


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


# --- the incremental stepper --------------------------------------------------


def naive_generator(problem: SearchProblem) -> np.ndarray:
    """Stepper matrix A = sqrt(N)(|w><u| - |u><w|) for the uniform state |u>.

    Real skew-symmetric with integer entries: row w is all +1, column w all
    -1, zero elsewhere (and on the diagonal).  Applying I + eps*A moves an eps
    fraction of every unmarked amplitude onto the target.
    """
    _check_dense_qubits(problem.n)
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
