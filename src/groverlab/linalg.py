"""Dense complex linear algebra: states, and the reference operator routes.

Conventions used throughout the package:

* a *state* is a one-dimensional ``complex128`` array of unit Euclidean norm;
* an *operator* is a square ``complex128`` array, stored dense and row-major;
* the *operator norm* is the spectral norm ``sup_{|v|=1} |Av|``, i.e. the
  largest singular value.

States are O(N) vectors.  The operator functions (spectral norm, series
and eigendecomposition exponentials, the compound-interest limit) take dense
N x N matrices, cost O(N^3), and serve as the independent reference the test
suite holds the plane route of :mod:`groverlab.plane` against; the commands
never call them.  All functions are pure and results are safe to share
across threads.
"""

from __future__ import annotations

import numpy as np

#: absolute entrywise tolerance for the structural predicates below
PREDICATE_ATOL = 1e-10

_SERIES_TOL = 1e-16

#: largest register a state, a search instance or a command accepts: states
#: and plane work cost O(N)
MAX_QUBITS = 20

#: largest register a dense N x N reference builder accepts
MAX_DENSE_QUBITS = 12


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


def check_qubits(n: int, limit: int = MAX_QUBITS) -> int:
    """Return the qubit count n if it lies in [1, limit]."""
    if not 1 <= n <= limit:
        raise ValueError(f"qubit count must be in [1, {limit}], got {n}")
    return n


def uniform_state(n: int) -> np.ndarray:
    """Equal superposition over all 2**n basis states of an n-qubit register.

    Every amplitude is 2**(-n/2), so the overlap with any basis state is
    exactly 2**(-n/2).
    """
    dim = 2 ** check_qubits(n)
    return np.full(dim, 2.0 ** (-n / 2), dtype=complex)


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
