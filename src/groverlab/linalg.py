"""The register cap, and complex 2x2 algebra in plain Python.

Every operator of the search is a rotation of the (start, target) plane plus
a scalar on its complement (see :mod:`groverlab.plane`), so the package
forms operator differences and powers on 2x2 matrices only.  A *matrix* is a
tuple of two rows ``((a, b), (c, d))``; entries are floats or complex
numbers.  The functions are pure.
"""

from __future__ import annotations

import math

#: largest register a search instance or a command accepts.  No command
#: builds an N-dimensional vector, so the cap is set by precision, not
#: memory: differences of nearby plane operators lose digits as the overlap
#: 2**(-n/2) shrinks, and the tests hold every output to its closed form up
#: to this size
MAX_QUBITS = 20


def check_qubits(n: int) -> int:
    """Return the qubit count n if it lies in [1, MAX_QUBITS]."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    return n


def mat_mul(a, b):
    """Product of two 2x2 matrices."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return (
        (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
        (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11),
    )


def mat_sub(a, b):
    """Difference of two 2x2 matrices."""
    return tuple(tuple(x - y for x, y in zip(row_a, row_b)) for row_a, row_b in zip(a, b))


def mat_power(a, k: int):
    """The k-th power of a 2x2 matrix, k >= 0, by repeated squaring."""
    if k < 0:
        raise ValueError(f"power must be nonnegative, got {k}")
    result = ((1.0, 0.0), (0.0, 1.0))
    square = a
    while k:
        k, bit = divmod(k, 2)
        if bit:
            result = mat_mul(result, square)
        if k:
            square = mat_mul(square, square)
    return result


def _abs2(z) -> float:
    return z.real * z.real + z.imag * z.imag


def spectral_norm(a) -> float:
    """Largest singular value of a 2x2 matrix M.

    The square root of the larger eigenvalue m + hypot(d, |g12|) of the Gram
    matrix M^dagger M, where m is half the sum and d half the difference of
    its diagonal and g12 its off-diagonal entry: both terms are nonnegative,
    so the sum adds no cancellation.
    """
    (a00, a01), (a10, a11) = a
    g00 = _abs2(a00) + _abs2(a10)
    g11 = _abs2(a01) + _abs2(a11)
    g01 = a00.conjugate() * a01 + a10.conjugate() * a11
    return math.sqrt(0.5 * (g00 + g11) + math.hypot(0.5 * (g00 - g11), abs(g01)))
