"""The (start, target) plane: coordinates of states in it, and operators that
act on it by a 2x2 block and on its orthogonal complement by one scalar.

For a start state |s> whose overlap x = <w|s> with the target is real
positive, the plane has the orthonormal basis V = [|w>, |u>], where |u> is the
normalised residual of |s> off |w>, so |s> = x|w> + sqrt(1 - x^2)|u>.  Every
operator of the search (the iterate G, the propagators e^{-iHt}, e^{-iH't}
and e^{-iH~t}, G + 2P) has the form c I + V M V^dagger with M 2x2, so its
products, powers, differences and spectral norm cost the same at every N.
Matrices and vectors are the tuples of :mod:`groverlab.linalg`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import mat_mul, mat_power, mat_sub, spectral_norm


def plane_basis(x: float):
    """Columns |s> and |w> written in the orthonormal basis (|w>, |u>):

        [[x,              1],
         [sqrt(1 - x^2),  0]].
    """
    return ((x, 1.0), (math.sqrt(1.0 - x * x), 0.0))


@dataclass(frozen=True)
class PlaneCoords:
    """Coefficients (c_sigma, c_w) of a state c_sigma|s> + c_w|w> in the
    non-orthogonal (start, target) basis with overlap x = <w|s>."""

    c_sigma: complex
    c_w: complex

    def target_amplitude(self, x: float) -> complex:
        """Amplitude <w|state> = c_sigma x + c_w."""
        return self.c_sigma * x + self.c_w

    def plane_norm(self, x: float) -> float:
        """Norm of the represented state.

        Taken from its components c_sigma x + c_w and c_sigma sqrt(1 - x^2)
        in the orthonormal basis (|w>, |u>) rather than from the quadratic
        form with the cross term 2 Re(conj(c_sigma) c_w x), which cancels to
        rounding noise of order 1e-16 for a state near zero and would then
        leave a square root of order 1e-8.
        """
        along_w = self.target_amplitude(x)
        along_u = self.c_sigma * math.sqrt(1.0 - x * x)
        return math.hypot(along_w.real, along_w.imag, along_u.real, along_u.imag)


@dataclass(frozen=True)
class PlaneOperator:
    """Operator c I + V M V^dagger on an N-dimensional space.

    ``block`` is its action c I_2 + M on the plane in the orthonormal basis
    (|w>, |u>); ``complement`` is the scalar c it applies on the orthogonal
    complement of the plane, which is empty when ``dim`` is 2.
    """

    block: tuple
    complement: complex
    dim: int

    @classmethod
    def from_start_target(cls, matrix, x: float, complement: complex, dim: int) -> "PlaneOperator":
        """The operator whose plane action has ``matrix`` in the (start, target)
        basis, the basis of the closed forms, and which applies ``complement``
        off the plane."""
        r = math.sqrt(1.0 - x * x)
        inverse_basis = ((0.0, 1.0 / r), (1.0, -x / r))
        block = mat_mul(mat_mul(plane_basis(x), matrix), inverse_basis)
        return cls(block, complex(complement), dim)

    def __sub__(self, other: "PlaneOperator") -> "PlaneOperator":
        return PlaneOperator(mat_sub(self.block, other.block), self.complement - other.complement, self.dim)

    def power(self, k: int) -> "PlaneOperator":
        """The k-th power, k >= 0."""
        return PlaneOperator(mat_power(self.block, k), self.complement**k, self.dim)

    def norm(self) -> float:
        """Spectral norm: the larger of the block's spectral norm and |c|, where
        |c| counts only when the complement is not empty (N > 2)."""
        block_norm = spectral_norm(self.block)
        return max(block_norm, abs(self.complement)) if self.dim > 2 else block_norm
