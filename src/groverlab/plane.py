"""The (start, target) plane: coordinates of states in it, and operators that
turn it by a rotation and act on its orthogonal complement by one scalar.

For a start state |s> whose overlap x = <w|s> with the target is real
positive, the plane has the orthonormal basis (|w>, |u>), where |u> is the
normalised residual of |s> off |w>, so |s> = sin(a)|w> + cos(a)|u> with
a = asin x.  Every operator of the search (the iterate G, the propagators
e^{-iHt} and e^{-iH~t}, G + 2P) turns that basis by an angle and applies one
scalar off the plane, so its products, powers, differences and spectral norm
cost the same at every N.  States are reported by their coefficients on |s>
and |w>.  Matrices are the tuples of :mod:`groverlab.linalg`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import mat_power, mat_sub, spectral_norm


@dataclass(frozen=True)
class PlaneCoords:
    """Coefficients (c_sigma, c_w) of a state c_sigma|s> + c_w|w> in the
    non-orthogonal (start, target) basis with overlap x = <w|s>."""

    c_sigma: complex
    c_w: complex

    @classmethod
    def rotated(cls, x: float, angle: float) -> "PlaneCoords":
        """The start state turned by ``angle`` towards the target,
        sin(a + angle)|w> + cos(a + angle)|u> with a = asin x:

            c_sigma = cos(a + angle) / sqrt(1 - x^2),   c_w = sin(angle) / sqrt(1 - x^2).
        """
        r = math.sqrt(1.0 - x * x)
        return cls(complex(math.cos(math.asin(x) + angle) / r), complex(math.sin(angle) / r))

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
    """Operator c I + V M V^dagger on an N-dimensional space, V = [|w>, |u>].

    ``block`` is its action c I_2 + M on the plane in the orthonormal basis
    (|w>, |u>); ``complement`` is the scalar c it applies on the orthogonal
    complement of the plane, which is empty when ``dim`` is 2.
    """

    block: tuple
    complement: complex
    dim: int

    @classmethod
    def rotation(cls, angle: float, complement: complex, dim: int) -> "PlaneOperator":
        """The operator that turns the plane by ``angle`` from |u> towards |w>,

            block = ((cos angle, sin angle), (-sin angle, cos angle)),

        and applies ``complement`` off the plane."""
        c, s = math.cos(angle), math.sin(angle)
        return cls(((c, s), (-s, c)), complex(complement), dim)

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
