"""The (start, target) plane: coordinates of states in it, and operators that
turn it by a rotation and act on its orthogonal complement by one scalar.

For a start state |s> whose overlap x = <w|s> with the target is real
positive, the plane has the orthonormal basis (|w>, |u>), where |u> is the
normalised residual of |s> off |w>, so |s> = sin(a)|w> + cos(a)|u> with
a = asin x.  Every operator of the search (the iterate G, the propagators
e^{-iHt} and e^{-iH~t}, G + 2P) turns that basis by an angle and applies one
scalar off the plane, so its products, powers, differences and spectral norm
cost the same at every N.  States are stored by their components on |w> and
|u>.  Matrices are the tuples of :mod:`groverlab.linalg`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import mat_power, mat_sub, spectral_norm


@dataclass(frozen=True)
class PlaneCoords:
    """Components of the state along_w |w> + along_u |u> on the orthonormal
    basis (|w>, |u>); ``along_w`` is the target amplitude <w|state>."""

    along_w: complex
    along_u: complex

    @classmethod
    def rotated(cls, x: float, angle: float) -> "PlaneCoords":
        """The start state turned by ``angle`` towards the target,
        sin(a + angle)|w> + cos(a + angle)|u> with a = asin x, by the angle-sum
        formulas: the rounding of a + angle, which grows with it, never enters."""
        r, c, s = math.sqrt(1.0 - x * x), math.cos(angle), math.sin(angle)
        return cls(complex(x * c + r * s), complex(r * c - x * s))

    def distance(self, target: complex = 0.0) -> float:
        """Distance |state - target |w>| of the state from a multiple of the
        target; the default 0 gives the norm of the state."""
        along_w = self.along_w - target
        return math.hypot(along_w.real, along_w.imag, self.along_u.real, self.along_u.imag)

    def start_target(self, x: float) -> tuple[complex, complex]:
        """Coefficients (c_sigma, c_w) of the state as c_sigma|s> + c_w|w>,
        where |s> = x|w> + sqrt(1 - x^2)|u> has the overlap x = <w|s>."""
        c_sigma = self.along_u / math.sqrt(1.0 - x * x)
        return c_sigma, self.along_w - x * c_sigma


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
