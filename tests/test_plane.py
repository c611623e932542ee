"""The rotation blocks of the plane operators and the rotated start state
against the paper's formulas in the non-orthogonal (start, target) basis.

A matrix M acting on (start, target) coordinates acts on the orthonormal
basis (|w>, |u>) as V M V^{-1}, where the columns of V are |s> and |w> in
that basis.
"""

import cmath
import math

import numpy as np
import pytest

from dense_oracle import grover_on_plane, h_evolution_closed_form
from groverlab.grover import iterate_operator
from groverlab.hamiltonians import (
    augmented_propagator,
    commutator_propagator,
    iterate_plus_projector,
    matching_time,
    rotation_rate,
)
from groverlab.plane import PlaneCoords

OVERLAPS = [2.0**-10, 2.0**-5, 0.1, 0.25, 0.5, 2.0**-0.5, 0.8, 0.95]
DIM = 16

BLOCK_TOL = 1e-13


def basis(x: float) -> np.ndarray:
    """Columns |s> = x|w> + sqrt(1 - x^2)|u> and |w> in the basis (|w>, |u>)."""
    return np.array([[x, 1.0], [math.sqrt(1.0 - x * x), 0.0]])


def in_orthonormal_basis(matrix, x: float) -> np.ndarray:
    v = basis(x)
    return v @ np.asarray(matrix) @ np.linalg.inv(v)


def times(x: float, energy: float) -> list[float]:
    """0, t0/E, the arrival theta/eta, a negative time and 3 t0/E."""
    theta = math.acos(x)
    eta = energy * math.sin(2.0 * theta)
    t0 = matching_time(x, energy)
    return [0.0, t0, theta / eta, -1.7, 3.0 * t0]


@pytest.mark.parametrize("x", OVERLAPS)
def test_iterate_blocks(x):
    expected = in_orthonormal_basis(grover_on_plane(x), x)
    for operator, complement in ((iterate_operator(x, DIM), -1.0), (iterate_plus_projector(x, DIM), 1.0)):
        np.testing.assert_allclose(operator.block, expected, rtol=0.0, atol=BLOCK_TOL)
        assert operator.complement == complement


@pytest.mark.parametrize("energy", [1.0, 2.0])
@pytest.mark.parametrize("x", OVERLAPS)
def test_propagator_blocks(x, energy):
    for t in times(x, energy):
        expected = in_orthonormal_basis(h_evolution_closed_form(x, energy, t), x)
        commutator = commutator_propagator(x, energy, t, DIM)
        augmented = augmented_propagator(x, energy, t, DIM)
        np.testing.assert_allclose(commutator.block, expected, rtol=0.0, atol=BLOCK_TOL, err_msg=str(t))
        np.testing.assert_allclose(augmented.block, expected, rtol=0.0, atol=BLOCK_TOL, err_msg=str(t))
        assert commutator.complement == 1.0
        assert augmented.complement == pytest.approx(
            cmath.exp(-1j * math.pi * t / matching_time(x, energy)), abs=BLOCK_TOL
        )


@pytest.mark.parametrize("energy", [1.0, 2.0])
@pytest.mark.parametrize("x", OVERLAPS)
def test_rotated_start_is_the_first_column(x, energy):
    # the start turned by eta t is e^{-iHt}|s>, and turned by k times 2 asin x
    # it is G^k|s>: its components are those of the (start, target)
    # coordinates, and start_target gives those coordinates back
    def assert_state(state, coords):
        np.testing.assert_allclose([state.along_w, state.along_u], basis(x) @ coords, rtol=0.0, atol=BLOCK_TOL)
        np.testing.assert_allclose(state.start_target(x), coords, rtol=0.0, atol=BLOCK_TOL)

    for t in times(x, energy):
        propagator = np.asarray(h_evolution_closed_form(x, energy, t))
        assert_state(PlaneCoords.rotated(x, rotation_rate(x, energy) * t), propagator[:, 0])
    coords = np.array([1.0, 0.0])
    for k in range(6):
        assert_state(PlaneCoords.rotated(x, 2.0 * k * math.asin(x)), coords)
        coords = np.asarray(grover_on_plane(x)) @ coords
