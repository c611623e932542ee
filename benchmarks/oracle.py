"""Closed-form reference values for every groverlab output the benchmark checks.

Uses the standard library's ``math`` only and never imports groverlab, so it
is an oracle independent of the program under test.  In the orthonormal plane
basis (w, r), where r is the normalised part of the start state orthogonal to
the target, every instance is a rotation: the start state sits at angle
``asin(x)`` from r towards w, and each generator turns it at a fixed rate.
"""

from __future__ import annotations

import math


def overlap(n: int) -> float:
    """Start-target overlap x = 2**(-n/2) of the uniform (Walsh-Hadamard) driver."""
    return 2.0 ** (-n / 2)


def grover_time(x: float) -> float:
    """Unit-energy time t0 = (pi - 2 theta) / sin(2 theta) at which the
    commutator evolution equals one iterate on the plane."""
    theta = math.acos(x)
    return (math.pi - 2.0 * theta) / math.sin(2.0 * theta)


def rotation_rate(x: float, energy: float) -> float:
    """Plane rotation rate eta = E sin(2 theta) of the commutator generator."""
    return energy * math.sin(2.0 * math.acos(x))


def arrival_time(x: float, energy: float) -> float:
    """Farhi-Gutmann arrival time pi / (2 E x)."""
    return math.pi / (2.0 * energy * x)


# --- verify ---------------------------------------------------------------


def norm_gap(x: float) -> float:
    """|e^{-iH} - (G + 2P)|: two plane rotations eta*(t0 - 1) apart."""
    return 2.0 * abs(math.sin(rotation_rate(x, 1.0) * (grover_time(x) - 1.0) / 2.0))


def norm_gap_estimate(x: float) -> float:
    """The first-order estimate (2/3) x^3 sqrt(1 - x^2) the sweep compares against."""
    return (2.0 / 3.0) * x**3 * math.sqrt(1.0 - x * x)


def norm_gap_tolerance(x: float) -> float:
    return 5.0 * x**5


def corollary_time(n: int) -> float:
    """The rounded arrival time (pi/4) sqrt(N)."""
    return math.pi / 4.0 * math.sqrt(2**n)


def corollary_miss(x: float, t: float) -> float:
    """|sin(a) w + cos(a) r - w| with a = asin x + eta t, written as the chord
    2 |sin((pi/2 - a)/2)| to avoid the cancellation in 2 - 2 sin(a)."""
    a = math.asin(x) + rotation_rate(x, 1.0) * t
    return 2.0 * abs(math.sin((math.pi / 2.0 - a) / 2.0))


# --- grover -----------------------------------------------------------------


def iteration_counts(x: float) -> tuple[int, int]:
    """(optimal, paper) = (round(pi/(4 asin x) - 1/2), ceil(pi/(4x)))."""
    optimal = max(0, round(math.pi / (4.0 * math.asin(x)) - 0.5))
    paper = math.ceil(math.pi / (4.0 * x))
    return optimal, paper


def grover_success(x: float, j: int) -> float:
    """Probability of the target after j iterates: sin^2((2j + 1) asin x)."""
    return math.sin((2 * j + 1) * math.asin(x)) ** 2


# --- naive ------------------------------------------------------------------


def naive_amplitude(x: float, dim: int, eps: float, k: int) -> float:
    """|<w|state>| after k renormalised steps of I + eps*A.

    On the plane, I + eps*A is a rotation by atan(eps sqrt(N - 1)) scaled by
    sqrt(1 + eps^2 (N - 1)); renormalising removes the scale.
    """
    return abs(math.sin(math.asin(x) + k * math.atan(eps * math.sqrt(dim - 1))))


def naive_predicted_peak(x: float, dim: int, eps: float) -> float:
    """The stepper's first-arrival estimate theta / (eps sqrt(N) sin theta)."""
    theta = math.acos(x)
    return theta / (eps * math.sqrt(dim) * math.sin(theta))


# --- evolve -----------------------------------------------------------------


def fg_coefficients(x: float, energy: float, t: float) -> tuple[complex, complex]:
    """(c_sigma, c_w) of e^{-iH't}|s> = e^{-iEt} [cos(xEt)|s> - i sin(xEt)|w>]."""
    phase = complex(math.cos(energy * t), -math.sin(energy * t))
    angle = x * energy * t
    return phase * math.cos(angle), phase * complex(0.0, -math.sin(angle))


def fg_fidelity(x: float, energy: float, t: float) -> float:
    """|<w| e^{-iH't} |s>|^2 = x^2 cos^2(xEt) + sin^2(xEt)."""
    angle = x * energy * t
    return x * x * math.cos(angle) ** 2 + math.sin(angle) ** 2


def commutator_coefficients(x: float, energy: float, t: float) -> tuple[complex, complex]:
    """(c_sigma, c_w) of e^{-iHt}|s> = (sin(theta - eta t)|s> + sin(eta t)|w>) / sin(theta).

    The augmented generator adds a term that vanishes on the plane, so it has
    the same coefficients.
    """
    theta = math.acos(x)
    eta_t = rotation_rate(x, energy) * t
    s = math.sin(theta)
    return complex(math.sin(theta - eta_t) / s), complex(math.sin(eta_t) / s)


def commutator_fidelity(x: float, energy: float, t: float) -> float:
    """|<w| e^{-iHt} |s>|^2 = sin^2(asin x + E sin(2 theta) t)."""
    return math.sin(math.asin(x) + rotation_rate(x, energy) * t) ** 2
