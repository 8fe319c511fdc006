"""Seeded draws of valid states, and the compactified t-grid, for the tests.

Each draw reads the generator in a fixed order, so a seed always gives the
same states.
"""

import math

import numpy as np

from sqw.s3world import S3Coeffs, assemble_s3, t_param
from sqw.xworld import XCoeffs, assemble_x

#: Orthonormal directions spanning the unit-a normalization plane b + c + d = -1/2.
PLANE_U = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
PLANE_V = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
_DISK_RADIUS = math.sqrt(1.0 / 6.0)
_CENTER = np.array([-1.0 / 6.0, -1.0 / 6.0, -1.0 / 6.0])


def theta_grid(n):
    """n points of the compactified parameter, the last one at infinity."""
    for k in range(1, n + 1):
        theta = (k / n) * math.pi - math.pi / 2
        yield math.inf if k == n else math.tan(theta)


def random_s3_coeffs(rng: np.random.Generator) -> S3Coeffs:
    """Draw a valid unit-``a`` state uniformly.

    The valid set is a disk in the normalization plane, centered on the
    fully symmetric state with the pure states on its boundary circle.
    """
    phi = rng.uniform(0.0, 2.0 * math.pi)
    rad = _DISK_RADIUS * math.sqrt(rng.uniform())
    b, c, d = _CENTER + rad * (math.cos(phi) * PLANE_U + math.sin(phi) * PLANE_V)
    return S3Coeffs(1.0, float(b), float(c), float(d))


def random_x_coeffs(rng: np.random.Generator) -> XCoeffs:
    """Draw coefficients uniformly inside the positivity region.

    ``e`` is uniform on [-1, 1]; P and S are uniform in balls of radius
    1 + e and 1 - e, so the closed-form spectrum is nonnegative.
    """

    def ball(radius: float) -> tuple[float, float, float]:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        v *= radius * rng.uniform() ** (1 / 3)
        return (float(v[0]), float(v[1]), float(v[2]))

    e = float(rng.uniform(-1, 1))
    return XCoeffs(e=e, p=ball(1 + e), s=ball(1 - e))


def valid_matrices(rng: np.random.Generator, n: int) -> list:
    """n swap-family and n X-state matrices, from the two draws above."""
    return [assemble_s3(random_s3_coeffs(rng)) for _ in range(n)] + [
        assemble_x(random_x_coeffs(rng)).m for _ in range(n)
    ]


def generic_matrices(rng: np.random.Generator, n: int) -> list:
    """The pure circle of the swap family (101 states, rank 1), then n Ginibre states."""
    states = [assemble_s3(t_param(t)) for t in theta_grid(101)]
    for _ in range(n):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        states.append(m / np.trace(m).real)
    return states
