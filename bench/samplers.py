"""Seeded input generators owned by the benchmark.

None of them calls the package's own samplers (``s3world.random_coeffs``,
``xworld.random_coeffs``), so a change to those cannot change the load. Every
generator takes a ``numpy.random.Generator``; the same seed gives the same
inputs.
"""

from __future__ import annotations

import math

import numpy as np

#: The unit-a swap family lives on the plane b + c + d = -1/2. Its valid set
#: is a disk centred on the symmetric state (-1/6, -1/6, -1/6) whose boundary
#: circle, of radius sqrt(1/6), holds the pure states.
SWAP_CENTER = np.array([-1.0, -1.0, -1.0]) / 6.0
SWAP_RADIUS = math.sqrt(1.0 / 6.0)
_PLANE_U = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
_PLANE_V = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)

#: Mixed swap states are drawn from the disk shrunk by this factor, so none
#: is numerically pure (rank 2 throughout).
_INTERIOR = 0.99

#: Pure swap parameters every crosscheck cycle contains: the t = 0 state and
#: both signed limits of the compactified line.
FIXED_PURE_T = (0.0, math.inf, -math.inf)


def swap_point(rng: np.random.Generator, interior: bool = True) -> tuple[float, float, float]:
    """(b, c, d) of a unit-a swap state, uniform in the disk.

    ``interior=False`` draws from the whole disk, pure boundary included in
    the limit.
    """
    phi = rng.uniform(0.0, 2.0 * math.pi)
    scale = _INTERIOR if interior else 1.0
    rad = scale * SWAP_RADIUS * math.sqrt(rng.uniform())
    b, c, _ = SWAP_CENTER + rad * (math.cos(phi) * _PLANE_U + math.sin(phi) * _PLANE_V)
    # Close the normalization exactly instead of trusting the rotation.
    return float(b), float(c), float(-0.5 - b - c)


def pure_t(rng: np.random.Generator) -> float:
    """A pure-state parameter t = tan(theta), theta uniform on (-pi/2, pi/2)."""
    return math.tan(rng.uniform(-math.pi / 2, math.pi / 2))


def x_point(rng: np.random.Generator):
    """(e, P, S) strictly inside the X-state positivity region.

    ``e`` is uniform on (-1, 1); P and S are uniform in balls of radius
    1 + e and 1 - e, shrunk by 0.1% to keep every state off the boundary.
    """

    def ball(radius: float) -> tuple[float, float, float]:
        v = rng.normal(size=3)
        v *= 0.999 * radius * rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(v)
        return (float(v[0]), float(v[1]), float(v[2]))

    e = float(rng.uniform(-1.0, 1.0))
    return e, ball(1.0 + e), ball(1.0 - e)


def ginibre_state(rng: np.random.Generator) -> np.ndarray:
    """Full-rank density matrix G G^dagger / Tr from a complex Ginibre draw."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _haar_2x2(rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def local_unitary_copy(rng: np.random.Generator, rho: np.ndarray) -> np.ndarray:
    """(U_A x U_B) rho (U_A x U_B)^dagger for Haar-random single-qubit unitaries."""
    u = np.kron(_haar_2x2(rng), _haar_2x2(rng))
    out = u @ rho @ u.conj().T
    return (out + out.conj().T) / 2
