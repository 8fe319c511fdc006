"""Independent references every benchmark output is checked against.

Each reference is computed on the benchmark side from the inputs alone, by a
route that shares no code with the package. The tolerances sit well above the
agreement measured at the seed (quoted beside each) and well below any real
error. The paper's ``concurrence_closed`` is never compared with the oracle on
mixed states: that mismatch is the documented criterion-3 deviation, not a
fault.
"""

from __future__ import annotations

import math

import numpy as np

SPECTRUM_TOL = 1e-10
#: Swap min-form agrees with the oracle to ~3e-13, Yu-Eberly to ~1e-11.
CONCURRENCE_TOL = 1e-9
#: Local-unitary invariance of the oracle on generic full-rank states.
LU_TOL = 1e-8
#: ``gain`` against ``gain_closed_form`` agrees to ~2e-14 on the grid.
GAIN_TOL = 1e-10
#: Coefficient route against matrix route of the measurement channel.
CHANNEL_TOL = 1e-12
MAXIMUM_TOL = 1e-9

INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Criterion-4 maxima of the paper's gain curves: axis -> (t_star, delta_c).
GAIN_MAXIMA = {
    "h1": (0.0, INV_SQRT2),
    "h2": (math.inf, INV_SQRT2),
    "h3": (0.0, 0.5),
}

#: Facts the CLI script must report.
S4_SUBGROUP_COUNT = 30
IE_ORACLE_CONCURRENCE = 1.0 / 3.0


def swap_concurrence(b: float, c: float, d: float) -> float:
    """Wootters concurrence of a unit-a swap state, 2 min(|d|, sqrt((1/2+b)(1/2+c))).

    The spin-flip eigenvalues are (d +- sqrt((1/2+b)(1/2+c)))^2 and two zeros.
    """
    return 2.0 * min(abs(d), math.sqrt(max((0.5 + b) * (0.5 + c), 0.0)))


def pure_swap_concurrence(t: float) -> float:
    """|t| / (1 + t + t^2), evaluated in 1/t for |t| > 1; 0 at infinity."""
    if math.isinf(t):
        return 0.0
    if abs(t) > 1.0:
        u = 1.0 / t
        return abs(u) / (u * u + u + 1.0)
    return abs(t) / (1.0 + t + t * t)


def x_concurrence(e: float, p, s) -> float:
    """Yu-Eberly concurrence of (1 + e E + P.lambda + S.tau) / 4 from its coefficients.

    C = 2 max(0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44)), with
    |rho14| = |P_xy| / 4, rho22 rho33 = ((1 - e)^2 - S_z^2) / 16 and the
    mirror images for the inner block.
    """
    outer = math.hypot(p[0], p[1]) - math.sqrt(max((1.0 - e) ** 2 - s[2] ** 2, 0.0))
    inner = math.hypot(s[0], s[1]) - math.sqrt(max((1.0 + e) ** 2 - p[2] ** 2, 0.0))
    return 0.5 * max(0.0, outer, inner)


def x_eigenvalues(e: float, p, s) -> np.ndarray:
    """Ascending spectrum of an X-state: its two 2x2 blocks diagonalized by hand."""
    pn, sn = math.sqrt(sum(x * x for x in p)), math.sqrt(sum(x * x for x in s))
    return np.sort([(1 + e + pn) / 4, (1 + e - pn) / 4, (1 - e + sn) / 4, (1 - e - sn) / 4])


def swap_eigenvalues(b: float, c: float, d: float) -> np.ndarray:
    """Ascending spectrum of a unit-a swap state: two zeros and the roots of
    mu^2 - mu + 3(bc + bd + cd)."""
    disc = math.sqrt(max(1.0 - 12.0 * (b * c + b * d + c * d), 0.0))
    return np.array([0.0, 0.0, (1.0 - disc) / 2.0, (1.0 + disc) / 2.0])


def channel_coeffs(axis: str, b: float, c: float, d: float) -> tuple[float, float, float]:
    """Measuring a swap averages the two couplings not aligned with it."""
    if axis == "h1":
        return b, (c + d) / 2.0, (c + d) / 2.0
    if axis == "h2":
        return (b + d) / 2.0, c, (b + d) / 2.0
    return (b + c) / 2.0, (b + c) / 2.0, d


def swap_matrix(b: float, c: float, d: float) -> np.ndarray:
    """1/2 + b H1 + c H2 + d H3 written out entry by entry."""
    return np.array(
        [
            [0.5 + d, b, c, 0.0],
            [b, 0.5 + c, d, 0.0],
            [c, d, 0.5 + b, 0.0],
            [0.0, 0.0, 0.0, 0.5 + b + c + d],
        ],
        dtype=complex,
    )
