"""The X-pattern family of two-qubit states.

States whose nonzero entries sit on the diagonal and anti-diagonal are
spanned by eight observables: the identity, a parity-like diagonal operator
``E`` and two Pauli-style triples acting on the outer block (spanned by the
first and last basis states) and the inner block. The whole family has a
closed-form spectrum and exactly two classes of pure states.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import NotPSD, PreconditionViolated, _validated_make, reject_non_finite
from .linalg import COEFF_TOL, PURE_TOL, locked
from .twoqubit import DensityMatrix, validate_density

E = locked([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])

#: Pauli-style triple on the outer block (basis states 1 and 4).
LAMBDA = (
    locked([[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]),
    locked([[0, 0, 0, -1j], [0, 0, 0, 0], [0, 0, 0, 0], [1j, 0, 0, 0]]),
    locked([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]]),
)

#: Pauli-style triple on the inner block (basis states 2 and 3).
TAU = (
    locked([[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]]),
    locked([[0, 0, 0, 0], [0, 0, -1j, 0], [0, 1j, 0, 0], [0, 0, 0, 0]]),
    locked([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]),
)


class _XFields(NamedTuple):
    e: float
    p: tuple[float, float, float]
    s: tuple[float, float, float]


class XCoeffs(_XFields):
    """Expansion coefficients of an X-state over (1, E, lambda_i, tau_i) / 4.

    A NamedTuple whose constructor stores ``p`` and ``s`` as tuples, checks
    that they have three entries each, then that every value is finite;
    ``_make`` and ``_replace`` build through it.
    """

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, e: float, p: tuple[float, float, float], s: tuple[float, float, float]):
        p, s = tuple(p), tuple(s)
        gap = abs(len(p) - 3) + abs(len(s) - 3)
        if gap:
            raise PreconditionViolated(
                f"p and s must have 3 entries each, got {len(p)} and {len(s)}",
                violation=float(gap),
            )
        reject_non_finite((e, *p, *s))
        return tuple.__new__(cls, (e, p, s))

    @property
    def p_norm(self) -> float:
        x, y, z = self.p
        return math.sqrt(x * x + y * y + z * z)

    @property
    def s_norm(self) -> float:
        x, y, z = self.s
        return math.sqrt(x * x + y * y + z * z)


class PureXClass(Enum):
    CLASS1 = "class1"  # e = 1, |P| = 2, |S| = 0
    CLASS2 = "class2"  # e = -1, |S| = 2, |P| = 0
    NOT_PURE = "not_pure"


def _ball_norms(coeffs: XCoeffs) -> tuple[float, float]:
    """``(|P|, |S|)``, once the positivity ball is checked.

    Positivity requires |P| <= 1 + e and |S| <= 1 - e; violations raise
    ``NotPSD`` with the size of the overshoot.
    """
    pn, sn = coeffs.p_norm, coeffs.s_norm
    overshoot = max(pn - (1 + coeffs.e), sn - (1 - coeffs.e))
    if overshoot > COEFF_TOL:
        raise NotPSD(
            f"coefficients exceed the positivity ball by {overshoot:.3e}",
            violation=float(overshoot),
        )
    return pn, sn


def assemble_x(coeffs: XCoeffs) -> DensityMatrix:
    """Assemble (1 + e E + P.lambda + S.tau) / 4 and validate it.

    Coefficients outside the positivity ball raise ``NotPSD``.
    """
    _ball_norms(coeffs)
    # The generator sum over 4, entry by entry (E, lambda_3 and tau_3 on the
    # diagonal), in the bits of numpy's m / 4. A complex entry is divided by
    # 4 + 0j: CPython's complex quotient takes numpy's steps, signed zeros
    # included, where Python 3.14 divides by a real 4 part by part.
    e, (p1, p2, p3), (s1, s2, s3) = coeffs.e, coeffs.p, coeffs.s
    q = 4 + 0j
    m = np.array([
        (1 + e + p3) / 4, 0, 0, complex(p1, -p2) / q,
        0, (1 - e + s3) / 4, complex(s1, -s2) / q, 0,
        0, complex(s1, s2) / q, (1 - e - s3) / 4, 0,
        complex(p1, p2) / q, 0, 0, (1 + e - p3) / 4,
    ], dtype=complex).reshape(4, 4)
    return validate_density(m)


def x_spectrum(coeffs: XCoeffs) -> tuple[float, float, float, float]:
    """Closed-form eigenvalues (1 + e +- |P|)/4, (1 - e +- |S|)/4, ascending.

    Coefficients outside the positivity ball raise ``NotPSD``, as in
    ``assemble_x``.
    """
    e = coeffs.e
    pn, sn = _ball_norms(coeffs)
    vals = [(1 + e + pn) / 4, (1 + e - pn) / 4, (1 - e + sn) / 4, (1 - e - sn) / 4]
    return tuple(sorted(vals))


def classify_pure_x(coeffs: XCoeffs) -> PureXClass:
    """Classify a pure X-state into one of the two disjoint pure classes.

    Each of e, |P| and |S| must lie within ``PURE_TOL`` of its class value.
    """
    e, pn, sn = coeffs.e, coeffs.p_norm, coeffs.s_norm
    if abs(e - 1) <= PURE_TOL and abs(pn - 2) <= PURE_TOL and sn <= PURE_TOL:
        return PureXClass.CLASS1
    if abs(e + 1) <= PURE_TOL and abs(sn - 2) <= PURE_TOL and pn <= PURE_TOL:
        return PureXClass.CLASS2
    return PureXClass.NOT_PURE
