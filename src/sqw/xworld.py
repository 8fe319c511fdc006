"""The X-pattern family of two-qubit states.

States whose nonzero entries sit on the diagonal and anti-diagonal are
spanned by eight observables: the identity, a parity-like diagonal operator
``E`` and two Pauli-style triples acting on the outer block (spanned by the
first and last basis states) and the inner block. The whole family has a
closed-form spectrum and exactly two classes of pure states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotPSD
from .linalg import Mat4
from .report import CheckResult, Report
from .twoqubit import DensityMatrix, validate_density

#: Positions that must vanish for an X-patterned matrix (row, col).
OFF_PATTERN = ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2))

_WINDOW_TOL = 1e-12


def _locked(rows) -> Mat4:
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


UNIT = _locked(np.eye(4))
E = _locked(np.diag([1, -1, -1, 1]))

#: Pauli-style triple on the outer block (basis states 1 and 4).
LAMBDA = (
    _locked([[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]),
    _locked([[0, 0, 0, -1j], [0, 0, 0, 0], [0, 0, 0, 0], [1j, 0, 0, 0]]),
    _locked(np.diag([1, 0, 0, -1])),
)

#: Pauli-style triple on the inner block (basis states 2 and 3).
TAU = (
    _locked([[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]]),
    _locked([[0, 0, 0, 0], [0, 0, -1j, 0], [0, 1j, 0, 0], [0, 0, 0, 0]]),
    _locked(np.diag([0, 1, -1, 0])),
)


@dataclass(frozen=True)
class XCoeffs:
    """Expansion coefficients of an X-state over (1, E, lambda_i, tau_i) / 4."""

    e: float
    p: tuple[float, float, float]
    s: tuple[float, float, float]

    def __post_init__(self):
        vals = (self.e, *self.p, *self.s)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("coefficients must be finite")

    @property
    def p_norm(self) -> float:
        return math.sqrt(sum(x * x for x in self.p))

    @property
    def s_norm(self) -> float:
        return math.sqrt(sum(x * x for x in self.s))


class PureXClass(Enum):
    CLASS1 = "class1"  # e = 1, |P| = 2, |S| = 0
    CLASS2 = "class2"  # e = -1, |S| = 2, |P| = 0
    NOT_PURE = "not_pure"


def _levi_civita(i: int, j: int, k: int) -> int:
    return int(np.sign((j - i) * (k - i) * (k - j)))


def check_x_relations() -> Report:
    """Verify the full product table of the eight generators, exactly.

    All generators have entries in {0, +-1, +-i}, so every identity holds
    with exact floating-point equality; any discrepancy is reported as a
    failed check rather than an exception.
    """
    checks: list[CheckResult] = []

    def add(name: str, lhs: Mat4, rhs: Mat4):
        dev = float(np.abs(lhs - rhs).max())
        checks.append(CheckResult(name, bool(np.array_equal(lhs, rhs)), dev))

    half_plus = (UNIT + E) / 2
    half_minus = (UNIT - E) / 2
    zero = np.zeros((4, 4), dtype=complex)
    for i in range(3):
        for j in range(3):
            eps_term = sum(
                1j * _levi_civita(i, j, k) * LAMBDA[k] for k in range(3)
            )
            rhs = (half_plus if i == j else zero) + eps_term
            add(f"lam{i+1}*lam{j+1}", LAMBDA[i] @ LAMBDA[j], rhs)
            eps_term = sum(1j * _levi_civita(i, j, k) * TAU[k] for k in range(3))
            rhs = (half_minus if i == j else zero) + eps_term
            add(f"tau{i+1}*tau{j+1}", TAU[i] @ TAU[j], rhs)
            add(f"lam{i+1}*tau{j+1} = 0", LAMBDA[i] @ TAU[j], zero)
            add(f"tau{j+1}*lam{i+1} = 0", TAU[j] @ LAMBDA[i], zero)
    for i in range(3):
        add(f"E*lam{i+1} = lam{i+1}", E @ LAMBDA[i], LAMBDA[i])
        add(f"lam{i+1}*E = lam{i+1}", LAMBDA[i] @ E, LAMBDA[i])
        add(f"E*tau{i+1} = -tau{i+1}", E @ TAU[i], -TAU[i])
        add(f"tau{i+1}*E = -tau{i+1}", TAU[i] @ E, -TAU[i])
    return Report(tuple(checks))


def _ball_norms(coeffs: XCoeffs) -> tuple[float, float]:
    """``(|P|, |S|)``, once the positivity ball is checked.

    Positivity requires |P| <= 1 + e and |S| <= 1 - e; violations raise
    ``NotPSD`` with the size of the overshoot.
    """
    pn, sn = coeffs.p_norm, coeffs.s_norm
    overshoot = max(pn - (1 + coeffs.e), sn - (1 - coeffs.e))
    if overshoot > _WINDOW_TOL:
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
    m = UNIT + coeffs.e * E
    for i in range(3):
        m = m + coeffs.p[i] * LAMBDA[i] + coeffs.s[i] * TAU[i]
    return validate_density(m / 4)


def x_spectrum(coeffs: XCoeffs) -> tuple[float, float, float, float]:
    """Closed-form eigenvalues (1 + e +- |P|)/4, (1 - e +- |S|)/4, ascending.

    Coefficients outside the positivity ball raise ``NotPSD``, as in
    ``assemble_x``.
    """
    e = coeffs.e
    pn, sn = _ball_norms(coeffs)
    vals = [(1 + e + pn) / 4, (1 + e - pn) / 4, (1 - e + sn) / 4, (1 - e - sn) / 4]
    return tuple(sorted(vals))


def classify_pure_x(coeffs: XCoeffs, tol: float = 1e-9) -> PureXClass:
    """Classify a pure X-state into one of the two disjoint pure classes."""
    e, pn, sn = coeffs.e, coeffs.p_norm, coeffs.s_norm
    if abs(e - 1) <= tol and abs(pn - 2) <= tol and sn <= tol:
        return PureXClass.CLASS1
    if abs(e + 1) <= tol and abs(sn - 2) <= tol and pn <= tol:
        return PureXClass.CLASS2
    return PureXClass.NOT_PURE


def random_coeffs(rng: np.random.Generator) -> XCoeffs:
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
