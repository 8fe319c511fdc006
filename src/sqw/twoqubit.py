"""Two-qubit density matrices and the Wootters entanglement pipeline.

The numerical concurrence computed here is the reference every closed-form
expression in the package is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPSD, PreconditionViolated, TraceNotOne
from .linalg import Mat4, herm_eigen, sqrt_psd

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGEN_TOL = 1e-9

SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SIGMA_Y.setflags(write=False)

#: sigma_y (x) sigma_y, the conjugation used by the spin flip.
SPIN_FLIP_OP = np.kron(SIGMA_Y, SIGMA_Y)
SPIN_FLIP_OP.setflags(write=False)

# Eigenvalues of the flipped product below this relative noise floor are
# rounding residue of exact zeros; treating them as zero keeps the square
# roots from amplifying 1e-16 errors to 1e-8.
_NOISE_FLOOR = 256 * np.finfo(float).eps


@dataclass(frozen=True)
class DensityMatrix:
    """A validated two-qubit density matrix. Build via ``validate_density``."""

    m: Mat4


@dataclass(frozen=True)
class ConcurrenceReport:
    """Spin-flip eigenvalues (descending) with concurrence and formation entropy."""

    omegas: tuple[float, float, float, float]
    concurrence: float
    eof: float


def validate_density(m) -> DensityMatrix:
    """Check shape, Hermiticity, unit trace and positivity of a 4x4 matrix.

    Raises ``NotHermitian``, ``TraceNotOne`` or ``NotPSD`` with the measured
    violation magnitude; returns the validated wrapper otherwise. A shape
    other than (4, 4) raises ``PreconditionViolated``, whose violation is the
    distance of the shape from (4, 4): the sum of each axis length's gap to 4,
    plus 4 per missing or extra axis. A NaN or infinite entry makes the
    Hermiticity defect non-finite and raises ``NotHermitian``, whose
    violation is then the number of non-finite entries.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        gap = sum(abs(n - 4) for n in m.shape) + 4 * abs(m.ndim - 2)
        raise PreconditionViolated(
            f"density matrix must be 4x4, got shape {m.shape}", violation=float(gap)
        )
    defect = float(np.linalg.norm(m - m.conj().T))
    if not defect <= HERMITIAN_TOL:
        bad = int(np.count_nonzero(~np.isfinite(m)))
        if bad:
            raise NotHermitian(
                f"density matrix has {bad} non-finite entries", violation=float(bad)
            )
        raise NotHermitian(
            f"density matrix not Hermitian (defect {defect:.3e})", violation=defect
        )
    tr_err = abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag)
    if tr_err > TRACE_TOL:
        raise TraceNotOne(
            f"density matrix trace differs from 1 by {tr_err:.3e}", violation=tr_err
        )
    w, _ = herm_eigen(m, tol=HERMITIAN_TOL)
    if w[0] < -EIGEN_TOL:
        raise NotPSD(
            f"density matrix has negative eigenvalue {w[0]:.3e}",
            violation=float(-w[0]),
        )
    out = m.copy()
    out.setflags(write=False)
    return DensityMatrix(out)


def _as_matrix(rho) -> Mat4:
    if isinstance(rho, DensityMatrix):
        return rho.m
    return validate_density(rho).m


def purity(rho) -> float:
    """Tr(rho^2); equals 1 for pure states and 1/4 for the maximally mixed one."""
    m = _as_matrix(rho)
    return float(np.trace(m @ m).real)


def spin_flip(rho) -> Mat4:
    """The spin-flipped matrix (sigma_y x sigma_y) rho* (sigma_y x sigma_y)."""
    m = _as_matrix(rho)
    return SPIN_FLIP_OP @ m.conj() @ SPIN_FLIP_OP


def entanglement_of_formation(concurrence: float) -> float:
    """Binary-entropy function of the concurrence, in bits, clamped to [0, 1]."""
    c = min(max(concurrence, 0.0), 1.0)
    x = (1.0 + np.sqrt(max(1.0 - c * c, 0.0))) / 2.0
    e = 0.0
    for p in (x, 1.0 - x):
        if p > 0.0:
            e -= p * np.log2(p)
    return float(min(max(e, 0.0), 1.0))


def concurrence_oracle(rho) -> ConcurrenceReport:
    """Concurrence of a two-qubit density matrix, no structure assumed.

    Pipeline: form the spin-flipped matrix ``rho~``, take the eigenvalues
    ``omega_i`` of the Hermitian product ``sqrt(rho) rho~ sqrt(rho)`` (equal
    to those of ``rho rho~``) in decreasing order, then

        C = max(0, sqrt(omega_1) - sqrt(omega_2) - sqrt(omega_3) - sqrt(omega_4))

    and the entanglement of formation is the binary entropy of
    ``(1 + sqrt(1 - C^2)) / 2``.
    """
    m = _as_matrix(rho)
    root = sqrt_psd(m)
    flipped = SPIN_FLIP_OP @ m.conj() @ SPIN_FLIP_OP
    prod = root @ flipped @ root
    prod = (prod + prod.conj().T) / 2
    w, _ = herm_eigen(prod, tol=1e-8)
    if w[0] < -EIGEN_TOL:
        raise NotPSD(
            f"spin-flip product has eigenvalue {w[0]:.3e}", violation=float(-w[0])
        )
    floor = max(w[-1], 0.0) * _NOISE_FLOOR
    w = np.where(w < floor, 0.0, np.clip(w, 0.0, None))
    omegas = np.sort(w)[::-1]
    lam = np.sqrt(omegas)
    c = min(max(float(lam[0] - lam[1] - lam[2] - lam[3]), 0.0), 1.0)
    return ConcurrenceReport(
        omegas=tuple(float(o) for o in omegas),
        concurrence=c,
        eof=entanglement_of_formation(c),
    )
