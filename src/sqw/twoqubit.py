"""Two-qubit density matrices and the Wootters entanglement pipeline.

The numerical concurrence computed here is the reference every closed-form
expression in the package is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPSD, PreconditionViolated, TraceNotOne
from .linalg import Mat4, herm_eigen

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGEN_TOL = 1e-9

SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SIGMA_Y.setflags(write=False)

#: sigma_y (x) sigma_y, the conjugation used by the spin flip.
SPIN_FLIP_OP = np.kron(SIGMA_Y, SIGMA_Y)
SPIN_FLIP_OP.setflags(write=False)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated two-qubit density matrix. Build via ``validate_density``.

    ``eigenvalues`` (ascending) and ``eigenvectors`` (the matching columns)
    are the decomposition the positivity check computed; all three arrays
    are read-only.
    """

    m: Mat4
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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
    plus 4 per missing or extra axis. A NaN or infinite entry raises
    ``NotHermitian`` (from ``herm_eigen``), whose violation is then the number
    of non-finite entries.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        gap = sum(abs(n - 4) for n in m.shape) + 4 * abs(m.ndim - 2)
        raise PreconditionViolated(
            f"density matrix must be 4x4, got shape {m.shape}", violation=float(gap)
        )
    w, v = herm_eigen(m, tol=HERMITIAN_TOL)
    tr = np.trace(m)
    tr_err = abs(tr.real - 1.0) + abs(tr.imag)
    if tr_err > TRACE_TOL:
        raise TraceNotOne(
            f"density matrix trace differs from 1 by {tr_err:.3e}", violation=tr_err
        )
    if w[0] < -EIGEN_TOL:
        raise NotPSD(
            f"density matrix has negative eigenvalue {w[0]:.3e}",
            violation=float(-w[0]),
        )
    out = m.copy()
    for a in (out, w, v):
        a.setflags(write=False)
    return DensityMatrix(out, w, v)


def _as_density(rho) -> DensityMatrix:
    return rho if isinstance(rho, DensityMatrix) else validate_density(rho)


def purity(rho) -> float:
    """Tr(rho^2); equals 1 for pure states and 1/4 for the maximally mixed one."""
    m = _as_density(rho).m
    return float(np.trace(m @ m).real)


def spin_flip(rho) -> Mat4:
    """The spin-flipped matrix (sigma_y x sigma_y) rho* (sigma_y x sigma_y)."""
    m = _as_density(rho).m
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

    Wootters (PRL 80, 2245, 1998): with the spin flip
    ``rho~ = Sigma rho* Sigma``, ``Sigma = sigma_y (x) sigma_y``, let
    ``omega_i`` be the eigenvalues of ``rho rho~`` in decreasing order and
    ``lambda_i = sqrt(omega_i)``; then

        C = max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4)

    and the entanglement of formation is the binary entropy of
    ``(1 + sqrt(1 - C^2)) / 2``.

    The ``lambda_i`` are taken without forming ``rho rho~`` (Uhlmann,
    PRA 62, 032307, 2000). Factor ``rho = psi psi^dagger`` with
    ``psi = V diag(sqrt(w))`` from the eigendecomposition ``rho = V diag(w)
    V^dagger`` that validation already computed. Since ``Sigma`` is real and
    symmetric, ``rho rho~ = psi (psi^dagger Sigma psi*) psi^T Sigma``, whose
    eigenvalues are those of ``(psi^dagger Sigma psi*)(psi^T Sigma psi) =
    M^dagger M`` with ``M = psi^T Sigma psi``. So the ``lambda_i`` are the
    singular values of ``M``: one SVD of a 4x4 matrix, nonnegative and
    descending by construction, with no square root of a rounded eigenvalue.
    A ``DensityMatrix`` costs no eigendecomposition here; a raw matrix pays
    the one inside ``validate_density``.
    """
    dm = _as_density(rho)
    psi = dm.eigenvectors * np.sqrt(np.maximum(dm.eigenvalues, 0.0))
    lam = np.linalg.svd(psi.T @ SPIN_FLIP_OP @ psi, compute_uv=False).tolist()
    c = min(max(lam[0] - lam[1] - lam[2] - lam[3], 0.0), 1.0)
    return ConcurrenceReport(
        omegas=tuple(x * x for x in lam),
        concurrence=c,
        eof=entanglement_of_formation(c),
    )
