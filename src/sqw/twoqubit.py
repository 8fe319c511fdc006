"""Two-qubit density matrices and the Wootters entanglement pipeline.

The numerical concurrence computed here is the reference every closed-form
expression in the package is checked against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NotPSD, PreconditionViolated, TraceNotOne, reject_non_finite
from .linalg import EIGEN_TOL, TRACE_TOL, Mat4, _as_mat4, _svd, _vdot, herm_eigen, locked

#: sigma_y (x) sigma_y, the conjugation used by the spin flip.
SPIN_FLIP_OP = locked([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
# SPIN_FLIP_OP is a signed row reversal: SPIN_FLIP_OP @ x equals
# _FLIP_SIGN * x[::-1], up to the signs of zeros.
_FLIP_SIGN = np.array([[-1.0], [1.0], [1.0], [-1.0]])


class DensityMatrix(NamedTuple):
    """A validated two-qubit density matrix. Build via ``validate_density``.

    ``eigenvalues`` (ascending) and ``eigenvectors`` (the matching columns)
    are the decomposition the positivity check computed; all three arrays
    are read-only. numpy, and so every function taking a matrix, reads the
    record as ``m``.
    """

    m: Mat4
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return np.array(self.m, dtype=dtype, copy=copy)


class ConcurrenceReport(NamedTuple):
    """Spin-flip eigenvalues (descending) with concurrence and formation entropy."""

    omegas: tuple[float, float, float, float]
    concurrence: float
    eof: float


def validate_density(m) -> DensityMatrix:
    """Check shape, Hermiticity, unit trace and positivity of a 4x4 matrix.

    Raises ``NotHermitian``, ``TraceNotOne`` or ``NotPSD`` with the measured
    violation magnitude; returns the validated wrapper otherwise. The trace
    is the diagonal sum ``(m00 + m11) + (m22 + m33)``, the pairwise order in
    which ``m.trace()`` adds four entries, so it is the same number. It is
    added as Python complex numbers, so an overflow gives inf or NaN and no
    numpy warning. A trace defect within the rounding of the diagonal sum
    (4 eps max|m_ij|) is left to the positivity check: entries that large
    which cancel to a wrong trace leave a negative eigenvalue, so the matrix
    raises ``NotPSD``. A shape other than (4, 4) raises
    ``PreconditionViolated`` and a NaN or infinite entry raises
    ``NotHermitian``, both from ``herm_eigen``, whose docstring gives their
    violations.
    """
    m = _as_mat4(m)
    w, v = herm_eigen(m)
    d0, d1, d2, d3 = m.diagonal().tolist()
    tr = (d0 + d1) + (d2 + d3)
    tr_err = abs(tr.real - 1.0) + abs(tr.imag)
    if tr_err > TRACE_TOL and tr_err > 4 * np.finfo(float).eps * np.abs(m).max():
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


def entanglement_of_formation(concurrence: float) -> float:
    """Binary-entropy function of the concurrence, in bits, clamped to [0, 1].

    A NaN or infinite concurrence raises ``PreconditionViolated``.
    """
    if not math.isfinite(concurrence):
        reject_non_finite((concurrence,), "concurrence")
    c = min(max(concurrence, 0.0), 1.0)
    x = (1.0 + math.sqrt(max(1.0 - c * c, 0.0))) / 2.0
    y = 1.0 - x
    e = 0.0 - x * math.log2(x)  # x >= 1/2
    if y > 0.0:
        e -= y * math.log2(y)
    return min(max(e, 0.0), 1.0)


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
    ``Sigma psi`` is taken as the signed row reversal ``Sigma`` amounts to.
    A ``DensityMatrix`` costs no eigendecomposition here; a raw matrix pays
    the one inside ``validate_density``. The SVD is the gufunc behind
    ``np.linalg.svd``, with its bits. Only a record built by hand can hold a
    NaN or infinite eigenvalue or eigenvector entry, or make ``M`` overflow
    its squared norm; each raises
    ``PreconditionViolated("concurrence must be finite")``, the eigenvalues
    and the eigenvectors' squared norm checked before they reach ``psi``, so
    numpy warns of nothing.
    """
    dm = _as_density(rho)
    w, v = dm.eigenvalues, dm.eigenvectors
    finite = math.isfinite(sum(w.tolist())) and math.isfinite(_vdot(v, v).real)
    if finite:
        psi = v * np.sqrt(np.maximum(w, 0.0))
        m = psi.T @ (_FLIP_SIGN * psi[::-1])
        finite = math.isfinite(_vdot(m, m).real)
    if not finite:
        raise PreconditionViolated("concurrence must be finite", violation=1.0)
    l1, l2, l3, l4 = _svd(m, signature="D->d").tolist()
    c = min(max(l1 - l2 - l3 - l4, 0.0), 1.0)
    return ConcurrenceReport((l1 * l1, l2 * l2, l3 * l3, l4 * l4), c, entanglement_of_formation(c))
