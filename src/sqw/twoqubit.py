"""Two-qubit density matrices and the Wootters entanglement pipeline.

The numerical concurrence computed here is the reference every closed-form
expression in the package is checked against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NotPSD, TraceNotOne, _validated_make, reject_non_finite
from .linalg import EIGEN_TOL, TRACE_TOL, Mat4, _as_mat4, _svd, herm_eigen

# sigma_y (x) sigma_y, the conjugation used by the spin flip, as a signed row
# reversal: (sigma_y (x) sigma_y) @ x equals _FLIP_SIGN * x[::-1], up to the
# signs of zeros.
_FLIP_SIGN = np.array([[-1.0], [1.0], [1.0], [-1.0]])


class _DensityFields(NamedTuple):
    m: Mat4
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class DensityMatrix(_DensityFields):
    """A validated two-qubit density matrix; ``DensityMatrix(m)`` is ``validate_density(m)``.

    ``eigenvalues`` (ascending) and ``eigenvectors`` (the matching columns)
    are ``herm_eigen(m)``'s; all three arrays are read-only. The constructor
    takes the matrix alone, and ``_make``, ``_replace``, pickle and ``copy``
    build through it, so no record holds another decomposition: passing one
    raises ``TypeError``. numpy, and so every function taking a matrix,
    reads the record as ``m``.
    """

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, m):
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
        return tuple.__new__(cls, (out, w, v))

    def __getnewargs__(self):
        return (self.m,)

    def _replace(self, **fields):
        return type(self)(**{"m": self.m, **fields})

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
    violation magnitude; returns ``DensityMatrix(m)`` otherwise. The trace
    is the diagonal sum ``(m00 + m11) + (m22 + m33)``, the pairwise order in
    which ``m.trace()`` adds four entries, so it is the same number. It is
    added as Python complex numbers, so an overflow gives inf or NaN and no
    numpy warning. A trace defect within the rounding of the diagonal sum
    (4 eps max|m_ij|) is left to the positivity check: entries that large
    which cancel to a wrong trace leave a negative eigenvalue, so the matrix
    raises ``NotPSD``. A shape other than (4, 4) or a spectrum beyond the
    float range raises ``PreconditionViolated`` and a NaN or infinite entry
    raises ``NotHermitian``, all from ``herm_eigen``, whose docstring gives
    their violations.
    """
    return DensityMatrix(m)


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
    if not 0.0 < concurrence < 1.0:
        if not math.isfinite(concurrence):
            reject_non_finite((concurrence,), "concurrence")
        return 0.0 if concurrence < 1.0 else 1.0
    x = (1.0 + math.sqrt(1.0 - concurrence * concurrence)) / 2.0
    y = 1.0 - x
    e = 0.0 - x * math.log2(x)  # x >= 1/2, so e >= 0
    if y > 0.0:
        e -= y * math.log2(y)
    return min(e, 1.0)


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
    ``psi = V diag(sqrt(max(w, 0)))`` from the eigendecomposition ``rho = V
    diag(w) V^dagger`` that validation already computed; an eigenvalue that
    validation lets down to ``-EIGEN_TOL`` counts as 0. Since ``Sigma`` is
    real and symmetric, ``rho rho~ = psi (psi^dagger Sigma psi*) psi^T Sigma``,
    whose eigenvalues are those of ``(psi^dagger Sigma psi*)(psi^T Sigma psi)
    = M^dagger M`` with ``M = psi^T Sigma psi``. So the ``lambda_i`` are the
    singular values of ``M``: one SVD of a 4x4 matrix, nonnegative and
    descending by construction, with no square root of a rounded eigenvalue.
    ``Sigma psi`` is taken as the signed row reversal ``Sigma`` amounts to.
    A ``DensityMatrix`` costs no eigendecomposition here; a raw matrix pays
    the one inside ``validate_density``. The SVD is the gufunc behind
    ``np.linalg.svd``, with its bits.
    """
    dm = _as_density(rho)
    psi = dm.eigenvectors * np.sqrt(np.maximum(dm.eigenvalues, 0.0))
    l1, l2, l3, l4 = _svd(psi.T @ (_FLIP_SIGN * psi[::-1])).tolist()
    c = min(max(l1 - l2 - l3 - l4, 0.0), 1.0)
    return ConcurrenceReport((l1 * l1, l2 * l2, l3 * l3, l4 * l4), c, entanglement_of_formation(c))
