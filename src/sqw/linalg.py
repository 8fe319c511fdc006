"""Dense 4x4 complex linear algebra kernel.

Thin, deterministic layer over numpy: validated constructors and the
Hermitian eigendecomposition. All operations are pure and safe to call
concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian

# Matrices and vectors are plain complex128 numpy arrays.
Mat4 = np.ndarray
Vec4 = np.ndarray


def mat4(entries) -> Mat4:
    """Build a 4x4 complex matrix, rejecting non-finite entries."""
    m = np.array(entries, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def vec4(entries) -> Vec4:
    """Build a length-4 complex vector, rejecting non-finite entries."""
    v = np.array(entries, dtype=complex)
    if v.shape != (4,):
        raise ValueError(f"expected a length-4 vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("vector entries must be finite")
    return v


def identity() -> Mat4:
    return np.eye(4, dtype=complex)


def adjoint(m: Mat4) -> Mat4:
    """Conjugate transpose."""
    return m.conj().T.copy()


def frob_dist(a: Mat4, b: Mat4) -> float:
    """Frobenius distance ||a - b||_F."""
    return float(np.linalg.norm(a - b))


def mats_close(a: Mat4, b: Mat4, tol: float) -> bool:
    """Entrywise comparison with an explicit absolute tolerance."""
    return bool(np.all(np.abs(a - b) <= tol))


def hermiticity_defect(m: Mat4) -> float:
    """||m - m^dagger||_F, zero exactly for Hermitian input."""
    return float(np.linalg.norm(m - m.conj().T))


def herm_eigen(m: Mat4, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` real and ascending and the
    corresponding orthonormal eigenvectors as the columns of ``v``. The
    result is deterministic for identical input. Raises ``NotHermitian``
    when the Hermiticity defect exceeds ``tol``, and for any NaN or infinite
    entry, with the number of non-finite entries as the violation; that check
    comes first, so no arithmetic ever runs on a non-finite value.
    """
    finite = np.isfinite(m)
    if not finite.all():
        bad = int(finite.size - np.count_nonzero(finite))
        raise NotHermitian(
            f"matrix has {bad} non-finite entries", violation=float(bad)
        )
    defect = hermiticity_defect(m)
    if defect > tol:
        raise NotHermitian(
            f"matrix is not Hermitian (defect {defect:.3e} > {tol:.1e})",
            violation=defect,
        )
    w, v = np.linalg.eigh(m)
    return w, v
