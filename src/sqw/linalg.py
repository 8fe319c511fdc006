"""Dense 4x4 complex linear algebra kernel.

Thin, deterministic layer over numpy: read-only constant matrices, the
Hermitian eigendecomposition and the package's one binding of LAPACK and of
vdot. All operations are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np
from numpy._core._multiarray_umath import vdot as _vdot
from numpy.linalg import _umath_linalg

from .errors import NotHermitian, PreconditionViolated

# Matrices are plain complex128 numpy arrays.
Mat4 = np.ndarray


def locked(rows) -> Mat4:
    """A read-only complex array, for the package's constant matrices and vectors."""
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


UNIT = locked(np.eye(4))

# The package's only LAPACK entry points: the gufuncs np.linalg.eigh and
# np.linalg.svd(m, compute_uv=False) call. With the wrappers' complex signatures
# ("D->dD", "D->d") they give the wrappers' bits, without their errstate block.
# _vdot is the C function np.vdot dispatches to: its bits, without the dispatch.
_eigh = _umath_linalg.eigh_lo
_svd = _umath_linalg.svd


# The tolerance table: every validity verdict in the package is decided here.
#: Largest Hermiticity defect ||m - m^dagger||_F that ``herm_eigen`` accepts.
HERMITIAN_TOL = 1e-10
#: Largest trace defect |tr m - 1| that ``validate_density`` accepts.
TRACE_TOL = 1e-10
#: ``validate_density`` rejects an eigenvalue below -EIGEN_TOL.
EIGEN_TOL = 1e-9
#: Distance from the pure-state value within which a state counts as pure.
PURE_TOL = 1e-9
#: Coefficient sums, the unit-``a`` slice, the pair-sum window [0, 1/12] and
#: the X-state positivity ball.
COEFF_TOL = 1e-12

#: Above this entry modulus the squares in the Frobenius norm could overflow.
#: ``herm_eigen`` skips its finite and scale checks up to this sum of squares.
_SCALE_ABOVE = 1e150


def _as_mat4(m) -> Mat4:
    # The package's one shape rule for matrices; see herm_eigen.
    try:
        m = np.asarray(m, dtype=complex)
    except ValueError:  # ragged rows, say: no shape to measure a gap on
        raise PreconditionViolated(
            "matrix must be 4x4, got an array-like numpy cannot read", violation=math.inf
        ) from None
    if m.shape != (4, 4):
        gap = sum(abs(n - 4) for n in m.shape) + 4 * abs(m.ndim - 2)
        raise PreconditionViolated(
            f"matrix must be 4x4, got shape {m.shape}", violation=float(gap)
        )
    return m


def herm_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian 4x4 matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` real and ascending and the
    corresponding orthonormal eigenvectors as the columns of ``v``. The
    result is deterministic for identical input. ``m`` may be any array-like,
    read as complex. A shape other than (4, 4) raises ``PreconditionViolated``
    whose violation is the sum of each axis length's gap to 4, plus 4 per
    missing or extra axis; an array-like that numpy cannot read as one complex
    array, such as ragged rows, raises it with violation inf. Raises
    ``NotHermitian`` for any NaN or infinite entry, with the number of
    non-finite entries as the violation, and when the Hermiticity defect
    ``||m - m^dagger||_F`` exceeds ``HERMITIAN_TOL``. With entries above
    1e150 the defect is taken on a rescaled copy and scaled back as a Python
    float, so it never overflows a numpy operation; at worst it is inf.

    The finite and scale checks are skipped when the sum of squared moduli,
    ``vdot(m, m).real``, is at most 1e150. Every entry is then finite and
    below about 1e75, so neither check could fire, whatever the rounding. A
    larger sum, inf or NaN runs both; the rescaled copy is taken only when the
    largest entry modulus is above 1e150.

    LAPACK runs through the bare gufunc, without the errstate block in which
    ``np.linalg.eigh`` turns a non-convergence into ``LinAlgError``: it gets
    only finite matrices within ``HERMITIAN_TOL`` of Hermitian, and on success
    the gufunc clears the floating-point flags, so not even entries near
    +-1e308 make a numpy warning.
    """
    m = _as_mat4(m)
    x, scale = m, 1.0
    if not _vdot(m, m).real <= _SCALE_ABOVE:
        s = float(np.abs(m).max())
        if not math.isfinite(s):
            finite = np.isfinite(m)
            bad = int(finite.size - np.count_nonzero(finite))
            if bad:
                raise NotHermitian(
                    f"matrix has {bad} non-finite entries", violation=float(bad)
                )
        if s > _SCALE_ABOVE:
            scale = max(float(np.abs(m.real).max()), float(np.abs(m.imag).max()))
            x = m / scale
    diff = x - x.conj().T
    defect = scale * math.sqrt(_vdot(diff, diff).real)
    if defect > HERMITIAN_TOL:
        raise NotHermitian(
            f"matrix is not Hermitian (defect {defect:.3e} > {HERMITIAN_TOL:.1e})",
            violation=defect,
        )
    w, v = _eigh(m, signature="D->dD")
    return w, v
