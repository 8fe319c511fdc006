"""The permutation-symmetric two-qubit family.

The observables are the six permutation matrices fixing the fourth basis
state: three pair swaps ``H1, H2, H3`` and the two cyclic shifts ``A`` and
``B = A^dagger`` of the first three basis states, built from the group
engine's table ``permworld.S3_GENERATORS``. Their sum-of-swaps
``CASIMIR = H1 + H2 + H3`` commutes with every generator. States in the
family are parametrized by four real coefficients ``(a, b, c, d)`` with
``a/2 + b H1 + c H2 + d H3`` and ``a + b + c + d = 1/2``; the analysis
specializes to the unit-``a`` slice, where the spectrum, purity criterion,
concurrence and the non-selective measurement channel all have closed
forms.
"""

from __future__ import annotations

import itertools
import math
import operator
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    NormalizationViolated, OutsideValidityWindow, PreconditionViolated, _validated_make,
    reject_non_finite,
)
from .linalg import COEFF_TOL, PURE_TOL, Mat4, _as_mat4, locked
from .permworld import POINTS, S3_GENERATORS, perm_matrix

#: Upper edge of the positivity window for the pair sum bc + bd + cd.
WINDOW_MAX = 1.0 / 12.0
#: Array kinds whose strings numpy would parse as numbers; no ``t`` route takes them.
_PARSED_KINDS = "SUO"


#: ``perm_matrix`` of each of ``S3_GENERATORS`` in the table's order, which
#: converts nested ints, so importing does no numpy arithmetic: pair swaps H1,
#: H2, H3 of basis states (1,2), (1,3) and (2,3), each squaring to 1, and the
#: two cyclic shifts A = B^dagger of the first three basis states.
H1, H2, H3, A, B = map(locked, map(perm_matrix, S3_GENERATORS.values()))
#: H1 + H2 + H3, the count of swaps taking i to j; it commutes with all five generators.
CASIMIR = locked([[sum(S3_GENERATORS[h](i) == j for h in ("H1", "H2", "H3")) for j in POINTS]
                  for i in POINTS])


def _in_window(q):
    # Whether the pair sum q lies in [0, 1/12] to COEFF_TOL, on floats or arrays.
    return (q >= -COEFF_TOL) & (q <= WINDOW_MAX + COEFF_TOL)


class _S3Fields(NamedTuple):
    a: float
    b: float
    c: float
    d: float


class S3Coeffs(_S3Fields):
    """Coefficients of a/2 + b H1 + c H2 + d H3 with a + b + c + d = 1/2.

    A NamedTuple whose constructor checks the sum, and raises ``TypeError``
    when it is complex; ``_make`` and ``_replace`` build through it.
    """

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, a: float, b: float, c: float, d: float):
        # math.fabs raises TypeError on a complex sum; NaN or inf fails the test.
        dev = math.fabs(a + b + c + d - 0.5)
        if not dev <= COEFF_TOL:
            reject_non_finite((a, b, c, d))
            raise NormalizationViolated(
                f"a + b + c + d differs from 1/2 by {dev:.3e}", violation=dev
            )
        return tuple.__new__(cls, (a, b, c, d))


class MeasurementAxis(Enum):
    """Which swap observable is measured (non-selectively)."""

    H1 = "h1"
    H2 = "h2"
    H3 = "h3"


# p[k] is the column of the one in row k of a swap. Plain lists: numpy kernels
# run at import cost every CLI process resident memory (0.5 MB for one 4x4 matmul).
_SWAP_PERM = {a: [i - 1 for i in S3_GENERATORS[a.name].images] for a in MeasurementAxis}
# Flat indices f with (h @ m @ h).flat[i] == m.flat[f[i]]: a swap is a
# symmetric permutation, so (h m h)[k, l] = m[p[k], p[l]].
_SWAP_INDEX = {a: np.array([[4 * k + l for l in p] for k in p]) for a, p in _SWAP_PERM.items()}


class MeanValues(NamedTuple):
    a1: float
    a2: float
    a3: float
    r: float


class GainResult(NamedTuple):
    """Entanglement change of one measurement applied to one pure state."""

    t_star: float
    delta_c: float
    c_before: float
    c_after: float


def is_unit_a(coeffs: S3Coeffs) -> bool:
    """Whether ``coeffs`` lies on the unit-``a`` slice, a = 1 to ``COEFF_TOL``."""
    return abs(coeffs.a - 1.0) <= COEFF_TOL


def pair_sum(coeffs: S3Coeffs) -> float:
    """The quantity bc + bd + cd controlling spectrum and positivity."""
    return coeffs.b * coeffs.c + coeffs.b * coeffs.d + coeffs.c * coeffs.d


def _require_unit_a_state(coeffs: S3Coeffs) -> float:
    # The pair sum of a unit-a state in the window; else PreconditionViolated
    # off the unit-a slice, then OutsideValidityWindow.
    if not is_unit_a(coeffs):
        raise PreconditionViolated(
            f"operation requires the unit-a family, got a = {coeffs.a!r}",
            violation=abs(coeffs.a - 1.0),
        )
    q = pair_sum(coeffs)
    if not _in_window(q):
        raise OutsideValidityWindow(
            f"bc + bd + cd = {q!r} outside [0, 1/12]",
            violation=float(max(-q, q - WINDOW_MAX)),
        )
    return q


def reduce_five_coeff(k: float, l: float, m: float, n: float, p: float) -> S3Coeffs:
    """Fold the redundant five-coefficient form into four coefficients.

    The five-term expansion ``k/2 + l H1 + m H2 + n H3 + p (A + B)`` equals
    the four-term one because ``A + B = H1 + H2 + H3 - 1``; the folded
    coefficients are ``(k - 2p, l + p, m + p, n + p)``. A non-finite input
    raises ``PreconditionViolated``; a bad sum raises ``S3Coeffs``'s
    ``NormalizationViolated`` for ``a + b + c + d`` on the folded ones.
    """
    reject_non_finite((k, l, m, n, p))
    return S3Coeffs(a=k - 2 * p, b=l + p, c=m + p, d=n + p)


def assemble_s3(coeffs: S3Coeffs) -> Mat4:
    """Assemble the matrix a/2 + b H1 + c H2 + d H3 (validity not checked).

    Each swap puts its coefficient on one off-diagonal pair and the two
    diagonal entries it fixes; each entry is summed left to right, as above.
    """
    h, b, c, d = coeffs.a / 2, coeffs.b, coeffs.c, coeffs.d
    return np.array(
        [h + d, b, c, 0.0, b, h + c, d, 0.0, c, d, h + b, 0.0, 0.0, 0.0, 0.0, h + b + c + d],
        dtype=complex,
    ).reshape(4, 4)


def s3_spectrum(coeffs: S3Coeffs) -> tuple[float, float, float, float]:
    """Closed-form eigenvalues of a unit-``a`` state, ascending.

    Two eigenvalues vanish identically, on the null vectors e4 and
    (1, 1, 1, 0)/sqrt(3) shared by every unit-``a`` state; the other two are
    the roots of ``mu^2 - mu + 3(bc + bd + cd) = 0``. Raises
    ``OutsideValidityWindow`` when the pair sum leaves [0, 1/12].
    """
    q = _require_unit_a_state(coeffs)
    disc = math.sqrt(max(1.0 - 12.0 * q, 0.0))
    return (0.0, 0.0, (1.0 - disc) / 2.0, (1.0 + disc) / 2.0)


def is_pure(coeffs: S3Coeffs) -> bool:
    """Purity test b^2 + c^2 + d^2 = 1/4, to ``PURE_TOL``, for unit-``a`` states.

    Raises ``OutsideValidityWindow`` when the pair sum leaves [0, 1/12].
    """
    _require_unit_a_state(coeffs)
    r2 = coeffs.b ** 2 + coeffs.c ** 2 + coeffs.d ** 2
    return abs(r2 - 0.25) <= PURE_TOL


def _circle_point(t):
    # (b, c, d, concurrence) of the pure state at t, |t| <= 1; floats or arrays.
    s = 1.0 + t + t * t
    den = 2.0 * s
    return -t * (1.0 + t) / den, -(1.0 + t) / den, t / den, abs(t) / s


def _circle_point_inv(u):
    # The same point for |t| > 1, in u = 1/t: no overflow or cancellation.
    s = u * u + u + 1.0
    den = 2.0 * s
    return -(u + 1.0) / den, -(u * u + u) / den, u / den, abs(u) / s


def _read_t(t) -> float:
    if type(t) is float:  # the common case, and ldexp(t, 0) is t
        return t
    if isinstance(t, np.ndarray) and t.dtype.kind in _PARSED_KINDS:
        raise TypeError(f"t must be real number, got {t!r}")
    return math.ldexp(t, 0)  # float(t) as gain_curve reads it, but str or bytes raise TypeError


def _pure_point(t: float) -> tuple[float, float, float, float]:
    t = _read_t(t)
    if abs(t) <= 1.0:
        return _circle_point(t)
    if math.isinf(t):
        return -0.5, 0.0, 0.0, 0.0
    if math.isnan(t):
        reject_non_finite((t,))
    return _circle_point_inv(1.0 / t)


def t_param(t: float) -> S3Coeffs:
    """Coefficients of the pure unit-``a`` state with parameter ``t``.

    Total over the reals plus ``math.inf`` (and ``-math.inf``), which both
    map to the limit point (b, c, d) = (-1/2, 0, 0). The output satisfies
    b + c + d = -1/2 and b^2 + c^2 + d^2 = 1/4 identically.
    """
    b, c, d, _ = _pure_point(t)
    return S3Coeffs(1.0, b, c, d)


def mean_values(coeffs: S3Coeffs) -> MeanValues:
    """Shifted swap expectations A_i = <H_i> - 1 and R = A1^2 + A2^2 + A3^2.

    For every unit-``a`` state A1 + A2 + A3 = -3 and R = 9/2 - 18 q, with q
    the pair sum: R is 9/2 on pure states (q = 0), 3 at q = 1/12 and
    between on mixed ones. The window admits q down to -COEFF_TOL, so an
    accepted state has R <= 9/2 + 18 COEFF_TOL, up to rounding. A pair sum
    outside the window raises ``OutsideValidityWindow``.
    """
    _require_unit_a_state(coeffs)
    rho = assemble_s3(coeffs)
    a1, a2, a3 = (float(np.trace(rho @ h).real) - 1.0 for h in (H1, H2, H3))
    return MeanValues(a1, a2, a3, a1 * a1 + a2 * a2 + a3 * a3)


def concurrence_closed(coeffs: S3Coeffs) -> float:
    """Coefficient-level concurrence 2 sqrt((1/2 + b)(1/2 + c)).

    Both factors are diagonal entries of the assembled matrix, hence
    nonnegative on the validity window (clamped against rounding).
    """
    _require_unit_a_state(coeffs)
    return _closed_concurrence(coeffs.b, coeffs.c)


def _closed_concurrence(b: float, c: float) -> float:
    # concurrence_closed's arithmetic, on a point already checked.
    return 2.0 * math.sqrt(max((0.5 + b) * (0.5 + c), 0.0))


def swap_concurrence(coeffs: S3Coeffs) -> float:
    """Verified concurrence 2|d| of a unit-``a`` state.

    Matches ``concurrence_oracle`` on the whole validity disk, where
    ``concurrence_closed`` does only on the pure circle. With P = (1/2 + b)
    (1/2 + c), the spin-flip eigenvalues are (d +- sqrt(P))^2 and two zeros;
    on the slice P = d^2 + q, with q the pair sum, and q >= 0 in the window,
    so C = 2 min(|d|, sqrt(P)) = 2|d|. The min is not kept: its second arm
    wins only by rounding, or at a pair sum the window's tolerance admits
    below 0, where the oracle still gives 2|d|. Raises ``PreconditionViolated``
    off the unit-``a`` slice and ``OutsideValidityWindow`` outside it.
    """
    _require_unit_a_state(coeffs)
    return 2.0 * abs(coeffs.d)


def _not_an_axis(axis) -> TypeError:
    return TypeError(f"axis must be a MeasurementAxis, got {axis!r}")


def _unit_a_ok(b, c, d):
    # Whether S3Coeffs(1, b, c, d) and the window check accept the point, on
    # floats (a bool) or arrays; the sums run in the constructor's and
    # pair_sum's order, and a non-finite coefficient fails the first test.
    return (abs(1.0 + b + c + d - 0.5) <= COEFF_TOL) & _in_window(b * c + b * d + c * d)


def _channel(axis: MeasurementAxis, b, c, d):
    # (b, c, d) -> (b', c', d') of measure_update, on floats or arrays.
    if axis is MeasurementAxis.H1:
        half = (c + d) / 2.0
        return b, half, half
    if axis is MeasurementAxis.H2:
        half = (b + d) / 2.0
        return half, c, half
    if axis is MeasurementAxis.H3:
        half = (b + c) / 2.0
        return half, half, d
    raise _not_an_axis(axis)


def measure_update(coeffs: S3Coeffs, axis: MeasurementAxis) -> S3Coeffs:
    """Non-selective measurement of one swap observable, on coefficients.

    Matrix level the channel is rho -> (rho + H rho H) / 2; on coefficients
    it averages the two couplings not aligned with the measured axis:

        H1: (b, c, d) -> (b, (c+d)/2, (c+d)/2)
        H2: (b, c, d) -> ((b+d)/2, c, (b+d)/2)
        H3: (b, c, d) -> ((b+c)/2, (b+c)/2, d)
    """
    _require_unit_a_state(coeffs)
    return S3Coeffs(coeffs.a, *_channel(axis, coeffs.b, coeffs.c, coeffs.d))


def measure_update_matrix(rho, axis: MeasurementAxis) -> Mat4:
    """The same channel evaluated directly on a matrix: (rho + H rho H)/2.

    ``H rho H`` swaps two rows and two columns, so it is one ``take``. ``rho``
    is read as ``herm_eigen`` reads it, with the same 4x4 shape rule.
    """
    if not isinstance(axis, MeasurementAxis):
        raise _not_an_axis(axis)
    rho = _as_mat4(rho)
    return (rho + rho.take(_SWAP_INDEX[axis])) / 2


def pure_concurrence(t: float) -> float:
    """Concurrence |t| / (1 + t + t^2) of the pure state at ``t``.

    Evaluated in 1/t for |t| > 1, which stays accurate where the
    coefficient representation saturates (b indistinguishable from -1/2).
    NaN raises the ``PreconditionViolated`` that ``t_param`` raises.
    """
    return _pure_point(t)[3]


def gain(axis: MeasurementAxis, t: float) -> GainResult:
    """Concurrence gained by measuring ``axis`` on the pure state at ``t``.

    The before value is the parameter formula ``pure_concurrence(t)``; the
    after value is ``concurrence_closed(measure_update(t_param(t), axis))``.
    The point and its channel image get that pipeline's checks in one
    predicate each; if either fails, the pipeline runs and raises its error.
    """
    b, c, d, c_before = _pure_point(t)
    after = _channel(axis, b, c, d)
    if not (_unit_a_ok(b, c, d) and _unit_a_ok(*after)):
        concurrence_closed(measure_update(S3Coeffs(1.0, b, c, d), axis))
        raise AssertionError(f"gain rejected t = {t!r}, which its pipeline accepts")
    c_after = _closed_concurrence(after[0], after[1])
    return GainResult(t, c_after - c_before, c_before, c_after)


def gain_closed_form(axis: MeasurementAxis, t: float) -> float:
    """Closed-form gain curves, one per measured axis.

    Independent of the channel pipeline; used to cross-check ``gain``.
    Values at ``t = +-inf`` (and |t| beyond overflow range) are the limits
    0, 1/sqrt(2) and 1/2 for axes H1, H2, H3 respectively. NaN raises the
    ``PreconditionViolated`` that ``gain`` raises.
    """
    t = _read_t(t)
    if not abs(t) <= 1e150:
        if math.isnan(t):
            reject_non_finite((t,))
        limit = {
            MeasurementAxis.H1: 0.0,
            MeasurementAxis.H2: 1.0 / math.sqrt(2.0),
            MeasurementAxis.H3: 0.5,
        }.get(axis)
        if limit is None:
            raise _not_an_axis(axis)
        return limit
    den = 1.0 + t + t * t
    if axis is MeasurementAxis.H1:
        return (math.sqrt((1.0 + 2.0 * t + 2.0 * t * t) / 2.0) - abs(t)) / den
    if axis is MeasurementAxis.H2:
        return abs(t) / den * (math.sqrt((2.0 + 2.0 * t + t * t) / 2.0) - 1.0)
    if axis is MeasurementAxis.H3:
        return (1.0 + t * t - 2.0 * abs(t)) / (2.0 * den)
    raise _not_an_axis(axis)


def t_grid(n: int) -> np.ndarray:
    """The compactified grid t_k = tan(k pi / n - pi / 2), k = 1..n, as float64.

    The last point (k = n, theta = pi/2) is ``math.inf``. Each value is
    ``math.tan`` of its angle (``np.tan`` differs from it in the last place on
    some grid points). Raises ``PreconditionViolated`` for ``n < 1``, with the
    shortfall ``1 - n`` as its violation, and ``TypeError`` for an ``n`` that
    is not an integer (``operator.index``), NaN included.
    """
    n = operator.index(n)
    if n < 1:
        raise PreconditionViolated(
            f"grid needs at least one point, got {n}", violation=float(1 - n)
        )
    thetas = np.arange(1, n) / n * math.pi - math.pi / 2
    return np.fromiter(itertools.chain(map(math.tan, thetas), [math.inf]), float, n)


def gain_curve(axis: MeasurementAxis, ts) -> tuple[np.ndarray, np.ndarray]:
    """``(c_before, c_after)`` of ``gain(axis, t)`` for every ``t`` in ``ts``.

    The array form of ``gain``: the same pure-state point and channel helpers
    on arrays, then ``concurrence_closed``'s float operations, so every entry
    equals the scalar value bit for bit, and the same checks (finite
    coefficients, a + b + c + d = 1/2 and the [0, 1/12] window, before and
    after the channel). Both arrays have the shape of ``ts``, 0-d included.
    If any point fails, the first one is re-run through ``gain``, which
    raises its exact error. Worth it for grids: a batch of one costs about
    seventeen scalar calls. ``maximize_gain`` searches only through it.
    Strings, bytes, a ``bytearray`` and object arrays raise ``TypeError``, as
    a string does in every scalar route. A ragged ``ts``, which numpy cannot
    read as one array, raises ``PreconditionViolated`` with violation inf.
    """
    try:
        kind = np.asarray(ts).dtype.kind
    except ValueError:  # ragged rows, say: no array to check
        raise PreconditionViolated("numpy cannot read ts as one array", math.inf) from None
    if isinstance(ts, bytearray) or kind in _PARSED_KINDS:
        raise TypeError(f"t must be real number, got {ts!r}")
    ts = np.asarray(ts, dtype=float)
    shape, ts = ts.shape, np.atleast_1d(ts)
    # At t = +-inf, u = +-0 gives the limit point up to the sign of a zero
    # coefficient, which no output and no check depends on.
    big = np.abs(ts) > 1.0
    b, c, d, c_before = point = np.empty((4,) + ts.shape)
    small = ~big  # a row at a time: point[:, big] = ... takes numpy's slower mixed-index path
    for row, far, near in zip(point, _circle_point_inv(1.0 / ts[big]), _circle_point(ts[small])):
        row[big], row[small] = far, near
    after = _channel(axis, b, c, d)
    bad = ~(_unit_a_ok(b, c, d) & _unit_a_ok(*after))
    if bad.any():
        t_bad = float(ts.flat[np.argmax(bad)])
        gain(axis, t_bad)
        raise AssertionError(f"gain_curve rejected t = {t_bad!r}, which gain accepts")
    prod = (0.5 + after[0]) * (0.5 + after[1])
    # max(prod, 0.0) as Python evaluates it: -0.0 and NaN pass through.
    c_after = 2.0 * np.sqrt(np.where(prod < 0.0, 0.0, prod))
    return c_before.reshape(shape), c_after.reshape(shape)


#: Points of ``maximize_gain``'s grid. Even, so t = 0 is grid point n/2, and
#: k = n is t = inf: the maxima of all three axes lie on those two points.
_GRID_POINTS = 10_000


@lru_cache
def maximize_gain(axis: MeasurementAxis) -> GainResult:
    """Maximize the measurement gain over all pure states.

    One ``gain_curve`` pass over ``t_grid(10_000)``, which covers the real
    line plus the point at infinity, picks the best point; ``gain`` is called
    once, for that winner. Exact ties resolve to finite t over infinity, then
    to the smallest |t|, then to the earlier point. The result is
    deterministic in ``axis`` and frozen, so it is memoized: a repeat call
    returns the same object and builds no grid.
    """
    ts = t_grid(_GRID_POINTS)
    c_before, c_after = gain_curve(axis, ts)
    deltas = c_after - c_before
    # max keeps the first of equal keys: finite t, then the smallest |t|.
    best_t = max(
        ts[deltas == deltas.max()].tolist(), key=lambda t: (math.isfinite(t), -abs(t))
    )
    return gain(axis, best_t)


def ie_state() -> S3Coeffs:
    """The fully symmetric mixed state 1/2 - CASIMIR/6."""
    return S3Coeffs(1.0, -1.0 / 6.0, -1.0 / 6.0, -1.0 / 6.0)


def ie_reach(cc: float, dd: float) -> S3Coeffs:
    """Reach the symmetric mixed state by one measurement of ``H1``.

    The initial state (1, -1/6, cc, dd) needs cc + dd = -1/3 (``S3Coeffs``)
    and a pair sum 1/18 + cc dd in [0, 1/12], which on this line is
    positivity (``measure_update``). The channel output then equals the
    symmetric state exactly, coefficient by coefficient.
    """
    return measure_update(S3Coeffs(1.0, -1.0 / 6.0, cc, dd), MeasurementAxis.H1)
