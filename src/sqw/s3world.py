"""The permutation-symmetric two-qubit family.

The observables are the six permutation matrices fixing the fourth basis
state: three pair swaps ``H1, H2, H3`` and the two cyclic shifts ``A`` and
``B = A^dagger`` of the first three basis states. Their sum-of-swaps
``CASIMIR = H1 + H2 + H3`` commutes with every generator. States in the
family are parametrized by four real coefficients ``(a, b, c, d)`` with
``a/2 + b H1 + c H2 + d H3`` and ``a + b + c + d = 1/2``; the analysis
specializes to the unit-``a`` slice, where the spectrum, purity criterion,
concurrence and the non-selective measurement channel all have closed
forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    NormalizationViolated,
    NotPSD,
    OutsideValidityWindow,
    PreconditionViolated,
)
from .linalg import Mat4, Vec4, herm_eigen
from .report import CheckResult, Report

NORM_TOL = 1e-12
WINDOW_TOL = 1e-12
#: Upper edge of the positivity window for the pair sum bc + bd + cd.
WINDOW_MAX = 1.0 / 12.0


def _locked(rows) -> Mat4:
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


UNIT = _locked(np.eye(4))
#: Pair swaps of basis states (1,2), (1,3) and (2,3); each squares to 1.
H1 = _locked([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
H2 = _locked([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]])
H3 = _locked([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
#: The two cyclic shifts of the first three basis states, A = B^dagger.
A = _locked([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]])
B = _locked([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
#: Commutes with all five generators.
CASIMIR = _locked(H1 + H2 + H3)

_KERNEL_1 = np.array([0, 0, 0, 1], dtype=complex)
_KERNEL_2 = np.array([1, 1, 1, 0], dtype=complex) / np.sqrt(3)
_KERNEL_1.setflags(write=False)
_KERNEL_2.setflags(write=False)
#: Null vectors shared by every unit-``a`` state.
KERNEL_VECTORS: tuple[Vec4, Vec4] = (_KERNEL_1, _KERNEL_2)


@dataclass(frozen=True)
class S3Coeffs:
    """Coefficients of a/2 + b H1 + c H2 + d H3 with a + b + c + d = 1/2."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        vals = (self.a, self.b, self.c, self.d)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("coefficients must be finite")
        dev = abs(self.a + self.b + self.c + self.d - 0.5)
        if dev > NORM_TOL:
            raise NormalizationViolated(
                f"a + b + c + d differs from 1/2 by {dev:.3e}", violation=dev
            )


class MeasurementAxis(Enum):
    """Which swap observable is measured (non-selectively)."""

    H1 = "h1"
    H2 = "h2"
    H3 = "h3"

    @property
    def matrix(self) -> Mat4:
        return {"h1": H1, "h2": H2, "h3": H3}[self.value]


class MeanValues(NamedTuple):
    a1: float
    a2: float
    a3: float
    r: float


@dataclass(frozen=True)
class GainResult:
    """Entanglement change of one measurement applied to one pure state."""

    t_star: float
    delta_c: float
    c_before: float
    c_after: float


def _require_unit_a(coeffs: S3Coeffs):
    if abs(coeffs.a - 1.0) > NORM_TOL:
        raise PreconditionViolated(
            f"operation requires the unit-a family, got a = {coeffs.a!r}",
            violation=abs(coeffs.a - 1.0),
        )


def pair_sum(coeffs: S3Coeffs) -> float:
    """The quantity bc + bd + cd controlling spectrum and positivity."""
    return coeffs.b * coeffs.c + coeffs.b * coeffs.d + coeffs.c * coeffs.d


def _require_window(coeffs: S3Coeffs) -> float:
    q = pair_sum(coeffs)
    if q < -WINDOW_TOL or q > WINDOW_MAX + WINDOW_TOL:
        raise OutsideValidityWindow(
            f"bc + bd + cd = {q!r} outside [0, 1/12]",
            violation=float(max(-q, q - WINDOW_MAX)),
        )
    return q


def check_s3_relations() -> Report:
    """Verify the full generator product table with exact equality."""
    checks: list[CheckResult] = []

    def add(name: str, lhs: Mat4, rhs: Mat4):
        dev = float(np.abs(lhs - rhs).max())
        checks.append(CheckResult(name, bool(np.array_equal(lhs, rhs)), dev))

    for name, h in (("H1", H1), ("H2", H2), ("H3", H3)):
        add(f"{name}*{name} = 1", h @ h, UNIT)
    for name, lhs, rhs in (
        ("H1*H2 = A", H1 @ H2, A),
        ("H2*H3 = A", H2 @ H3, A),
        ("H3*H1 = A", H3 @ H1, A),
        ("H1*H3 = B", H1 @ H3, B),
        ("H2*H1 = B", H2 @ H1, B),
        ("H3*H2 = B", H3 @ H2, B),
        ("H1*A = H2", H1 @ A, H2),
        ("H2*A = H3", H2 @ A, H3),
        ("H3*A = H1", H3 @ A, H1),
        ("A*H1 = H3", A @ H1, H3),
        ("A*H2 = H1", A @ H2, H1),
        ("A*H3 = H2", A @ H3, H2),
        ("H1*B = H3", H1 @ B, H3),
        ("H2*B = H1", H2 @ B, H1),
        ("H3*B = H2", H3 @ B, H2),
        ("B*H1 = H2", B @ H1, H2),
        ("B*H2 = H3", B @ H2, H3),
        ("B*H3 = H1", B @ H3, H1),
    ):
        add(name, lhs, rhs)
    add("A*A = B", A @ A, B)
    add("B*B = A", B @ B, A)
    add("A*B = 1", A @ B, UNIT)
    add("B*A = 1", B @ A, UNIT)
    add("A = adjoint(B)", A, B.conj().T)
    add("A + B = C - 1", A + B, CASIMIR - UNIT)
    for name, g in (("H1", H1), ("H2", H2), ("H3", H3), ("A", A), ("B", B)):
        add(f"[C, {name}] = 0", CASIMIR @ g - g @ CASIMIR, np.zeros((4, 4), complex))
    return Report(tuple(checks))


def reduce_five_coeff(k: float, l: float, m: float, n: float, p: float) -> S3Coeffs:
    """Fold the redundant five-coefficient form into four coefficients.

    The five-term expansion ``k/2 + l H1 + m H2 + n H3 + p (A + B)`` equals
    the four-term one because ``A + B = H1 + H2 + H3 - 1``; the folded
    coefficients are ``(k - 2p, l + p, m + p, n + p)``.
    """
    dev = abs(k + l + m + n + p - 0.5)
    if dev > NORM_TOL:
        raise NormalizationViolated(
            f"k + l + m + n + p differs from 1/2 by {dev:.3e}", violation=dev
        )
    return S3Coeffs(a=k - 2 * p, b=l + p, c=m + p, d=n + p)


def assemble_s3(coeffs: S3Coeffs) -> Mat4:
    """Assemble the matrix a/2 + b H1 + c H2 + d H3 (validity not checked)."""
    return (
        (coeffs.a / 2) * UNIT + coeffs.b * H1 + coeffs.c * H2 + coeffs.d * H3
    )


def s3_spectrum(coeffs: S3Coeffs) -> tuple[float, float, float, float]:
    """Closed-form eigenvalues of a unit-``a`` state, ascending.

    Two eigenvalues vanish identically (see ``KERNEL_VECTORS``); the other
    two are the roots of ``mu^2 - mu + 3(bc + bd + cd) = 0``. Raises
    ``OutsideValidityWindow`` when the pair sum leaves [0, 1/12].
    """
    _require_unit_a(coeffs)
    q = _require_window(coeffs)
    disc = math.sqrt(max(1.0 - 12.0 * q, 0.0))
    return (0.0, 0.0, (1.0 - disc) / 2.0, (1.0 + disc) / 2.0)


def is_pure(coeffs: S3Coeffs, tol: float = 1e-9) -> bool:
    """Purity test b^2 + c^2 + d^2 = 1/4 for unit-``a`` states."""
    _require_unit_a(coeffs)
    r2 = coeffs.b ** 2 + coeffs.c ** 2 + coeffs.d ** 2
    return abs(r2 - 0.25) <= tol


def t_param(t: float) -> S3Coeffs:
    """Coefficients of the pure unit-``a`` state with parameter ``t``.

    Total over the reals plus ``math.inf`` (and ``-math.inf``), which both
    map to the limit point (b, c, d) = (-1/2, 0, 0). The output satisfies
    b + c + d = -1/2 and b^2 + c^2 + d^2 = 1/4 identically.
    """
    if math.isinf(t):
        return S3Coeffs(1.0, -0.5, 0.0, 0.0)
    if abs(t) > 1.0:
        # Evaluate in 1/t to avoid overflow and cancellation for large |t|.
        u = 1.0 / t
        den = 2.0 * (u * u + u + 1.0)
        return S3Coeffs(1.0, -(u + 1.0) / den, -(u * u + u) / den, u / den)
    den = 2.0 * (1.0 + t + t * t)
    return S3Coeffs(1.0, -t * (1.0 + t) / den, -(1.0 + t) / den, t / den)


def pure_vector(t: float) -> Vec4:
    """Unit eigenvector of the pure state at parameter ``t``.

    Defined operationally as the top eigenvector of the assembled matrix,
    with the global phase fixed so the first component of magnitude above
    1e-8 is real and positive.
    """
    rho = assemble_s3(t_param(t))
    _, vecs = herm_eigen(rho)
    psi = vecs[:, 3].copy()
    for x in psi:
        if abs(x) > 1e-8:
            psi *= x.conjugate() / abs(x)
            break
    return psi


def mean_values(coeffs: S3Coeffs) -> MeanValues:
    """Shifted swap expectations A_i = <H_i> - 1 and R = A1^2 + A2^2 + A3^2.

    For every unit-``a`` state A1 + A2 + A3 = -3; R equals 9/2 exactly on
    pure states and is smaller on mixed ones.
    """
    _require_unit_a(coeffs)
    rho = assemble_s3(coeffs)
    a1 = float(np.trace(rho @ H1).real) - 1.0
    a2 = float(np.trace(rho @ H2).real) - 1.0
    a3 = float(np.trace(rho @ H3).real) - 1.0
    return MeanValues(a1, a2, a3, a1 * a1 + a2 * a2 + a3 * a3)


def concurrence_closed(coeffs: S3Coeffs) -> float:
    """Coefficient-level concurrence 2 sqrt((1/2 + b)(1/2 + c)).

    Both factors are diagonal entries of the assembled matrix, hence
    nonnegative on the validity window (clamped against rounding).
    """
    _require_unit_a(coeffs)
    _require_window(coeffs)
    prod = (0.5 + coeffs.b) * (0.5 + coeffs.c)
    return 2.0 * math.sqrt(max(prod, 0.0))


def measure_update(coeffs: S3Coeffs, axis: MeasurementAxis) -> S3Coeffs:
    """Non-selective measurement of one swap observable, on coefficients.

    Matrix level the channel is rho -> (rho + H rho H) / 2; on coefficients
    it averages the two couplings not aligned with the measured axis:

        H1: (b, c, d) -> (b, (c+d)/2, (c+d)/2)
        H2: (b, c, d) -> ((b+d)/2, c, (b+d)/2)
        H3: (b, c, d) -> ((b+c)/2, (b+c)/2, d)
    """
    _require_unit_a(coeffs)
    _require_window(coeffs)
    b, c, d = coeffs.b, coeffs.c, coeffs.d
    if axis is MeasurementAxis.H1:
        half = (c + d) / 2.0
        return S3Coeffs(coeffs.a, b, half, half)
    if axis is MeasurementAxis.H2:
        half = (b + d) / 2.0
        return S3Coeffs(coeffs.a, half, c, half)
    half = (b + c) / 2.0
    return S3Coeffs(coeffs.a, half, half, d)


def measure_update_matrix(rho: Mat4, axis: MeasurementAxis) -> Mat4:
    """The same channel evaluated directly on a matrix: (rho + H rho H)/2."""
    h = axis.matrix
    return (rho + h @ rho @ h) / 2


def pure_concurrence(t: float) -> float:
    """Concurrence |t| / (1 + t + t^2) of the pure state at ``t``.

    Evaluated in 1/t for |t| > 1, which stays accurate where the
    coefficient representation saturates (b indistinguishable from -1/2).
    """
    if math.isinf(t):
        return 0.0
    if abs(t) > 1.0:
        u = 1.0 / t
        return abs(u) / (u * u + u + 1.0)
    return abs(t) / (1.0 + t + t * t)


def gain(axis: MeasurementAxis, t: float) -> GainResult:
    """Concurrence gained by measuring ``axis`` on the pure state at ``t``.

    The before value is the parameter formula ``pure_concurrence(t)``; the
    after value runs the coefficient pipeline: parametrize, apply the
    channel, evaluate the closed-form concurrence.
    """
    before = t_param(t)
    after = measure_update(before, axis)
    c_before = pure_concurrence(t)
    c_after = concurrence_closed(after)
    return GainResult(
        t_star=t, delta_c=c_after - c_before, c_before=c_before, c_after=c_after
    )


def gain_closed_form(axis: MeasurementAxis, t: float) -> float:
    """Closed-form gain curves, one per measured axis.

    Independent of the channel pipeline; used to cross-check ``gain``.
    Values at ``t = +-inf`` (and |t| beyond overflow range) are the limits
    0, 1/sqrt(2) and 1/2 for axes H1, H2, H3 respectively.
    """
    if math.isinf(t) or abs(t) > 1e150:
        return {
            MeasurementAxis.H1: 0.0,
            MeasurementAxis.H2: 1.0 / math.sqrt(2.0),
            MeasurementAxis.H3: 0.5,
        }[axis]
    den = 1.0 + t + t * t
    if axis is MeasurementAxis.H1:
        return (math.sqrt((1.0 + 2.0 * t + 2.0 * t * t) / 2.0) - abs(t)) / den
    if axis is MeasurementAxis.H2:
        return abs(t) / den * (math.sqrt((2.0 + 2.0 * t + t * t) / 2.0) - 1.0)
    return (1.0 + t * t - 2.0 * abs(t)) / (2.0 * den)


def t_grid(n: int) -> np.ndarray:
    """The compactified grid t_k = tan(k pi / n - pi / 2), k = 1..n, as float64.

    The last point (k = n, theta = pi/2) is ``math.inf``. Each tangent is taken
    with ``math.tan``, so the values equal the scalar loop's bit for bit
    (``np.tan`` differs from it in the last place on some grid points).
    Raises ``PreconditionViolated`` for ``n < 1``, with the shortfall
    ``1 - n`` as its violation.
    """
    if n < 1:
        raise PreconditionViolated(
            f"grid needs at least one point, got {n}", violation=float(1 - n)
        )
    thetas = np.arange(1, n) / n * math.pi - math.pi / 2
    return np.append(np.fromiter(map(math.tan, thetas), float, n - 1), math.inf)


def _invalid_unit_a(b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    # Where S3Coeffs(1, b, c, d) or the window check of the scalar route raises.
    # A non-finite coefficient makes the normalization defect non-finite.
    dev = np.abs(1.0 + b + c + d - 0.5)
    q = b * c + b * d + c * d
    return ~((dev <= NORM_TOL) & (q >= -WINDOW_TOL) & (q <= WINDOW_MAX + WINDOW_TOL))


def gain_curve(axis: MeasurementAxis, ts) -> tuple[np.ndarray, np.ndarray]:
    """``(c_before, c_after)`` of ``gain(axis, t)`` for every ``t`` in ``ts``.

    The array form of ``gain``: the same float operations in the same order
    (``t_param``, ``measure_update``, ``concurrence_closed`` and
    ``pure_concurrence``), so every entry equals the scalar value bit for bit,
    and the same checks (finite coefficients, a + b + c + d = 1/2 and the
    [0, 1/12] window, before and after the channel). If any point fails, the
    first one is re-run through ``gain``, which raises its exact error. Worth
    it for grids: a batch of one costs about ten scalar calls.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    inf = np.isinf(ts)
    big = (np.abs(ts) > 1.0) & ~inf
    small = ~(big | inf)
    b, c, d, c_before = np.empty((4,) + ts.shape)
    # Branch |t| > 1 of t_param and pure_concurrence, evaluated in u = 1/t.
    u = 1.0 / ts[big]
    s = u * u + u + 1.0
    den = 2.0 * s
    b[big], c[big], d[big] = -(u + 1.0) / den, -(u * u + u) / den, u / den
    c_before[big] = np.abs(u) / s
    t = ts[small]
    s = 1.0 + t + t * t
    den = 2.0 * s
    b[small], c[small], d[small] = -t * (1.0 + t) / den, -(1.0 + t) / den, t / den
    c_before[small] = np.abs(t) / s
    b[inf], c[inf], d[inf], c_before[inf] = -0.5, 0.0, 0.0, 0.0
    bad = _invalid_unit_a(b, c, d)
    if axis is MeasurementAxis.H1:
        b2, c2 = b, (c + d) / 2.0
        d2 = c2
    elif axis is MeasurementAxis.H2:
        b2, c2 = (b + d) / 2.0, c
        d2 = b2
    else:
        b2 = c2 = (b + c) / 2.0
        d2 = d
    bad |= _invalid_unit_a(b2, c2, d2)
    if bad.any():
        t_bad = float(ts.flat[np.argmax(bad)])
        gain(axis, t_bad)
        raise AssertionError(f"gain_curve rejected t = {t_bad!r}, which gain accepts")
    prod = (0.5 + b2) * (0.5 + c2)
    # max(prod, 0.0) as Python evaluates it: -0.0 and NaN pass through.
    c_after = 2.0 * np.sqrt(np.where(prod < 0.0, 0.0, prod))
    return c_before, c_after


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _theta_to_t(theta: float) -> float:
    if theta >= math.pi / 2:
        return math.inf
    return math.tan(theta)


def _candidate_key(value: float, t: float) -> tuple[float, int, float]:
    # Rank by gain; on exact ties prefer finite t, then the smallest |t|.
    if math.isfinite(t):
        return (value, 1, -abs(t))
    return (value, 0, -math.inf)


def _grid_winner(axis: MeasurementAxis, n: int) -> tuple[int, float, float]:
    """1-based index, t and gain of the best point of ``t_grid(n)``.

    Picks what a scan over the grid keeping strict ``_candidate_key``
    improvements picks: the largest key, the first of equal keys.
    """
    ts = t_grid(n)
    c_before, c_after = gain_curve(axis, ts)
    deltas = c_after - c_before
    best_val = float(deltas.max())
    i = max(
        np.flatnonzero(deltas == best_val).tolist(),
        key=lambda j: _candidate_key(best_val, float(ts[j])),
    )
    return i + 1, float(ts[i]), best_val


def maximize_gain(axis: MeasurementAxis, grid_points: int = 10_000) -> GainResult:
    """Maximize the measurement gain over all pure states.

    The real line plus the point at infinity is swept through the compact
    angle theta in (-pi/2, pi/2] with t = tan(theta); a uniform grid pass
    over ``t_grid(grid_points)`` is followed by golden-section refinement of
    the best bracket until its width drops below 1e-10 in t (or 1e-12 in
    theta, which bounds the work when the bracket touches the infinite
    endpoint). The grid pass is vectorised through ``gain_curve``, bit for
    bit equal to calling ``gain`` per point; the refinement calls ``gain``.
    Exact ties resolve to finite t over infinity, then to the smallest |t|.
    Raises ``PreconditionViolated`` for ``grid_points < 1``.
    """
    n = grid_points
    best_k, best_t, best_val = _grid_winner(axis, n)

    step = math.pi / n
    lo = (best_k - 1) / n * math.pi - math.pi / 2 if best_k > 1 else -math.pi / 2 + step / 2
    hi = (best_k + 1) / n * math.pi - math.pi / 2 if best_k < n else math.pi / 2

    def evaluate(theta: float) -> tuple[float, float]:
        t = _theta_to_t(theta)
        return gain(axis, t).delta_c, t

    ref_val, ref_t = -math.inf, 0.0
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, tc = evaluate(c)
    fd, td = evaluate(d)
    for v, t in ((fc, tc), (fd, td)):
        if _candidate_key(v, t) > _candidate_key(ref_val, ref_t):
            ref_val, ref_t = v, t
    while hi - lo > 1e-12:
        t_hi, t_lo = _theta_to_t(hi), _theta_to_t(lo)
        if math.isfinite(t_hi) and t_hi - t_lo <= 1e-10:
            break
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc, tc = evaluate(c)
            new_v, new_t = fc, tc
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd, td = evaluate(d)
            new_v, new_t = fd, td
        if _candidate_key(new_v, new_t) > _candidate_key(ref_val, ref_t):
            ref_val, ref_t = new_v, new_t

    winner_t = best_t
    if _candidate_key(ref_val, ref_t) > _candidate_key(best_val, best_t):
        winner_t = ref_t
    return gain(axis, winner_t)


def ie_state() -> S3Coeffs:
    """The fully symmetric mixed state 1/2 - CASIMIR/6."""
    return S3Coeffs(1.0, -1.0 / 6.0, -1.0 / 6.0, -1.0 / 6.0)


def ie_checks() -> Report:
    """Verify the defining properties of the symmetric mixed state.

    Validity on the window boundary, coefficient-level concurrence 2/3,
    exact fixed point of all three measurement channels, exact commutation
    with all five generators, and exact invariance under conjugation by the
    cyclic shifts.
    """
    state = ie_state()
    rho = assemble_s3(state)
    checks: list[CheckResult] = []

    q_dev = abs(pair_sum(state) - WINDOW_MAX)
    checks.append(CheckResult("pair sum on window boundary 1/12", q_dev <= 1e-12, q_dev))
    c_dev = abs(concurrence_closed(state) - 2.0 / 3.0)
    checks.append(CheckResult("closed-form concurrence = 2/3", c_dev <= 1e-12, c_dev))
    for axis in MeasurementAxis:
        fixed = measure_update(state, axis) == state
        checks.append(CheckResult(f"fixed point of {axis.value} channel", fixed))
    for name, g in (("H1", H1), ("H2", H2), ("H3", H3), ("A", A), ("B", B)):
        comm = rho @ g - g @ rho
        ok = bool(np.array_equal(comm, np.zeros((4, 4), complex)))
        checks.append(CheckResult(f"[rho, {name}] = 0 exactly", ok, float(np.abs(comm).max())))
    for name, g in (("A", A), ("B", B)):
        conj = g @ rho @ g.conj().T
        ok = bool(np.array_equal(conj, rho))
        checks.append(CheckResult(f"{name} rho {name}^dagger = rho exactly", ok))
    return Report(tuple(checks))


def ie_reach(cc: float, dd: float) -> S3Coeffs:
    """Reach the symmetric mixed state by one measurement of ``H1``.

    The initial state has coefficients (1, -1/6, cc, dd); it must satisfy
    cc + dd = -1/3 and be numerically positive semidefinite. The channel
    output then equals the symmetric state exactly, coefficient by
    coefficient.
    """
    sum_dev = abs(cc + dd + 1.0 / 3.0)
    if sum_dev > NORM_TOL:
        raise PreconditionViolated(
            f"cc + dd differs from -1/3 by {sum_dev:.3e}", violation=sum_dev
        )
    initial = S3Coeffs(1.0, -1.0 / 6.0, cc, dd)
    w, _ = herm_eigen(assemble_s3(initial))
    if w[0] < -1e-10:
        raise NotPSD(
            f"initial state has negative eigenvalue {w[0]:.3e}",
            violation=float(-w[0]),
        )
    return measure_update(initial, MeasurementAxis.H1)


_DISK_RADIUS = math.sqrt(1.0 / 6.0)
_CENTER = np.array([-1.0 / 6.0, -1.0 / 6.0, -1.0 / 6.0])
_PLANE_U = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
_PLANE_V = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)


def random_coeffs(rng: np.random.Generator) -> S3Coeffs:
    """Draw a valid unit-``a`` state uniformly.

    The valid set is a disk in the normalization plane, centered on the
    fully symmetric state with the pure states on its boundary circle.
    """
    phi = rng.uniform(0.0, 2.0 * math.pi)
    rad = _DISK_RADIUS * math.sqrt(rng.uniform())
    b, c, d = _CENTER + rad * (math.cos(phi) * _PLANE_U + math.sin(phi) * _PLANE_V)
    return S3Coeffs(1.0, float(b), float(c), float(d))
