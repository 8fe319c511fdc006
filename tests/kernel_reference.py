"""The per-state kernel, ``gain`` and the group engine before their rewrites, and edge inputs.

``herm_eigen`` here takes the largest entry modulus on every call,
``validate_density`` takes the trace with ``m.trace()`` and fills its record
without the ``DensityMatrix`` constructor, ``concurrence_oracle`` checks the
decomposition and the squared norm of ``M`` for finiteness, which never fails
on a validated record, and clamps the eigenvalues on every call,
``entanglement_of_formation`` clamps its argument and its result,
``assemble_x`` divides the whole matrix by 4 after building it, and ``gain``
runs the coefficient chain ``concurrence_closed(measure_update(t_param(t),
axis))``. ``generate`` closes its generators frontier by frontier, ``order``
multiplies an element until it reaches the identity, and ``perm_matrix``
writes its four ones into a zero matrix. ``S3_MATRICES`` are the S3
generators as 0/1 literals, the written reference for the matrices that
``s3world`` builds from ``permworld.S3_GENERATORS``. The boundary tables in
``test_linalg``, ``test_twoqubit``, ``test_xworld`` and ``test_s3world``
require the package to give the same bytes, or the same error with the same
violation, on every input below; ``test_permworld`` requires the same
subgroups, orders and matrices.
"""

import itertools
import math

import numpy as np

from sqw.errors import NotHermitian, NotPSD, PreconditionViolated, TraceNotOne
from sqw.linalg import _SCALE_ABOVE, COEFF_TOL, EIGEN_TOL, HERMITIAN_TOL, TRACE_TOL, _as_mat4
from sqw.permworld import IDENTITY, POINTS, Subgroup, _table, all_elements
from sqw.s3world import (
    GainResult, concurrence_closed, measure_update, pure_concurrence, t_param,
)
from sqw.twoqubit import ConcurrenceReport, DensityMatrix


def herm_eigen(m):
    m = _as_mat4(m)
    s = float(np.abs(m).max())
    if not math.isfinite(s):
        finite = np.isfinite(m)
        bad = int(finite.size - np.count_nonzero(finite))
        if bad:
            raise NotHermitian(
                f"matrix has {bad} non-finite entries", violation=float(bad)
            )
    x, scale = m, 1.0
    if s > _SCALE_ABOVE:
        scale = max(float(np.abs(m.real).max()), float(np.abs(m.imag).max()))
        x = m / scale
    diff = x - x.conj().T
    defect = scale * math.sqrt(np.vdot(diff, diff).real)
    if defect > HERMITIAN_TOL:
        raise NotHermitian(
            f"matrix is not Hermitian (defect {defect:.3e} > {HERMITIAN_TOL:.1e})",
            violation=defect,
        )
    w, v = np.linalg.eigh(m)
    return w, v


def validate_density(m):
    m = np.asarray(m, dtype=complex)
    w, v = herm_eigen(m)
    tr = m.trace()
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
    # Outside the constructor, which would put the package's decomposition in place of this one.
    return tuple.__new__(DensityMatrix, (out, w, v))


def entanglement_of_formation(concurrence):
    if not math.isfinite(concurrence):
        raise ValueError("concurrence must be finite")
    c = min(max(concurrence, 0.0), 1.0)
    x = (1.0 + math.sqrt(max(1.0 - c * c, 0.0))) / 2.0
    y = 1.0 - x
    e = 0.0 - x * math.log2(x)
    if y > 0.0:
        e -= y * math.log2(y)
    return min(max(e, 0.0), 1.0)


def concurrence_oracle(dm):
    w, v = dm.eigenvalues, dm.eigenvectors
    finite = math.isfinite(sum(w.tolist())) and math.isfinite(np.vdot(v, v).real)
    if finite:
        psi = v * np.sqrt(np.maximum(w, 0.0))
        m = psi.T @ (np.array([[-1.0], [1.0], [1.0], [-1.0]]) * psi[::-1])
        finite = math.isfinite(np.vdot(m, m).real)
    if not finite:
        raise PreconditionViolated("concurrence must be finite", violation=1.0)
    # The complex loop, which the package's complex M resolves to, for a real M too.
    l1, l2, l3, l4 = np.linalg.svd(m.astype(complex), compute_uv=False).tolist()
    c = min(max(l1 - l2 - l3 - l4, 0.0), 1.0)
    return ConcurrenceReport((l1 * l1, l2 * l2, l3 * l3, l4 * l4), c, entanglement_of_formation(c))


def assemble_x(coeffs):
    pn = math.sqrt(sum(x * x for x in coeffs.p))
    sn = math.sqrt(sum(x * x for x in coeffs.s))
    overshoot = max(pn - (1 + coeffs.e), sn - (1 - coeffs.e))
    if overshoot > COEFF_TOL:
        raise NotPSD(
            f"coefficients exceed the positivity ball by {overshoot:.3e}",
            violation=float(overshoot),
        )
    e, (p1, p2, p3), (s1, s2, s3) = coeffs.e, coeffs.p, coeffs.s
    m = np.array([
        1 + e + p3, 0, 0, complex(p1, -p2), 0, 1 - e + s3, complex(s1, -s2), 0,
        0, complex(s1, s2), 1 - e - s3, 0, complex(p1, p2), 0, 0, 1 + e - p3,
    ], dtype=complex).reshape(4, 4)
    return validate_density(m / 4)


def gain(axis, t):
    c_before = pure_concurrence(t)
    c_after = concurrence_closed(measure_update(t_param(t), axis))
    return GainResult(
        t_star=t, delta_c=c_after - c_before, c_before=c_before, c_after=c_after
    )


def generate(generators):
    elements, index, product = _table()
    gens = tuple(index[g] for g in generators)
    found = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            row = product[x]
            for g in gens:
                y = row[g]
                if y not in found:
                    found.add(y)
                    nxt.append(y)
        frontier = nxt
    return Subgroup(tuple(elements[i] for i in sorted(found)))


def enumerate_subgroups():
    elements = all_elements()
    found = {generate(())}
    for g in elements:
        found.add(generate((g,)))
    for g, h in itertools.combinations(elements, 2):
        found.add(generate((g, h)))
    return tuple(sorted(found, key=lambda s: (s.order, s)))


def order(p):
    k, q = 1, p
    while q != IDENTITY:
        q = q * p
        k += 1
    return k


def perm_matrix(p):
    m = np.zeros((4, 4), dtype=complex)
    for i in POINTS:
        m[i - 1, p(i) - 1] = 1.0
    return m


S3_MATRICES = {
    "H1": np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex),
    "H2": np.array([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=complex),
    "H3": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
    "A": np.array([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]], dtype=complex),
    "B": np.array([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


def gain_outcome(f, axis, t):
    """What ``f(axis, t)`` gives, comparable with ``==`` bit for bit.

    A result becomes the type and hex bits of each field; an error becomes
    its class, message and the type and hex bits of its ``violation``.
    """
    try:
        result = f(axis, t)
    except Exception as err:  # every class is compared, so none is let through
        violation = getattr(err, "violation", None)
        bits = None if violation is None else float(violation).hex()
        return type(err), str(err), type(violation), bits
    return tuple((type(x), float(x).hex()) for x in result)


def outcome(f, m):
    """What ``f(m)`` gives, comparable with ``==`` bit for bit.

    Arrays become their dtype, shape and bytes; an error becomes its class
    and the type and bytes of its ``violation``. A numpy warning raised as an
    error has no violation; its message names the numpy operation.
    """
    try:
        result = f(m)
    except Exception as err:  # every class is compared, so none is let through
        violation = getattr(err, "violation", None)
        return type(err), type(violation), np.float64(violation).tobytes()
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in result)


EPS = np.finfo(float).eps
QUARTER = np.eye(4, dtype=complex) / 4
#: Complex entries of modulus just above 1e150 whose squared moduli add to
#: no more than 1e300: a sum-of-squares gate at 1e300 would let them skip
#: the rescaling, and a one-sided pair would then give another violation.
NEAR_CUTOFF = (
    complex(3.912327562580413e149, 9.202917637525265e149),
    complex(9.792630784047381e149, 2.0259275227232523e149),
)


def _with(entries):
    m = QUARTER.copy()
    for at, value in entries.items():
        m[at] = value
    return m


def _pair(value, conj=True):
    # value at (0, 1); its conjugate (Hermitian) or zero (not) at (1, 0).
    return _with({(0, 1): value, (1, 0): np.conj(value) if conj else 0.0})


def _diag(*d):
    return np.diag(np.array(d, dtype=complex))


def boundary_matrices():
    """``(name, matrix)`` pairs at the edges of ``herm_eigen``'s checks."""
    cases = []
    for k in (-2, 2):
        big = 1e150 * (1 + k * EPS)
        cases += [
            (f"1e150(1{k:+d}eps) pair", _pair(big)),
            (f"1e150(1{k:+d}eps) one-sided", _pair(big, conj=False)),
            (f"1e150(1{k:+d}eps) diagonal", _with({(0, 0): big})),
            (f"1e150(1{k:+d}eps) imaginary pair", _pair(1j * big)),
        ]
    for i, z in enumerate(NEAR_CUTOFF):
        cases += [
            (f"near-cutoff {i} pair", _pair(z)),
            (f"near-cutoff {i} one-sided", _pair(z, conj=False)),
        ]
    cases.append(("all 16 at 0.9e150", np.full((4, 4), 0.9e150, dtype=complex)))
    cases += [
        ("1e155 pair", _pair(1e155)),
        ("1e155 one-sided", _pair(1e155, conj=False)),
        ("1e155 antisymmetric", _with({(0, 1): 1e155, (1, 0): -1e155})),
    ]
    for bad in (math.inf, -math.inf, complex(math.inf, math.inf), complex(0, math.nan)):
        cases += [
            (f"{bad} diagonal", _with({(0, 0): bad})),
            (f"{bad} off-diagonal", _with({(0, 1): bad})),
        ]
    cases.append(("all nan", np.full((4, 4), math.nan, dtype=complex)))
    for k in (-4, 4):
        # Defect 2t of an imaginary diagonal entry t, 2 sqrt(2) t of a pair t, -t.
        t = HERMITIAN_TOL * (1 + k * EPS)
        cases += [
            (f"defect tol(1{k:+d}eps) diagonal", _with({(0, 0): 0.25 + 0.5j * t})),
            (f"defect tol(1{k:+d}eps) pair", _with({(0, 1): t / 8**0.5, (1, 0): -t / 8**0.5})),
        ]
    return cases


def trace_matrices():
    """``(name, matrix)`` pairs at the edges of ``validate_density``'s trace check."""
    return [
        ("-0.0 diagonal", _diag(-0.0, 0.5, 0.5, -0.0)),
        ("-0.0 diagonal, trace 1/2", _diag(-0.0, 0.5, -0.0, -0.0)),
        ("-0.0 imaginary diagonal", _diag(complex(0.5, -0.0), 0.5, -0.0, -0.0)),
        ("pairwise differs from left to right", _diag(0.7, 0.1, 0.2, 0.3)),
        ("1e300 cancelling", _diag(1e300, -1e300, 0.5, 0.5)),
        ("1e300 rounding the trace away", _diag(1e300, 0.75, -1e300, 0.25)),
        ("1e300 off-diagonal", _with({(0, 1): 1e300, (1, 0): 1e300})),
        ("1e300 trace", _diag(1e300, 1e300, 0.0, 0.0)),
        ("trace overflows", _diag(1e308, 1e308, 0.0, 0.0)),
    ] + [
        # Above and below 1/4: the last first entry whose trace defect is
        # within TRACE_TOL, then the next float out.
        (f"trace defect at tol, first entry {v!r}", _diag(v, 0.25, 0.25, 0.25))
        for v in (
            0.25000000009999984, 0.2500000000999999, 0.24999999990000007, 0.24999999990000005
        )
    ]
