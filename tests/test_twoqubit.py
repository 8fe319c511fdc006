import math

import numpy as np
import pytest

from sqw import linalg, s3world, twoqubit, xworld
from sqw.errors import (
    NotHermitian, NotPSD, OutsideValidityWindow, PreconditionViolated, TraceNotOne,
)
from sqw.twoqubit import (
    concurrence_oracle,
    entanglement_of_formation,
    purity,
    validate_density,
)

import kernel_reference
from draws import random_s3_coeffs, random_x_coeffs

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1 / np.sqrt(2)

SYMMETRIC_MIXED = np.array(
    [
        [1 / 3, -1 / 6, -1 / 6, 0],
        [-1 / 6, 1 / 3, -1 / 6, 0],
        [-1 / 6, -1 / 6, 1 / 3, 0],
        [0, 0, 0, 0],
    ],
    dtype=complex,
)


def random_pure(rng):
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    return psi


def random_density(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary2(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q @ np.diag(np.diagonal(r) / np.abs(np.diagonal(r)))


# ---- validation ----

def test_validate_maximally_mixed():
    dm = validate_density(np.eye(4, dtype=complex) / 4)
    assert purity(dm) == pytest.approx(0.25, abs=1e-12)


def test_validate_symmetric_mixed_state():
    validate_density(SYMMETRIC_MIXED)


def test_validate_rejects_indefinite_coefficient_matrix():
    # (b, c, d) = (-1/2, -1/2, 1/2) in the swap family has a -1/2 eigenvalue
    b, c, d = -0.5, -0.5, 0.5
    m = np.array(
        [
            [0.5 + d, b, c, 0],
            [b, 0.5 + c, d, 0],
            [c, d, 0.5 + b, 0],
            [0, 0, 0, 0],
        ],
        dtype=complex,
    )
    with pytest.raises(NotPSD) as err:
        validate_density(m)
    assert err.value.violation == pytest.approx(0.5, abs=1e-9)


def test_validate_rejects_non_hermitian_and_bad_trace():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-3
    with pytest.raises(NotHermitian):
        validate_density(m)
    with pytest.raises(TraceNotOne) as err:
        validate_density(np.eye(4, dtype=complex) / 2)
    assert err.value.violation == pytest.approx(1.0)


@pytest.mark.parametrize("big", [1e20, 1e155])
def test_validate_leaves_rounded_trace_to_positivity(big):
    # The coefficients sum to 1/2, so the trace is exactly 1; the assembled
    # diagonal rounds the 0.5 away, and what is really wrong is positivity.
    m = s3world.assemble_s3(s3world.S3Coeffs(big, -big, 0.5, 0.0))
    assert np.trace(m).real == 0.0
    with pytest.raises(NotPSD):
        validate_density(m)
    # A positive matrix has max|m_ij| <= trace: its trace errors stay caught.
    for scale in (big, (1 + 1e-9) / 4):
        with pytest.raises(TraceNotOne):
            validate_density(np.eye(4, dtype=complex) * scale)


def _with_entry(value, index=(0, 0)):
    m = np.eye(4, dtype=complex) / 4
    m[index] = value
    return m


@pytest.mark.parametrize(
    "m, error, violation",
    [
        (np.full((4, 4), np.nan), NotHermitian, 16.0),
        (_with_entry(np.nan, (2, 1)), NotHermitian, 1.0),
        (_with_entry(np.inf), NotHermitian, 1.0),
        (np.eye(3) / 3, PreconditionViolated, 2.0),
        ([[1, 2], [3]], PreconditionViolated, math.inf),
    ],
    ids=["all-nan", "one-nan", "inf-diagonal", "3x3", "ragged"],
)
def test_non_finite_and_misshapen_input_rejected(m, error, violation):
    for call in (validate_density, concurrence_oracle):
        with pytest.raises(error) as err:
            call(m)
        assert err.value.violation == violation


_EDGES = kernel_reference.boundary_matrices() + kernel_reference.trace_matrices()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, m", _EDGES, ids=[name for name, _ in _EDGES])
def test_validate_density_changes_nothing_at_the_edges(name, m):
    # The diagonal sum is m.trace()'s number: the same wrapper bytes, or the
    # same error class and violation bits, as the unguarded body with m.trace().
    expected = kernel_reference.outcome(kernel_reference.validate_density, m)
    if name == "trace overflows":
        # m.trace() warns on the overflow; the sum of Python complex numbers
        # gives inf without a warning, and so raises what m.trace() raises
        # when its warning is silenced.
        assert expected[0] is RuntimeWarning
        with np.errstate(over="ignore"):
            expected = kernel_reference.outcome(kernel_reference.validate_density, m)
    if expected[0] is TraceNotOne:
        # That sum also makes the violation a float, as NotPSD's already is,
        # where m.trace() gives numpy.float64.
        expected = (TraceNotOne, float, expected[2])
    assert kernel_reference.outcome(validate_density, m) == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "diagonal, error, violation",
    [((1e308, 1e308, 0, 0), TraceNotOne, math.inf),
     ((1e308, 1e308, -1e308, -1e308), NotPSD, 1e308)],
    ids=["inf trace", "nan trace"],
)
def test_an_overflowing_trace_raises_invalid_state_not_a_warning(diagonal, error, violation):
    with pytest.raises(error) as err:
        validate_density(np.diag(np.array(diagonal, dtype=complex)))
    assert type(err.value.violation) is float and err.value.violation == violation


def test_decomposition_kept_read_only_and_rebuilds_the_matrix():
    rng = np.random.default_rng(43)
    states = [random_density(rng) for _ in range(50)]
    states += [SYMMETRIC_MIXED, np.outer(BELL, BELL.conj())]
    for rho in states:
        dm = validate_density(rho)
        w, v = dm.eigenvalues, dm.eigenvectors
        assert np.array_equal(w, np.linalg.eigh(rho)[0])
        assert np.all(np.diff(w) >= 0)
        rebuilt = (v * w) @ v.conj().T
        assert np.abs(rebuilt - dm.m).max() <= 1e-14
        for a in (dm.m, w, v):
            with pytest.raises(ValueError):
                a[0] = 0


# ---- purity ----

def test_purity_values():
    assert purity(np.eye(4, dtype=complex) / 4) == pytest.approx(0.25, abs=1e-12)
    proj = np.outer(BELL, BELL.conj())
    assert purity(proj) == pytest.approx(1.0, abs=1e-12)
    assert purity(SYMMETRIC_MIXED) == pytest.approx(0.5, abs=1e-12)


# ---- concurrence oracle ----

def test_oracle_bell_state():
    rho = np.outer(BELL, BELL.conj())
    rep = concurrence_oracle(rho)
    assert rep.concurrence == pytest.approx(1.0, abs=1e-12)
    assert rep.eof == pytest.approx(1.0, abs=1e-12)


def test_oracle_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1
    rep = concurrence_oracle(rho)
    assert rep.concurrence == pytest.approx(0.0, abs=1e-12)
    assert rep.eof == pytest.approx(0.0, abs=1e-12)


def test_oracle_symmetric_mixed_state():
    rep = concurrence_oracle(SYMMETRIC_MIXED)
    np.testing.assert_allclose(rep.omegas, (0.25, 1 / 36, 0.0, 0.0), atol=1e-12)
    assert rep.concurrence == pytest.approx(1 / 3, abs=1e-12)


def test_oracle_matches_determinant_form_on_named_pure_state():
    psi = np.array([2, -1, -1, 0], dtype=complex) / np.sqrt(6)
    det_form = 2 * abs(psi[0] * psi[3] - psi[1] * psi[2])
    assert det_form == pytest.approx(1 / 3, abs=1e-15)
    rep = concurrence_oracle(np.outer(psi, psi.conj()))
    assert rep.concurrence == pytest.approx(det_form, abs=1e-10)


def test_oracle_matches_determinant_form_on_random_pure_states():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        psi = random_pure(rng)
        rho = np.outer(psi, psi.conj())
        det_form = 2 * abs(psi[0] * psi[3] - psi[1] * psi[2])
        assert abs(concurrence_oracle(rho).concurrence - det_form) <= 1e-8


def test_oracle_local_unitary_invariance():
    rng = np.random.default_rng(37)
    for _ in range(200):
        rho = random_density(rng)
        u = np.kron(random_unitary2(rng), random_unitary2(rng))
        rotated = u @ rho @ u.conj().T
        assert (
            abs(
                concurrence_oracle(rotated).concurrence
                - concurrence_oracle(rho).concurrence
            )
            <= 1e-8
        )


def test_oracle_report_invariants():
    rng = np.random.default_rng(41)
    for _ in range(100):
        rep = concurrence_oracle(random_density(rng))
        assert all(x >= 0 for x in rep.omegas)
        assert list(rep.omegas) == sorted(rep.omegas, reverse=True)
        assert 0.0 <= rep.concurrence <= 1.0
        assert 0.0 <= rep.eof <= 1.0
        roots = np.sqrt(rep.omegas)
        recomputed = max(0.0, roots[0] - roots[1] - roots[2] - roots[3])
        assert abs(rep.concurrence - min(recomputed, 1.0)) <= 1e-10
        assert rep.eof == pytest.approx(
            entanglement_of_formation(rep.concurrence), abs=1e-12
        )


def test_oracle_on_density_matrix_makes_no_eigendecomposition(monkeypatch):
    rng = np.random.default_rng(47)
    states = [validate_density(random_density(rng)) for _ in range(20)]
    states.append(validate_density(SYMMETRIC_MIXED))
    expected = [concurrence_oracle(dm.m) for dm in states]

    def forbidden(*args, **kwargs):
        raise AssertionError("eigendecomposition called")

    monkeypatch.setattr(twoqubit, "herm_eigen", forbidden)
    monkeypatch.setattr(linalg, "_eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    assert [concurrence_oracle(dm) for dm in states] == expected


# ---- oracle precision against independent references ----

ORACLE_TOL = 1e-13


def _swap_min_form(b, c, d):
    return 2.0 * min(abs(d), math.sqrt(max((0.5 + b) * (0.5 + c), 0.0)))


def _pure_circle(t):
    if math.isinf(t):
        return 0.0
    if abs(t) > 1.0:
        u = 1.0 / t
        return abs(u) / (u * u + u + 1.0)
    return abs(t) / (1.0 + t + t * t)


def _yu_eberly(m):
    outer = abs(m[0, 3]) - math.sqrt(max(m[1, 1].real * m[2, 2].real, 0.0))
    inner = abs(m[1, 2]) - math.sqrt(max(m[0, 0].real * m[3, 3].real, 0.0))
    return 2.0 * max(0.0, outer, inner)


def _circle_ts(seed):
    rng = np.random.default_rng(seed)
    ts = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, math.inf, -math.inf]
    return ts + [math.tan(x) for x in rng.uniform(-math.pi / 2, math.pi / 2, 500)]


def test_oracle_matches_swap_min_form_on_whole_disk():
    rng = np.random.default_rng(59)
    coeffs = [random_s3_coeffs(rng) for _ in range(2000)]
    coeffs += [s3world.t_param(t) for t in _circle_ts(53)]
    coeffs.append(s3world.ie_state())
    dev = 0.0
    for k in coeffs:
        min_form = _swap_min_form(k.b, k.c, k.d)
        # The library's verified closed form is 2|d|, bit for bit.
        assert s3world.swap_concurrence(k) == 2.0 * abs(k.d)
        dev = max(dev, abs(concurrence_oracle(s3world.assemble_s3(k)).concurrence - min_form))
    assert dev <= ORACLE_TOL


@pytest.mark.parametrize(
    "coeffs, error",
    [
        (s3world.S3Coeffs(0.5, 0.0, 0.0, 0.0), PreconditionViolated),
        (s3world.S3Coeffs(1.0, 0.1, 0.1, -0.7), OutsideValidityWindow),
    ],
    ids=["off-unit-a", "outside-window"],
)
def test_swap_concurrence_rejects_what_concurrence_closed_rejects(coeffs, error):
    for route in (s3world.swap_concurrence, s3world.concurrence_closed):
        with pytest.raises(error):
            route(coeffs)


def test_oracle_matches_pure_circle_concurrence():
    # Near t = 0 and t = +-inf, 1/2 + c or 1/2 + b is below the rounding of
    # the coefficients, so the min-form loses its digits there; |t|/(1+t+t^2)
    # does not, and takes those points.
    ts = _circle_ts(67) + [1e-8, -1e-8, 1e8, -1e8, 1e-300, 1e300]
    dev = max(
        abs(
            concurrence_oracle(s3world.assemble_s3(s3world.t_param(t))).concurrence
            - _pure_circle(t)
        )
        for t in ts
    )
    assert dev <= ORACLE_TOL


def test_oracle_matches_yu_eberly_on_x_states():
    rng = np.random.default_rng(61)
    dev = 0.0
    for _ in range(2000):
        dm = xworld.assemble_x(random_x_coeffs(rng))
        dev = max(dev, abs(concurrence_oracle(dm).concurrence - _yu_eberly(dm.m)))
    assert dev <= ORACLE_TOL


# ---- entanglement of formation ----

def test_eof_endpoints():
    assert entanglement_of_formation(0.0) == 0.0
    assert entanglement_of_formation(1.0) == 1.0


@pytest.mark.parametrize("c", (math.nan, math.inf, -math.inf))
def test_eof_rejects_a_non_finite_concurrence(c):
    with pytest.raises(PreconditionViolated, match="^concurrence must be finite$") as err:
        entanglement_of_formation(c)
    assert err.value.violation == 1


def test_eof_gives_the_bits_of_the_reference():
    # The endpoints return early and the clamps that cannot bite are gone.
    rng = np.random.default_rng(401)
    edges = [
        0.0, -0.0, 1.0, -1.0, 2.0, 5e-324, 1e-300, 1e-10, 1e-8, 0.5,
        1.0 - 2.0**-53, 1.0 - 1e-9, 1.0 + 2.0**-52, 0, 1, False, True, np.float64(0.3),
    ]
    grid = edges + rng.random(5000).tolist() + (rng.random(500) * 1e-7).tolist()
    grid += (1.0 - rng.random(500) * 1e-9).tolist()
    for c in grid:
        assert entanglement_of_formation(c).hex() == kernel_reference.entanglement_of_formation(c).hex()


def test_eof_strictly_increasing_in_concurrence():
    grid = np.linspace(1e-6, 1.0, 1000)
    values = [entanglement_of_formation(c) for c in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
