import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqw.errors import (
    NormalizationViolated,
    OutsideValidityWindow,
    PreconditionViolated,
)
from sqw import s3world
from sqw.linalg import COEFF_TOL, UNIT, herm_eigen
from sqw.report import check_s3_relations
from sqw.s3world import (
    A,
    B,
    CASIMIR,
    H1,
    H2,
    H3,
    MeasurementAxis,
    S3Coeffs,
    assemble_s3,
    concurrence_closed,
    gain,
    gain_closed_form,
    gain_curve,
    ie_reach,
    ie_state,
    is_pure,
    maximize_gain,
    mean_values,
    measure_update,
    measure_update_matrix,
    pair_sum,
    pure_concurrence,
    reduce_five_coeff,
    s3_spectrum,
    swap_concurrence,
    t_grid,
    t_param,
)
from sqw.twoqubit import concurrence_oracle, validate_density
from sqw.xworld import XCoeffs

import kernel_reference
from draws import PLANE_U, PLANE_V, random_s3_coeffs, theta_grid

AXES = tuple(MeasurementAxis)
#: Null vectors shared by every unit-``a`` state: e4 and (1, 1, 1, 0)/sqrt(3).
KERNEL_VECTORS = (np.array([0, 0, 0, 1.0]), np.array([1, 1, 1, 0]) / math.sqrt(3.0))


def bits(xs):
    """Exact bit patterns, so -0.0 and 0.0 count as different."""
    return [float(x).hex() for x in xs]


# ---- generator relations ----

def test_relation_suite_all_pass():
    report = check_s3_relations()
    assert report.all_pass
    assert all(c.deviation == 0.0 for c in report)


#: The check names `sqw check s3` prints, in order. The suite builds the
#: product names from symbol triples, so this pins its output.
S3_CHECK_NAMES = (
    "H1*H1 = 1", "H2*H2 = 1", "H3*H3 = 1",
    "H1*H2 = A", "H2*H3 = A", "H3*H1 = A", "H1*H3 = B", "H2*H1 = B", "H3*H2 = B",
    "H1*A = H2", "H2*A = H3", "H3*A = H1", "A*H1 = H3", "A*H2 = H1", "A*H3 = H2",
    "H1*B = H3", "H2*B = H1", "H3*B = H2", "B*H1 = H2", "B*H2 = H3", "B*H3 = H1",
    "A*A = B", "B*B = A", "A*B = 1", "B*A = 1",
    "A = adjoint(B)", "A + B = C - 1",
    "[C, H1] = 0", "[C, H2] = 0", "[C, H3] = 0", "[C, A] = 0", "[C, B] = 0",
)


def test_relation_suite_names_in_order():
    assert tuple(c.name for c in check_s3_relations()) == S3_CHECK_NAMES


def test_selected_relations_exact():
    assert np.array_equal(H1 @ H2, A)
    assert np.array_equal(A + B, CASIMIR - UNIT)
    assert np.array_equal(CASIMIR @ H2, H2 @ CASIMIR)
    assert np.array_equal(A, B.conj().T)
    assert np.array_equal(A @ B, UNIT)


# ---- coefficient handling ----

def test_normalization_enforced():
    with pytest.raises(NormalizationViolated):
        S3Coeffs(1.0, 0.0, 0.0, 0.0)


def test_reduce_five_coeff_examples():
    assert reduce_five_coeff(1.0, -1 / 6, -1 / 6, -1 / 6, 0.0) == ie_state()
    assert reduce_five_coeff(0.5, 0.0, 0.0, 0.0, 0.0) == S3Coeffs(0.5, 0.0, 0.0, 0.0)
    with pytest.raises(NormalizationViolated):
        reduce_five_coeff(1.0, 0.0, 0.0, 0.0, 0.0)


def test_reduce_five_coeff_matches_five_term_assembly():
    rng = np.random.default_rng(61)
    for _ in range(300):
        k, l, m, n = rng.uniform(-0.3, 0.3, 4)
        p = 0.5 - (k + l + m + n)
        five_term = (k / 2) * UNIT + l * H1 + m * H2 + n * H3 + p * (A + B)
        four_term = assemble_s3(reduce_five_coeff(k, l, m, n, p))
        assert np.abs(five_term - four_term).max() <= 1e-14


def test_assemble_examples():
    ie = assemble_s3(ie_state())
    expected = np.full((3, 3), -1 / 6)
    np.fill_diagonal(expected, 1 / 3)
    np.testing.assert_allclose(ie[:3, :3], expected, atol=1e-15)
    assert np.abs(ie[3, :]).max() <= 1e-15 and np.abs(ie[:, 3]).max() <= 1e-15

    mixed = assemble_s3(S3Coeffs(0.5, 0.0, 0.0, 0.0))
    assert np.array_equal(mixed, np.eye(4, dtype=complex) / 4)

    rank_one = assemble_s3(S3Coeffs(1.0, 0.0, -0.5, 0.0))
    v = np.array([1, 0, -1, 0], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(rank_one, np.outer(v, v.conj()), atol=1e-15)


# ---- spectrum ----

def test_spectrum_examples():
    np.testing.assert_allclose(s3_spectrum(ie_state()), (0, 0, 0.5, 0.5), atol=1e-12)
    np.testing.assert_allclose(
        s3_spectrum(S3Coeffs(1.0, 0.0, -0.5, 0.0)), (0, 0, 0, 1), atol=1e-12
    )
    with pytest.raises(OutsideValidityWindow) as err:
        s3_spectrum(S3Coeffs(1.0, -0.5, -0.5, 0.5))
    assert err.value.violation == pytest.approx(0.25, abs=1e-12)


def test_spectrum_matches_numeric_and_kernel_vectors():
    rng = np.random.default_rng(67)
    for _ in range(1000):
        coeffs = random_s3_coeffs(rng)
        rho = assemble_s3(coeffs)
        w, _ = herm_eigen(rho)
        np.testing.assert_allclose(w, s3_spectrum(coeffs), atol=1e-10)
        for kern in KERNEL_VECTORS:
            assert np.linalg.norm(rho @ kern) <= 1e-12


def test_spectrum_root_identities():
    rng = np.random.default_rng(71)
    for _ in range(500):
        coeffs = random_s3_coeffs(rng)
        _, _, mu2, mu1 = s3_spectrum(coeffs)
        assert mu1 + mu2 == pytest.approx(1.0, abs=1e-14)
        assert mu1 * mu2 == pytest.approx(3 * pair_sum(coeffs), abs=1e-12)


# ---- purity ----

def test_is_pure_examples():
    assert is_pure(S3Coeffs(1.0, 0.0, -0.5, 0.0))
    assert not is_pure(ie_state())
    assert is_pure(S3Coeffs(1.0, -1 / 3, -1 / 3, 1 / 6))


# ---- parametrization of the pure circle ----

def test_t_param_examples():
    assert t_param(0.0) == S3Coeffs(1.0, 0.0, -0.5, 0.0)
    at_one = t_param(1.0)
    np.testing.assert_allclose(
        (at_one.b, at_one.c, at_one.d), (-1 / 3, -1 / 3, 1 / 6), atol=1e-15
    )
    for t in (math.inf, -math.inf):
        # bit for bit: a -0.0 coefficient would print as "-0" in `sqw state`
        assert bits(tuple(t_param(t))) == bits([1.0, -0.5, 0.0, 0.0])


def test_pure_circle_identities():
    for t in theta_grid(1000):
        coeffs = t_param(t)
        assert abs(coeffs.b + coeffs.c + coeffs.d + 0.5) <= 1e-12
        assert abs(coeffs.b**2 + coeffs.c**2 + coeffs.d**2 - 0.25) <= 1e-12
        assert mean_values(coeffs).r == pytest.approx(4.5, abs=1e-10)


def _ulps_from(x, k):
    """The float |k| steps from x: away from zero for k > 0, toward it for k < 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf if k > 0 else 0.0, x))
    return x


#: The subnormals, zero and the smallest normal floats of either sign.
_SUBNORMAL = st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308)
_EDGE_T = st.one_of(
    # the |t| = 1 switch between the t and 1/t branches
    st.builds(_ulps_from, st.sampled_from([1.0, -1.0]), st.integers(-8, 8)),
    st.floats(min_value=1e150, allow_infinity=False),
    st.floats(max_value=-1e150, allow_infinity=False),
    _SUBNORMAL,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(t=_EDGE_T)
def test_t_param_circle_identities_at_the_edges(t):
    coeffs = t_param(t)
    assert abs(coeffs.b + coeffs.c + coeffs.d + 0.5) <= 4 * math.ulp(0.5)
    r2 = coeffs.b**2 + coeffs.c**2 + coeffs.d**2
    assert abs(r2 - 0.25) <= 4 * math.ulp(0.25)


def _assert_valid_spectrum(coeffs):
    spectrum = s3_spectrum(coeffs)
    assert all(math.isfinite(w) for w in spectrum)
    assert abs(sum(spectrum) - 1.0) <= 4 * math.ulp(1.0)


# On the unit-a plane the pair sum is 1/12 - rho^2 / 2, with rho the distance
# from the symmetric state: 0 on the pure circle and 1/12 at its centre.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    target=st.sampled_from([0.0, 1.0 / 12.0]),
    offset=st.floats(min_value=-0.9e-15, max_value=0.9e-15),
    phi=st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_pair_sum_at_the_window_edges(target, offset, phi):
    # No point of the plane has a pair sum above 1/12; 0 may be missed either way.
    q = target - abs(offset) if target else offset
    rho = math.sqrt(2.0 * (1.0 / 12.0 - q))
    b, c, d = -1 / 6 + rho * (math.cos(phi) * PLANE_U + math.sin(phi) * PLANE_V)
    coeffs = S3Coeffs(1.0, float(b), float(c), float(d))
    assert abs(pair_sum(coeffs) - target) <= 1e-15
    _assert_valid_spectrum(coeffs)
    c_closed = concurrence_closed(coeffs)
    assert math.isfinite(c_closed) and c_closed >= 0.0
    for axis in AXES:
        _assert_valid_spectrum(measure_update(coeffs, axis))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(x=_SUBNORMAL, y=_SUBNORMAL, z=_SUBNORMAL, slot=st.integers(0, 2))
def test_subnormal_coefficients_pass_the_checks(x, y, z, slot):
    # Mixed family: a = 1/2 and three subnormal couplings.
    coeffs = S3Coeffs(0.5, x, y, z)
    assert abs(pair_sum(coeffs)) <= 1e-300
    # Unit-a family: one coupling -1/2 and two subnormal ones.
    couplings = [x, y]
    couplings.insert(slot, -0.5)
    coeffs = S3Coeffs(1.0, *couplings)
    assert abs(pair_sum(coeffs)) <= 1e-300
    _assert_valid_spectrum(coeffs)
    assert math.isfinite(concurrence_closed(coeffs))
    for axis in AXES:
        _assert_valid_spectrum(measure_update(coeffs, axis))


@pytest.mark.parametrize("axis", AXES)
def test_every_parameter_formula_rejects_nan(axis):
    # Every non-finite entry point; the violation counts the non-finite inputs.
    nan, inf = math.nan, math.inf
    for call, args, count in (
        (t_param, (nan,), 1),
        (pure_concurrence, (nan,), 1),
        (lambda t: gain(axis, t), (nan,), 1),
        (lambda t: gain_closed_form(axis, t), (nan,), 1),
        (S3Coeffs, (nan, 0.0, inf, -inf), 3),
        (lambda e, *v: XCoeffs(e, v[:3], v[3:]), (0.0, nan, 0.0, 0.0, inf, 0.0, nan), 3),
        (ie_reach, (nan, 0.0), 1),
        (reduce_five_coeff, (nan, 0.0, 0.0, inf, 0.0), 2),
        (reduce_five_coeff, (0.0, 0.0, 0.0, 0.0, nan), 1),
    ):
        with pytest.raises(PreconditionViolated, match="^coefficients must be finite$") as err:
            call(*args)
        assert err.value.violation == count


def _projector(v):
    v = np.array(v, dtype=float)
    v /= np.linalg.norm(v)
    return np.outer(v, v)


def test_pure_vector_matches_rational_form():
    # The pure state at t projects on (1 + t, -t, -1, 0), and at infinity on (1, -1, 0, 0).
    for t in (*theta_grid(200), 0.0, -1.0, math.inf):
        v = (1, -1, 0, 0) if math.isinf(t) else (1 + t, -t, -1, 0)
        np.testing.assert_allclose(assemble_s3(t_param(t)), _projector(v), atol=1e-10)


@pytest.mark.parametrize(
    "t,expected",
    [
        (0.0, np.array([1, 0, -1, 0]) / np.sqrt(2)),
        (-1.0, np.array([0, 1, -1, 0]) / np.sqrt(2)),
        (math.inf, np.array([1, -1, 0, 0]) / np.sqrt(2)),
    ],
)
def test_pure_vector_named_points(t, expected):
    np.testing.assert_allclose(assemble_s3(t_param(t)), _projector(expected), atol=1e-10)


def test_t_param_covers_the_pure_circle():
    # every circle point is reached by its exact inverse t = -d / (c + d)
    center = np.full(3, -1 / 6)
    u1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
    u2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6)
    radius = math.sqrt(1 / 6)
    for phi in np.linspace(0, 2 * math.pi, 1000, endpoint=False):
        target = center + radius * (math.cos(phi) * u1 + math.sin(phi) * u2)
        _, c, d = target.tolist()
        t = math.inf if c + d == 0 else -d / (c + d)
        point = t_param(t)
        assert np.linalg.norm([point.b, point.c, point.d] - target) <= 1e-12


# ---- mean values ----

def test_mean_values_examples():
    np.testing.assert_allclose(mean_values(ie_state()), (-1, -1, -1, 3), atol=1e-12)
    np.testing.assert_allclose(
        mean_values(S3Coeffs(1.0, 0.0, -0.5, 0.0)), (-0.5, -2.0, -0.5, 4.5), atol=1e-12
    )


def test_mean_values_formulas_and_casimir():
    rng = np.random.default_rng(73)
    for _ in range(500):
        coeffs = random_s3_coeffs(rng)
        mv = mean_values(coeffs)
        b, c, d = coeffs.b, coeffs.c, coeffs.d
        assert mv.a1 == pytest.approx(c + d + 4 * b, abs=1e-12)
        assert mv.a2 == pytest.approx(b + d + 4 * c, abs=1e-12)
        assert mv.a3 == pytest.approx(b + c + 4 * d, abs=1e-12)
        # Casimir expectation vanishes: <H1 + H2 + H3> = A1 + A2 + A3 + 3 = 0
        assert abs(mv.a1 + mv.a2 + mv.a3 + 3.0) <= 1e-12


def test_mean_values_r_is_nine_halves_minus_eighteen_q():
    # R = 9/2 - 18 q, so the window's lower edge puts R above 9/2, by at most 18 COEFF_TOL.
    for q in (-9.9e-13, -9e-13, -1e-13, 0.0, 1.0 / 24.0, 1.0 / 12.0):
        rho = math.sqrt(2.0 * (1.0 / 12.0 - q))
        for phi in np.linspace(0.0, 2 * math.pi, 101).tolist():
            b, c, d = -1 / 6 + rho * (math.cos(phi) * PLANE_U + math.sin(phi) * PLANE_V)
            coeffs = S3Coeffs(1.0, float(b), float(c), float(d))
            r = mean_values(coeffs).r
            assert r == pytest.approx(4.5 - 18.0 * pair_sum(coeffs), abs=1e-14)
            assert r <= 4.5 + 18.0 * COEFF_TOL
    # sqw measure printed criterion_R 4.50000000002 for this state (pair sum -9.0e-13).
    edge = S3Coeffs(1.0, -3.0230071792203272e-06, -0.49999999998352285, 3.0229907021506186e-06)
    assert 4.5 < mean_values(edge).r <= 4.5 + 18.0 * COEFF_TOL


# ---- concurrence ----

def test_concurrence_closed_examples():
    assert concurrence_closed(ie_state()) == pytest.approx(2 / 3, abs=1e-12)
    assert concurrence_closed(S3Coeffs(1.0, 0.0, -0.5, 0.0)) == 0.0
    assert concurrence_closed(t_param(-1.0)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(OutsideValidityWindow):
        concurrence_closed(S3Coeffs(1.0, -0.5, -0.5, 0.5))


def test_closed_form_matches_pure_parameter_formula():
    for t in theta_grid(1000):
        assert abs(concurrence_closed(t_param(t)) - pure_concurrence(t)) <= 1e-10


def test_the_two_concurrences_differ_by_the_pair_sum():
    # On the unit-a slice (1/2 + b)(1/2 + c) = d^2 + q, q = bc + bd + cd, and
    # the window admits q >= -COEFF_TOL: the verified form is 2|d| and the
    # paper's form is 2 sqrt(d^2 + q).
    rng = np.random.default_rng(89)
    # sqw measure prints this pure state (pair sum -9.0e-13) with the paper's
    # form below the oracle, by up to 2 sqrt(COEFF_TOL) at the window's edge.
    edge = S3Coeffs(1.0, -3.0230071792203272e-06, -0.49999999998352285, 3.0229907021506186e-06)
    states = [random_s3_coeffs(rng) for _ in range(4000)]
    states += [t_param(t) for t in t_grid(2001).tolist()] + [ie_state(), edge]
    for coeffs in states:
        verified = swap_concurrence(coeffs)
        assert abs(verified - 2 * abs(coeffs.d)) <= 1e-13
        excess = concurrence_closed(coeffs) ** 2 - verified ** 2 - 4 * pair_sum(coeffs)
        assert abs(excess) <= 1e-15
    assert is_pure(edge)
    oracle = concurrence_oracle(assemble_s3(edge)).concurrence
    assert concurrence_closed(edge) == pytest.approx(5.74056675848e-06, rel=1e-11)
    assert oracle == pytest.approx(6.04597960434e-06, rel=1e-11)
    assert 0.0 < oracle - concurrence_closed(edge) <= 2 * math.sqrt(COEFF_TOL)


@pytest.mark.parametrize("q", [-9e-13, -5e-13, -1e-13, 0.0])
def test_swap_concurrence_matches_the_oracle_at_the_lower_window_edge(q):
    # The window admits pair sums down to -COEFF_TOL, where sqrt(d^2 + q) falls
    # below |d| and 2 min(|d|, sqrt(d^2 + q)) leaves the oracle, most where |d|
    # is near sqrt(-q). So the angles are a grid of the whole circle plus points
    # close to 7 pi / 6 and 11 pi / 6, where d = 0.
    rho = math.sqrt(2.0 * (1.0 / 12.0 - q))
    phis = np.linspace(0.0, 2 * math.pi, 2001).tolist()
    for zero in (7 * math.pi / 6, 11 * math.pi / 6):
        phis += [zero + s * 10.0**e for s in (-1, 1) for e in np.arange(-9.0, -1.0, 0.25)]
    dev = 0.0
    for phi in phis:
        b, c, d = -1 / 6 + rho * (math.cos(phi) * PLANE_U + math.sin(phi) * PLANE_V)
        coeffs = S3Coeffs(1.0, float(b), float(c), float(d))
        assert abs(pair_sum(coeffs) - q) <= 1e-15
        oracle = concurrence_oracle(assemble_s3(coeffs)).concurrence
        dev = max(dev, abs(swap_concurrence(coeffs) - oracle))
    assert dev <= 1e-11


def test_oracle_omegas_follow_root_formula():
    rng = np.random.default_rng(83)
    for _ in range(300):
        coeffs = random_s3_coeffs(rng)
        rep = concurrence_oracle(assemble_s3(coeffs))
        root = math.sqrt(max((0.5 + coeffs.b) * (0.5 + coeffs.c), 0.0))
        expected = sorted(
            ((coeffs.d + root) ** 2, (coeffs.d - root) ** 2, 0.0, 0.0), reverse=True
        )
        np.testing.assert_allclose(rep.omegas, expected, atol=1e-12)


# ---- measurement channel ----

def test_measure_update_fixed_point_and_case_map():
    for axis in AXES:
        assert measure_update(ie_state(), axis) == ie_state()
    after = measure_update(S3Coeffs(1.0, 0.0, -0.5, 0.0), MeasurementAxis.H1)
    assert after == S3Coeffs(1.0, 0.0, -0.25, -0.25)


def test_measure_update_rejects_invalid_state():
    with pytest.raises(OutsideValidityWindow):
        measure_update(S3Coeffs(1.0, -0.5, -0.5, 0.5), MeasurementAxis.H1)


def test_measure_update_matches_matrix_channel():
    rng = np.random.default_rng(89)
    for _ in range(1000):
        coeffs = random_s3_coeffs(rng)
        rho = assemble_s3(coeffs)
        for axis in AXES:
            lhs = assemble_s3(measure_update(coeffs, axis))
            rhs = measure_update_matrix(rho, axis)
            assert np.abs(lhs - rhs).max() <= 1e-12


def test_measure_update_matrix_reads_a_nested_list_as_the_array():
    rho = assemble_s3(random_s3_coeffs(np.random.default_rng(91)))
    for axis in AXES:
        assert np.array_equal(
            measure_update_matrix(rho.tolist(), axis), measure_update_matrix(rho, axis)
        )


def test_measure_update_matrix_rejects_a_3x3():
    # Also an array-like numpy cannot read as one array: ragged rows.
    for rho, gap in ((np.eye(3) / 3, 2.0), ([[1, 2], [3]], math.inf)):
        with pytest.raises(PreconditionViolated, match=r"^matrix must be 4x4") as err:
            measure_update_matrix(rho, MeasurementAxis.H1)
        assert err.value.violation == gap
    # A DensityMatrix is read as its matrix.
    dm = validate_density(assemble_s3(ie_state()))
    got = measure_update_matrix(dm, MeasurementAxis.H1)
    assert got.tobytes() == measure_update_matrix(dm.m, MeasurementAxis.H1).tobytes()


def test_measure_update_idempotent_exactly():
    rng = np.random.default_rng(97)
    for _ in range(300):
        coeffs = random_s3_coeffs(rng)
        for axis in AXES:
            once = measure_update(coeffs, axis)
            assert measure_update(once, axis) == once


# ---- entanglement gain ----

def test_gain_named_values():
    assert gain(MeasurementAxis.H1, 0.0).delta_c == pytest.approx(
        1 / math.sqrt(2), abs=1e-12
    )
    assert gain(MeasurementAxis.H3, 0.0).delta_c == 0.5
    assert gain(MeasurementAxis.H2, 0.0).delta_c == 0.0
    assert gain(MeasurementAxis.H1, 1.0).delta_c == pytest.approx(
        (math.sqrt(2.5) - 1) / 3, abs=1e-10
    )
    assert gain(MeasurementAxis.H3, 1.0).delta_c == pytest.approx(0.0, abs=1e-15)


def test_gain_result_consistency():
    for t in (0.0, 1.0, -2.5, math.inf):
        for axis in AXES:
            r = gain(axis, t)
            assert r.delta_c == r.c_after - r.c_before
            assert r.t_star == t or (math.isinf(t) and math.isinf(r.t_star))


def test_gain_matches_closed_forms():
    for t in theta_grid(1000):
        for axis in AXES:
            assert abs(gain(axis, t).delta_c - gain_closed_form(axis, t)) <= 1e-10


def test_maximize_gain():
    r1 = maximize_gain(MeasurementAxis.H1)
    assert r1.t_star == 0.0
    assert abs(r1.delta_c - 1 / math.sqrt(2)) <= 1e-9

    r2 = maximize_gain(MeasurementAxis.H2)
    assert math.isinf(r2.t_star)
    assert abs(r2.delta_c - 1 / math.sqrt(2)) <= 1e-9

    r3 = maximize_gain(MeasurementAxis.H3)
    assert r3.t_star == 0.0
    assert abs(r3.delta_c - 0.5) <= 1e-9


GRID_SIZES = (1, 2, 3, 1001, 10000)


@pytest.mark.parametrize("n", GRID_SIZES)
def test_t_grid_equals_scalar_loop(n):
    assert bits(t_grid(n)) == bits(theta_grid(n))


@pytest.mark.parametrize("n", (0, -3))
def test_t_grid_and_maximize_gain_reject_empty_grid(n):
    with pytest.raises(PreconditionViolated) as err:
        t_grid(n)
    assert err.value.violation == 1 - n
    # maximize_gain's grid is fixed: a grid size is no input at all.
    with pytest.raises(TypeError):
        maximize_gain(MeasurementAxis.H1, n)


#: numpy float scalars, which the scalar forms read as float64, as gain_curve reads an array.
NUMPY_FLOATS = (np.float16, np.float32, np.float64)


@pytest.mark.parametrize("n", GRID_SIZES)
@pytest.mark.parametrize("axis", AXES)
def test_gain_curve_bit_identical_to_gain(axis, n):
    c_before, c_after = gain_curve(axis, t_grid(n))
    scalar = [gain(axis, t) for t in theta_grid(n)]
    assert bits(c_before) == bits(r.c_before for r in scalar)
    assert bits(c_after) == bits(r.c_after for r in scalar)
    assert bits(c_after - c_before) == bits(r.delta_c for r in scalar)
    for dtype in NUMPY_FLOATS:  # scalar calls on up to 1001 points: a tenth of the time
        ts = t_grid(min(n, 1001)).astype(dtype)
        c_before, c_after = gain_curve(axis, ts)
        scalar = [gain(axis, t) for t in ts]
        assert bits(c_before) == bits(r.c_before for r in scalar)
        assert bits(c_after) == bits(r.c_after for r in scalar)
        assert {type(x) for r in scalar for x in r[1:]} == {float}
        closed = [gain_closed_form(axis, t) for t in ts]
        assert bits(closed) == bits(gain_closed_form(axis, t) for t in ts.tolist())


#: Zeros of both signs, the branch edge |t| = 1, the circle's symmetric
#: point, large and tiny values, subnormals, overflow range and NaN.
GAIN_EDGES = (
    0.0, -0.0, 1.0, -1.0, -0.5, 1e8, -1e8, math.inf, -math.inf, 1e-300, 5e-324,
    1e300, -1e300, 1.7e308, math.nan,
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axis", AXES)
def test_gain_equals_the_coefficient_chain(axis):
    # The float bits of every field, or the error class, message and violation.
    rng = np.random.default_rng(1701)
    ts = t_grid(20001).tolist() + rng.standard_cauchy(20000).tolist() + list(GAIN_EDGES)
    got = [kernel_reference.gain_outcome(gain, axis, t) for t in ts]
    want = [kernel_reference.gain_outcome(kernel_reference.gain, axis, t) for t in ts]
    assert got == want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t, error", [(0.37, TypeError), (math.nan, PreconditionViolated)])
def test_gain_non_axis_errors_equal_the_coefficient_chain(t, error):
    # A NaN t is rejected before the axis is looked at.
    got = kernel_reference.gain_outcome(gain, "h1", t)
    assert got == kernel_reference.gain_outcome(kernel_reference.gain, "h1", t)
    assert got[0] is error


@pytest.mark.parametrize("axis", AXES)
def test_gain_curve_nan_raises_like_gain(axis):
    with pytest.raises(Exception) as scalar:
        gain(axis, math.nan)
    with pytest.raises(type(scalar.value)) as batch:
        gain_curve(axis, [0.0, 1.0, math.nan, math.inf])
    assert type(batch.value) is type(scalar.value)
    assert str(batch.value) == str(scalar.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize(
    "ts",
    (0.5, [0.5], [math.inf], [],
     [[0.25, -0.75], [1.0, -0.0]], [[2.0, -3.0], [1e300, -math.inf]]),
    ids=("0-d", "inside", "infinity", "empty", "2-D inside", "2-D outside"),
)
def test_gain_curve_on_one_side_of_the_unit_t_equals_gain(axis, ts):
    # Only one of gain_curve's two branches has points: the other assigns nothing.
    c_before, c_after = gain_curve(axis, ts)
    assert c_before.shape == c_after.shape == np.shape(ts)
    scalar = [gain(axis, t) for t in np.ravel(ts).tolist()]
    assert bits(c_before.ravel()) == bits(r.c_before for r in scalar)
    assert bits(c_after.ravel()) == bits(r.c_after for r in scalar)


def test_gain_reruns_the_chain_for_a_point_off_the_window(monkeypatch):
    # (b, c, d) = (1/4, 1/4, -1) sums to -1/2 but has pair sum -7/16.
    monkeypatch.setattr(s3world, "_pure_point", lambda t: (0.25, 0.25, -1.0, 0.0))
    with pytest.raises(OutsideValidityWindow) as err:
        gain(MeasurementAxis.H1, 0.5)
    assert err.value.violation == 0.4375


def test_a_check_stricter_than_the_chain_is_an_assertion_error(monkeypatch):
    # Were the one-predicate check to reject a point the chain accepts, gain and
    # gain_curve would say so rather than return a number.
    unit_a_ok = s3world._unit_a_ok
    monkeypatch.setattr(s3world, "_unit_a_ok", lambda b, c, d: False)
    with pytest.raises(AssertionError, match="gain rejected t = 0.5"):
        gain(MeasurementAxis.H1, 0.5)
    # Rejecting array points only, so that gain accepts what gain_curve rejected.
    monkeypatch.setattr(
        s3world, "_unit_a_ok",
        lambda b, c, d: np.zeros(np.shape(b), bool) if np.ndim(b) else unit_a_ok(b, c, d),
    )
    with pytest.raises(AssertionError, match="gain_curve rejected t = 0.5"):
        gain_curve(MeasurementAxis.H1, [0.5, 2.0])


def _scan_winner(points):
    # Tie rule: on equal gains, finite t beats infinity, then the smallest |t|
    # wins, then the earlier point (a scan keeping strict improvements).
    best_key, best_t = None, None
    for t, v in points:
        key = (v, math.isfinite(t), -abs(t))
        if best_key is None or key > best_key:
            best_key, best_t = key, t
    return best_t


@pytest.mark.parametrize("n", (1, 2, 3, 4, 7, 101, 1001, 10000))
def test_grid_winner_matches_scalar_scan(n):
    for axis in AXES:
        best_t = _scan_winner((t, gain(axis, t).delta_c) for t in theta_grid(n))
        c_before, c_after = gain_curve(axis, t_grid(n))
        grid_t = _scan_winner(zip(t_grid(n).tolist(), (c_after - c_before).tolist()))
        assert bits([grid_t]) == bits([best_t])
        if n == 10000:  # maximize_gain's grid
            assert bits(tuple(maximize_gain(axis))) == bits(tuple(gain(axis, best_t)))


@pytest.mark.parametrize("axis", AXES)
def test_no_off_grid_point_beats_maximize_gain(axis):
    # Odd grids miss t = 0, so no point here lies on maximize_gain's grid
    # except t = inf.
    best = maximize_gain(axis).delta_c
    c_before, c_after = gain_curve(axis, t_grid(100_001))
    assert (c_after - c_before).max() <= best + 1e-12
    assert max(gain_closed_form(axis, t) for t in theta_grid(2_001)) <= best + 1e-12


def test_no_measurement_word_beats_one_step():
    # Every word of 1-4 axes (120) on the grid, scored by the verified
    # concurrence 2|d| before and after: the best gain is 1/2, first reached
    # by H1 alone at t = 0, and each word's best point is the oracle's.
    ts = t_grid(2000).tolist()
    b, c, d = np.array([t_param(t)[1:] for t in ts]).T
    winners = []
    for n in range(1, 5):
        for word in itertools.product(AXES, repeat=n):
            after = b, c, d
            for axis in word:
                after = s3world._channel(axis, *after)
            scores = 2.0 * np.abs(after[2]) - 2.0 * np.abs(d)
            k = int(np.argmax(scores))
            winners.append((float(scores[k]), word, ts[k]))
    assert len(winners) == 120
    best = max(score for score, _, _ in winners)
    assert best == 0.5
    assert next(w for w in winners if w[0] == best)[1:] == ((MeasurementAxis.H1,), 0.0)
    for score, word, t in winners:
        coeffs = t_param(t)
        before = concurrence_oracle(assemble_s3(coeffs)).concurrence
        for axis in word:
            coeffs = measure_update(coeffs, axis)
        oracle = concurrence_oracle(assemble_s3(coeffs)).concurrence - before
        assert abs(oracle - score) <= 1e-12, (word, t)


@pytest.mark.parametrize("axis", AXES)
def test_maximize_gain_calls_gain_once(axis, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return gain(*args)

    maximize_gain.cache_clear()  # a memo hit would call nothing
    monkeypatch.setattr(s3world, "gain", counted)
    assert maximize_gain(axis) == gain(axis, calls[0][1])
    assert len(calls) == 1


MEMO_AXES = (MeasurementAxis.H1, MeasurementAxis.H2, MeasurementAxis.H1, MeasurementAxis.H3)


def test_maximize_gain_repeats_its_first_call_bits():
    maximize_gain.cache_clear()
    passes = [[bits(tuple(maximize_gain(axis))) for axis in MEMO_AXES] for _ in range(3)]
    assert passes[1] == passes[0] and passes[2] == passes[0]
    info = maximize_gain.cache_info()
    # One search per distinct axis; H1 repeats within a pass.
    assert (info.misses, info.currsize) == (3, 3)
    assert info.hits == 3 * len(MEMO_AXES) - 3


def test_a_repeat_call_returns_the_same_result_object():
    maximize_gain.cache_clear()
    first = maximize_gain(MeasurementAxis.H2)
    assert maximize_gain(MeasurementAxis.H2) is first
    assert maximize_gain(MeasurementAxis.H3) is not first


@pytest.mark.parametrize("n", (7, 10000))
def test_mutating_a_t_grid_leaves_maximize_gain(n):
    expected = [bits(tuple(maximize_gain(axis))) for axis in AXES]
    for cold in (False, True):
        if cold:
            maximize_gain.cache_clear()
        ours = t_grid(n)
        ours.fill(math.nan)
        assert [bits(tuple(maximize_gain(axis))) for axis in AXES] == expected


@pytest.mark.parametrize("n", (10000, np.int64(10000)))
def test_a_float_grid_size_raises_with_a_cold_or_a_warm_memo(n):
    # np.int64(10000) equals 10000.0, yet only the integer is a grid size;
    # maximize_gain takes no grid size at all, with its memo cold or warm.
    maximize_gain.cache_clear()
    for _ in range(2):
        assert len(t_grid(n)) == n
        for bad in (float(n), math.nan):
            with pytest.raises(TypeError):
                t_grid(bad)
            with pytest.raises(TypeError):
                maximize_gain(MeasurementAxis.H1, bad)
        maximize_gain(MeasurementAxis.H1)


@pytest.mark.parametrize(
    "route",
    (
        t_param,
        pure_concurrence,
        lambda t: gain(MeasurementAxis.H1, t),
        lambda t: gain_closed_form(MeasurementAxis.H1, t),
        lambda t: gain_curve(MeasurementAxis.H1, t),
    ),
    ids=("t_param", "pure_concurrence", "gain", "gain_closed_form", "gain_curve"),
)
def test_a_string_t_raises_type_error(route):
    # float() parses "0.5" and b"0.5"; as a parameter they are no number. A 0-d
    # string or object array would be parsed through its __float__ as well.
    for t in (
        "0.5", b"0.5", np.str_("0.5"), ["0.5"], np.array("0.5", dtype=object),
        np.array("0.5"), np.array(b"0.5"), np.array(0.5, dtype=object),
    ):
        with pytest.raises(TypeError, match="must be real number"):
            route(t)
    # As an array, an object array of strings would be parsed entry by entry
    # and a bytearray read as its byte values; no scalar route takes either.
    for t in (np.array(["0.5"], dtype=object), bytearray(b"0.5")):
        with pytest.raises(TypeError):
            route(t)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "t",
    (0.37, -2.5, 3, -1, True, Fraction(1, 3), np.float16(0.37), np.float32(-2.5),
     np.float64(7.0), np.array(0.37), np.array(-2.5, dtype=np.float32)),
    ids=repr,
)
def test_a_real_t_reads_as_its_float(t):
    x = float(t)
    assert t_param(t) == t_param(x) and bits(t_param(t)) == bits(t_param(x))
    assert bits([pure_concurrence(t)]) == bits([pure_concurrence(x)])
    for axis in AXES:
        assert gain(axis, t).t_star is t
        assert bits(gain(axis, t)[1:]) == bits(gain(axis, x)[1:])
        assert bits([gain_closed_form(axis, t)]) == bits([gain_closed_form(axis, x)])


def test_a_non_axis_raises_type_error():
    # Unchecked, a string reaches the H3 branch and gets H3's numbers.
    calls = (
        lambda: measure_update(t_param(0.0), "h1"),
        lambda: measure_update_matrix(assemble_s3(t_param(0.0)), "h1"),
        lambda: gain("h1", 0.0),
        lambda: gain_curve("h1", [0.0, math.inf]),
        lambda: gain_closed_form("h1", 0.0),
        lambda: gain_closed_form("h1", math.inf),
        lambda: maximize_gain("h1"),
    )
    for call in calls:
        with pytest.raises(TypeError, match="must be a MeasurementAxis"):
            call()


# ---- the irreducible entangled state ----

def test_ie_commutes_with_generators_exactly():
    rho = assemble_s3(ie_state())
    for g in (H1, H2, H3, A, B):
        assert np.array_equal(rho @ g, g @ rho)
        assert np.array_equal(g @ rho @ g.conj().T, rho)


def test_ie_invariant_under_generator_exponentials():
    rng = np.random.default_rng(101)
    rho = assemble_s3(ie_state())
    for _ in range(100):
        theta = rng.uniform(0, 2 * math.pi, 3)
        h = (theta[0] * H1 + theta[1] * H2 + theta[2] * H3).real
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(1j * w)) @ v.conj().T
        assert np.linalg.norm(u @ rho @ u.conj().T - rho) <= 1e-10


def test_ie_reach():
    assert ie_reach(-1 / 6, -1 / 6) == ie_state()
    assert ie_reach(0.0, -1 / 3) == ie_state()
    with pytest.raises(OutsideValidityWindow) as err:
        ie_reach(1 / 3, -2 / 3)
    assert err.value.violation == pytest.approx(1 / 6)
    with pytest.raises(NormalizationViolated) as err:
        ie_reach(0.0, 0.0)
    assert err.value.violation == pytest.approx(1 / 3)


# ---- sampling ----

def test_random_coeffs_valid():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        coeffs = random_s3_coeffs(rng)
        assert coeffs.a == 1.0
        q = pair_sum(coeffs)
        assert -1e-12 <= q <= 1 / 12 + 1e-12


def test_unit_a_required():
    mixed = S3Coeffs(0.5, 0.0, 0.0, 0.0)
    for op in (s3_spectrum, is_pure, mean_values, concurrence_closed):
        with pytest.raises(PreconditionViolated):
            op(mixed)


def test_window_required():
    # A non-state on the unit-a plane, bc + bd + cd = -1; R would read 22.5.
    outside = S3Coeffs(1.0, 1.0, -1.0, -0.5)
    for op in (s3_spectrum, is_pure, mean_values, concurrence_closed):
        with pytest.raises(OutsideValidityWindow) as err:
            op(outside)
        assert err.value.violation == 1.0
