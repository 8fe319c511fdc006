import math

import numpy as np
import pytest

from sqw.errors import (
    NormalizationViolated,
    NotPSD,
    OutsideValidityWindow,
    PreconditionViolated,
)
from sqw.linalg import herm_eigen
from sqw.s3world import (
    A,
    B,
    CASIMIR,
    H1,
    H2,
    H3,
    KERNEL_VECTORS,
    UNIT,
    _candidate_key,
    _grid_winner,
    MeasurementAxis,
    S3Coeffs,
    assemble_s3,
    check_s3_relations,
    concurrence_closed,
    gain,
    gain_closed_form,
    gain_curve,
    ie_checks,
    ie_reach,
    ie_state,
    is_pure,
    maximize_gain,
    mean_values,
    measure_update,
    measure_update_matrix,
    pair_sum,
    pure_concurrence,
    pure_vector,
    random_coeffs,
    reduce_five_coeff,
    s3_spectrum,
    t_grid,
    t_param,
)
from sqw.twoqubit import concurrence_oracle

AXES = tuple(MeasurementAxis)


def theta_grid(n):
    """n points of the compactified parameter, the last one at infinity."""
    for k in range(1, n + 1):
        theta = (k / n) * math.pi - math.pi / 2
        yield math.inf if k == n else math.tan(theta)


def bits(xs):
    """Exact bit patterns, so -0.0 and 0.0 count as different."""
    return [float(x).hex() for x in xs]


# ---- generator relations ----

def test_relation_suite_all_pass():
    report = check_s3_relations()
    assert report.all_pass
    assert all(c.deviation == 0.0 for c in report)


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
        coeffs = random_coeffs(rng)
        rho = assemble_s3(coeffs)
        w, _ = herm_eigen(rho)
        np.testing.assert_allclose(w, s3_spectrum(coeffs), atol=1e-10)
        for kern in KERNEL_VECTORS:
            assert np.linalg.norm(rho @ kern) <= 1e-12


def test_spectrum_root_identities():
    rng = np.random.default_rng(71)
    for _ in range(500):
        coeffs = random_coeffs(rng)
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
    assert t_param(math.inf) == S3Coeffs(1.0, -0.5, 0.0, 0.0)
    assert t_param(-math.inf) == S3Coeffs(1.0, -0.5, 0.0, 0.0)


def test_pure_circle_identities():
    for t in theta_grid(1000):
        coeffs = t_param(t)
        assert abs(coeffs.b + coeffs.c + coeffs.d + 0.5) <= 1e-12
        assert abs(coeffs.b**2 + coeffs.c**2 + coeffs.d**2 - 0.25) <= 1e-12
        assert mean_values(coeffs).r == pytest.approx(4.5, abs=1e-10)
        psi = pure_vector(t)
        np.testing.assert_allclose(
            np.outer(psi, psi.conj()), assemble_s3(coeffs), atol=1e-10
        )


def test_pure_vector_matches_rational_form():
    for t in theta_grid(200):
        if math.isinf(t):
            expected = np.array([1, -1, 0, 0], dtype=complex) / np.sqrt(2)
        else:
            expected = np.array([1 + t, -t, -1, 0], dtype=complex)
            expected /= np.linalg.norm(expected)
            for x in expected:
                if abs(x) > 1e-8:
                    expected *= np.sign(x.real)
                    break
        np.testing.assert_allclose(pure_vector(t), expected, atol=1e-10)


@pytest.mark.parametrize(
    "t,expected",
    [
        (0.0, np.array([1, 0, -1, 0]) / np.sqrt(2)),
        (-1.0, np.array([0, 1, -1, 0]) / np.sqrt(2)),
        (math.inf, np.array([1, -1, 0, 0]) / np.sqrt(2)),
    ],
)
def test_pure_vector_named_points(t, expected):
    np.testing.assert_allclose(pure_vector(t), expected.astype(complex), atol=1e-10)


def test_t_param_covers_the_pure_circle():
    # every circle point is approached by some t under grid + refinement
    center = np.full(3, -1 / 6)
    u1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
    u2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6)
    radius = math.sqrt(1 / 6)
    inv_phi = (math.sqrt(5) - 1) / 2

    def distance(theta, target):
        # tan is pi-periodic, so brackets may wrap across the seam at pi/2
        c = t_param(math.tan(theta))
        return np.linalg.norm(np.array([c.b, c.c, c.d]) - target)

    step = math.pi / 400
    for phi in np.linspace(0, 2 * math.pi, 1000, endpoint=False):
        target = center + radius * (math.cos(phi) * u1 + math.sin(phi) * u2)
        thetas = [(k / 400) * math.pi - math.pi / 2 for k in range(1, 401)]
        best = min(range(400), key=lambda i: distance(thetas[i], target))
        lo = thetas[best] - step
        hi = thetas[best] + step
        while hi - lo > 1e-9:
            c = hi - inv_phi * (hi - lo)
            d = lo + inv_phi * (hi - lo)
            if distance(c, target) < distance(d, target):
                hi = d
            else:
                lo = c
        assert distance((lo + hi) / 2, target) <= 1e-6


# ---- mean values ----

def test_mean_values_examples():
    np.testing.assert_allclose(mean_values(ie_state()), (-1, -1, -1, 3), atol=1e-12)
    np.testing.assert_allclose(
        mean_values(S3Coeffs(1.0, 0.0, -0.5, 0.0)), (-0.5, -2.0, -0.5, 4.5), atol=1e-12
    )


def test_mean_values_formulas_and_casimir():
    rng = np.random.default_rng(73)
    for _ in range(500):
        coeffs = random_coeffs(rng)
        mv = mean_values(coeffs)
        b, c, d = coeffs.b, coeffs.c, coeffs.d
        assert mv.a1 == pytest.approx(c + d + 4 * b, abs=1e-12)
        assert mv.a2 == pytest.approx(b + d + 4 * c, abs=1e-12)
        assert mv.a3 == pytest.approx(b + c + 4 * d, abs=1e-12)
        # Casimir expectation vanishes: <H1 + H2 + H3> = A1 + A2 + A3 + 3 = 0
        assert abs(mv.a1 + mv.a2 + mv.a3 + 3.0) <= 1e-12


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


def test_oracle_equals_min_rule_on_mixed_states():
    # The numerical pipeline realizes 2*min(|d|, sqrt((1/2+b)(1/2+c))),
    # which meets the coefficient closed form only where |d| dominates;
    # on the pure circle the two coincide.
    rng = np.random.default_rng(79)
    for _ in range(1000):
        coeffs = random_coeffs(rng)
        oracle = concurrence_oracle(assemble_s3(coeffs)).concurrence
        root = math.sqrt(max((0.5 + coeffs.b) * (0.5 + coeffs.c), 0.0))
        assert abs(oracle - 2 * min(abs(coeffs.d), root)) <= 1e-9


def test_oracle_omegas_follow_root_formula():
    rng = np.random.default_rng(83)
    for _ in range(300):
        coeffs = random_coeffs(rng)
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
        coeffs = random_coeffs(rng)
        rho = assemble_s3(coeffs)
        for axis in AXES:
            lhs = assemble_s3(measure_update(coeffs, axis))
            rhs = measure_update_matrix(rho, axis)
            assert np.abs(lhs - rhs).max() <= 1e-12


def test_measure_update_idempotent_exactly():
    rng = np.random.default_rng(97)
    for _ in range(300):
        coeffs = random_coeffs(rng)
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
    for call in (lambda: t_grid(n), lambda: maximize_gain(MeasurementAxis.H1, n)):
        with pytest.raises(PreconditionViolated) as err:
            call()
        assert err.value.violation == 1 - n


@pytest.mark.parametrize("n", GRID_SIZES)
@pytest.mark.parametrize("axis", AXES)
def test_gain_curve_bit_identical_to_gain(axis, n):
    c_before, c_after = gain_curve(axis, t_grid(n))
    scalar = [gain(axis, t) for t in theta_grid(n)]
    assert bits(c_before) == bits(r.c_before for r in scalar)
    assert bits(c_after) == bits(r.c_after for r in scalar)
    assert bits(c_after - c_before) == bits(r.delta_c for r in scalar)


@pytest.mark.parametrize("axis", AXES)
def test_gain_curve_nan_raises_like_gain(axis):
    with pytest.raises(Exception) as scalar:
        gain(axis, math.nan)
    with pytest.raises(type(scalar.value)) as batch:
        gain_curve(axis, [0.0, 1.0, math.nan, math.inf])
    assert type(batch.value) is type(scalar.value)
    assert str(batch.value) == str(scalar.value)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 7, 101, 1001, 10000))
def test_grid_winner_matches_scalar_scan(n):
    for axis in AXES:
        best_val, best_t, best_k = -math.inf, 0.0, 1
        for k, t in enumerate(theta_grid(n), start=1):
            v = gain(axis, t).delta_c
            if _candidate_key(v, t) > _candidate_key(best_val, best_t):
                best_val, best_t, best_k = v, t, k
        assert _grid_winner(axis, n) == (best_k, best_t, best_val)


# ---- the irreducible entangled state ----

def test_ie_checks_all_pass():
    report = ie_checks()
    assert report.all_pass


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
    with pytest.raises(NotPSD):
        ie_reach(1 / 3, -2 / 3)
    with pytest.raises(PreconditionViolated):
        ie_reach(0.0, 0.0)


# ---- sampling ----

def test_random_coeffs_valid():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        coeffs = random_coeffs(rng)
        assert coeffs.a == 1.0
        q = pair_sum(coeffs)
        assert -1e-12 <= q <= 1 / 12 + 1e-12


def test_unit_a_required():
    mixed = S3Coeffs(0.5, 0.0, 0.0, 0.0)
    for op in (s3_spectrum, is_pure, mean_values, concurrence_closed):
        with pytest.raises(PreconditionViolated):
            op(mixed)
