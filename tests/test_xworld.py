import numpy as np
import pytest

from sqw.errors import NotPSD
from sqw.linalg import herm_eigen
from sqw.twoqubit import purity
from sqw.xworld import (
    E,
    LAMBDA,
    OFF_PATTERN,
    TAU,
    UNIT,
    PureXClass,
    XCoeffs,
    assemble_x,
    check_x_relations,
    classify_pure_x,
    random_coeffs,
    x_spectrum,
)

ZERO3 = (0.0, 0.0, 0.0)


def test_relation_suite_all_pass():
    report = check_x_relations()
    assert len(report) == 48
    assert report.all_pass
    assert all(c.deviation == 0.0 for c in report)


def test_selected_relations_exact():
    assert np.array_equal(LAMBDA[0] @ LAMBDA[1], 1j * LAMBDA[2])
    assert np.array_equal(LAMBDA[0] @ TAU[0], np.zeros((4, 4), dtype=complex))
    assert np.array_equal(LAMBDA[0] @ LAMBDA[0], (UNIT + E) / 2)
    assert np.array_equal(TAU[0] @ TAU[1], 1j * TAU[2])


def test_assemble_maximally_mixed():
    dm = assemble_x(XCoeffs(e=0.0, p=ZERO3, s=ZERO3))
    assert np.array_equal(dm.m, np.eye(4, dtype=complex) / 4)


def test_assemble_outer_class_projector():
    dm = assemble_x(XCoeffs(e=1.0, p=(0.0, 0.0, 2.0), s=ZERO3))
    assert np.array_equal(dm.m, np.diag([1.0, 0, 0, 0]).astype(complex))


def test_assemble_inner_class_projector():
    # (1 - E + 2 tau_1)/4 expanded by hand
    dm = assemble_x(XCoeffs(e=-1.0, p=ZERO3, s=(2.0, 0.0, 0.0)))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 0.5
    assert np.array_equal(dm.m, expected)


def test_assemble_rejects_coefficients_outside_ball():
    with pytest.raises(NotPSD):
        assemble_x(XCoeffs(e=0.0, p=(2.0, 0.0, 0.0), s=ZERO3))


def test_x_spectrum_rejects_what_assemble_rejects():
    # e = 3 alone would give the "eigenvalues" (-1/2, -1/2, 1, 1).
    for coeffs, overshoot in (
        (XCoeffs(e=3.0, p=ZERO3, s=ZERO3), 2.0),
        (XCoeffs(e=0.5, p=ZERO3, s=(0.0, 0.75, 0.0)), 0.25),
    ):
        for call in (x_spectrum, assemble_x):
            with pytest.raises(NotPSD) as err:
                call(coeffs)
            assert err.value.violation == overshoot


def test_x_pattern_zeros_exact():
    rng = np.random.default_rng(43)
    for _ in range(200):
        m = assemble_x(random_coeffs(rng)).m
        for i, j in OFF_PATTERN:
            assert m[i, j] == 0


def test_spectrum_examples():
    assert x_spectrum(XCoeffs(0.0, ZERO3, ZERO3)) == (0.25, 0.25, 0.25, 0.25)
    np.testing.assert_allclose(
        x_spectrum(XCoeffs(1.0, (0.0, 0.0, 2.0), ZERO3)), (0, 0, 0, 1), atol=1e-15
    )


def test_spectrum_matches_numeric_eigenvalues():
    rng = np.random.default_rng(47)
    for _ in range(2000):
        coeffs = random_coeffs(rng)
        w, _ = herm_eigen(assemble_x(coeffs).m)
        np.testing.assert_allclose(w, x_spectrum(coeffs), atol=1e-10)


def test_classification_examples():
    assert classify_pure_x(XCoeffs(1.0, (0.0, 0.0, 2.0), ZERO3)) is PureXClass.CLASS1
    assert classify_pure_x(XCoeffs(-1.0, ZERO3, (2.0, 0.0, 0.0))) is PureXClass.CLASS2
    assert classify_pure_x(XCoeffs(0.0, ZERO3, ZERO3)) is PureXClass.NOT_PURE


def test_classification_equivalent_to_unit_purity():
    rng = np.random.default_rng(53)
    samples = [random_coeffs(rng) for _ in range(500)]
    samples.append(XCoeffs(1.0, (0.0, 2.0, 0.0), ZERO3))
    samples.append(XCoeffs(-1.0, ZERO3, (0.0, 0.0, -2.0)))
    for coeffs in samples:
        is_classified_pure = classify_pure_x(coeffs) is not PureXClass.NOT_PURE
        is_unit_purity = abs(purity(assemble_x(coeffs)) - 1.0) <= 1e-8
        assert is_classified_pure == is_unit_purity


def test_random_coeffs_stay_in_positivity_region():
    rng = np.random.default_rng(59)
    for _ in range(500):
        coeffs = random_coeffs(rng)
        assert -1.0 <= coeffs.e <= 1.0
        assert coeffs.p_norm <= 1 + coeffs.e + 1e-12
        assert coeffs.s_norm <= 1 - coeffs.e + 1e-12


def test_coeffs_reject_non_finite():
    with pytest.raises(ValueError):
        XCoeffs(float("nan"), ZERO3, ZERO3)
