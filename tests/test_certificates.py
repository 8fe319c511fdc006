"""Exact certificates of the closed forms, in rational arithmetic.

The float tests check each closed form at sampled points; these check the
identity behind it symbolically. Where the package's helpers take symbols
(``_circle_point``, ``_circle_point_inv``, ``_channel``) they run on sympy
symbols, and their float constants (1.0, 2.0, all exact) are read back as
rationals. Elsewhere the matrices are sympy matrices of the integer entries
of ``H1``, ``H2`` and ``H3``. The channel is checked for every ``a, b, c,
d``; the other identities on the unit-``a`` slice, where ``d = -1/2 - b -
c``. The generic spin-flip quartic off the slice is not factored.
"""

import pytest

from sqw import s3world
from sqw.s3world import MeasurementAxis

sympy = pytest.importorskip("sympy")

HALF = sympy.Rational(1, 2)
b, c, t = sympy.symbols("b c t")
#: The unit-``a`` slice: a = 1 and a + b + c + d = 1/2.
d = -HALF - b - c
#: The pair sum bc + bd + cd on the slice.
q = b * c + b * d + c * d


def exact(expr):
    """``expr`` with its float constants as rationals, cancelled to one fraction."""
    return sympy.cancel(sympy.nsimplify(expr, rational=True))


def swap(name: str) -> sympy.Matrix:
    m = getattr(s3world, name)
    assert not m.imag.any() and (m.real == m.real.round()).all()
    return sympy.Matrix(m.real.astype(int).tolist())


def state(a, x, y, z) -> sympy.Matrix:
    """a/2 + x H1 + y H2 + z H3."""
    return sympy.S(a) / 2 * sympy.eye(4) + x * swap("H1") + y * swap("H2") + z * swap("H3")


def test_swap_concurrence_identity():
    # (1/2 + b)(1/2 + c) = d^2 + q, so the spin-flip root sqrt(P) is never below |d|.
    assert sympy.expand((HALF + b) * (HALF + c) - d**2 - q) == 0


@pytest.mark.parametrize("point", [s3world._circle_point, s3world._circle_point_inv])
def test_pure_point_lies_on_the_slice_and_the_circle(point):
    # In t for |t| <= 1 and in u = 1/t beyond: t_param's two forms.
    pb, pc, pd, _ = point(t)
    assert exact(pb + pc + pd) == -HALF
    assert exact(pb**2 + pc**2 + pd**2) == HALF**2


def test_the_two_forms_are_one_curve():
    near, far = s3world._circle_point(t)[:3], s3world._circle_point_inv(1 / t)[:3]
    assert all(exact(x - y) == 0 for x, y in zip(near, far))
    assert [exact(x) for x in s3world._circle_point_inv(0)[:3]] == [-HALF, 0, 0]


def test_characteristic_polynomial_on_the_slice():
    mu = sympy.Symbol("mu")  # no assumptions: a real=True symbol compares unequal
    char = state(1, b, c, d).charpoly(mu).as_expr()
    assert sympy.expand(char - mu**2 * (mu**2 - mu + 3 * q)) == 0
    # s3_spectrum's nonzero pair (1 -+ sqrt(1 - 12q)) / 2 are its roots.
    for root in ((1 - sympy.sqrt(1 - 12 * q)) / 2, (1 + sympy.sqrt(1 - 12 * q)) / 2):
        assert sympy.expand(root**2 - root + 3 * q) == 0


@pytest.mark.parametrize("axis", list(MeasurementAxis))
def test_channel_is_the_matrix_channel(axis):
    a, dd = sympy.symbols("a d")
    rho, h = state(a, b, c, dd), swap(axis.name)
    after = state(a, *s3world._channel(axis, b, c, dd))
    assert (after - (rho + h * rho * h) / 2).applyfunc(exact) == sympy.zeros(4)


def test_mean_values_coefficient_form():
    # tr(rho H_i) - 1, which mean_values computes, in the coefficients.
    rho = state(1, b, c, d)
    want = {"H1": 4 * b + c + d, "H2": b + 4 * c + d, "H3": b + c + 4 * d}
    for name, value in want.items():
        assert sympy.expand((rho * swap(name)).trace() - 1 - value) == 0


def test_mean_values_sum_of_squares():
    rho = state(1, b, c, d)
    r = sum(((rho * swap(name)).trace() - 1) ** 2 for name in ("H1", "H2", "H3"))
    assert sympy.expand(r - (sympy.Rational(9, 2) - 18 * q)) == 0
