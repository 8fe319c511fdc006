import numpy as np
import pytest

from sqw import linalg
from sqw.errors import NotHermitian

SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def random_hermitian(rng):
    g = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    return (g + g.conj().T) / 2


def test_mat4_rejects_bad_shape():
    with pytest.raises(ValueError):
        linalg.mat4(np.zeros((3, 3)))


def test_mat4_rejects_non_finite():
    bad = np.zeros((4, 4))
    bad[1, 2] = np.inf
    with pytest.raises(ValueError):
        linalg.mat4(bad)
    with pytest.raises(ValueError):
        linalg.vec4([0, np.nan, 0, 0])


def test_trace_of_identity():
    assert np.trace(linalg.identity()) == 4


def test_adjoint_involution_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        assert np.array_equal(linalg.adjoint(linalg.adjoint(m)), m)


def test_kron_of_sigma_y_pair():
    # expanded by hand: anti-diagonal (-1, 1, 1, -1)
    expected = np.array(
        [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
    )
    assert np.array_equal(np.kron(SIGMA_Y, SIGMA_Y), expected)


def test_kron_bilinear_exact_on_integer_matrices():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c = (rng.integers(-3, 4, (2, 2)).astype(complex) for _ in range(3))
        assert np.array_equal(np.kron(a + b, c), np.kron(a, c) + np.kron(b, c))


def test_trace_commutator_of_products():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a = random_hermitian(rng)
        b = random_hermitian(rng)
        assert abs(np.trace(a @ b) - np.trace(b @ a)) <= 1e-12


def test_herm_eigen_diagonal():
    w, _ = linalg.herm_eigen(np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex))
    np.testing.assert_allclose(w, [0, 0, 0.5, 0.5], atol=1e-14)


def test_herm_eigen_symmetric_coefficient_matrix():
    m = linalg.mat4(
        [
            [1 / 3, -1 / 6, -1 / 6, 0],
            [-1 / 6, 1 / 3, -1 / 6, 0],
            [-1 / 6, -1 / 6, 1 / 3, 0],
            [0, 0, 0, 0],
        ]
    )
    w, v = linalg.herm_eigen(m)
    np.testing.assert_allclose(w, [0, 0, 0.5, 0.5], atol=1e-12)
    # independent check: each claimed eigenvalue is a root of det(m - x)
    for lam in (0.0, 0.5):
        assert abs(np.linalg.det(m - lam * np.eye(4))) < 1e-12
    for i in range(4):
        assert np.linalg.norm(m @ v[:, i] - w[i] * v[:, i]) <= 1e-10


def test_herm_eigen_pure_point_matrix():
    m = linalg.mat4(
        [[0.5, 0, -0.5, 0], [0, 0, 0, 0], [-0.5, 0, 0.5, 0], [0, 0, 0, 0]]
    )
    w, _ = linalg.herm_eigen(m)
    np.testing.assert_allclose(w, [0, 0, 0, 1], atol=1e-12)


def test_herm_eigen_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(NotHermitian) as err:
        linalg.herm_eigen(m)
    assert err.value.violation > 0


@pytest.mark.parametrize(
    "m, bad",
    [(np.full((4, 4), np.nan), 16), (np.diag([np.inf, 1, 1, 1]).astype(complex), 1)],
    ids=["all-nan", "inf-diagonal"],
)
def test_herm_eigen_rejects_non_finite_entries(m, bad):
    with pytest.raises(NotHermitian) as err:
        linalg.herm_eigen(m)
    assert err.value.violation == bad


def test_herm_eigen_contracts_on_random_input():
    rng = np.random.default_rng(17)
    for _ in range(300):
        m = random_hermitian(rng)
        w, v = linalg.herm_eigen(m)
        assert np.all(np.diff(w) >= 0)
        assert abs(w.sum() - np.trace(m).real) <= 1e-10
        np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-10)
        for i in range(4):
            assert np.linalg.norm(m @ v[:, i] - w[i] * v[:, i]) <= 1e-10


def test_herm_eigen_deterministic():
    rng = np.random.default_rng(19)
    m = random_hermitian(rng)
    w1, v1 = linalg.herm_eigen(m)
    w2, v2 = linalg.herm_eigen(m)
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


def test_frob_dist_and_mats_close():
    a = np.zeros((4, 4), dtype=complex)
    b = a.copy()
    b[2, 3] = 3e-7
    assert linalg.frob_dist(a, b) == pytest.approx(3e-7)
    assert linalg.mats_close(a, b, 1e-6)
    assert not linalg.mats_close(a, b, 1e-8)
