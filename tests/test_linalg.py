import ast
import math
from pathlib import Path

import numpy as np
import pytest

from sqw import linalg
from sqw.errors import NotHermitian, PreconditionViolated

import kernel_reference

SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def random_hermitian(rng):
    g = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    return (g + g.conj().T) / 2


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
    m = np.array(
        [
            [1 / 3, -1 / 6, -1 / 6, 0],
            [-1 / 6, 1 / 3, -1 / 6, 0],
            [-1 / 6, -1 / 6, 1 / 3, 0],
            [0, 0, 0, 0],
        ],
        dtype=complex,
    )
    w, v = linalg.herm_eigen(m)
    np.testing.assert_allclose(w, [0, 0, 0.5, 0.5], atol=1e-12)
    # independent check: each claimed eigenvalue is a root of det(m - x)
    for lam in (0.0, 0.5):
        assert abs(np.linalg.det(m - lam * np.eye(4))) < 1e-12
    for i in range(4):
        assert np.linalg.norm(m @ v[:, i] - w[i] * v[:, i]) <= 1e-10


def test_herm_eigen_pure_point_matrix():
    m = np.array(
        [[0.5, 0, -0.5, 0], [0, 0, 0, 0], [-0.5, 0, 0.5, 0], [0, 0, 0, 0]],
        dtype=complex,
    )
    w, _ = linalg.herm_eigen(m)
    np.testing.assert_allclose(w, [0, 0, 0, 1], atol=1e-12)


def test_herm_eigen_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    cases = [m]
    # Huge finite pairs must give NotHermitian, not an overflow warning.
    for value in (1e160, 1e308):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1], m[1, 0] = value, -value
        cases.append(m)
    for m in cases:
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


def test_herm_eigen_reads_a_nested_list_as_the_array():
    m = random_hermitian(np.random.default_rng(23))
    w, v = linalg.herm_eigen(m.tolist())
    w_ref, v_ref = linalg.herm_eigen(m)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


@pytest.mark.parametrize(
    "m, gap",
    [
        (np.zeros((4, 3), dtype=complex), 1.0),
        (np.zeros((2, 4, 4), dtype=complex), 6.0),
        (np.zeros(4, dtype=complex), 4.0),
        ([[1, 2], [3]], math.inf),
    ],
    ids=["4x3", "stacked", "1-d", "ragged"],
)
def test_herm_eigen_rejects_a_shape_other_than_4x4(m, gap):
    with pytest.raises(PreconditionViolated, match=r"^matrix must be 4x4") as err:
        linalg.herm_eigen(m)
    assert err.value.violation == gap


_EDGES = kernel_reference.boundary_matrices()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [m for _, m in _EDGES], ids=[name for name, _ in _EDGES])
def test_herm_eigen_gate_changes_nothing_at_the_edges(m):
    # The sum-of-squares gate only skips the finite and scale checks; the
    # eigenpairs, or the error class and violation, are the unguarded ones.
    assert kernel_reference.outcome(linalg.herm_eigen, m) == kernel_reference.outcome(
        kernel_reference.herm_eigen, m
    )


def test_herm_eigen_defect_is_the_frobenius_norm():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1], m[2, 3] = 1.0, 2j
    with pytest.raises(NotHermitian) as err:
        linalg.herm_eigen(m)
    assert err.value.violation == math.sqrt(10.0)


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


def test_only_linalg_binds_a_tolerance():
    # One tolerance table: no other module assigns a *_TOL name or imports
    # one from anywhere but linalg.
    offenders = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                from_linalg = isinstance(node, ast.ImportFrom) and node.module == "linalg"
                names = [] if from_linalg else [a.asname or a.name for a in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {n}" for n in names if n.endswith("_TOL")]
    assert offenders == []


def test_only_linalg_binds_lapack():
    # One home for LAPACK and vdot: no module but linalg imports from
    # numpy.linalg, numpy._core or numpy's vdot, and no module reaches
    # np.linalg.<name>, np._core or np.vdot, so no wrapper is called beside the
    # raw bindings.
    routes = ("linalg", "_core", "core", "vdot")
    offenders = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and path.name != "linalg.py":
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import) and path.name != "linalg.py":
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) and node.attr in routes:
                names = [ast.unparse(node)]
            else:
                continue
            heads = [n.split(".")[:2] for n in names]
            if any(h[0] in ("numpy", "np") and h[1:] and h[1] in routes for h in heads):
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert offenders == []


def test_s3world_calls_no_eigensolver():
    # S3Coeffs and the unit-a window judge every s3world state: the module
    # imports nothing from twoqubit and reaches no herm_eigen, _eigh or _svd.
    path = Path(linalg.__file__).parent / "s3world.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any(
            n.split(".")[-1] in ("twoqubit", "herm_eigen", "_eigh", "_svd") for n in names
        ):
            offenders.append(f"s3world.py:{node.lineno} {ast.unparse(node)}")
    assert offenders == []


def test_readme_tolerance_table_is_the_linalg_table():
    # One row per *_TOL name that linalg binds, with its value: no stale or missing row.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n| Name | Value |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    documented = {name.strip().strip("`"): float(value) for name, value in rows}
    bound = {name: value for name, value in vars(linalg).items() if name.endswith("_TOL")}
    assert documented == bound
