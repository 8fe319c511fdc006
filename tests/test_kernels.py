"""Each index-map kernel against the constant-matrix form it replaces, and each
bare LAPACK gufunc against the numpy wrapper it replaces.

``assemble_s3`` and ``assemble_x`` place their entries, ``measure_update_matrix``
swaps rows and columns, the oracle's spin flip reverses rows with signs, and
``mean_values`` adds the entries that ``assemble_s3`` places, instead of
multiplying by the constant matrices. They must give the same numbers as the
matrix forms kept here, compared with ``==``, under which only the signs of
zeros may differ. The inputs are seeded draws of valid states plus zeros of
both signs, subnormals and +-1e155, whose squares are close to overflow.
``herm_eigen`` and the oracle's SVD must give the bits of ``np.linalg.eigh``
and ``np.linalg.svd``.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from sqw import s3world, xworld
from sqw.errors import InvalidState
from sqw.linalg import UNIT, herm_eigen
from sqw.s3world import (
    CASIMIR, H1, H2, H3, MeasurementAxis, assemble_s3, ie_state, mean_values,
    measure_update_matrix, t_param,
)
from sqw.twoqubit import _FLIP_SIGN, concurrence_oracle, validate_density
from sqw.xworld import E, LAMBDA, TAU, XCoeffs, assemble_x

import kernel_reference
from draws import generic_matrices, random_s3_coeffs, random_x_coeffs, valid_matrices

EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e155, -1e155)
ORDINARY = (1.0, -0.25, 0.1)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def _edge_matrices(rng, n, edges=EDGES):
    values = np.array(edges + ORDINARY)
    return [rng.choice(values, (4, 4)) + 1j * rng.choice(values, (4, 4)) for _ in range(n)]


def test_assemble_s3_places_the_swap_sum():
    rng = np.random.default_rng(101)
    inputs = [random_s3_coeffs(rng) for _ in range(500)]
    # assemble_s3 reads only the four attributes, so any values reach it.
    inputs += [
        SimpleNamespace(a=a, b=b, c=c, d=d)
        for a, b, c, d in itertools.product(EDGES + ORDINARY, repeat=4)
    ]
    for k in inputs:
        matrix_form = (k.a / 2) * UNIT + k.b * H1 + k.c * H2 + k.d * H3
        assert np.array_equal(assemble_s3(k), matrix_form)


def _x_generator_sum(k):
    m = UNIT + k.e * E
    for i in range(3):
        m = m + k.p[i] * LAMBDA[i] + k.s[i] * TAU[i]
    return m / 4


def test_assemble_x_places_the_generator_sum(monkeypatch):
    rng = np.random.default_rng(103)
    for _ in range(500):
        k = random_x_coeffs(rng)
        assert np.array_equal(assemble_x(k).m, _x_generator_sum(k))
    # Past the positivity check and validation, the edge values reach the entries.
    monkeypatch.setattr(xworld, "_ball_norms", lambda coeffs: None)
    monkeypatch.setattr(xworld, "validate_density", lambda m: m)
    for _ in range(3000):
        v = rng.choice(np.array(EDGES + ORDINARY), 7).tolist()
        k = XCoeffs(v[0], tuple(v[1:4]), tuple(v[4:]))
        assert np.array_equal(assemble_x(k), _x_generator_sum(k))


def test_measure_update_matrix_is_the_conjugation_channel():
    rng = np.random.default_rng(107)
    for rho in valid_matrices(rng, 200) + _edge_matrices(rng, 500):
        for axis in MeasurementAxis:
            h = kernel_reference.S3_MATRICES[axis.name]
            assert np.array_equal(measure_update_matrix(rho, axis), (rho + h @ rho @ h) / 2)


def test_mean_values_are_the_traces_of_the_swap_products():
    # Bit for bit: rho @ H adds only exact zeros to the four entries it picks.
    rng = np.random.default_rng(111)
    states = [random_s3_coeffs(rng) for _ in range(500)] + [ie_state()]
    ts = [0.0, 1.0, -1.0, np.inf, -np.inf] + np.tan(rng.uniform(-1.57, 1.57, 500)).tolist()
    states += [t_param(t) for t in ts]
    for k in states:
        rho = assemble_s3(k)
        a = [float(np.trace(rho @ h).real) - 1.0 for h in (H1, H2, H3)]
        matmul_form = np.array(a + [a[0] * a[0] + a[1] * a[1] + a[2] * a[2]])
        assert np.array(mean_values(k)).tobytes() == matmul_form.tobytes()


def test_oracle_takes_the_spin_flip_of_psi_by_reversing_rows():
    # M = psi^T (sigma_y (x) sigma_y psi): the oracle's matrix, with the flip as
    # a product, and its singular values from np.linalg.svd, whose bits the
    # oracle's bare gufunc must keep.
    rng = np.random.default_rng(113)
    flip = np.kron(SIGMA_Y, SIGMA_Y)
    for m in valid_matrices(rng, 200) + generic_matrices(rng, 200):
        dm = validate_density(m)
        psi = dm.eigenvectors * np.sqrt(np.maximum(dm.eigenvalues, 0.0))
        lam = np.linalg.svd(psi.T @ (flip @ psi), compute_uv=False).tolist()
        assert concurrence_oracle(dm).omegas == tuple(x * x for x in lam)


def _oracle_bits(f, m):
    try:
        r = f(m)
    except InvalidState as err:
        return type(err), str(err), err.violation
    return tuple(x.hex() for x in r.omegas), r.concurrence.hex(), r.eof.hex()


def _reference_oracle(m):
    return kernel_reference.concurrence_oracle(kernel_reference.validate_density(m))


@pytest.mark.filterwarnings("error")
def test_oracle_gives_the_bits_of_the_reference():
    # A raw matrix is validated, then read through its decomposition: every
    # output bit, or the error and its violation, is the reference's. The
    # reference oracle's finiteness checks never fire on a validated record.
    rng = np.random.default_rng(131)
    raised = 0
    for m in valid_matrices(rng, 200) + generic_matrices(rng, 200) + _edge_matrices(rng, 300):
        bits = _oracle_bits(concurrence_oracle, m)
        assert bits == _oracle_bits(_reference_oracle, m)
        raised += isinstance(bits[0], type)
    assert raised == 300


@pytest.mark.filterwarnings("error")
def test_herm_eigen_gives_the_bytes_of_np_linalg_eigh():
    # herm_eigen calls the gufunc behind np.linalg.eigh without the wrapper.
    rng = np.random.default_rng(127)
    states = valid_matrices(rng, 200) + generic_matrices(rng, 200)
    accepted = 0
    for m in states + [m for _, m in kernel_reference.boundary_matrices()]:
        try:
            w, v = herm_eigen(m)
        except InvalidState:
            continue
        accepted += 1
        expected = np.linalg.eigh(m)
        assert (w.tobytes(), v.tobytes()) == (expected[0].tobytes(), expected[1].tobytes())
    assert accepted > len(states)


def test_literal_constants_equal_their_numpy_expressions():
    # Written as literals so that importing the package runs no numpy kernel.
    pairs = [
        (E, np.diag([1, -1, -1, 1])),
        (LAMBDA[2], np.diag([1, 0, 0, -1])),
        (TAU[2], np.diag([0, 1, -1, 0])),
    ]
    for constant, expression in pairs:
        assert constant.dtype == complex and not constant.flags.writeable
        assert constant.shape == expression.shape and (constant == expression).all()
    # The oracle's spin flip: sigma_y (x) sigma_y as a signed row reversal.
    assert (_FLIP_SIGN * UNIT[::-1] == np.kron(SIGMA_Y, SIGMA_Y)).all()


def test_generators_built_from_the_group_table_are_locked():
    # Built from permworld's table, not written as literals; test_permworld compares the values.
    for name in (*kernel_reference.S3_MATRICES, "CASIMIR"):
        m = getattr(s3world, name)
        assert m.dtype == np.complex128 and m.shape == (4, 4) and not m.flags.writeable, name
    written = kernel_reference.S3_MATRICES
    assert (CASIMIR == written["H1"] + written["H2"] + written["H3"]).all()
