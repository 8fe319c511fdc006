"""Each index-map kernel against the constant-matrix form it replaces, and each
bare LAPACK gufunc against the numpy wrapper it replaces.

``assemble_s3`` and ``assemble_x`` place their entries, ``measure_update_matrix``
swaps rows and columns, the oracle's spin flip reverses rows with signs, and
``mean_values`` adds the entries that ``assemble_s3`` places, instead of
multiplying by the constant matrices. They must give the same numbers as the
matrix forms kept here, compared with ``==``, under which only the signs of
zeros may differ. The inputs are seeded draws of valid states plus zeros of
both signs, subnormals and +-1e155, whose squares are close to overflow.
``DensityMatrix`` is built directly where an input is not a valid state: the
oracle reads only the decomposition. ``herm_eigen`` and the oracle's SVD
must give the bits of ``np.linalg.eigh`` and ``np.linalg.svd``.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from sqw import xworld
from sqw.errors import InvalidState
from sqw.linalg import UNIT, herm_eigen
from sqw.s3world import (
    CASIMIR, H1, H2, H3, MeasurementAxis, assemble_s3, ie_state, mean_values,
    measure_update_matrix, t_param,
)
from sqw.twoqubit import _FLIP_SIGN, DensityMatrix, concurrence_oracle
from sqw.xworld import E, LAMBDA, TAU, XCoeffs, assemble_x

import kernel_reference
from draws import random_s3_coeffs, random_x_coeffs, theta_grid

EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e155, -1e155)
ORDINARY = (1.0, -0.25, 0.1)
SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def _edge_matrices(rng, n, edges=EDGES):
    values = np.array(edges + ORDINARY)
    return [rng.choice(values, (4, 4)) + 1j * rng.choice(values, (4, 4)) for _ in range(n)]


def _valid_matrices(rng, n):
    return [assemble_s3(random_s3_coeffs(rng)) for _ in range(n)] + [
        assemble_x(random_x_coeffs(rng)).m for _ in range(n)
    ]


def _generic_matrices(rng, n):
    # Ginibre states, full rank, and the pure circle of the swap family, rank 1.
    states = [assemble_s3(t_param(t)) for t in theta_grid(101)]
    for _ in range(n):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        states.append(m / np.trace(m).real)
    return states


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
    for rho in _valid_matrices(rng, 200) + _edge_matrices(rng, 500):
        for axis in MeasurementAxis:
            h = axis.matrix
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
    # oracle's bare gufunc must keep. Eigenvectors with edge entries and unit
    # weights make psi = v; +-1e155 would overflow M in either form, so +-1e75
    # stands in for it.
    rng = np.random.default_rng(113)
    flip = np.kron(SIGMA_Y, SIGMA_Y)
    edges = EDGES[:-2] + (1e75, -1e75)
    states = [DensityMatrix(m, np.ones(4), m) for m in _edge_matrices(rng, 500, edges)]
    for m in _valid_matrices(rng, 200) + _generic_matrices(rng, 200):
        w, v = np.linalg.eigh(m)
        states.append(DensityMatrix(m, w, v))
    for dm in states:
        psi = dm.eigenvectors * np.sqrt(np.maximum(dm.eigenvalues, 0.0))
        lam = np.linalg.svd(psi.T @ (flip @ psi), compute_uv=False).tolist()
        assert concurrence_oracle(dm).omegas == tuple(x * x for x in lam)


def _oracle_bits(f, dm):
    try:
        r = f(dm)
    except InvalidState as err:
        return type(err), str(err), err.violation
    return tuple(x.hex() for x in r.omegas), r.concurrence.hex(), r.eof.hex()


@pytest.mark.filterwarnings("error")
def test_oracle_gives_the_bits_of_the_reference():
    # The oracle skips np.maximum for a positive spectrum and the squared norm
    # of M below max(w) ||V||_F^2 = 1e150; every output bit and error stays.
    rng = np.random.default_rng(131)
    states = [DensityMatrix(m, np.ones(4), m) for m in _edge_matrices(rng, 300)]
    for m in _valid_matrices(rng, 200) + _generic_matrices(rng, 200):
        w, v = np.linalg.eigh(m)
        states.append(DensityMatrix(m, w, v))
    v = states[-1].eigenvectors
    spectra = (
        [-0.0, 0.25, 0.25, 0.5], [0.0, 0.25, 0.25, 0.5], [-1e-12, 0.3, 0.3, 0.4],
        [0.4, 0.1, 0.3, 0.2], [0.3, -0.1, 0.4, 0.4], [0.5, -0.0, 0.5, 0.0], [-0.1] * 4,
        [5e-324] * 4,
    )
    states += [DensityMatrix(UNIT, np.array(w), v) for w in spectra]
    # Real eigenvectors: M is complex all the same, so the SVD keeps its loop.
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    states += [DensityMatrix(UNIT, np.array(w), q) for w in spectra[:3]]
    # Eigenvectors scaled across the bound and on to the overflow of M.
    for scale in (1e70, 1e74, 5e74, 1e75, 1e76, 1e77, 3e77, 1e100, 1e150, 1e154):
        states.append(DensityMatrix(UNIT, np.array([0.1, 0.2, 0.3, 0.4]), scale * v))
    raised = 0
    for dm in states:
        bits = _oracle_bits(concurrence_oracle, dm)
        assert bits == _oracle_bits(kernel_reference.concurrence_oracle, dm)
        raised += isinstance(bits[0], type)
    assert 0 < raised < len(states)


@pytest.mark.filterwarnings("error")
def test_herm_eigen_gives_the_bytes_of_np_linalg_eigh():
    # herm_eigen calls the gufunc behind np.linalg.eigh without the wrapper.
    rng = np.random.default_rng(127)
    states = _valid_matrices(rng, 200) + _generic_matrices(rng, 200)
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
        (CASIMIR, H1 + H2 + H3),
        (E, np.diag([1, -1, -1, 1])),
        (LAMBDA[2], np.diag([1, 0, 0, -1])),
        (TAU[2], np.diag([0, 1, -1, 0])),
    ]
    for constant, expression in pairs:
        assert constant.dtype == complex and not constant.flags.writeable
        assert constant.shape == expression.shape and (constant == expression).all()
    # The oracle's spin flip: sigma_y (x) sigma_y as a signed row reversal.
    assert (_FLIP_SIGN * UNIT[::-1] == np.kron(SIGMA_Y, SIGMA_Y)).all()
