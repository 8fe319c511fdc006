"""Acceptance suite: one test per criterion, one printed line per criterion.

Criterion 3 documents a known discrepancy: the coefficient-level closed
form 2*sqrt((1/2+b)(1/2+c)) does not reproduce the numerical Wootters
pipeline on mixed states (the pipeline realizes 2*min(|d|, sqrt(...)),
which agrees with the closed form only on the pure circle and where |d|
dominates). The mixed-state equivalence assertion is kept at its stated
tolerance and fails; every other criterion passes.
"""

import math
import time

import numpy as np
import pytest

from sqw import permworld, report, s3world, twoqubit, xworld
from sqw.linalg import UNIT, herm_eigen
from sqw.s3world import MeasurementAxis

import kernel_reference
from draws import random_s3_coeffs, random_x_coeffs, theta_grid

AXES = tuple(MeasurementAxis)


def _line(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {status}{suffix}")


def test_criterion_1_algebra_exactness():
    start = time.perf_counter()
    x_report = report.check_x_relations()
    s3_report = report.check_s3_relations()
    elapsed = time.perf_counter() - start
    exact = (
        x_report.all_pass
        and s3_report.all_pass
        and all(c.deviation == 0.0 for c in x_report)
        and all(c.deviation == 0.0 for c in s3_report)
    )
    ok = exact and elapsed < 1.0
    _line(1, "algebra exactness", ok, f"{len(x_report) + len(s3_report)} identities, {elapsed:.2f}s")
    assert exact
    assert elapsed < 1.0


def test_criterion_2_spectrum_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240601)
    dev_s3 = 0.0
    for _ in range(10_000):
        coeffs = random_s3_coeffs(rng)
        w, _ = herm_eigen(s3world.assemble_s3(coeffs))
        dev_s3 = max(dev_s3, float(np.abs(w - s3world.s3_spectrum(coeffs)).max()))
    dev_x = 0.0
    for _ in range(10_000):
        coeffs = random_x_coeffs(rng)
        w = xworld.assemble_x(coeffs).eigenvalues
        dev_x = max(dev_x, float(np.abs(w - np.array(xworld.x_spectrum(coeffs))).max()))
    elapsed = time.perf_counter() - start
    ok = dev_s3 <= 1e-10 and dev_x <= 1e-10 and elapsed < 10.0
    _line(2, "spectrum equivalence", ok, f"dev_s3={dev_s3:.2e} dev_x={dev_x:.2e} {elapsed:.2f}s")
    assert dev_s3 <= 1e-10
    assert dev_x <= 1e-10
    assert elapsed < 10.0


def test_criterion_3_concurrence_equivalence():
    dev_pure = 0.0
    for t in theta_grid(1000):
        closed = s3world.concurrence_closed(s3world.t_param(t))
        dev_pure = max(dev_pure, abs(closed - s3world.pure_concurrence(t)))

    rng = np.random.default_rng(20240602)
    dev_mixed = 0.0
    for _ in range(10_000):
        coeffs = random_s3_coeffs(rng)
        closed = s3world.concurrence_closed(coeffs)
        oracle = twoqubit.concurrence_oracle(s3world.assemble_s3(coeffs)).concurrence
        dev_mixed = max(dev_mixed, abs(closed - oracle))

    ok = dev_pure <= 1e-10 and dev_mixed <= 1e-9
    _line(3, "concurrence equivalence", ok, f"dev_pure={dev_pure:.2e} dev_mixed={dev_mixed:.2e}")
    assert dev_pure <= 1e-10
    assert dev_mixed <= 1e-9, (
        f"closed form 2*sqrt((1/2+b)(1/2+c)) deviates from the Wootters "
        f"pipeline by up to {dev_mixed:.3e} over 10^4 random valid states; "
        f"the pipeline realizes 2*min(|d|, sqrt((1/2+b)(1/2+c))) instead "
        f"(1/3 versus 2/3 on the fully symmetric mixed state), so the "
        f"stated 1e-9 equivalence cannot hold on mixed states"
    )


def test_criterion_4_gain_maxima():
    inv_sqrt2 = 1 / math.sqrt(2)
    r1 = s3world.maximize_gain(MeasurementAxis.H1)
    ok1 = r1.t_star == 0.0 and abs(r1.delta_c - inv_sqrt2) <= 1e-9

    big_plus = s3world.gain(MeasurementAxis.H2, 1e6).delta_c
    big_minus = s3world.gain(MeasurementAxis.H2, -1e6).delta_c
    ok2a = abs(big_plus - inv_sqrt2) <= 1e-5 and abs(big_minus - inv_sqrt2) <= 1e-5
    r2 = s3world.maximize_gain(MeasurementAxis.H2)
    ok2b = math.isinf(r2.t_star) and abs(r2.delta_c - inv_sqrt2) <= 1e-9

    r3 = s3world.maximize_gain(MeasurementAxis.H3)
    ok3 = r3.t_star == 0.0 and abs(r3.delta_c - 0.5) <= 1e-9

    ok = ok1 and ok2a and ok2b and ok3
    _line(
        4,
        "gain maxima",
        ok,
        f"h1 ({r1.t_star!r}, {r1.delta_c:.10f}) "
        f"h2 ({r2.t_star!r}, {r2.delta_c:.10f}) "
        f"h3 ({r3.t_star!r}, {r3.delta_c:.10f})",
    )
    assert ok1 and ok2a and ok2b and ok3


def test_criterion_5_irreducible_entangled_state():
    state = s3world.ie_state()
    rho = s3world.assemble_s3(state)

    conc_dev = abs(s3world.concurrence_closed(state) - 2 / 3)
    # The pair sum bc + bd + cd lies on the window edge 1/12.
    edge_dev = abs(s3world.pair_sum(state) - s3world.WINDOW_MAX)
    commutators_exact = all(
        np.array_equal(rho @ g, g @ rho)
        for g in (s3world.H1, s3world.H2, s3world.H3, s3world.A, s3world.B)
    )
    fixed_exact = all(s3world.measure_update(state, axis) == state for axis in AXES)
    reach_exact = (
        s3world.ie_reach(-1 / 6, -1 / 6) == state
        and s3world.ie_reach(0.0, -1 / 3) == state
    )

    ok = (conc_dev <= 1e-12 and edge_dev <= 1e-12 and commutators_exact and fixed_exact
          and reach_exact)
    _line(5, "irreducible entangled state", ok,
          f"concurrence dev={conc_dev:.2e}, window edge dev={edge_dev:.2e}")
    assert conc_dev <= 1e-12
    assert edge_dev <= 1e-12
    assert commutators_exact
    assert fixed_exact
    assert reach_exact


def test_criterion_6_purity_criterion():
    dev = 0.0
    for t in theta_grid(1000):
        dev = max(dev, abs(s3world.mean_values(s3world.t_param(t)).r - 4.5))
    r_ie = s3world.mean_values(s3world.ie_state()).r
    ok = dev <= 1e-10 and r_ie < 4.5 - 1e-3
    _line(6, "purity criterion", ok, f"pure dev={dev:.2e}, mixed R={r_ie:.6f}")
    assert dev <= 1e-10
    assert r_ie < 4.5 - 1e-3
    assert r_ie == pytest.approx(3.0, abs=1e-12)


def test_criterion_7_group_facts():
    start = time.perf_counter()
    permworld.enumerate_subgroups.cache_clear()
    subgroups = permworld.enumerate_subgroups()
    order6 = [s for s in subgroups if s.order == 6]
    written = kernel_reference.S3_MATRICES
    generator_set = {m.real.astype(int).tobytes() for m in (UNIT, *written.values())}
    stab_set = {
        permworld.perm_matrix(p).real.astype(int).tobytes()
        for p in permworld.stabilizer(4)
    }
    derived = all(np.array_equal(getattr(s3world, name), m) for name, m in written.items())
    elapsed = time.perf_counter() - start
    ok = (
        len(subgroups) == 30
        and len(order6) == 4
        and all(permworld.classify(s) == "S3" for s in order6)
        and stab_set == generator_set
        and derived
        and elapsed < 5.0
    )
    _line(7, "group facts", ok, f"{len(subgroups)} subgroups, {len(order6)} of order 6, {elapsed:.2f}s")
    assert len(subgroups) == 30
    assert len(order6) == 4
    assert all(permworld.classify(s) == "S3" for s in order6)
    assert stab_set == generator_set
    assert derived
    assert elapsed < 5.0


def test_criterion_8_channel_consistency():
    rng = np.random.default_rng(20240603)
    dev = 0.0
    idempotent = True
    for _ in range(10_000):
        coeffs = random_s3_coeffs(rng)
        rho = s3world.assemble_s3(coeffs)
        for axis in AXES:
            once = s3world.measure_update(coeffs, axis)
            lhs = s3world.assemble_s3(once)
            rhs = s3world.measure_update_matrix(rho, axis)
            dev = max(dev, float(np.abs(lhs - rhs).max()))
            idempotent &= s3world.measure_update(once, axis) == once
    ok = dev <= 1e-12 and idempotent
    _line(8, "channel consistency", ok, f"coefficient-vs-matrix dev={dev:.2e}")
    assert dev <= 1e-12
    assert idempotent


def test_criterion_9_oracle_sanity():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    c_bell = twoqubit.concurrence_oracle(np.outer(bell, bell.conj())).concurrence
    product = np.zeros((4, 4), dtype=complex)
    product[1, 1] = 1.0
    c_product = twoqubit.concurrence_oracle(product).concurrence

    rng = np.random.default_rng(20240604)

    def unitary2():
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        return q @ np.diag(np.diagonal(r) / np.abs(np.diagonal(r)))

    dev_lu = 0.0
    for _ in range(1000):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        u = np.kron(unitary2(), unitary2())
        rotated = u @ rho @ u.conj().T
        dev_lu = max(
            dev_lu,
            abs(
                twoqubit.concurrence_oracle(rotated).concurrence
                - twoqubit.concurrence_oracle(rho).concurrence
            ),
        )
    ok = abs(c_bell - 1) <= 1e-12 and abs(c_product) <= 1e-12 and dev_lu <= 1e-8
    _line(9, "oracle sanity", ok, f"bell err={abs(c_bell-1):.2e} lu dev={dev_lu:.2e}")
    assert abs(c_bell - 1) <= 1e-12
    assert abs(c_product) <= 1e-12
    assert dev_lu <= 1e-8
