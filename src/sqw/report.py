"""Pass/fail reports, and every suite of exact facts that ``sqw check`` runs.

The suites check the X product table, the S3 product table and the S4
subgroup facts; ``SUITES`` maps each ``sqw check`` world to its suite, and
no other suite is defined here. ``xworld`` and ``permworld`` are imported
only inside the suites that use them, so each command loads the modules it
runs; the formula modules do not import this one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import UNIT
from .s3world import CASIMIR, A, B, H1, H2, H3


class CheckResult(NamedTuple):
    name: str
    passed: bool
    deviation: float = 0.0


class Report(tuple):
    """A tuple of ``CheckResult``, built as ``Report(checks)``."""

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self)


def exact(name: str, lhs, rhs) -> CheckResult:
    """Check ``lhs == rhs`` entrywise with exact equality.

    The deviation is the largest entry of ``|lhs - rhs|``, so a failed check
    says how far off it was.
    """
    passed = bool(np.array_equal(lhs, rhs))
    return CheckResult(name, passed, float(np.abs(lhs - rhs).max()))


def _levi_civita(i: int, j: int, k: int) -> int:
    return int(np.sign((j - i) * (k - i) * (k - j)))


def check_x_relations() -> Report:
    """Verify the full product table of the eight X-state generators, exactly.

    All generators have entries in {0, +-1, +-i}, so every identity holds
    with exact floating-point equality; any discrepancy is reported as a
    failed check rather than an exception.
    """
    from .xworld import LAMBDA, TAU, E

    cases = []
    families = (("lam", LAMBDA, (UNIT + E) / 2), ("tau", TAU, (UNIT - E) / 2))
    zero = np.zeros((4, 4), dtype=complex)
    for i in range(3):
        for j in range(3):
            for name, g, half in families:
                eps_term = sum(1j * _levi_civita(i, j, k) * g[k] for k in range(3))
                rhs = (half if i == j else zero) + eps_term
                cases.append((f"{name}{i+1}*{name}{j+1}", g[i] @ g[j], rhs))
            cases.append((f"lam{i+1}*tau{j+1} = 0", LAMBDA[i] @ TAU[j], zero))
            cases.append((f"tau{j+1}*lam{i+1} = 0", TAU[j] @ LAMBDA[i], zero))
    for i in range(3):
        cases.append((f"E*lam{i+1} = lam{i+1}", E @ LAMBDA[i], LAMBDA[i]))
        cases.append((f"lam{i+1}*E = lam{i+1}", LAMBDA[i] @ E, LAMBDA[i]))
        cases.append((f"E*tau{i+1} = -tau{i+1}", E @ TAU[i], -TAU[i]))
        cases.append((f"tau{i+1}*E = -tau{i+1}", TAU[i] @ E, -TAU[i]))
    return Report(tuple(exact(*case) for case in cases))


_GENERATORS = {"H1": H1, "H2": H2, "H3": H3, "A": A, "B": B}
#: The 25 products x*y = z of the S3 generator table, with "1" the identity.
_PRODUCTS = (
    ("H1", "H1", "1"), ("H2", "H2", "1"), ("H3", "H3", "1"),
    ("H1", "H2", "A"), ("H2", "H3", "A"), ("H3", "H1", "A"),
    ("H1", "H3", "B"), ("H2", "H1", "B"), ("H3", "H2", "B"),
    ("H1", "A", "H2"), ("H2", "A", "H3"), ("H3", "A", "H1"),
    ("A", "H1", "H3"), ("A", "H2", "H1"), ("A", "H3", "H2"),
    ("H1", "B", "H3"), ("H2", "B", "H1"), ("H3", "B", "H2"),
    ("B", "H1", "H2"), ("B", "H2", "H3"), ("B", "H3", "H1"),
    ("A", "A", "B"), ("B", "B", "A"), ("A", "B", "1"), ("B", "A", "1"),
)


def check_s3_relations() -> Report:
    """Verify the full S3 generator product table with exact equality."""
    symbols = {"1": UNIT, **_GENERATORS}
    zero = np.zeros((4, 4), complex)
    checks = [
        exact(f"{x}*{y} = {z}", symbols[x] @ symbols[y], symbols[z])
        for x, y, z in _PRODUCTS
    ]
    checks.append(exact("A = adjoint(B)", A, B.conj().T))
    checks.append(exact("A + B = C - 1", A + B, CASIMIR - UNIT))
    for name, g in _GENERATORS.items():
        checks.append(exact(f"[C, {name}] = 0", CASIMIR @ g - g @ CASIMIR, zero))
    return Report(tuple(checks))


def _s4_checks() -> tuple[Report, dict]:
    # The subgroup facts of S4, and the two counts printed beside them.
    from .permworld import classify, enumerate_subgroups, perm_matrix, stabilizer

    subgroups = enumerate_subgroups()
    order6 = [s for s in subgroups if s.order == 6]
    generator_set = {m.real.astype(np.int8).tobytes() for m in (UNIT, *_GENERATORS.values())}
    stab_set = {perm_matrix(p).real.astype(np.int8).tobytes() for p in stabilizer(4)}
    checks = (
        CheckResult("subgroup count = 30", len(subgroups) == 30),
        CheckResult("order-6 subgroup count = 4", len(order6) == 4),
        CheckResult("every order-6 subgroup is S3", all(classify(s) == "S3" for s in order6)),
        CheckResult("stabilizer(4) matrices = generator set", stab_set == generator_set),
        CheckResult("every subgroup order divides 24", all(24 % s.order == 0 for s in subgroups)),
    )
    extra = {"subgroup_count": len(subgroups), "order6_count": len(order6)}
    return Report(checks), extra


#: ``sqw check <world>``: a suite returning ``(Report, extra)``, with ``extra``
#: the figures printed beside the checks. The lambdas look their suite up per call.
SUITES = {
    "x": lambda: (check_x_relations(), {}),
    "s3": lambda: (check_s3_relations(), {}),
    "s4": _s4_checks,
}
