"""Pass/fail reports, and every suite of exact facts that ``sqw check`` runs.

The suites check the X product table, the S3 product table, whose
products the group engine names, and the S4 subgroup facts; ``SUITES``
maps each ``sqw check`` world to its suite, and no other suite is defined
here. Each suite imports what it uses (numpy, ``linalg``, ``xworld``,
``s3world``, ``permworld``) in its body, so each command loads only the
modules it runs: the S4 suite compares permutations, and ``sqw check s4``
runs without numpy. The formula modules do not import this one.
"""

from __future__ import annotations

from typing import NamedTuple


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
    import numpy as np

    passed = bool(np.array_equal(lhs, rhs))
    return CheckResult(name, passed, float(np.abs(lhs - rhs).max()))


def _levi_civita(i: int, j: int, k: int) -> int:
    p = (j - i) * (k - i) * (k - j)
    return (p > 0) - (p < 0)


def check_x_relations() -> Report:
    """Verify the full product table of the eight X-state generators, exactly.

    All generators have entries in {0, +-1, +-i}, so every identity holds
    with exact floating-point equality; any discrepancy is reported as a
    failed check rather than an exception.
    """
    import numpy as np

    from .linalg import UNIT
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


#: The 25 products x*y of the S3 generators that the suite checks, in its order.
_PAIRS = tuple(pair.split("*") for pair in (
    "H1*H1 H2*H2 H3*H3 H1*H2 H2*H3 H3*H1 H1*H3 H2*H1 H3*H2 H1*A H2*A H3*A A*H1 A*H2 A*H3 "
    "H1*B H2*B H3*B B*H1 B*H2 B*H3 A*A B*B A*B B*A"
).split())


def check_s3_relations() -> Report:
    """Verify the full S3 generator product table, each product as ``permworld`` composes it."""
    import numpy as np

    from .linalg import UNIT
    from .permworld import IDENTITY, S3_GENERATORS
    from .s3world import CASIMIR, A, B, H1, H2, H3

    generators = {"H1": H1, "H2": H2, "H3": H3, "A": A, "B": B}
    symbols = {"1": UNIT, **generators}
    names = {p: name for name, p in [("1", IDENTITY), *S3_GENERATORS.items()]}
    zero = np.zeros((4, 4), complex)
    checks = []
    for x, y in _PAIRS:
        z = names[S3_GENERATORS[x] * S3_GENERATORS[y]]
        checks.append(exact(f"{x}*{y} = {z}", symbols[x] @ symbols[y], symbols[z]))
    checks.append(exact("A = adjoint(B)", A, B.conj().T))
    checks.append(exact("A + B = C - 1", A + B, CASIMIR - UNIT))
    for name, g in generators.items():
        checks.append(exact(f"[C, {name}] = 0", CASIMIR @ g - g @ CASIMIR, zero))
    return Report(tuple(checks))


def _s4_checks() -> tuple[Report, dict]:
    # The subgroup facts of S4, and the two counts printed beside them.
    # The S3 matrices are perm_matrix of S3_GENERATORS, and perm_matrix is an
    # injective homomorphism, so the matrix sets are equal when the permutation sets are.
    from .permworld import IDENTITY, S3_GENERATORS, classify, enumerate_subgroups, stabilizer

    subgroups = enumerate_subgroups()
    order6 = [s for s in subgroups if s.order == 6]
    generator_set = {IDENTITY, *S3_GENERATORS.values()}
    checks = (
        CheckResult("subgroup count = 30", len(subgroups) == 30),
        CheckResult("order-6 subgroup count = 4", len(order6) == 4),
        CheckResult("every order-6 subgroup is S3", all(classify(s) == "S3" for s in order6)),
        CheckResult("stabilizer(4) matrices = generator set", set(stabilizer(4)) == generator_set),
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
