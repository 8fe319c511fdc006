"""Pass/fail reports for algebraic identity suites."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float = 0.0


@dataclass(frozen=True)
class Report:
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def __iter__(self):
        return iter(self.checks)

    def __len__(self) -> int:
        return len(self.checks)


def exact(name: str, lhs, rhs) -> CheckResult:
    """Check ``lhs == rhs`` entrywise with exact equality.

    The deviation is the largest entry of ``|lhs - rhs|``, so a failed check
    says how far off it was.
    """
    passed = bool(np.array_equal(lhs, rhs))
    return CheckResult(name, passed, float(np.abs(lhs - rhs).max()))
