"""Pass/fail reports for algebraic identity suites."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


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
