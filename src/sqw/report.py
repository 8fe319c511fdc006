"""Pass/fail reports for algebraic identity suites."""

from __future__ import annotations

from dataclasses import dataclass, field


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
