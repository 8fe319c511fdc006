"""Validation errors raised across the package.

Every error carries the measured magnitude of the violation in
``violation`` so callers (and tests) can report how far off the input was.
"""

from __future__ import annotations

import math


class InvalidState(ValueError):
    """Base class for state/coefficient validation failures."""

    def __init__(self, message: str, violation: float = 0.0):
        super().__init__(message)
        self.violation = violation


class NotHermitian(InvalidState):
    """Matrix differs from its conjugate transpose beyond tolerance."""


class NotPSD(InvalidState):
    """Matrix has an eigenvalue below the negativity tolerance."""


class TraceNotOne(InvalidState):
    """Matrix trace differs from 1 beyond tolerance."""


class NormalizationViolated(InvalidState):
    """Coefficient sum differs from the required normalization."""


class OutsideValidityWindow(InvalidState):
    """Coefficients fall outside the positivity window of the family."""


class PreconditionViolated(InvalidState):
    """An operation-specific input constraint does not hold."""


def reject_non_finite(values, what: str = "coefficients") -> None:
    """Raise ``PreconditionViolated`` if some ``values`` are not finite, with their count."""
    bad = sum(not math.isfinite(v) for v in values)
    if bad:
        raise PreconditionViolated(f"{what} must be finite", violation=float(bad))


def _validated_make(cls, iterable):
    """``_make`` for a NamedTuple whose ``__new__`` validates: build through it.

    NamedTuple's own ``_make``, which ``_replace`` calls, fills the tuple
    without calling ``__new__``; bound as ``_make = classmethod(...)``.
    """
    return cls(*iterable)
