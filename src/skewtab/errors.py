"""Shared exception types and argument checks."""

import numbers


class ResourceGuardError(RuntimeError):
    """A computation refused to start or continue past a hard size guard.

    Carries an optional suggestion for the caller (typically: switch from
    exhaustive enumeration to the Monte Carlo estimators in `sampler`).
    """

    def __init__(self, message: str, suggestion: str | None = None):
        super().__init__(message)
        self.suggestion = suggestion

    def __str__(self) -> str:
        base = super().__str__()
        if self.suggestion:
            return f"{base} ({self.suggestion})"
        return base


def check_int(name: str, value) -> int:
    """value as an int, rejecting non-integers (bools too)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_count(name: str, value, least: int) -> int:
    """value as an int, rejecting non-integers (bools too) and values
    below least."""
    value = check_int(name, value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def check_eps(eps: float) -> float:
    """eps, the weight cap, rejecting values outside (0, 1] (nan too)."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return eps
