"""Exception hierarchy shared by all lovelab modules."""

from __future__ import annotations

import numbers

__all__ = [
    "LoveLabError",
    "DomainError",
    "PoleError",
    "DivergenceError",
    "ConvergenceError",
    "ResolutionError",
    "WindowError",
    "ConditioningError",
]


class LoveLabError(Exception):
    """Base class for all lovelab errors."""


class DomainError(LoveLabError, ValueError):
    """An argument lies outside the mathematical domain of the function."""


class PoleError(DomainError):
    """The requested value sits on a pole (e.g. K(k) at k = 1)."""


class DivergenceError(LoveLabError):
    """The requested quantity diverges (series or integral)."""


class ConvergenceError(LoveLabError):
    """An iterative scheme failed to reach the requested tolerance.

    Carries the best available value and its error estimate so callers can
    decide whether the partial result is usable.
    """

    def __init__(self, message: str, best: float, estimate: float):
        super().__init__(f"{message} (best={best!r}, estimate={estimate!r})")
        self.best = best
        self.estimate = estimate


class ResolutionError(LoveLabError):
    """A discretization is too coarse for the requested problem."""


class WindowError(LoveLabError, ValueError):
    """Parameters violate a validity window (fit ranges, scale separations)."""


class ConditioningError(LoveLabError):
    """A least-squares design matrix is numerically rank deficient."""


def _check_int(value, name: str, high: float) -> int:
    """value as an int, refusing anything but an integer in [1, high]:
    Python and numpy integers pass, a bool is not an integer here."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not 1 <= value <= high):
        raise DomainError(f"{name} must be an integer in [1, {high}], got {value!r}")
    return int(value)


def _check_real(value, name: str, interval: str) -> None:
    """Refuse a real outside interval, written as the docstrings write it:
    "(0, inf)", "[0, 1]".  Each end is compared as its bracket says, and
    every comparison with NaN is false, so NaN is refused by construction,
    as is an infinity at an open end."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    if not ((low < value if interval[0] == "(" else low <= value)
            and (value < high if interval[-1] == ")" else value <= high)):
        raise DomainError(f"{name} must lie in {interval}, got {value!r}")
