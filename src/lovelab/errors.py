"""Exception hierarchy shared by all lovelab modules.

An argument a function cannot take, a divergent value (Li_1(e^{-t}) at
t = 0) included, raises DomainError.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence

__all__ = [
    "LoveLabError",
    "DomainError",
    "ConvergenceError",
    "ResolutionError",
    "WindowError",
    "ConditioningError",
]


class LoveLabError(Exception):
    """Base class for all lovelab errors."""


class DomainError(LoveLabError, ValueError):
    """An argument lies outside the mathematical domain of the function."""


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


def _orders(n: Sequence[int], name: str, top: int) -> list[int]:
    """A non-empty sequence of orders as a list; every order must be an
    integer in [1, top], and not a bool."""
    orders = list(n)
    if not orders:
        raise DomainError(f"need at least one {name}")
    return [_check_int(m, name, top) for m in orders]


def _check_real(value, name: str, interval: str) -> float:
    """value as a Python float, refusing a real outside interval, written as
    the docstrings write it: "(0, inf)", "[0, 1]".  A numpy float32, a 0-d
    real array, a Fraction or a Decimal is tested and returned as the float
    it converts to, so callers compute in double precision.  Each end is
    compared as its bracket says, and every comparison with NaN is false,
    so NaN is refused by construction, as is an infinity at an open end.
    Anything else (a str, None, a complex, a sequence or a 1-d array) is
    taken as NaN, so it is refused in the same words, and so is a real that
    has no double (an int or Fraction past the float range, a signaling
    Decimal NaN), where float() overflows or refuses.  A bool, Python's or
    numpy's, is not a real here, as it is not an integer for _check_int."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    kind = getattr(getattr(value, "dtype", None), "kind", None)
    boolean = isinstance(value, bool) or kind == "b"
    # numbers.Real leaves out Decimal, a Number that is no Complex
    real = (isinstance(value, numbers.Real)
            or isinstance(value, numbers.Number) and not isinstance(value, numbers.Complex)
            or getattr(value, "shape", None) == () and kind in ("f", "i", "u"))
    try:
        x = float(value) if real else math.nan
    except (OverflowError, ValueError):    # a real with no double: 10**400, sNaN
        x = math.nan
    if boolean or not ((low < x if interval[0] == "(" else low <= x)
                       and (x < high if interval[-1] == ")" else x <= high)):
        raise DomainError(f"{name} must lie in {interval}, got {value!r}")
    return x
