"""Samples and truncated series of the plate-edge potential: Phi, Psi and
Phi' at one point of the half-line, from the package's upper-cut W, and
the small-x and large-x series of Phi and Psi."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lovelab.capacitor2d import _phi_of_w, _phi_prime_of_w
from lovelab.errors import WindowError
from lovelab.specfun import _w_upper_from_offset

_PI = math.pi


@dataclass(frozen=True)
class EdgePotentialSample:
    """Potential data at one point of the half-line x >= 0, y = 0."""

    x: float
    phi: float
    psi: float
    phi_prime: float


def phi_psi(x: float) -> EdgePotentialSample:
    """Exact potential sample at x >= 0 with pi x finite (x <= 5.7e307).

    At x = 0 the potential is exactly 1 and Psi vanishes (our normalization
    Psi(0, 0) = 0); the derivative has an inverse-square-root singularity
    there and is reported as -inf.
    """
    W = _w_upper_from_offset(_PI * np.array([x], dtype=float))
    phi, psi, dphi = (float(a[0]) for a in (_phi_of_w(W), -np.log(np.abs(W)) / _PI,
                                            _phi_prime_of_w(W)))
    return EdgePotentialSample(x=x, phi=phi, psi=psi, phi_prime=dphi)


# ----------------------------------------------------------------------
# Truncated series.
# ----------------------------------------------------------------------

_SMALL_MAX = 0.1
_LARGE_MIN = 5.0


def _is_small(x: float) -> bool:
    """Whether the small-x series holds at x, False for the large-x one;
    WindowError between the two windows, where neither truncation holds."""
    if _SMALL_MAX < x < _LARGE_MIN:
        raise WindowError(f"the Phi and Psi series need x <= {_SMALL_MAX} or "
                          f"x >= {_LARGE_MIN:g}, got {x!r}")
    return x <= _SMALL_MAX


def phi_series(x: float) -> float:
    """Truncated series for Phi(x, 0); WindowError for 0.1 < x < 5.

    x <= 0.1:  1 - sqrt(2/pi) x^{1/2} + (1/9) sqrt(pi/2) x^{3/2}
                 - pi^{3/2}/(540 sqrt 2) x^{5/2}        + O(x^{7/2})
    x >= 5:    1/(pi x) + log(pi x)/(pi x)^2             + O(log^2 x / x^3)
    """
    if _is_small(x):
        rx = math.sqrt(x)
        return (1.0 - math.sqrt(2.0 / _PI) * rx
                + math.sqrt(_PI / 2.0) / 9.0 * rx ** 3
                - _PI ** 1.5 / (540.0 * math.sqrt(2.0)) * rx ** 5)
    return 1.0 / (_PI * x) + math.log(_PI * x) / (_PI * _PI * x * x)


def psi_series(x: float) -> float:
    """Truncated series for Psi(x, 0); WindowError for 0.1 < x < 5.

    x <= 0.1:  -x/3 + (2 pi/135) x^2 + (4 pi^2/8505) x^3 + O(x^4); the cubic
               coefficient follows from the branch-point expansion of W and
               is validated against the exact evaluator in the tests.
    x >= 5:    -(1/pi) log(pi x) + (log(pi x) + 1)/(pi^2 x) + O(log^2 x / x^2)
    """
    if _is_small(x):
        return -x / 3.0 + 2.0 * _PI / 135.0 * x * x + 4.0 * _PI ** 2 / 8505.0 * x ** 3
    lpx = math.log(_PI * x)
    return -lpx / _PI + (lpx + 1.0) / (_PI * _PI * x)
