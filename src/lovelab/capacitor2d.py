"""Two-dimensional semi-infinite parallel-plate capacitor on the symmetry
half-line: the potential Phi(x, 0), its harmonic conjugate Psi(x, 0), their
derivatives and series expansions, and the cumulative integrals whose
constants past their log growth are gamma0 and gamma1.

The complex potential is evaluated through the upper-cut Lambert W branch:
with W = W(-e^{pi x - 1}) the defining transcendental equation gives the
cancellation-free forms

    Phi(x, 0) = arg(W) / pi,        Psi(x, 0) = -log|W| / pi,
    Phi'(x, 0) = -Im(W) / |1 + W|^2,

which remain accurate to machine precision from the plate edge (x = 0,
where W sits at its branch point -1) out to x ~ 1e14 and beyond, since the
W solver works on log(-argument) = pi x - 1 directly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WindowError, _check_int, _check_real
from .quadrature import _composite, _log_edges
from .specfun import _polylog_exp_neg, _w_upper_from_offset

__all__ = [
    "EdgePotentialSample",
    "phi_psi",
    "phi_series",
    "psi_series",
    "cumulative_phi",
    "cumulative_phi_log",
    "phi_prime_polylog_integral",
]

_PI = math.pi


@dataclass(frozen=True)
class EdgePotentialSample:
    """Potential data at one point of the half-line x >= 0, y = 0."""

    x: float
    phi: float
    psi: float
    phi_prime: float


def _w(x) -> np.ndarray:
    """The upper-cut W(-e^{pi x - 1}) at the points x >= 0."""
    return _w_upper_from_offset(_PI * np.asarray(x, dtype=float))


def _phi_of_w(W: np.ndarray) -> np.ndarray:
    """Phi = arg(W) / pi."""
    return np.arctan2(W.imag, W.real) / _PI


def _phi_prime_of_w(W: np.ndarray) -> np.ndarray:
    """Phi' = -Im W / |1 + W|^2, -inf at the branch point W = -1, and -0.0
    once the square overflows (|W| > 1.3e154, where |Phi'| < 2e-308)."""
    opu = 1.0 + W.real
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(W.imag == 0.0, -np.inf, -W.imag / (opu * opu + W.imag * W.imag))


def _phi(x: np.ndarray) -> np.ndarray:
    return _phi_of_w(_w(x))


def _phi_prime(x: np.ndarray) -> np.ndarray:
    return _phi_prime_of_w(_w(x))


def phi_psi(x: float) -> EdgePotentialSample:
    """Exact potential sample at x >= 0 with pi x finite (x <= 5.7e307).

    At x = 0 the potential is exactly 1 and Psi vanishes (our normalization
    Psi(0, 0) = 0); the derivative has an inverse-square-root singularity
    there and is reported as -inf.
    """
    _check_real(x, "x", "[0, inf)")
    _check_real(_PI * float(x), "pi * x", "[0, inf)")
    W = _w([x])
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
    _check_real(x, "x", "[0, inf)")
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


# ----------------------------------------------------------------------
# Cumulative integrals.
# ----------------------------------------------------------------------

def cumulative_phi(X: float) -> float:
    """int_0^X Phi(t, 0) dt for X >= 1.

    tanh-sinh handles the sqrt cusp at t = 0; the smooth remainder is summed
    over geometrically spaced Gauss panels, so X up to ~1e15 costs only a
    few thousand evaluations.  Grows like (log X)/pi plus a constant.
    """
    _check_real(X, "X", "[1, inf)")
    return _composite(_phi, [0.0, *_log_edges(1.0, X)])


def cumulative_phi_log(X: float) -> float:
    """int_0^X Phi(t, 0) log t dt for X >= 1; grows like (log X)^2 / (2 pi)."""
    _check_real(X, "X", "[1, inf)")

    def integrand(t: np.ndarray) -> np.ndarray:
        return _phi(t) * np.log(t)

    return _composite(integrand, [0.0, *_log_edges(1.0, X)])


# Beyond this point Li_n(e^{-pi x}) < 1e-17 for every n >= 1; the omitted
# tail is below double precision against the O(1/x^2) decay of Phi'.
_POLYLOG_CUTOFF = (17.0 * math.log(10.0) + 2.0) / _PI


def _orders(n, name: str, top: int) -> list[int]:
    """One order, or a non-empty sequence of them, as a list; every order
    must be an integer in [1, top], and not a bool."""
    orders = list(n) if isinstance(n, Sequence) else [n]
    if not orders:
        raise DomainError(f"need at least one {name}")
    return [_check_int(m, name, top) for m in orders]


def phi_prime_polylog_integral(n: int | Sequence[int]) -> float | list[float]:
    """int_0^inf Phi'(x) Li_n(e^{-pi x}) dx for 1 <= n <= 7.

    The integrand carries the x^{-1/2} singularity of Phi' at the edge (and
    for n = 1 an additional log factor); a tanh-sinh panel on [0, 1] absorbs
    both, with Gauss panels covering the exponentially decaying remainder.
    A sequence of orders gives the list of their integrals, taken on shared
    abscissae, so Phi' is evaluated once per abscissa for all of them.
    """
    orders = _orders(n, "order", 7)

    def integrand(x: np.ndarray) -> np.ndarray:
        return _phi_prime(x) * _polylog_exp_neg(orders, _PI * x)

    values = _composite(integrand, [0.0, *np.linspace(1.0, _POLYLOG_CUTOFF, 14)])
    return [float(v) for v in values] if isinstance(n, Sequence) else float(values[0])
