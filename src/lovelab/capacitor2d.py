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
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WindowError, _check_int, _check_real
from .quadrature import _tanh_sinh
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
    WindowError between the two windows, where neither truncation holds,
    and DomainError where pi x overflows, as in phi_psi."""
    _check_real(x, "x", "[0, inf)")
    _check_real(_PI * x, "pi * x", "[0, inf)")
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

def _phi_tail_of_w(W: np.ndarray) -> np.ndarray:
    """t (Phi(t) - 1/(pi t)) from the upper-cut W at the offset pi t, free
    of that difference's cancellation: with W = rho e^{i theta}, the real
    and imaginary parts of W + log W = pi t - 1 + i pi give

        pi^2 t (Phi - 1/(pi t)) = theta log rho + rho (theta cos theta - sin theta),

    whose last factor is its odd series below theta = 0.1 (t ~ 11)."""
    rho, theta = np.abs(W), np.arctan2(W.imag, W.real)
    t2 = theta * theta
    series = theta * t2 * (-1.0 / 3.0 + t2 * (1.0 / 30.0 + t2 * (
        -1.0 / 840.0 + t2 * (1.0 / 45360.0 - t2 / 3991680.0))))
    bracket = np.where(theta < 0.1, series, theta * np.cos(theta) - np.sin(theta))
    return (theta * np.log(rho) + rho * bracket) / (_PI * _PI)


# The smallest s at which the tail beyond X is taken, so that pi / s stays
# finite; flooring s there changes that tail by less than 1e-300.
_S_MIN = 4.0 / sys.float_info.max


def _phi_moment_rows(u: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The two rows of the Phi moments over the whole half-line at the
    abscissae u in (0, 1), from the upper-cut W at the offsets pi u and then
    pi / u: the head Phi(u) log^p u plus the tail over (1, inf) at t = 1/u.
    Their integrals over (0, 1) are gamma0 and gamma1."""
    n = len(u)
    phi = _phi_of_w(W[:n])
    near = _phi_tail_of_w(W[n:]) / u
    lu = np.log(u)
    return np.array([phi + near, phi * lu - near * lu])


def _phi_moments(X: float) -> np.ndarray:
    """int_0^X (Phi(t) - [t > 1]/(pi t)) log^p t dt for p = 0, 1 and finite
    X >= 1, the two rows of one tanh-sinh integral on (0, 1).

    At each u in (0, 1), the head takes Phi(u) log^p u; the tail over
    (1, inf) takes t = 1/u (the two form _phi_moment_rows), and the tail
    over (X, inf), subtracted from it, takes t = 1/s with s = u / X
    (floored at _S_MIN), each with _phi_tail_of_w's product over its own s.
    Every singularity of the three sits at u = 0 (Phi's branch points
    t = 2ik accumulate at t = inf), so every X converges at level 5; one W
    call per integrand call serves all three.  Each row is summed on its
    own, so each keeps the bits of its integral taken alone.  As X -> inf
    the rows tend to gamma0 and gamma1."""
    a = 1.0 / X

    def integrand(u: np.ndarray) -> np.ndarray:
        s = np.maximum(a * u, _S_MIN)
        n = len(u)
        W = _w(np.concatenate([u, 1.0 / u, 1.0 / s]))
        rows = _phi_moment_rows(u, W[:2 * n])
        far = a * _phi_tail_of_w(W[2 * n:]) / s
        rows[0] -= far
        rows[1] += far * np.log(s)
        return rows

    value, _ = _tanh_sinh(integrand)
    return value


def cumulative_phi(X: float) -> float:
    """int_0^X Phi(t, 0) dt for X >= 1; grows like (log X)/pi plus gamma0."""
    _check_real(X, "X", "[1, inf)")
    return float(_phi_moments(X)[0]) + math.log(X) / _PI


def cumulative_phi_log(X: float) -> float:
    """int_0^X Phi(t, 0) log t dt for X >= 1; grows like (log X)^2/(2 pi)
    plus gamma1."""
    _check_real(X, "X", "[1, inf)")
    return float(_phi_moments(X)[1]) + math.log(X) ** 2 / (2.0 * _PI)


def _orders(n: Sequence[int], name: str, top: int) -> list[int]:
    """A non-empty sequence of orders as a list; every order must be an
    integer in [1, top], and not a bool."""
    orders = list(n)
    if not orders:
        raise DomainError(f"need at least one {name}")
    return [_check_int(m, name, top) for m in orders]


def _phi_prime_polylog_rows(s: np.ndarray, t: np.ndarray, W: np.ndarray,
                            orders: list[int]) -> np.ndarray:
    """The rows of phi_prime_polylog_integral at the abscissae s in (0, 1),
    from t = -log(1 - s) and the upper-cut W at the offset t."""
    return _phi_prime_of_w(W) * _polylog_exp_neg(orders, t) / (_PI * (1.0 - s))


def phi_prime_polylog_integral(n: Sequence[int]) -> list[float]:
    """int_0^inf Phi'(x) Li_m(e^{-pi x}) dx for each order m in n, 1 <= m <= 7.

    One tanh-sinh integral on (0, 1), by t = pi x = -log(1 - s), so that
    e^{-t} = 1 - s and dx = ds / (pi (1 - s)).  The x^{-1/2} singularity of
    Phi' at the edge (for m = 1 with a log factor) sits at s = 0, and the
    e^{-pi x} decay becomes the factor Li_m(1 - s) / (1 - s), bounded at
    s = 1.  The orders are the rows of one integrand, so Phi' is evaluated
    once per abscissa for all of them, from W at the offset t itself.
    """
    orders = _orders(n, "order", 7)

    def integrand(s: np.ndarray) -> np.ndarray:
        t = -np.log1p(-s)
        return _phi_prime_polylog_rows(s, t, _w_upper_from_offset(t), orders)

    values, _ = _tanh_sinh(integrand)
    return [float(v) for v in values]
