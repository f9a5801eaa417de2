"""Two-dimensional semi-infinite parallel-plate capacitor on the symmetry
half-line: the potential Phi(x, 0) and its derivative, the cumulative
integrals whose constants past their log growth are gamma0 and gamma1, and
the integrals of Phi' against Li_n(e^{-pi x}).

The complex potential is evaluated through the upper-cut Lambert W branch:
with W = W(-e^{pi x - 1}) the defining transcendental equation gives the
cancellation-free forms

    Phi(x, 0) = arg(W) / pi,        Phi'(x, 0) = -Im(W) / |1 + W|^2,

which remain accurate to machine precision from the plate edge (x = 0,
where W sits at its branch point -1) out to x ~ 1e14 and beyond, since the
W solver works on log(-argument) = pi x - 1 directly.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

import numpy as np

from .errors import _check_real, _orders
from .quadrature import _tanh_sinh
from .specfun import _MAX_POLYLOG_ORDER, _polylog_exp_neg, _w_upper_from_offset

__all__ = [
    "cumulative_phi",
    "cumulative_phi_log",
    "phi_prime_polylog_integral",
]

_PI = math.pi


def _phi_of_w(W: np.ndarray) -> np.ndarray:
    """Phi = arg(W) / pi."""
    return np.arctan2(W.imag, W.real) / _PI


def _phi_prime_of_w(W: np.ndarray) -> np.ndarray:
    """Phi' = -Im W / |1 + W|^2, -inf at the branch point W = -1, and -0.0
    once the square overflows (|W| > 1.3e154, where |Phi'| < 2e-308)."""
    opu = 1.0 + W.real
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(W.imag == 0.0, -np.inf, -W.imag / (opu * opu + W.imag * W.imag))


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
        W = _w_upper_from_offset(_PI * np.concatenate([u, 1.0 / u, 1.0 / s]))
        rows = _phi_moment_rows(u, W[:2 * n])
        far = a * _phi_tail_of_w(W[2 * n:]) / s
        rows[0] -= far
        rows[1] += far * np.log(s)
        return rows

    value, _ = _tanh_sinh(integrand)
    return value


def cumulative_phi(X: float) -> float:
    """int_0^X Phi(t, 0) dt for X >= 1; grows like (log X)/pi plus gamma0."""
    X = _check_real(X, "X", "[1, inf)")
    return float(_phi_moments(X)[0]) + math.log(X) / _PI


def cumulative_phi_log(X: float) -> float:
    """int_0^X Phi(t, 0) log t dt for X >= 1; grows like (log X)^2/(2 pi)
    plus gamma1."""
    X = _check_real(X, "X", "[1, inf)")
    return float(_phi_moments(X)[1]) + math.log(X) ** 2 / (2.0 * _PI)


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
    orders = _orders(n, "order", _MAX_POLYLOG_ORDER)

    def integrand(s: np.ndarray) -> np.ndarray:
        t = -np.log1p(-s)
        return _phi_prime_polylog_rows(s, t, _w_upper_from_offset(t), orders)

    values, _ = _tanh_sinh(integrand)
    return [float(v) for v in values]
