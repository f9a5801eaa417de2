"""Closed-form asymptotics of the disc capacitor and the weak-coupling Bose
gas: capacitance expansions, energy expansions, the inversion eps(gamma),
the subtracted outer integrand whose integral the identity suite checks,
and the symbolic assembly of the ground-state energy through order
gamma^2.

The assembly is done with a small truncated-series algebra over terms
c * t^p * log(1/t)^q (p rational, q a small non-negative integer), which is
exactly the class of expansions appearing here.  Working symbolically in
the expansion variable is what exposes the cancellation of every logarithm
when the energy is re-expressed in the coupling: the surviving gamma^2
coefficient is produced to rounding, not to a fitted tolerance.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import DomainError, WindowError, _check_real
from .specfun import _k3

__all__ = [
    "ENERGY_GAMMA2",
    "ENERGY_GAMMA2_RIVAL",
    "AsymptoticSeries",
    "SeriesTerm",
    "ThirdMomentBreakdown",
    "energy_series",
    "capacitance_series",
    "epsilon_of_gamma",
    "epsilon_series",
    "third_moment_expansion",
    "assemble_ground_state",
    "ground_state_series",
]

_PI = math.pi
_LOG8 = math.log(8.0)

# gamma^2 coefficients of the weak-coupling energy: the established value
# 1/6 - 1/pi^2 and the rival 1/8 - 1/pi^2.
ENERGY_GAMMA2 = 1.0 / 6.0 - 1.0 / _PI ** 2
ENERGY_GAMMA2_RIVAL = 1.0 / 8.0 - 1.0 / _PI ** 2

# Constants of the cumulative edge-potential integrals, checked numerically
# in conjectures: int_0^X Phi dt - (log X)/pi -> GAMMA0 and
# int_0^X Phi log t dt - (log X)^2/(2 pi) -> GAMMA1.
GAMMA0 = (1.0 + math.log(_PI)) / _PI
GAMMA1 = _PI / 6.0 - 1.0 / _PI - math.log(_PI) / _PI - math.log(_PI) ** 2 / (2.0 * _PI)

# The outer-integral constant and the elliptic-derivative integral, both
# checked numerically in conjectures by their own routes.
GAMMA2_TILDE = -2.0 / _PI - _PI / 4.0 - _LOG8 ** 2 / (4.0 * _PI) + 2.0 * _LOG8 / _PI
INTEGRAL4 = -2.0 / _PI - _PI / 2.0 + 2.0 * _LOG8 / _PI


# ----------------------------------------------------------------------
# Truncated log-power series.
# ----------------------------------------------------------------------

class SeriesTerm(NamedTuple):
    power: Fraction
    log_power: int
    coefficient: float


# Terms beyond t^3 are dropped on every operation: the energy needs C^{-3}
# through gamma^{5/2}, against the gamma^{-1/2} leading term of T.
_MAX_POWER = Fraction(3)


class AsymptoticSeries:
    """Truncated expansion sum_i c_i t^{p_i} log(1/t)^{q_i} for small t > 0.

    Supports ring arithmetic plus reciprocal and logarithm of series whose
    leading term is a positive log-free power; terms beyond _MAX_POWER are
    dropped on every operation.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Fraction | int, int, float]] = ()):
        self._terms: dict[tuple[Fraction, int], float] = {}
        for p, q, c in terms:
            self._add_term(Fraction(p), int(q), float(c))

    def _add_term(self, p: Fraction, q: int, c: float) -> None:
        if p > _MAX_POWER or c == 0.0:
            return
        key = (p, q)
        new = self._terms.get(key, 0.0) + c
        if new == 0.0:
            self._terms.pop(key, None)
        else:
            self._terms[key] = new

    @property
    def terms(self) -> list[SeriesTerm]:
        """Terms sorted by growth order (largest contribution as t -> 0 first)."""
        keys = sorted(self._terms, key=lambda k: (k[0], -k[1]))
        return [SeriesTerm(p, q, self._terms[(p, q)]) for p, q in keys]

    def coefficient(self, power: Fraction | int | float, log_power: int = 0) -> float:
        return self._terms.get((Fraction(power), log_power), 0.0)

    def evaluate(self, t: float) -> float:
        """The terms at t, added left to right in the order they were formed
        (builtin sum() compensates floats from Python 3.12 on)."""
        _check_real(t, "t", "(0, 1)")
        ell = math.log(1.0 / t)
        return functools.reduce(operator.add, (c * t ** float(p) * ell ** q
                                               for (p, q), c in self._terms.items()), 0.0)

    def truncated(self, max_power: Fraction | int) -> "AsymptoticSeries":
        return AsymptoticSeries((p, q, c) for (p, q), c in self._terms.items()
                                if p <= max_power)

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other) -> "AsymptoticSeries":
        if isinstance(other, AsymptoticSeries):
            return other
        return AsymptoticSeries([(0, 0, float(other))])

    def __add__(self, other) -> "AsymptoticSeries":
        other = self._coerce(other)
        out = AsymptoticSeries()
        for (p, q), c in self._terms.items():
            out._add_term(p, q, c)
        for (p, q), c in other._terms.items():
            out._add_term(p, q, c)
        return out

    __radd__ = __add__

    def __neg__(self) -> "AsymptoticSeries":
        return AsymptoticSeries((p, q, -c) for (p, q), c in self._terms.items())

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "AsymptoticSeries":
        if not isinstance(other, AsymptoticSeries):
            return AsymptoticSeries((p, q, c * float(other))
                                    for (p, q), c in self._terms.items())
        out = AsymptoticSeries()
        for (p1, q1), c1 in self._terms.items():
            for (p2, q2), c2 in other._terms.items():
                out._add_term(p1 + p2, q1 + q2, c1 * c2)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: float) -> "AsymptoticSeries":
        return self * (1.0 / other)

    def _leading(self) -> tuple[Fraction, int, float]:
        if not self._terms:
            raise DomainError("empty series")
        p, q = min(self._terms, key=lambda k: (k[0], -k[1]))
        return p, q, self._terms[(p, q)]

    def _compose(self, p0: Fraction, c0: float, start: "AsymptoticSeries",
                 coefficient: Callable[[int], float]) -> "AsymptoticSeries":
        """start + sum_{k>=1} coefficient(k) r^k, where r = self / (c0 t^p0) - 1
        for the leading term c0 t^p0; the sum stops where r^k drops out."""
        r = AsymptoticSeries()
        for (p, q), c in self._terms.items():
            if (p, q) != (p0, 0):
                r._add_term(p - p0, q, c / c0)
        out, power = start, AsymptoticSeries([(0, 0, 1.0)])
        for k in range(1, 80):
            power = power * r
            if not power._terms:
                break
            out = out + power * coefficient(k)
        return out

    def reciprocal(self) -> "AsymptoticSeries":
        p0, q0, c0 = self._leading()
        if q0 != 0:
            raise DomainError("reciprocal needs a log-free leading term")
        geom = self._compose(p0, c0, AsymptoticSeries([(0, 0, 1.0)]), lambda k: (-1) ** k)
        return AsymptoticSeries((p - p0, q, c / c0) for (p, q), c in geom._terms.items())

    def log(self) -> "AsymptoticSeries":
        """log of the series; leading term must be a positive log-free power."""
        p0, q0, c0 = self._leading()
        if q0 != 0 or c0 <= 0.0:
            raise DomainError("log needs a positive log-free leading term")
        start = AsymptoticSeries([(0, 0, math.log(c0)), (0, 1, -float(p0))])
        return self._compose(p0, c0, start, lambda k: (-1) ** (k + 1) / k)


# ----------------------------------------------------------------------
# Energy and capacitance expansions.
# ----------------------------------------------------------------------

# The gamma^2 coefficient of each series energy_series accepts.
_ENERGY_SERIES = {"bogoliubov": 0.0, "takahashi": ENERGY_GAMMA2,
                  "kaminaka_wadati": ENERGY_GAMMA2_RIVAL}

# The capacitance expansions hold for kappa <= _KAPPA_WINDOW (at the edge the
# extended series is off by 1.8e-3 relative; at kappa = 21.5 it is negative);
# epsilon_of_gamma is held to the same window in kappa = 2 eps.
_KAPPA_WINDOW = 0.3


def energy_series(which: str, gamma: float) -> float:
    """Truncated weak-coupling ground-state energy e(gamma).

    "bogoliubov":       gamma - (4/(3 pi)) gamma^{3/2}
    "takahashi":        ... + (1/6 - 1/pi^2) gamma^2
    "kaminaka_wadati":  ... + (1/8 - 1/pi^2) gamma^2   (the rival value)
    """
    _check_real(gamma, "gamma", "[0, inf)")
    if which not in _ENERGY_SERIES:
        raise DomainError(f"unknown energy series {which!r}")
    return gamma - 4.0 / (3.0 * _PI) * gamma ** 1.5 + _ENERGY_SERIES[which] * gamma * gamma


# The expansions that compose into the gamma^2 coefficient are each written
# once, from +, * and division by float constants, with the powers and
# logarithms of the variable passed in; the float evaluators and
# ground_state_series run the same forms, on floats and on AsymptoticSeries.

_L16P = math.log(16.0 * _PI)
_L32P = math.log(32.0 * _PI)


def _capacitance(kappa, inv_kappa, log_kappa, extended: bool):
    """C(kappa) of capacitance_series, Kirchhoff or extended."""
    value = inv_kappa * 0.25 - log_kappa / (4.0 * _PI) + (_L16P - 1.0) / (4.0 * _PI)
    if extended:
        shifted = log_kappa - _L16P
        value = value + kappa / (16.0 * _PI ** 2) * (shifted * shifted - 2.0)
    return value


def _epsilon(root, gamma, log_gamma):
    """eps(gamma) through gamma^{3/2}; root is gamma^{1/2}."""
    return (0.25 * root - 1.0 / (32.0 * _PI) * gamma * log_gamma
            + (_L32P - 1.0) / (16.0 * _PI) * gamma
            + gamma * root * (1.0 / (256.0 * _PI ** 2) * log_gamma * log_gamma
                              + (1.0 - _L32P) / (64.0 * _PI ** 2) * log_gamma
                              + (1.0 - 4.0 * _L32P + 2.0 * _L32P ** 2) / (128.0 * _PI ** 2)))


def capacitance_series(which: str, kappa: float) -> float:
    """Small-separation capacitance of the unit disc pair.

    "kirchhoff":  1/(4 kappa) + log(1/kappa)/(4 pi) + (log(16 pi) - 1)/(4 pi)
    "extended":   ... + kappa/(16 pi^2) [log^2(kappa/(16 pi)) - 2]

    WindowError above kappa = 0.3, where the expansions lose their regime.
    """
    _check_real(kappa, "kappa", "(0, inf)")
    if kappa > _KAPPA_WINDOW:
        raise WindowError(f"capacitance expansions need kappa <= {_KAPPA_WINDOW:g}, "
                          f"got {kappa!r}")
    if which not in ("kirchhoff", "extended"):
        raise DomainError(f"unknown capacitance series {which!r}")
    inv_kappa = 1.0 / kappa
    # log kappa taken as -log(1/kappa), the log term as the formula reads
    return _capacitance(kappa, inv_kappa, -math.log(inv_kappa), which == "extended")


def epsilon_series() -> AsymptoticSeries:
    """The half-separation as a series in the coupling, epsilon(gamma):
    the form of epsilon_of_gamma run on series in gamma."""
    return _epsilon(AsymptoticSeries([(Fraction(1, 2), 0, 1.0)]),
                    AsymptoticSeries([(1, 0, 1.0)]),
                    AsymptoticSeries([(0, 1, -1.0)]))


def epsilon_of_gamma(gamma: float) -> float:
    """Half-separation epsilon with gamma = 2 epsilon / C(2 epsilon),
    inverted through order gamma^{3/2} with its log^2 and log companions.
    WindowError when 2 eps would pass the capacitance window kappa <= 0.3
    (from gamma ~ 0.2501 on)."""
    _check_real(gamma, "gamma", "(0, inf)")
    eps = _epsilon(math.sqrt(gamma), gamma, math.log(gamma))
    if not 2.0 * eps <= _KAPPA_WINDOW:
        raise WindowError(f"eps(gamma) needs 2 eps <= {_KAPPA_WINDOW:g}, got gamma {gamma!r}")
    return eps


# ----------------------------------------------------------------------
# The outer integrand of the identity suite.
# ----------------------------------------------------------------------

# Subtraction that renders the transformed outer integrand integrable up to
# its endpoint: c0 log(1-s)/(1-s) + c1/(1-s).
_SUB_C0 = 1.0 / (2.0 * _PI)
_SUB_C1 = 2.0 / _PI - _LOG8 / (2.0 * _PI)


def _outer_subtracted(s: np.ndarray, dk: np.ndarray) -> np.ndarray:
    """F(1/s) k3(1/s) / s^2 for s in (0, 1), the outer integrand after
    r -> 1/s, less c0 log(1-s)/(1-s) + c1/(1-s).  The caller passes dk =
    dK/ds, as _dk_vec(s, (1 - s)(1 + s)); the far field F(r) = (2/pi) s^2
    dK/ds at s = 1/r and k3(r) = 2 r^2 E(1/r) + (1 - 2 r^2) K(1/r) are the
    two elliptic primitives of specfun, _dk_vec and _k3, so gamma2's route
    (b) checks those directly.  1 - s^2 = (1 - s)(1 + s) keeps the exact
    endpoint distance."""
    om = 1.0 - s
    return ((2.0 / _PI) * dk * _k3(s, om * (1.0 + s))
            - _SUB_C0 * np.log(om) / om - _SUB_C1 / om)


# ----------------------------------------------------------------------
# Third-moment expansion and the ground-state assembly.
# ----------------------------------------------------------------------

# The epsilon-order bracket of int phi' k dr, as the combination of the
# integral constants that conjectures checks numerically (the tests compare
# it with its closed form).

def _eps_bracket_from_constants() -> float:
    inner = (2.0 - 0.5 * _LOG8) * GAMMA0 + 0.5 * GAMMA1 + GAMMA2_TILDE
    return (2.0 / _PI) * inner + 1.0 / (2.0 * _PI ** 2)


@dataclass(frozen=True)
class ThirdMomentBreakdown:
    """Termwise expansion of int_1^inf phi'(r) k(r) dr, plus the third
    moment it implies through 4 pi int r^3 sigma = C1 - 2 int phi' k."""

    epsilon: float
    leading: float          # 1/(8 eps)
    constant: float         # 2/(3 pi)
    log2_term: float        # -(1/(2 pi^2)) eps log^2 eps
    log_term: float         # ((log(8 pi) - 3)/pi^2) eps log eps
    order_eps_term: float   # bracket * eps
    total: float
    capacitance_c1: float   # C1 = 4 C_extended(2 eps)
    third_moment: float     # 4 pi int_0^1 r^3 sigma dr


def _kernel_integral_terms(eps, inv_eps, log_eps):
    """The five terms of T(eps) = int_1^inf phi'(r) k(r) dr, in the order
    of ThirdMomentBreakdown."""
    return (inv_eps * 0.125,
            2.0 / (3.0 * _PI),
            -eps * log_eps * log_eps / (2.0 * _PI ** 2),
            (math.log(8.0 * _PI) - 3.0) / _PI ** 2 * eps * log_eps,
            _eps_bracket_from_constants() * eps)


def third_moment_expansion(epsilon: float) -> ThirdMomentBreakdown:
    """Evaluate the kernel integral expansion and the implied third moment."""
    _check_real(epsilon, "epsilon", "(0, inf)")
    if epsilon > 0.05:
        raise WindowError(f"expansion needs 0 < eps <= 0.05, got {epsilon!r}")
    terms = _kernel_integral_terms(epsilon, 1.0 / epsilon, math.log(epsilon))
    # left to right, as for the series (sum() compensates floats from 3.12 on)
    total = functools.reduce(operator.add, terms)
    c1 = 4.0 * capacitance_series("extended", 2.0 * epsilon)
    return ThirdMomentBreakdown(epsilon, *terms, total=total, capacitance_c1=c1,
                                third_moment=c1 - 2.0 * total)


@functools.cache
def ground_state_series() -> AsymptoticSeries:
    """The weak-coupling energy as a series in gamma, assembled symbolically.

    Composes e = 1/(2 C^2) - T/(4 C^3) (from the third-moment identity with
    C1 = 4C) with C = C_extended(2 eps), T the kernel-integral expansion,
    and eps = eps(gamma), each the same form the float evaluators run.
    Every log(gamma) coefficient cancels to rounding and the quadratic
    coefficient lands on 1/6 - 1/pi^2; the returned series is truncated at
    gamma^2 (higher orders are incomplete by construction).
    """
    eps = epsilon_series()
    kappa = eps * 2.0
    C = _capacitance(kappa, kappa.reciprocal(), kappa.log(), True)
    T = functools.reduce(operator.add,
                         _kernel_integral_terms(eps, eps.reciprocal(), eps.log()))
    Cinv = C.reciprocal()
    energy = Cinv * Cinv * 0.5 - T * Cinv * Cinv * Cinv * 0.25
    return energy.truncated(Fraction(2))


def assemble_ground_state(gamma: float) -> float:
    """Evaluate the assembled weak-coupling energy at a coupling in (0, 1).

    By construction this reproduces the takahashi series through gamma^2
    (all logarithm coefficients cancel); use ground_state_series() for the
    coefficient report.
    """
    return ground_state_series().evaluate(gamma)
