"""Closed-form asymptotics of the disc capacitor and the weak-coupling Bose
gas: capacitance expansions, energy expansions, the inversion eps(gamma),
and the subtracted outer integrand whose integral the identity suite checks.

C(kappa) and eps(gamma) are each written once, as a form of + and * in the
powers and logarithms of their variable, which the float evaluators run.
The symbolic assembly of the ground-state energy through order gamma^2
(tests/oracles/asymptotics.py) runs the same forms on truncated series in
t^p log(1/t)^q, and finds every logarithm cancelled and the gamma^2
coefficient 1/6 - 1/pi^2 to rounding: so the coefficient is proved for the
very functions that fit-weak and compare-asymptotics call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, WindowError, _check_real
from .specfun import _k3

__all__ = [
    "ENERGY_GAMMA2",
    "ENERGY_GAMMA2_RIVAL",
    "energy_series",
    "capacitance_series",
    "epsilon_of_gamma",
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
    gamma = _check_real(gamma, "gamma", "[0, inf)")
    if which not in _ENERGY_SERIES:
        raise DomainError(f"unknown energy series {which!r}")
    return gamma - 4.0 / (3.0 * _PI) * gamma ** 1.5 + _ENERGY_SERIES[which] * gamma * gamma


# The expansions that compose into the gamma^2 coefficient are each written
# once, from +, * and division by float constants, with the powers and
# logarithms of the variable passed in; the float evaluators run these forms
# on floats, and the assembly of tests/oracles/asymptotics.py on series.

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
    kappa = _check_real(kappa, "kappa", "(0, inf)")
    if kappa > _KAPPA_WINDOW:
        raise WindowError(f"capacitance expansions need kappa <= {_KAPPA_WINDOW:g}, "
                          f"got {kappa!r}")
    if which not in ("kirchhoff", "extended"):
        raise DomainError(f"unknown capacitance series {which!r}")
    inv_kappa = 1.0 / kappa
    # log kappa taken as -log(1/kappa), the log term as the formula reads
    return _capacitance(kappa, inv_kappa, -math.log(inv_kappa), which == "extended")


def epsilon_of_gamma(gamma: float) -> float:
    """Half-separation epsilon with gamma = 2 epsilon / C(2 epsilon),
    inverted through order gamma^{3/2} with its log^2 and log companions.
    WindowError when 2 eps would pass the capacitance window kappa <= 0.3
    (from gamma ~ 0.2501 on)."""
    gamma = _check_real(gamma, "gamma", "(0, inf)")
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
