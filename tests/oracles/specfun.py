"""Exponentially scaled modified Bessel functions, e^{-x} I_2(x) and
e^{x} K_1(x), for the Bessel-block clause of acceptance 14: scipy's ive and
kve, and their large-argument expansions above 1e8.  Unscaled values
overflow long before the arguments that clause reaches (products of the
form I_2(a) K_1(b) with a, b ~ 2e8), while the scaled product needs only
one extra factor e^{a-b}."""

from __future__ import annotations

import functools
import math

import numpy as np

_PI = math.pi

# scipy's ive/kve degrade to nan somewhere above 1e9; beyond the switch the
# large-argument expansions are exact to double precision anyway (the next
# omitted term is O(x^-3) with an O(100) numerator).
_BESSEL_ASYMPTOTIC = 1e8

# kind: (scipy.special function, order, the coefficients c1, c2 of the
# large-x expansion front x^{-1/2} (1 + c1/x + c2/x^2), front)
_BESSEL_KINDS = {
    "I2": ("ive", 2, -15.0 / 8.0, 105.0 / 128.0, 1.0 / math.sqrt(2.0 * _PI)),
    "K1": ("kve", 1, 3.0 / 8.0, -15.0 / 128.0, math.sqrt(_PI / 2.0)),
}


def _bessel_vec(kind: str, x: np.ndarray) -> np.ndarray:
    from scipy import special
    name, order, c1, c2, front = _BESSEL_KINDS[kind]
    x = np.asarray(x, dtype=float)
    big = x > _BESSEL_ASYMPTOTIC
    # the expansion runs on the large elements only: at tiny x its powers overflow
    out = getattr(special, name)(order, np.where(big, 1.0, x))
    xb = x[big]
    out[big] = front * xb ** -0.5 * (1.0 + (c1 + c2 / xb) / xb)
    return out


_i2e = functools.partial(_bessel_vec, "I2")
_k1e = functools.partial(_bessel_vec, "K1")
