"""The far field, the inner/outer J split with its edge integrals, the
third-moment expansion, and the symbolic assembly of the ground-state
energy through order gamma^2.

They are built from the package's elliptic primitive dK/dk
(``lovelab.specfun``), the moments of the plate-edge potential
(``lovelab.capacitor2d._phi_moments``) and the subtracted outer integrand
that ``verify`` integrates (``lovelab.asymptotics._outer_subtracted``), so
their tests check those too.  The modulus builder ``_modulus`` forms k =
r_</r_> and 1 - k^2 as ((r_> - r_<)/r_>)(1 + k), not from the rounded k,
and with no product that overflows; the k3 tests call ``specfun._k3`` on it.

Far field.  far_field has one formula, F = (2/pi) s^2 dK/ds at s = 1/r,
the factor whose integral gamma2_tilde_direct checks to 14 digits.  Above
r = 2.5 dK/dk is its series and F is within 3e-15 of mpmath (5e-16 on
3000 r in (2.5, 5)); below, it carries the closed form's error, at most
3.8e-15 relative on 3000 r in (1, 5), largest just below r = 2.5, next to
dK/dk's k = 0.4 series switch.

Symbolic assembly.  AsymptoticSeries is a small truncated-series algebra
over terms c * t^p * log(1/t)^q (p rational, q a small non-negative
integer), which is exactly the class of expansions appearing here.
ground_state_series runs the package's own forms of C(kappa) and
eps(gamma) (``lovelab.asymptotics._capacitance`` and ``_epsilon``, which
capacitance_series and epsilon_of_gamma run on floats) and the kernel
integral T(eps) on such series.  Working symbolically in the expansion
variable is what exposes the cancellation of every logarithm when the
energy is re-expressed in the coupling: the surviving gamma^2 coefficient
is produced to rounding, not to a fitted tolerance.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

import numpy as np

from lovelab.asymptotics import (GAMMA0, GAMMA1, GAMMA2_TILDE, _LOG8, _SUB_C0, _SUB_C1,
                                 _capacitance, _epsilon, _outer_subtracted,
                                 capacitance_series)
from lovelab.capacitor2d import _phi_moments, phi_prime_polylog_integral
from lovelab.errors import DomainError, WindowError
from lovelab.specfun import _dk_vec
from oracles.quadrature import level_by_level_tanh_sinh

_PI = math.pi


# ----------------------------------------------------------------------
# Far field.
# ----------------------------------------------------------------------

def _modulus(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """k = lo/hi for radii 0 < lo < hi, and 1 - k^2 formed as
    ((hi - lo)/hi)(1 + k), as one-element arrays.  hi - lo is exact for
    close radii, so K carries no rounding of k near the diagonal (from 1/r
    rounded, k3 is 5e-11 off at r = 1 + 1e-9), and no factor can overflow
    or underflow, as (hi - lo)(hi + lo)/hi^2 does past hi ~ 1.3e154."""
    k = lo / hi
    return np.array([k]), np.array([(hi - lo) / hi * (1.0 + k)])


def far_field(r: float) -> float:
    """Free-space potential scale outside the disc (coefficient of epsilon):
    F(r) = E(2 sqrt(r)/(1+r)) / (pi (r-1)) - K(2 sqrt(r)/(1+r)) / (pi (r+1))
    for r > 1, taken as (2/pi) s^2 dK/ds at s = 1/r, the F of the outer
    integrand that the identity suite integrates; decays like 1/(2 r^3) far
    out (the naive K, E -> pi/2 limit suggests 1/(r^2 - 1), but the modulus
    corrections cancel that order) and diverges like 1/(pi (r-1)) at the
    edge."""
    return (2.0 / _PI) * float(_dk_vec(*_modulus(1.0, r))[0]) / (r * r)


# ----------------------------------------------------------------------
# Edge-approximation integrals.
# ----------------------------------------------------------------------

def k2_energy_integral(epsilon: float) -> float:
    """int_1^inf phi'(r) k2(r) dr in the edge approximation.

    Under r = 1 + eps x the Bessel sum of the kernel,
    k2 = -(2 r/pi) sum_n (1/n) I_2(n pi/eps) K_1(n pi r/eps), collapses to a
    dilogarithm, k2 ~ -(eps/pi^2) Li_2(e^{-pi x}), and phi' dr = Phi' dx,
    so the integral equals -(eps/pi^2) int_0^inf Phi'(x) Li_2(e^{-pi x}) dx
    = eps/(2 pi^2), evaluated here by quadrature rather than asserted.
    """
    if epsilon > 0.05:
        raise WindowError(f"edge approximation needs 0 < eps <= 0.05, got {epsilon!r}")
    return -(epsilon / _PI ** 2) * phi_prime_polylog_integral([2])[0]


def default_delta(epsilon: float) -> float:
    """Intermediate matching scale: sqrt(0.2 eps), the geometric midpoint
    (in log scale) of the admissible window, floored at 5 eps so the window
    constraint eps/delta <= 0.2 also holds for eps near its upper end."""
    return max(math.sqrt(0.2 * epsilon), 5.0 * epsilon)


def j_split(epsilon: float, delta: float | None = None) -> tuple[float, float]:
    """Inner/outer split of eps * int_1^inf phi(r) k3(r) dr at r = 1 + delta.

    J1 = eps int_0^{delta/eps} Phi(x) [ (1/2) log(x eps / 8) + 2 ] dx uses
    the edge forms of both factors and is taken as the two cumulative
    integrals whose constants are gamma0 and gamma1;
    J2 = eps int_{1+delta}^inf F(r) k3(r) dr
    uses the outer forms, computed after r -> 1/s with the logarithmic
    endpoint growth removed by the exact subtraction of _outer_subtracted.
    J1 + J2 must be insensitive to the (arbitrary) delta inside the
    admissible window; enforce eps/delta <= 0.2 and delta <= 0.2.
    """
    if delta is None:
        delta = default_delta(epsilon)
    if delta > 0.2 + 1e-12 or epsilon / delta > 0.2 + 1e-12:
        raise WindowError(
            f"(epsilon, delta)=({epsilon!r}, {delta!r}) violates "
            "eps/delta <= 0.2 and delta <= 0.2")
    if 1.0 + delta == 1.0:
        raise WindowError(f"1 + delta rounds to 1 at delta = {delta!r}: no outer range is left")

    cutoff = delta / epsilon
    m0, m1 = _phi_moments(cutoff).tolist()
    lx = math.log(cutoff)
    j1 = epsilon * (0.5 * (m1 + lx * lx / (2.0 * _PI))
                    + (0.5 * math.log(epsilon / 8.0) + 2.0) * (m0 + lx / _PI))

    S = 1.0 / (1.0 + delta)

    def outer(u: np.ndarray) -> np.ndarray:
        s = S * u                     # int_0^S g(s) ds = S int_0^1 g(S u) du
        return _outer_subtracted(s, _dk_vec(s, (1.0 - s) * (1.0 + s)))

    (integral, _), _ = level_by_level_tanh_sinh(outer)   # level 6 at eps = 1e-4
    val = S * integral
    om = 1.0 - S                      # = delta / (1 + delta)
    val += -0.5 * _SUB_C0 * math.log(om) ** 2 - _SUB_C1 * math.log(om)
    j2 = epsilon * val
    return j1, j2


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


def epsilon_series() -> AsymptoticSeries:
    """The half-separation as a series in the coupling, epsilon(gamma):
    the form of epsilon_of_gamma run on series in gamma."""
    return _epsilon(AsymptoticSeries([(Fraction(1, 2), 0, 1.0)]),
                    AsymptoticSeries([(1, 0, 1.0)]),
                    AsymptoticSeries([(0, 1, -1.0)]))


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
