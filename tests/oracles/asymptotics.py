"""The r-space kernels of the third-moment identity, the Green traces, the
far field, the inner/outer J split with its edge integrals, the
third-moment expansion, and the symbolic assembly of the ground-state
energy through order gamma^2.

They are built from the package's two elliptic primitives, dK/dk and k3
(``lovelab.specfun``), the moments of the plate-edge potential
(``lovelab.capacitor2d._phi_moments``) and the subtracted outer integrand
that ``verify`` integrates (``lovelab.asymptotics._outer_subtracted``), so
their tests check those too.  One modulus builder, ``_modulus``, serves
every kernel: k = r_</r_> and 1 - k^2 as ((r_> - r_<)/r_>)(1 + k), not
from the rounded k, and with no product that overflows.

Bessel sums.  Every Bessel value is exponentially scaled
(``oracles.specfun``): the sums reassemble I_2(a) K_1(b) e^{a-b}, so
millions of terms near r = 1 stay in range.  k2 takes that exponent as
-n x with x = pi (r - 1)/eps: a - b from the rounded a and b would carry
about n pi/eps ulps of error into it, 2e-13 relative at eps = 1e-3 near
r = 1, where the x form is within 3e-16 of mpmath.  A sum stops once a
chunk's last term is below 1e-16 (green_traces) or 1e-15 (kernel_k) of
its total.  At r = 1 the k2 terms fall only like eps / (2 pi n^2), so for
eps <= pi kernel_k("k2", r, eps) sums its first 4032 terms (_TAIL_FROM)
directly and takes the rest from the large-argument product
I_2(a n) K_1(b n) ~ e^{-n x} / (2 n sqrt(a b)) sum_k C_k n^{-k} (DLMF
10.40.1-2), whose power sums are Li_s(e^{-x}) (zeta(s) at r = 1) less
their first 4032 terms: at r = 1 and 1 + 1e-9 it is within 1e-13 of
mpmath (4e-16 and 3e-15 at eps = 0.1) in about 2 ms.  Any other sum
raises ConvergenceError, with the partial sum and the last term, if it
takes more than 3,000,000 terms (_SUM_CAP; k2 at r = 1 for eps > pi,
where the C_k grow like eps^k and the differences above would cost
digits).  Above x = 1e8 the scaled functions switch to their asymptotic
expansions (scipy's ive/kve degrade there).

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
from lovelab.errors import ConvergenceError, DomainError, WindowError, _check_real
from lovelab.specfun import _dk_vec, _k3, _polylog_exp_neg
from oracles.quadrature import level_by_level_tanh_sinh
from oracles.specfun import _i1e, _i2e, _k1e

_PI = math.pi


# ----------------------------------------------------------------------
# Far field, Green traces, kernels.
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
    _check_real(r, "r", "(1, inf)")
    return (2.0 / _PI) * float(_dk_vec(*_modulus(1.0, r))[0]) / (r * r)


_SUM_CAP = 3_000_000
# the direct terms of a sum with a tail: its first six chunks
_TAIL_FROM = 64 * (2 ** 6 - 1)


def _bessel_sum(terms: Callable[[np.ndarray], np.ndarray], rel: float,
                tail: Callable[[int], float] | None = None) -> float:
    """sum_{n >= 1} terms(n) for positive, decaying terms, taken in doubling
    chunks of n; stops once a chunk's last term is below `rel` of the
    running total.  The terms fall like e^{-n pi |r - r1| / eps}, and at
    r = 1 those of k2 only like eps / (2 pi n^2), which no cap takes below
    1e-15.  Given tail(N), the sum of every term past N, the direct sum
    stops after N = _TAIL_FROM terms and adds it; without, reaching
    _SUM_CAP terms raises ConvergenceError with the partial sum and the
    last term, rather than return the partial sum."""
    cap = _SUM_CAP if tail is None else _TAIL_FROM
    total, n0, chunk = 0.0, 1, 64
    while n0 <= cap:
        t = terms(np.arange(n0, min(n0 + chunk, cap + 1), dtype=float))
        total += float(np.sum(t))
        if t[-1] < rel * max(abs(total), 1e-300):
            return total
        n0 += len(t)
        chunk = min(2 * chunk, 500_000)
    if tail is not None:
        return total + tail(cap)
    raise ConvergenceError(f"Bessel sum not below {rel:g} of its total after "
                           f"{_SUM_CAP} terms", total, float(t[-1]))


def green_traces(r: float, r1: float, epsilon: float) -> tuple[float, float]:
    """Boundary traces of the two Green functions at z = z1 = 0.

    g_minus (gap region): -(1/(2 eps)) r_</r_> minus a Bessel sum whose
    term n decays like e^{-n pi (r_> - r_<)/eps}; summed in scaled form and
    truncated once terms drop below 1e-16 of the total.
    g_plus (upper half space): (2/(pi r_<)) (E(k) - K(k)) at k = r_</r_>,
    taken as (2/(pi r_>)) (k k3(1/k) - (1 - k^2) dK/dk): the same value
    through (E - K)/k = k k3 - (1 - k^2) dK/dk, from the two elliptic
    primitives of kernel_k, without the cancellation of E against K at
    small k, where both are their series.  1 - k^2 comes from _modulus, so
    near the diagonal K carries no rounding of k.
    """
    _check_real(r, "r", "(0, inf)")
    _check_real(r1, "r1", "(0, inf)")
    if r == r1:
        raise DomainError("the traces have a logarithmic singularity at r = r1")
    _check_real(epsilon, "epsilon", "(0, inf)")
    rlt, rgt = min(r, r1), max(r, r1)

    def terms(n: np.ndarray) -> np.ndarray:
        a = n * _PI * rlt / epsilon
        b = n * _PI * rgt / epsilon
        return _i1e(a) * _k1e(b) * np.exp(a - b)

    total = _bessel_sum(terms, 1e-16)
    g_minus = -(rlt / rgt) / (2.0 * epsilon) - (2.0 / epsilon) * total
    k, kc2 = _modulus(rlt, rgt)
    g_plus = (2.0 / (_PI * rgt)) * (k * _k3(k, kc2) - kc2 * _dk_vec(k, kc2))
    return g_minus, float(g_plus[0])


def _hankel(nu: int, k: int) -> float:
    """a_k(nu) of the large-argument expansions of I_nu and K_nu (DLMF
    10.17.1): I_nu(z) ~ e^z / sqrt(2 pi z) sum_k (-1)^k a_k / z^k and
    K_nu(z) ~ sqrt(pi / (2 z)) e^{-z} sum_k a_k / z^k (DLMF 10.40.1-2)."""
    return (math.prod(4 * nu * nu - (2 * i - 1) ** 2 for i in range(1, k + 1))
            / (math.factorial(k) * 8.0 ** k))


# powers of 1/n taken in k2's tail: past n = _TAIL_FROM with a = pi/eps >= 1
# the next is below 1e-15 of the tail's first
_K2_TAIL_TERMS = 4


def _k2_tail(r: float, epsilon: float, N: int) -> float:
    """sum_{n > N} (1/n) I_2(a n) K_1(b n), a = pi/eps, b = pi r/eps, from
    the product of the large-argument expansions (_hankel): each term is
    e^{-n x} / (2 sqrt(a b)) sum_k C_k n^{-k-2} with x = pi (r - 1)/eps and
    C_k = sum_{j+l=k} (-1)^j a_j(2) a^{-j} a_l(1) b^{-l}, and
    sum_{n > N} e^{-n x} n^{-s} is Li_s(e^{-x}), zeta(s) at r = 1, less its
    first N terms.  The C_k grow like eps^k, so the cancellation of that
    difference costs digits once a < 1: k2 takes this tail for eps <= pi."""
    a, b = _PI / epsilon, _PI * r / epsilon
    x = _PI * (r - 1.0) / epsilon
    c = [sum((-1) ** j * _hankel(2, j) / a ** j * _hankel(1, k - j) / b ** (k - j)
             for j in range(k + 1)) for k in range(_K2_TAIL_TERMS)]
    orders = list(range(2, _K2_TAIL_TERMS + 2))
    n = np.arange(1.0, N + 1.0)
    head = np.exp(-x * n) / n ** np.array(orders, dtype=float)[:, None]
    tails = _polylog_exp_neg(orders, x) - np.sum(head, axis=1)
    return float(np.dot(c, tails)) / (2.0 * math.sqrt(a * b))


def _k2_sum(r: float, epsilon: float) -> float:
    """sum_n (1/n) I_2(n pi/eps) K_1(n pi r/eps), to relative 1e-15: its
    first _TAIL_FROM terms directly, and (for eps <= pi) the rest from
    _k2_tail, so r = 1 costs no more terms than any other r.  The scaled
    Bessel factors leave e^{-n x}, x = pi (r - 1)/eps, which is taken as it
    stands: e^{a - b} from the rounded a and b would carry their rounding
    error, of order n pi/eps ulps, into its exponent."""
    x = _PI * (r - 1.0) / epsilon

    def terms(n: np.ndarray) -> np.ndarray:
        a = n * _PI / epsilon
        b = n * _PI * r / epsilon
        return (1.0 / n) * _i2e(a) * _k1e(b) * np.exp(-n * x)

    tail = (lambda N: _k2_tail(r, epsilon, N)) if epsilon <= _PI else None
    return _bessel_sum(terms, 1e-15, tail)


def _k1_part(r: float, epsilon: float) -> float:
    # the eps-free elliptic terms are summed first, so adding -1/(8 eps)
    # last rounds once and k1 + 1/(8 eps) is the same for every eps to
    # half an ulp of 1/(8 eps)
    if r == 1.0:
        # (1 - r^2) K(1/r) -> 0; only the E term survives
        elliptic = -2.0 / (3.0 * _PI)
    elif r > 1e150:
        # -s/8 to rounding (the next term is s^2/4 of it); k3 ~ -(pi/16) s^2
        # underflows from r ~ 6.7e153 on, and would take a third of it along
        elliptic = -0.125 / r
    else:
        s, kc2 = _modulus(1.0, r)
        elliptic = float(((-2.0 / (3.0 * _PI)) * kc2 * (_dk_vec(s, kc2) + _k3(s, kc2) / s))[0])
    return elliptic - 1.0 / (8.0 * epsilon)


def kernel_k(part: str, r: float, epsilon: float = math.nan) -> float:
    """Kernels of the third-moment identity, for r >= 1.

    "k1": -1/(8 eps) - (4 r (1-r^2)/(3 pi)) K(1/r) + (2 r (1-2 r^2)/(3 pi)) E(1/r)
    "k2": -(2 r / pi) sum_n (1/n) I_2(n pi/eps) K_1(n pi r/eps)
    "k3": 2 r^2 E(1/r) + (1 - 2 r^2) K(1/r)   (the bracket from integrating
          k1's elliptic part by parts; log-divergent at r = 1)
    "full": k1 + k2

    k3 and dK/ds at s = 1/r are the two elliptic primitives of specfun, and
    k1's elliptic part is built from them, as -(2/(3 pi)) (1 - s^2)
    (dK/ds + k3/s), for every r > 1 (-s/8 past r = 1e150).
    """
    _check_real(r, "r", "[1, inf)")
    if part in ("k1", "k2", "full"):
        _check_real(epsilon, "epsilon", "(0, inf)")
    if part == "k1":
        return _k1_part(r, epsilon)
    if part == "k3":
        if r == 1.0:
            raise DomainError("k3 diverges logarithmically at r = 1")
        return float(_k3(*_modulus(1.0, r))[0])
    if part in ("k2", "full"):
        k2 = -(2.0 / _PI) * r * _k2_sum(r, epsilon)
        return k2 if part == "k2" else _k1_part(r, epsilon) + k2
    raise DomainError(f"unknown kernel part {part!r}")


# ----------------------------------------------------------------------
# Edge-approximation integrals.
# ----------------------------------------------------------------------

def k2_energy_integral(epsilon: float) -> float:
    """int_1^inf phi'(r) k2(r) dr in the edge approximation.

    Under r = 1 + eps x the Bessel sum collapses to a dilogarithm,
    k2 ~ -(eps/pi^2) Li_2(e^{-pi x}), and phi' dr = Phi' dx, so the integral
    equals -(eps/pi^2) int_0^inf Phi'(x) Li_2(e^{-pi x}) dx = eps/(2 pi^2),
    evaluated here by quadrature rather than asserted.
    """
    _check_real(epsilon, "epsilon", "(0, inf)")
    if epsilon > 0.05:
        raise WindowError(f"edge approximation needs 0 < eps <= 0.05, got {epsilon!r}")
    return -(epsilon / _PI ** 2) * phi_prime_polylog_integral([2])[0]


def default_delta(epsilon: float) -> float:
    """Intermediate matching scale: sqrt(0.2 eps), the geometric midpoint
    (in log scale) of the admissible window, floored at 5 eps so the window
    constraint eps/delta <= 0.2 also holds for eps near its upper end."""
    _check_real(epsilon, "epsilon", "(0, inf)")
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
    _check_real(epsilon, "epsilon", "(0, inf)")
    if delta is None:
        delta = default_delta(epsilon)
    _check_real(delta, "delta", "(0, inf)")
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
