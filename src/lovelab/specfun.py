"""Special functions: complete elliptic integrals, exponentially scaled
modified Bessel functions, Lambert W (upper-cut limit), and polylogarithms.

Conventions
-----------
* Elliptic integrals use the modulus k (not the parameter m = k^2):
  K(k) = int_0^{pi/2} dt / sqrt(1 - k^2 sin^2 t), likewise E(k).
* Bessel values are always exponentially scaled: e^{-x} I_nu(x) and
  e^{x} K_nu(x).  Unscaled values overflow long before the arguments this
  package feeds them (products of the form I_2(a) K_1(b) with a, b ~ 1e7),
  while the scaled product needs only one extra factor e^{a-b}.
* Lambert W is evaluated on one branch: the limit from above the cut at
  z = -e^{d-1}, Im W in (0, pi), given the offset d = log(-z) + 1 >= 0 that
  its callers form (d = 0 is the branch point -1/e).

What scipy.special serves is taken from it: K and E (ellipkm1, ellipe), the
scaled Bessel functions (ive, kve) and zeta(n) (zeta).  Kept here is only
what it cannot serve: the upper-cut W solved in the log domain (every finite
offset), Li_n(e^{-t}) with the argument kept in the exponent,
the Bessel expansions above 1e8 (where ive and kve degrade), the dK/dr series
at small r (where the closed form cancels), and W's branch-point series.

scipy.special is imported by the functions that use it, on first call, so
importing lovelab, solving and fitting never load scipy; only the identity
suite (`verify`) does.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .errors import (ConvergenceError, DivergenceError, DomainError, PoleError, _check_int,
                     _check_real)

__all__ = [
    "EllipticPair",
    "elliptic_ke",
    "elliptic_e",
    "elliptic_k_derivative",
    "bessel_scaled",
    "polylog",
]

_PI = math.pi


class EllipticPair(NamedTuple):
    """Complete elliptic integrals of a common modulus."""

    k: float
    K: float
    E: float


# ----------------------------------------------------------------------
# Complete elliptic integrals (scipy-backed).
# ----------------------------------------------------------------------

def _ke_vec(k: np.ndarray, kc2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K(k) and E(k) elementwise for k in [0, 1).

    kc2 is the complementary parameter 1 - k^2, formed by the caller without
    cancellation ((1 - k)(1 + k), or exactly from its own geometry), so K
    keeps its logarithmic growth at moduli exponentially close to 1.
    """
    from scipy.special import ellipe, ellipkm1
    return ellipkm1(kc2), ellipe(k * k)


def elliptic_ke(k: float) -> EllipticPair:
    """Complete elliptic integrals (K, E) for modulus k in [0, 1).

    Accurate to ~1e-15 relative uniformly in k, including moduli
    exponentially close to 1.
    """
    _check_real(k, "k", "[0, 1]")
    if k == 1.0:
        raise PoleError("K(k) has a logarithmic pole at k = 1; "
                        "use elliptic_e for E(1) = 1")
    K, E = _ke_vec(k, (1.0 - k) * (1.0 + k))
    return EllipticPair(k, float(K), float(E))


def elliptic_e(k: float) -> float:
    """E(k) alone; valid on the closed interval [0, 1] (E(1) = 1 exactly)."""
    _check_real(k, "k", "[0, 1]")
    if k == 1.0:
        return 1.0
    return elliptic_ke(k).E


# dK/dr = (pi/2) sum 2n c_n^2 r^{2n-1} with c_n = binom(2n, n)/4^n.  The
# closed form below loses digits like 1/r^2 as r -> 0 (2.4e-13 relative at
# r = 0.05, 1.5e-14 at 0.2), so the series takes over below r = 0.2, where
# its first 12 terms leave a truncation below 1e-16 relative.
_DK_SWITCH = 0.2
_DK_SERIES = tuple(2 * n * (math.comb(2 * n, n) / 4.0 ** n) ** 2 for n in range(1, 13))


def _horner(coefficients, x):
    """sum_k coefficients[k] x^k, elementwise, by Horner's rule.  A (terms,
    rows, 1) table of coefficients gives one row per table column."""
    acc = np.zeros_like(x)
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def _dk_small(r: np.ndarray) -> np.ndarray:
    return (_PI / 2.0) * r * _horner(_DK_SERIES, r * r)


def elliptic_k_derivative(r: float) -> float:
    """dK/dr = (E(r) - (1 - r^2) K(r)) / (r (1 - r^2)) for 0 < r < 1."""
    _check_real(r, "r", "(0, 1)")
    return float(_dk_vec(np.asarray([r], dtype=float))[0])


def _dk_vec(r: np.ndarray) -> np.ndarray:
    out = np.empty_like(r)
    small = r < _DK_SWITCH
    out[small] = _dk_small(r[small])
    big = ~small
    if np.any(big):
        rb = r[big]
        omr2 = (1.0 - rb) * (1.0 + rb)
        K, E = _ke_vec(rb, omr2)
        out[big] = (E - omr2 * K) / (rb * omr2)
    return out


# ----------------------------------------------------------------------
# Exponentially scaled modified Bessel functions (scipy-backed).
# ----------------------------------------------------------------------

# scipy's ive/kve degrade to nan somewhere above 1e9; beyond the switch the
# large-argument expansions are exact to double precision anyway (the next
# omitted term is O(x^-3) with an O(100) numerator).
_BESSEL_ASYMPTOTIC = 1e8

# kind: (scipy.special function, order, the coefficients c1, c2 of the
# large-x expansion front x^{-1/2} (1 + c1/x + c2/x^2), front)
_BESSEL_KINDS = {
    "I1": ("ive", 1, -3.0 / 8.0, -15.0 / 128.0, 1.0 / math.sqrt(2.0 * _PI)),
    "I2": ("ive", 2, -15.0 / 8.0, 105.0 / 128.0, 1.0 / math.sqrt(2.0 * _PI)),
    "K1": ("kve", 1, 3.0 / 8.0, -15.0 / 128.0, math.sqrt(_PI / 2.0)),
}


def _bessel_vec(kind: str, x: np.ndarray) -> np.ndarray:
    from scipy import special
    name, order, c1, c2, front = _BESSEL_KINDS[kind]
    x = np.asarray(x, dtype=float)
    big = x > _BESSEL_ASYMPTOTIC
    # the expansion runs on the large elements only: at tiny x its powers
    # overflow.  scipy returns a numpy.float64 for a scalar x, hence asarray
    out = np.asarray(getattr(special, name)(order, np.where(big, 1.0, x)))
    xb = x[big]
    out[big] = front * xb ** -0.5 * (1.0 + (c1 + c2 / xb) / xb)
    return out


_i1e = functools.partial(_bessel_vec, "I1")
_i2e = functools.partial(_bessel_vec, "I2")
_k1e = functools.partial(_bessel_vec, "K1")


def bessel_scaled(kind: str, x: float) -> float:
    """e^{-x} I_nu(x) for kind "I1"/"I2", or e^{x} K_1(x) for kind "K1".

    Finite and positive for x from 1e-150 up.  Below that scipy's values
    leave the positive doubles: ive(2, x) is 0 below x ~ 1.8e-152 and
    ive(1, x) below 7.8e-305, and kve(1, x) is inf below 2.2e-305.  The
    scaling removes the e^{+-x} growth so products like I_2(a) K_1(b) can be
    reassembled as scaled-product times e^{a-b} without overflow.
    """
    if kind not in _BESSEL_KINDS:
        raise DomainError(f"unknown Bessel kind {kind!r}; expected I1, I2 or K1")
    _check_real(x, "x", "(0, inf)")
    return float(_bessel_vec(kind, x))


# ----------------------------------------------------------------------
# Lambert W.
# ----------------------------------------------------------------------

# Branch-point expansion W = sum mu_k p^k, p = sqrt(2 (e z + 1))
# (Corless et al. 1996, eq. 4.22).  Truncation error ~ |p|^8.
_MU = (-1.0, 1.0, -1.0 / 3.0, 11.0 / 72.0, -43.0 / 540.0,
       769.0 / 17280.0, -221.0 / 8505.0, 680863.0 / 43545600.0)

_HALLEY_MAX_ITER = 60

# Above this offset the seed t - log t + log t / t is the value (its error is
# O((log t / t)^2) < 1e-36); Halley's w * w overflows from d ~ 1.3e154 on.
_W_SEED_EXACT = 1e20


def _w_upper_from_offset(d) -> np.ndarray:
    """Upper-cut Lambert W at z = -e^{d-1}, parametrized by d = log(-z) + 1 >= 0.

    The branch with Im W in (0, pi) satisfies W + Log W = (d - 1) + i pi,
    which is solved entirely in the log domain so d (hence -z = e^{d-1}) may
    be any finite double without overflow.  d = 0 is the branch point.

    Below d = 3e-4 the branch-point series is the value, and above
    _W_SEED_EXACT the asymptotic seed is.  Elsewhere Halley refines a seed,
    and each element stops on its own: when its relative step falls below
    2e-16, or when the step no longer shrinks (the rounding floor, reached
    first near the branch point, where the update divides by W + 1 ~
    sqrt(2d)).  A stopped element is never updated again, so every
    value depends on its own d alone, not on the batch it arrives in.  An
    element still converging after _HALLEY_MAX_ITER steps raises
    ConvergenceError.
    """
    d = np.asarray(d, dtype=float)
    flat = d.ravel()
    W = np.empty(flat.shape, dtype=complex)
    near = flat < 0.5                    # seeds: the series, else the asymptote
    W[near] = _horner(_MU, 1j * np.sqrt(2.0 * np.expm1(flat[near])))
    t = flat[~near] - 1.0 + 1j * _PI
    lt = np.log(t)
    W[~near] = t - lt + lt / t
    target = flat - 1.0 + 1j * _PI
    last = np.full(flat.shape, np.inf)   # each element's previous step size
    active = np.flatnonzero(~((flat < 3e-4) | (flat > _W_SEED_EXACT)))
    for _ in range(_HALLEY_MAX_ITER):
        w = W[active]
        f = w + np.log(w) - target[active]
        fp = (w + 1.0) / w
        halley = f * (-1.0 / (w * w)) / (2.0 * fp)
        step = f / (fp - halley)
        w = w - step
        W[active] = w
        size = np.abs(step) / (1.0 + np.abs(w))
        done = (size < 2e-16) | (size >= last[active])
        last[active] = size
        active = active[~done]
        if not len(active):
            break
    else:
        worst = active[np.argmax(last[active])]
        raise ConvergenceError(
            f"Halley iteration for the upper-cut Lambert W at d = {flat[worst]!r} "
            f"still converging after {_HALLEY_MAX_ITER} steps",
            complex(W[worst]), float(last[worst]))
    return W.reshape(d.shape) if d.ndim else W


# ----------------------------------------------------------------------
# The polylogarithm on [0, 1].
# ----------------------------------------------------------------------

# The direct series runs on x <= 1/2, where term k is at most 2^{1-k} times
# the first: 57 terms leave a tail below 1e-17 relative for every order.
# The expansion about the unit argument runs on |mu| = t <= log 2, where
# |mu|^{k+1}/k! < 1e-19 from power k = 19 on.
_DIRECT_TERMS = 57
_EXPANSION_ORDER = 19
# The largest order whose tables hold doubles: the expansion divides by k!
# up to k = n + 1, and 171! overflows.
_MAX_POLYLOG_ORDER = 169


@functools.cache
def _direct_coefficients(n: int) -> tuple[float, ...]:
    """1/k^n of the defining series of Li_n, highest k first."""
    return tuple(1.0 / float(k) ** n for k in range(_DIRECT_TERMS, 0, -1))


@functools.cache
def _expansion_coefficients(n: int) -> tuple:
    """zeta(n), and the coefficients c_k / k! of the expansion of Li_n about
    the unit argument, highest power first (c_{n-1} = H_{n-1}, the rest
    zeta(n - k)).  Built on first use, so importing loads no scipy."""
    from scipy.special import zeta
    harmonic = math.fsum(1.0 / j for j in range(1, n))   # H_{n-1}
    return zeta(n), tuple((harmonic if k == n - 1 else zeta(n - k)) / math.factorial(k)
                          for k in range(max(n + 1, _EXPANSION_ORDER), -1, -1))


def _split_orders(orders: list[int]) -> tuple[list[int], list[int]]:
    """The row indices of order 1 (the log form), and those of the others."""
    return ([i for i, m in enumerate(orders) if m == 1],
            [i for i, m in enumerate(orders) if m > 1])


def _polylog_direct(orders: list[int], x: np.ndarray) -> np.ndarray:
    """Li_n(x) for 0 <= x <= 1/2, one row per order, from the defining
    series by one Horner pass over all rows; -log(1 - x) by log1p for
    n = 1."""
    out = np.empty((len(orders), len(x)))
    logs, series = _split_orders(orders)
    if logs:
        out[logs] = -np.log1p(-x)
    if series:
        table = np.array([_direct_coefficients(orders[i]) for i in series]).T
        out[series] = x * _horner(table[::-1, :, None], x)
    return out


def _polylog_exp_neg(n: int | Sequence[int], t):
    """Li_n(e^{-t}) for t >= 0, with the argument kept in the exponent.

    Callers integrating against e^{-pi x} tails pass t = pi x directly, so
    arguments exponentially close to 1 lose no precision to exp/log round
    trips.  t = 0 requires n >= 2 (Li_1 diverges there).  t may be a float,
    which gives a float, or an array, evaluated elementwise with a fixed
    number of terms per branch, so each value depends on its own t alone.

    n may also be a sequence of orders: the result then has one row per
    order, each holding the bits the order alone gives, from one Horner
    pass over all rows per branch (tables of unequal length start from
    leading zeros, which leave the sum unchanged).  Orders above 169 are
    refused: their tables overflow.
    """
    orders = list(n) if isinstance(n, Sequence) else [n]
    if any(m > _MAX_POLYLOG_ORDER for m in orders):
        raise DomainError(f"orders above {_MAX_POLYLOG_ORDER} are not tabulated, "
                          f"got {max(orders)}")
    ta = np.asarray(t, dtype=float)
    flat = ta.ravel()
    bad = flat[~(flat >= 0.0)]
    if len(bad):
        raise DomainError(f"need t >= 0, got {bad[0]!r}")
    direct = flat > math.log(2.0)
    out = np.empty((len(orders), len(flat)))
    logs, series = _split_orders(orders)
    if logs:
        if np.any(flat == 0.0):
            raise DivergenceError("Li_1(1) diverges")
        # -log(1 - x): expm1 keeps t << 1
        out[np.ix_(logs, ~direct)] = -np.log(-np.expm1(-flat[~direct]))
    if series:
        tables = [_expansion_coefficients(orders[i]) for i in series]
        out[series] = np.array([[zeta_n] for zeta_n, _ in tables])   # t = 0: zeta(n)
        # expansion in mu = log x = -t about the unit argument (DLMF
        # 25.12.12); converges for |mu| < 2 pi, fast for |mu| <= log 2.  The
        # k = n - 1 term carries (H_{n-1} - log t) in place of zeta(1).
        expand = ~direct & (flat > 0.0)
        if np.any(expand):
            width = max(len(c) for _, c in tables)
            table = np.array([(0.0,) * (width - len(c)) + c for _, c in tables]).T
            te = flat[expand]
            mu = -te
            acc = _horner(table[::-1, :, None], mu)
            log_te = np.log(te)
            for i, row in zip(series, acc):
                m = orders[i]
                out[i, expand] = row - mu ** (m - 1) / math.factorial(m - 1) * log_te
    out[:, direct] = _polylog_direct(orders, np.exp(-flat[direct]))
    if isinstance(n, Sequence):
        return out.reshape((len(orders),) + ta.shape)
    return float(out[0, 0]) if ta.ndim == 0 else out[0].reshape(ta.shape)


def polylog(n: int, x: float) -> float:
    """Polylogarithm Li_n(x) = sum_{k>=1} x^k / k^n for integer orders
    1 <= n <= 169 (the tables of higher orders overflow) and x in [0, 1].

    Direct summation in x itself below x = 1/2, so tiny x keeps full
    relative accuracy; from 1/2 on the expansion about x = 1 in powers of
    log x, which keeps full accuracy up to and including x = 1 (where the
    value is zeta(n)).  Li_1(1) diverges.
    """
    n = _check_int(n, "order", _MAX_POLYLOG_ORDER)
    _check_real(x, "x", "[0, 1]")
    if x < 0.5:
        return float(_polylog_direct([n], np.array([x]))[0, 0])
    return _polylog_exp_neg(n, -math.log(x))
