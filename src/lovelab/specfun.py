"""Special functions: complete elliptic integrals, exponentially scaled
modified Bessel functions, Lambert W (real branch and upper-cut limit), and
polylogarithms.

Conventions
-----------
* Elliptic integrals use the modulus k (not the parameter m = k^2):
  K(k) = int_0^{pi/2} dt / sqrt(1 - k^2 sin^2 t), likewise E(k).
* Bessel values are always exponentially scaled: e^{-x} I_nu(x) and
  e^{x} K_nu(x).  Unscaled values overflow long before the arguments this
  package feeds them (products of the form I_2(a) K_1(b) with a, b ~ 1e7),
  while the scaled product needs only one extra factor e^{a-b}.
* lambert_w is the real principal branch W_0 on [-1/e, inf).  For arguments
  below the branch point -1/e the function is complex; lambert_w_upper_cut
  returns the limit from above the cut, the branch with Im W in (0, pi).

What scipy.special serves is taken from it: K and E (ellipkm1, ellipe), the
scaled Bessel functions (ive, kve), W_0 (lambertw) and zeta(n) (zeta).  Kept
here is only what it cannot serve: the upper-cut W solved in the log domain
(offsets up to ~1e16), Li_n(e^{-t}) with the argument kept in the exponent,
the Bessel expansions above 1e8 (where ive and kve degrade), the dK/dr series
at small r (where the closed form cancels), and W's branch-point series.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import ellipe, ellipkm1, ive, kve, lambertw, zeta

from .errors import (BranchError, ConvergenceError, DivergenceError, DomainError,
                     PoleError)

__all__ = [
    "EllipticPair",
    "elliptic_ke",
    "elliptic_e",
    "elliptic_k_derivative",
    "bessel_scaled",
    "lambert_w",
    "lambert_w_upper_cut",
    "polylog",
]

_PI = math.pi
_INV_E = math.exp(-1.0)


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
    return ellipkm1(kc2), ellipe(k * k)


def elliptic_ke(k: float) -> EllipticPair:
    """Complete elliptic integrals (K, E) for modulus k in [0, 1).

    Accurate to ~1e-15 relative uniformly in k, including moduli
    exponentially close to 1.
    """
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"modulus must lie in [0, 1], got {k!r}")
    if k == 1.0:
        raise PoleError("K(k) has a logarithmic pole at k = 1; "
                        "use elliptic_e for E(1) = 1")
    K, E = _ke_vec(k, (1.0 - k) * (1.0 + k))
    return EllipticPair(k, float(K), float(E))


def elliptic_e(k: float) -> float:
    """E(k) alone; valid on the closed interval [0, 1] (E(1) = 1 exactly)."""
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"modulus must lie in [0, 1], got {k!r}")
    if k == 1.0:
        return 1.0
    return elliptic_ke(k).E


# dK/dr = (pi/2) sum 2n c_n^2 r^{2n-1} with c_n = binom(2n, n)/4^n.  The
# closed form below loses digits like 1/r^2 as r -> 0 (2.4e-13 relative at
# r = 0.05, 1.5e-14 at 0.2), so the series takes over below r = 0.2, where
# its first 12 terms leave a truncation below 1e-16 relative.
_DK_SWITCH = 0.2
_DK_SERIES = tuple(2 * n * (math.comb(2 * n, n) / 4.0 ** n) ** 2 for n in range(1, 13))


def _dk_small(r: np.ndarray) -> np.ndarray:
    r2 = r * r
    acc = np.zeros_like(r)
    for c in reversed(_DK_SERIES):
        acc = acc * r2 + c
    return (_PI / 2.0) * r * acc


def elliptic_k_derivative(r: float) -> float:
    """dK/dr = (E(r) - (1 - r^2) K(r)) / (r (1 - r^2)) for 0 < r < 1."""
    if not 0.0 < r < 1.0:
        raise DomainError(f"dK/dr needs 0 < r < 1, got {r!r}")
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


def _bessel_large(x: np.ndarray, c1: float, c2: float, front: float,
                  power: float) -> np.ndarray:
    return front * x ** power * (1.0 + (c1 + c2 / x) / x)


def _i1e(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    big = x > _BESSEL_ASYMPTOTIC
    out = ive(1, np.where(big, 1.0, x))
    return np.where(big, _bessel_large(x, -3.0 / 8.0, -15.0 / 128.0,
                                       1.0 / math.sqrt(2.0 * _PI), -0.5), out)


def _i2e(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    big = x > _BESSEL_ASYMPTOTIC
    out = ive(2, np.where(big, 1.0, x))
    return np.where(big, _bessel_large(x, -15.0 / 8.0, 105.0 / 128.0,
                                       1.0 / math.sqrt(2.0 * _PI), -0.5), out)


def _k1e(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    big = x > _BESSEL_ASYMPTOTIC
    out = kve(1, np.where(big, 1.0, x))
    return np.where(big, _bessel_large(x, 3.0 / 8.0, -15.0 / 128.0,
                                       math.sqrt(_PI / 2.0), -0.5), out)


_BESSEL_KINDS = {"I1": _i1e, "I2": _i2e, "K1": _k1e}


def bessel_scaled(kind: str, x: float) -> float:
    """e^{-x} I_nu(x) for kind "I1"/"I2", or e^{x} K_1(x) for kind "K1".

    Finite and positive for every positive double; the scaling removes the
    e^{+-x} growth so products like I_2(a) K_1(b) can be reassembled as
    scaled-product times e^{a-b} without overflow.
    """
    if kind not in _BESSEL_KINDS:
        raise DomainError(f"unknown Bessel kind {kind!r}; expected I1, I2 or K1")
    if not x > 0.0:
        raise DomainError(f"argument must be positive, got {x!r}")
    return float(_BESSEL_KINDS[kind](np.asarray(x, dtype=float)))


# ----------------------------------------------------------------------
# Lambert W.
# ----------------------------------------------------------------------

# Branch-point expansion W = sum mu_k p^k, p = sqrt(2 (e z + 1))
# (Corless et al. 1996, eq. 4.22).  Truncation error ~ |p|^8.
_MU = (-1.0, 1.0, -1.0 / 3.0, 11.0 / 72.0, -43.0 / 540.0,
       769.0 / 17280.0, -221.0 / 8505.0, 680863.0 / 43545600.0)

# Below this |p| the series is the value of W_0: no iteration, and as accurate
# as scipy's lambertw there (both are bound by W's conditioning ~1/p).
_P_SERIES = 0.025


def _w_branch_series(p):
    acc = np.zeros_like(p)
    for c in reversed(_MU):
        acc = acc * p + c
    return acc


# e as the two-double math.e + _E_LO, and math.e split into 26-bit halves
# (Veltkamp), so that _e_x_plus_one forms e x + 1 without rounding in the
# cancellation near the branch point (math.fma needs Python 3.13).
_E_LO = 1.4456468917292502e-16
_VELTKAMP = 134217729.0                  # 2^27 + 1


def _split(a: float) -> tuple[float, float]:
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


_E_HI, _E_HI_LO = _split(math.e)


def _e_x_plus_one(x: float) -> float:
    """e x + 1 for -1/e <= x < 0, to a few units of its own last place:
    Dekker's error-free product math.e * x, then the e - math.e term."""
    prod = math.e * x
    hi, lo = _split(x)
    err = ((_E_HI * hi - prod) + _E_HI * lo + _E_HI_LO * hi) + _E_HI_LO * lo
    return (prod + 1.0) + (err + _E_LO * x)


def lambert_w(x: float) -> float:
    """Principal real branch W_0: the solution of w e^w = x for x >= -1/e.

    scipy's lambertw, except at the branch point itself (-1, also for
    float(-1/e), where lambertw returns nan) and within |p| < _P_SERIES of
    it, where the series is the value.  p = sqrt(2 (e x + 1)) is formed from
    the exact e x + 1 of the double x, so the series keeps full relative
    precision right up to the branch point.  The round trip |W e^W - x|
    stays below 1e-13 max(1, |x|) over the whole branch.
    """
    if math.isnan(x):
        raise DomainError("lambert_w needs a real argument, got nan")
    if x < -_INV_E:
        raise BranchError(
            f"{x!r} is below the branch point -1/e; the principal branch is "
            "complex there (use lambert_w_upper_cut)")
    # distance above the branch point, scaled
    ex1 = _e_x_plus_one(x) if x < 0.0 else math.e * x + 1.0
    if ex1 <= 0.0:                  # x == -1/e up to rounding (float(-1/e) < -1/e)
        return -1.0
    p = math.sqrt(2.0 * ex1)
    if p < _P_SERIES:
        return float(_w_branch_series(np.float64(p)))
    return float(lambertw(x).real)


_HALLEY_MAX_ITER = 60


def _w_upper_from_offset(d) -> np.ndarray:
    """Upper-cut Lambert W at z = -e^{d-1}, parametrized by d = log(-z) + 1 >= 0.

    The branch with Im W in (0, pi) satisfies W + Log W = (d - 1) + i pi,
    which is solved entirely in the log domain so d (hence -z = e^{d-1}) may
    reach ~1e16 and beyond without overflow.  d = 0 is the branch point.

    Below d = 3e-4 the branch-point series is the value.  Elsewhere Halley
    refines a seed, and each element stops on its own: when its relative
    step falls below 2e-16, or when the step no longer shrinks (the rounding
    floor, reached first near the branch point, where the update divides by
    W + 1 ~ sqrt(2d)).  A stopped element is never updated again, so every
    value depends on its own d alone, not on the batch it arrives in.  An
    element still converging after _HALLEY_MAX_ITER steps raises
    ConvergenceError.
    """
    d = np.asarray(d, dtype=float)
    flat = d.ravel()
    W = np.empty(flat.shape, dtype=complex)
    tiny = flat < 3e-4
    W[tiny] = _w_branch_series(1j * np.sqrt(2.0 * np.expm1(flat[tiny])))
    rest = np.flatnonzero(~tiny)
    dr = flat[rest]
    near = dr < 0.5
    Wr = np.empty(dr.shape, dtype=complex)
    Wr[near] = _w_branch_series(1j * np.sqrt(2.0 * np.expm1(dr[near])))
    t = dr[~near] - 1.0 + 1j * _PI
    lt = np.log(t)
    Wr[~near] = t - lt + lt / t
    target = dr - 1.0 + 1j * _PI
    last = np.full(dr.shape, np.inf)     # each element's previous step size
    active = np.arange(len(dr))
    for _ in range(_HALLEY_MAX_ITER):
        w = Wr[active]
        f = w + np.log(w) - target[active]
        fp = (w + 1.0) / w
        halley = f * (-1.0 / (w * w)) / (2.0 * fp)
        step = f / (fp - halley)
        w = w - step
        Wr[active] = w
        size = np.abs(step) / (1.0 + np.abs(w))
        done = (size < 2e-16) | (size >= last[active])
        last[active] = size
        active = active[~done]
        if not len(active):
            break
    else:
        worst = active[np.argmax(last[active])]
        raise ConvergenceError(
            f"Halley iteration for the upper-cut Lambert W at d = {dr[worst]!r} "
            f"still converging after {_HALLEY_MAX_ITER} steps",
            complex(Wr[worst]), float(last[worst]))
    W[rest] = Wr
    return W.reshape(d.shape) if d.ndim else W


def lambert_w_upper_cut(x: float) -> complex:
    """Lambert W on the branch cut, approached from above: for x < -1/e the
    value lim_{eps -> 0+} W(x + i eps), the root of w e^w = x with
    Im w in (0, pi).

    Near the branch point the value follows the Puiseux series in
    sqrt(2(e x + 1)); elsewhere Halley iteration runs on the logarithmic
    form w + log w = log(-x) + i pi, which also serves arguments far beyond
    double-precision exponent range of -x on the linear scale.
    """
    if math.isnan(x):
        raise DomainError("lambert_w_upper_cut needs a real argument, got nan")
    if x >= -_INV_E:
        raise BranchError(
            f"{x!r} is not on the branch cut (needs x < -1/e); "
            "use lambert_w for the real principal branch")
    if -x < 1e300:
        d = math.log1p(-math.e * x - 1.0)   # log(-x) + 1, accurate near cut
    else:
        d = math.log(-x) + 1.0
    return complex(_w_upper_from_offset(max(d, 0.0))[0])


# ----------------------------------------------------------------------
# The polylogarithm on [0, 1].
# ----------------------------------------------------------------------

# The direct series runs on x = e^{-t} <= 1/2, where term k is at most
# 2^{1-k} times the first: 57 terms leave a tail below 1e-17 relative for
# every order.  The expansion about the unit argument runs on |mu| = t <=
# log 2, where |mu|^{k+1}/k! < 1e-19 from power k = 19 on.
_DIRECT_TERMS = 57
_EXPANSION_ORDER = 19


def _polylog_exp_neg(n: int, t):
    """Li_n(e^{-t}) for t >= 0, with the argument kept in the exponent.

    Callers integrating against e^{-pi x} tails pass t = pi x directly, so
    arguments exponentially close to 1 lose no precision to exp/log round
    trips.  t = 0 requires n >= 2 (Li_1 diverges there).  t may be a float,
    which gives a float, or an array, evaluated elementwise with a fixed
    number of terms per branch, so each value depends on its own t alone.
    """
    ta = np.asarray(t, dtype=float)
    flat = ta.ravel()
    bad = flat[~(flat >= 0.0)]
    if len(bad):
        raise DomainError(f"need t >= 0, got {bad[0]!r}")
    direct = flat > math.log(2.0)
    x = np.exp(-flat[direct])
    if n == 1:
        if np.any(flat == 0.0):
            raise DivergenceError("Li_1(1) diverges")
        # -log(1 - x): log1p keeps x = e^{-t} << 1, expm1 keeps t << 1
        out = np.empty_like(flat)
        out[direct] = -np.log1p(-x)
        out[~direct] = -np.log(-np.expm1(-flat[~direct]))
    else:
        out = np.full(flat.shape, zeta(n))      # t = 0: zeta(n)
        # direct series in x = e^{-t} <= 1/2, by Horner
        acc = np.zeros_like(x)
        for k in range(_DIRECT_TERMS, 0, -1):
            acc = (acc + 1.0 / float(k) ** n) * x
        out[direct] = acc
        # expansion in mu = log x = -t about the unit argument (DLMF
        # 25.12.12); converges for |mu| < 2 pi, fast for |mu| <= log 2.  The
        # k = n - 1 term carries (H_{n-1} - log t) in place of zeta(1).
        expand = ~direct & (flat > 0.0)
        if np.any(expand):
            te = flat[expand]
            mu = -te
            harmonic = math.fsum(1.0 / j for j in range(1, n))   # H_{n-1}
            acc = np.zeros_like(mu)
            for k in range(max(n + 1, _EXPANSION_ORDER), -1, -1):
                c = harmonic if k == n - 1 else zeta(n - k)
                acc = acc * mu + c / math.factorial(k)
            out[expand] = acc - mu ** (n - 1) / math.factorial(n - 1) * np.log(te)
    return float(out[0]) if ta.ndim == 0 else out.reshape(ta.shape)


def polylog(n: int, x: float) -> float:
    """Polylogarithm Li_n(x) = sum_{k>=1} x^k / k^n for n >= 1, x in [0, 1].

    Direct summation for x <= 1/2; for x > 1/2 the expansion about x = 1 in
    powers of log x, which keeps full accuracy up to and including x = 1
    (where the value is zeta(n)).  Li_1(1) diverges.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"order must be an integer >= 1, got {n!r}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"argument must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if n == 1:
        if x == 1.0:
            raise DivergenceError("Li_1(1) diverges")
        return -math.log1p(-x)
    if x == 1.0:
        return float(zeta(n))
    return _polylog_exp_neg(n, -math.log(x))
