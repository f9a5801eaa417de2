"""Special functions: complete elliptic integrals, Lambert W (upper-cut
limit), and polylogarithms.

Conventions
-----------
* Elliptic integrals use the modulus k (not the parameter m = k^2):
  K(k) = int_0^{pi/2} dt / sqrt(1 - k^2 sin^2 t), likewise E(k).  K, E,
  dK/dk and k3 = 2 r^2 E(1/r) + (1 - 2 r^2) K(1/r) each have one path, and
  each takes the complementary parameter 1 - k^2 from its caller, who
  forms it without cancellation.  dK/dk and k3 are the two primitives
  every elliptic combination of the third-moment chain is built from.
* Lambert W is evaluated on one branch: the limit from above the cut at
  z = -e^{d-1}, Im W in (0, pi), given the offset d = log(-z) + 1 >= 0 that
  its callers form (d = 0 is the branch point -1/e).

What scipy.special serves is taken from it: K and E (ellipkm1, ellipe) and
the zeta values of the polylogarithm tables (zeta).  Kept here is only what
it cannot serve: the upper-cut W solved in the log domain (every finite
offset), Li_n(e^{-t}) with the argument kept in the exponent, the dK/dk and
k3 series at small k (where their closed forms cancel), and W's
branch-point series.

Every function here is private and vectorized: the package publishes no
special function, and its callers (the outer integrand of asymptotics, the
integrands of capacitor2d and conjectures) pass arrays.

scipy.special is imported by the functions that use it, on first call, so
importing lovelab, solving and fitting never load scipy; only the identity
suite (`verify`) does.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, _orders

__all__: list[str] = []

_PI = math.pi


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


# The two elliptic primitives of the third-moment chain, dK/dk and k3, each
# switch from a closed form to a power series where the closed form cancels
# like 1/k^2.  From K = (pi/2) sum c_n^2 k^{2n}, E = (pi/2) sum c_n^2
# k^{2n}/(1 - 2n), c_n = binom(2n, n)/4^n:
#   dK/dk = (pi/2) sum_{n>=1} 2n c_n^2 k^{2n-1}: the closed form is 2.4e-13
#     off at k = 0.05 and 3e-15 at 0.4, below which 21 terms leave < 3e-17;
#   k3 = -(pi/2) k^2 sum_{j>=0} c_{j+1}^2 (j+1)/(j+2) k^{2j}: the closed
#     form is 2.3e-11 off at k = 0.1 and within 1e-14 at k = 1/1.4, below
#     which 60 terms, all negative, leave < 1e-17.
_C_SQUARED = [(math.comb(2 * n, n) / 4.0 ** n) ** 2 for n in range(1, 61)]
_DK_SWITCH = 0.4
_DK_SERIES = tuple(2 * n * c for n, c in enumerate(_C_SQUARED[:21], 1))
_K_SERIES_SWITCH = 1.4
_K3_SERIES = tuple(-(_PI / 2.0) * c * (j + 1) / (j + 2) for j, c in enumerate(_C_SQUARED))


def _horner(coefficients, x):
    """sum_k coefficients[k] x^k, elementwise, by Horner's rule.  A (terms,
    rows, 1) table of coefficients gives one row per table column.  The
    steps run in place on one accumulator: the same operations, so the
    same bits, without a new array per term."""
    acc = np.zeros(np.broadcast_shapes(np.shape(coefficients[0]), np.shape(x)),
                   dtype=np.result_type(x, coefficients[0]))
    for c in reversed(coefficients):
        acc *= x
        acc += c
    return acc


def _dk_vec(k: np.ndarray, kc2: np.ndarray) -> np.ndarray:
    """dK/dk = (E(k) - (1 - k^2) K(k)) / (k (1 - k^2)) elementwise for k in
    (0, 1), with kc2 = 1 - k^2 formed by the caller, as for _ke_vec; the
    series below k = 0.4, where the closed form cancels."""
    out = np.empty_like(k)
    small = k < _DK_SWITCH
    ks = k[small]
    out[small] = (_PI / 2.0) * ks * _horner(_DK_SERIES, ks * ks)
    big = ~small
    if np.any(big):
        kb, kc2b = k[big], kc2[big]
        K, E = _ke_vec(kb, kc2b)
        out[big] = (E - kc2b * K) / (kb * kc2b)
    return out


def _k3(s: np.ndarray, kc2: np.ndarray) -> np.ndarray:
    """k3 = 2 r^2 E(1/r) + (1 - 2 r^2) K(1/r) at r = 1/s, elementwise for s
    in (0, 1), with kc2 = 1 - s^2 formed by the caller, as for _ke_vec: the
    series in s^2 below s = 1/1.4, the closed form (2 E(s) - (1 + kc2) K(s))
    / s^2 above."""
    out = np.empty_like(s)
    series = s < 1.0 / _K_SERIES_SWITCH
    s2 = s[series] ** 2
    out[series] = s2 * _horner(_K3_SERIES, s2)
    closed = ~series
    if np.any(closed):
        sc, kc2c = s[closed], kc2[closed]
        K, E = _ke_vec(sc, kc2c)
        out[closed] = (2.0 * E - (1.0 + kc2c) * K) / (sc * sc)
    return out


# ----------------------------------------------------------------------
# Lambert W.
# ----------------------------------------------------------------------

# Branch-point expansion W = sum mu_k p^k, p = sqrt(2 (e z + 1)) = i sqrt(2
# expm1(d)) on the upper cut (Corless et al. 1996, eqs. 4.22-4.24): mu_0 = -1,
# mu_1 = 1, alpha_0 = 2, alpha_1 = -1, and for k >= 2
#   alpha_k = sum_{j=2}^{k-1} mu_j mu_{k+1-j},
#   mu_k = (k-1)/(k+1) (mu_{k-2}/2 + alpha_{k-2}/4) - alpha_k/2 - mu_{k-1}/(k+1),
# rounded from exact fractions (the tests rebuild them).  The radius is
# |p| = sqrt(2); below _W_SERIES_MAX, |p|/sqrt(2) < 0.15 and the 24 terms
# leave a truncation below 1e-19, so the series is the value there.  Its
# first _W_SEED_TERMS terms seed Halley up to d = _W_ASYMPTOTE_SEED.
_MU = (-1.0, 1.0, -0.3333333333333333, 0.1527777777777778, -0.07962962962962963,
       0.044502314814814814, -0.02598471487360376, 0.01563563253233392,
       -0.009616892024299432, 0.006014543252956118, -0.0038112980348919993,
       0.0024408779911439826, -0.0015769303446867841, 0.0010262633205076071,
       -0.0006720616311561362, 0.0004424730618146209, -0.00029267722472962746,
       0.00019438727605453933, -0.00012957426685274883, 8.665035805208128e-05,
       -5.811360750441382e-05, 3.907668486743905e-05, -2.63380647472311e-05,
       1.7790345805079586e-05)
_W_SERIES_MAX = 0.02
_W_SEED_TERMS = 8
_W_ASYMPTOTE_SEED = 0.5
# With p = i q, q^2 = 2 expm1(d), the series splits into two real ones in
# q^2: W = sum_j (-1)^j mu_2j q^2j + i q sum_j (-1)^j mu_2j+1 q^2j, whose
# coefficients are the rows of this (terms / 2, 2, 1) table.
_MU_TABLE = (np.array(_MU).reshape(-1, 2)
             * (-1.0) ** np.arange(len(_MU) // 2)[:, None])[:, :, None]

# From the seeds, three Halley steps reach the rounding floor on all of
# [_W_SERIES_MAX, _W_SEED_EXACT] (two leave 5.5e-6 at d = 0.5); a relative
# residual above _W_RESIDUAL_TOL after them raises ConvergenceError.
_HALLEY_STEPS = 3
_W_RESIDUAL_TOL = 1e-14

# Above this offset the seed t - log t + log t / t is the value (its error is
# O((log t / t)^2) < 1e-36); Halley's w * w overflows from d ~ 1.3e154 on.
_W_SEED_EXACT = 1e20


def _log(w: np.ndarray) -> np.ndarray:
    """The principal complex log, as log|w| + i arg w: the same branch as
    np.log, in a fraction of its time."""
    out = np.log(np.abs(w)).astype(complex)
    out.imag = np.arctan2(w.imag, w.real)
    return out


def _branch_point_series(d: np.ndarray, terms: int) -> np.ndarray:
    """The first `terms` terms of the branch-point series at offsets d."""
    q2 = 2.0 * np.expm1(d)
    re, im = _horner(_MU_TABLE[:terms // 2], q2)
    out = re.astype(complex)
    out.imag = np.sqrt(q2) * im
    return out


def _w_upper_from_offset(d) -> np.ndarray:
    """Upper-cut Lambert W at z = -e^{d-1}, parametrized by d = log(-z) + 1 >= 0.

    The branch with Im W in (0, pi) satisfies W + Log W = (d - 1) + i pi,
    which is solved entirely in the log domain so d (hence -z = e^{d-1}) may
    be any finite double without overflow.  d = 0 is the branch point.

    Below d = 0.02 the 24-term branch-point series is the value, and above
    _W_SEED_EXACT the asymptote t - log t + log t / t (t = d - 1 + i pi) is.
    In between, exactly three Halley steps run on the whole slice, from the
    8-term series below d = 0.5 and from the asymptote above it.  Every
    element takes the same operations, so each value depends on its own d
    alone, not on the batch it arrives in.  An element whose residual
    |W + log W - (d - 1 + i pi)| / (1 + |W|) exceeds 1e-14 after the third
    step raises ConvergenceError, so no unconverged value is returned.
    """
    d = np.asarray(d, dtype=float)
    flat = d.ravel()
    W = np.empty(flat.shape, dtype=complex)
    series = flat < _W_SERIES_MAX
    W[series] = _branch_point_series(flat[series], len(_MU))
    far = flat >= _W_ASYMPTOTE_SEED
    t = flat[far] - 1.0 + 1j * _PI
    lt = _log(t)
    W[far] = t - lt + lt / t
    halley = ~(series | (flat > _W_SEED_EXACT))
    near = halley & ~far
    W[near] = _branch_point_series(flat[near], _W_SEED_TERMS)
    w = W[halley]
    target = flat[halley] - 1.0 + 1j * _PI
    for _ in range(_HALLEY_STEPS):
        # Halley on g = w + log w - target, g' = (w + 1)/w, g'' = -1/w^2
        f = w + _log(w) - target
        wp = w + 1.0
        w = w - 2.0 * f * wp * w / (2.0 * wp * wp + f)
    residual = np.abs(w + _log(w) - target) / (1.0 + np.abs(w))
    missed = np.flatnonzero(~(residual <= _W_RESIDUAL_TOL))
    if len(missed):
        worst = missed[np.argmax(residual[missed])]     # a NaN residual is the worst
        raise ConvergenceError(
            f"Halley iteration for the upper-cut Lambert W at "
            f"d = {float(flat[halley][worst])!r} missed residual {_W_RESIDUAL_TOL:g} "
            f"after {_HALLEY_STEPS} steps", complex(w[worst]), float(residual[worst]))
    W[halley] = w
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
# The highest order any caller takes (phi_prime_polylog_integral's cap).
_MAX_POLYLOG_ORDER = 7


@functools.lru_cache(maxsize=64)
def _polylog_tables(orders: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Read-only tables of Li_n, one column per order n in orders: the
    (terms, orders, 1) coefficients 1/(k + 1)^n of the defining series and
    c_k / k! of the expansion about the unit argument on powers 0..19
    (c_{n-1} = H_{n-1}, the rest zeta(n - k)), lowest power first, and the
    (orders, 1) columns n - 1 and (n - 1)! of its log t term.  Built on
    first use, so importing loads no scipy."""
    from scipy.special import zeta
    direct = [[1.0 / float(k) ** n for n in orders] for k in range(1, _DIRECT_TERMS + 1)]
    expansion = [[(math.fsum(1.0 / j for j in range(1, n)) if k == n - 1 else zeta(n - k))
                  / math.factorial(k) for n in orders] for k in range(_EXPANSION_ORDER + 1)]
    tables = (np.array(direct)[:, :, None], np.array(expansion)[:, :, None],
              np.array(orders, dtype=float)[:, None] - 1.0,
              np.array([float(math.factorial(n - 1)) for n in orders])[:, None])
    for table in tables:
        table.flags.writeable = False
    return tables


def _polylog_exp_neg(n: Sequence[int], t) -> np.ndarray:
    """Li_m(e^{-t}) for each order m in n and t >= 0, with the argument
    kept in the exponent: one row per order, each of t's shape.

    Callers integrating against e^{-pi x} tails pass t = pi x directly, so
    arguments exponentially close to 1 lose no precision to exp/log round
    trips.  t = 0 gives zeta(m) from the same table as every other t, and
    requires m >= 2 (Li_1 diverges there).  t is evaluated elementwise with
    a fixed number of terms per branch, so each value depends on its own t
    alone, and each row holds the bits its order alone gives: one Horner
    pass runs over all rows per branch, on the tables _polylog_tables builds
    once per set of orders, and the log t term is one broadcast over the
    orders, with pow on the rows of power 2 and up only (mu^0 and mu^1 are
    pow's own 1.0 and mu).  Every order must be an integer in [1, 7]
    (errors._orders), the most any caller takes.
    """
    orders = tuple(_orders(n, "order", _MAX_POLYLOG_ORDER))
    ta = np.asarray(t, dtype=float)
    flat = ta.ravel()
    bad = flat[~(flat >= 0.0)]
    if len(bad):
        raise DomainError(f"need t >= 0, got {bad[0]!r}")
    if 1 in orders and np.any(flat == 0.0):
        raise DomainError("Li_1(1) diverges")
    direct_table, expansion_table, power, factorial = _polylog_tables(orders)
    direct = flat > math.log(2.0)
    expand = ~direct
    out = np.empty((len(orders), len(flat)))
    # expansion in mu = log x = -t about the unit argument (DLMF 25.12.12);
    # converges for |mu| < 2 pi, fast for |mu| <= log 2.  The k = n - 1 term
    # carries (H_{n-1} - log t) in place of zeta(1).  log t is taken as 0 at
    # t = 0, where Horner returns c_0 = zeta(n) exactly.
    te = flat[expand]
    mu = -te
    log_te = np.log(te, out=np.zeros_like(te), where=te > 0.0)
    mu_power = np.where(power == 0.0, 1.0, mu)
    high = power[:, 0] >= 2.0
    mu_power[high] = mu ** power[high]
    out[:, expand] = _horner(expansion_table, mu) - mu_power / factorial * log_te
    x = np.exp(-flat[direct])
    out[:, direct] = x * _horner(direct_table, x)
    return out.reshape((len(orders),) + ta.shape)
