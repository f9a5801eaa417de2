"""Integration engines: Gauss-Legendre rules, tanh-sinh (double-exponential)
quadrature for endpoint singularities, a composite Gauss panel sum, and
least-squares extraction of constants from logarithmically growing integrals.

Integrands are called with numpy arrays of abscissae.  An integrand returns
either one value per abscissa or an (m, len(x)) array, one row for each of m
integrals sharing those abscissae; the engine then returns m values, and
whatever the rows have in common is evaluated once per abscissa.

Tanh-sinh integrates on (0, 1) only, and each caller maps its interval or
half-line there; every identity integral of the suite is one tanh-sinh
integral.  Tanh-sinh is one fixed rule: it calls its integrand once, on the
297 abscissae of levels 0-5, and raises ConvergenceError for a row that
levels 4 and 5 still move; every identity of the suite converges there.  A
panel sum makes one call too.  Sums are formed per level and per panel from
their own values, so results keep their bits provided a value depends on
its own abscissa alone, as every integrand here does.  The abscissae and
weights of each tanh-sinh level are built once, as read-only tables, and so
are the rule's joined abscissae and level slices; a level's sums over all
rows are one stacked matmul, which numpy takes by the BLAS dot of np.dot,
so each sum has the bits of a per-row dot.  No package code calls the
panel sum; it is an independent second rule for checking tanh-sinh
integrals.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConditioningError, ConvergenceError, DomainError, _check_int

__all__ = [
    "QuadratureRule",
    "LogTailFit",
    "gauss_legendre",
    "fit_log_tail",
]

_PI = math.pi


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an n-point rule on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray

    def mapped(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """Affinely map the rule onto (a, b); column arrays of a and b give
        one row of nodes and weights per interval."""
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return mid + half * self.nodes, half * self.weights


@dataclass(frozen=True)
class LogTailFit:
    """Result of fitting c1 log X + c0 to cumulative samples."""

    c1: float
    c0: float
    residual: float


# ----------------------------------------------------------------------
# Gauss-Legendre rules (Newton iteration on P_n, cached per n).
# ----------------------------------------------------------------------

def _recurrence(p0, p1, z: np.ndarray, order: int):
    """p_0 .. p_{order-1} of the Legendre recurrence (k + 1) p_{k+1} =
    (2k + 1) z p_k - k p_{k-1}, started from the arrays p_0 and p_1, one
    array per k in turn.  The Gauss rules keep the last two, P_{n-1} and
    P_n, so a rule of n up to 10000 holds two arrays, not n; the solver's
    panel tables and Cauchy moments stack all of them, one column per k."""
    yield p0
    yield p1
    for k in range(1, order - 1):
        p0, p1 = p1, ((2 * k + 1) * z * p1 - k * p0) / (k + 1)
        yield p1


def _legendre_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1)."""
    p0, p1 = collections.deque(_recurrence(np.ones_like(x), x, x, n + 1), maxlen=2)
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@functools.cache
def _build_rule(n: int) -> QuadratureRule:
    # asymptotic initial guesses for the roots of P_n, then Newton
    k = np.arange(1, n + 1, dtype=float)
    x = np.cos(_PI * (k - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    # symmetrize: average mirrored nodes to kill one-sided rounding
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return QuadratureRule(x, w)


def gauss_legendre(n: int) -> QuadratureRule:
    """The n-point Gauss-Legendre rule on (-1, 1), exact through degree 2n-1.

    Each rule is built once per n and cached.
    """
    return _build_rule(_check_int(n, "rule size", 10000))


# ----------------------------------------------------------------------
# Gauss panels.
# ----------------------------------------------------------------------

def _panel_sum(f: Callable[[np.ndarray], np.ndarray],
               edges: Sequence[float]) -> float | np.ndarray:
    """Composite 16-point Gauss-Legendre sum over consecutive panels.

    The abscissae of all panels form one (panels, 16) array, and the
    integrand sees them in a single call (flattened, panel after panel).
    Each panel's weighted sum is formed on its own row, and one
    np.add.accumulate adds the panel sums in edge order, one after the
    other, as a loop over the panels would.  A float, or an array of m
    values for an integrand of m rows.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = gauss_legendre(16).mapped(edges[:-1, None], edges[1:, None])
    fx = np.asarray(f(x.ravel()))
    parts = np.sum(w * fx.reshape(fx.shape[:-1] + x.shape), axis=-1)
    total = np.add.accumulate(parts, axis=-1)[..., -1]
    return float(total) if fx.ndim == 1 else total


# ----------------------------------------------------------------------
# tanh-sinh quadrature.
# ----------------------------------------------------------------------

_TS_TMAX = 6.1
_TS_DEPTH = 5           # the rule's last level: levels 0-5 hold 297 abscissae
_TOL = 1e-13            # relative tolerance of every tanh-sinh integral here


@functools.cache
def _ts_level(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only abscissae and weights that tanh-sinh level `level` adds on
    (0, 1): the midpoint (level 0 only), then the new nodes near 0, at their
    distances s from it, then those near 1, at 1 - s.  A node whose weight
    underflows is left out, and so is a node near 1 whose 1 - s rounds to
    1; no node near 0 is, since a positive weight has a positive s."""
    h = 0.5 ** level
    k = np.arange(1, int(math.floor(_TS_TMAX / h)) + 1)
    if level:
        k = k[k % 2 == 1]
    t = k * h
    u = 0.5 * _PI * np.sinh(t)
    q = np.exp(-2.0 * u)                    # underflows harmlessly to 0
    s = q / (1.0 + q)                       # distance from the endpoint
    w = 2.0 * _PI * np.cosh(t) * q / (1.0 + q) ** 2
    keep = w > 0.0
    s, w = s[keep], w[keep]
    right = 1.0 - s < 1.0
    x0, w0 = ([0.5], [0.5 * _PI]) if level == 0 else ([], [])
    tables = (np.concatenate([x0, s, 1.0 - s[right]]),
              np.concatenate([w0, w, w[right]]))
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.cache
def _ts_rule() -> tuple[np.ndarray, tuple[tuple[slice, np.ndarray], ...], np.ndarray]:
    """The fixed rule's constants, built once from the _ts_level tables: the
    abscissae of levels 0-5 in turn, as one read-only array; each level's
    slice of it, with its weights as an (n, 1) column; and the (levels, 1)
    column of half steps h/2 that scale the accumulated level sums."""
    tables = [_ts_level(level) for level in range(_TS_DEPTH + 1)]
    x = np.concatenate([xj for xj, _ in tables])
    x.flags.writeable = False
    ends = np.cumsum([len(xj) for xj, _ in tables])
    levels = tuple((slice(end - len(wj), end), wj[:, None])
                   for (_, wj), end in zip(tables, ends))
    half_steps = (0.5 * 0.5 ** np.arange(_TS_DEPTH + 1))[:, None]
    half_steps.flags.writeable = False
    return x, levels, half_steps


def _tanh_sinh(f: Callable[[np.ndarray], np.ndarray]
               ) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Double-exponential quadrature on (0, 1), one fixed rule.

    Nodes near the endpoints are generated as exact distances s from 0 or 1
    (s = e^{-2u}/(1 + e^{-2u}) with u = (pi/2) sinh t), so integrands with
    integrable endpoint singularities receive cancellation-free abscissae.
    A node whose 1 - s rounds to 1 is dropped; its weight is below double
    precision for any integrable singularity.  f is called once, on the
    nodes of levels 0-5, level after level (level 0 also takes the
    midpoint).  Each level's weighted sum is formed from its own values, so
    a row's result does not depend on the rows it shares f with, as long
    as a value of f depends on its own abscissa alone.

    A row converges when levels 4 and 5 both change its value by less than
    _TOL (relative to max(1, |I|)).  Returns (value, error estimate) of
    level 5, as floats or, for an integrand of m rows, as arrays of m
    values; raises ConvergenceError, carrying level 5's value and change of
    the first row that missed.
    """
    x, levels, half_steps = _ts_rule()
    fx = np.asarray(f(x))
    rows = fx.reshape(-1, len(x))
    # one stacked vector-vector matmul per level: numpy takes each row's
    # sum by the BLAS ddot that np.dot(wj, row[part]) calls, so every row
    # keeps the bits of a per-row dot (a matrix-vector product does not)
    sums = [np.matmul(rows[:, None, part], wj)[:, 0, 0] for part, wj in levels]
    values = half_steps * np.add.accumulate(sums)
    steps = np.abs(np.diff(values[-3:], axis=0))    # levels 4 and 5's changes
    value, scale = values[-1], np.maximum(1.0, np.abs(values[-1]))
    missed = np.flatnonzero(~(steps < _TOL * scale).all(axis=0))
    if missed.size:
        row = int(missed[0])
        where = "" if fx.ndim == 1 else f", row {row}"
        raise ConvergenceError(
            f"tanh-sinh on (0, 1){where} missed tolerance {_TOL:g} at level {_TS_DEPTH}",
            float(value[row]), float(steps[-1, row]))
    error = np.maximum(steps[-1], 4e-16 * scale)
    return (float(value[0]), float(error[0])) if fx.ndim == 1 else (value, error)


# ----------------------------------------------------------------------
# Least squares: log-tail fitting, and the gate every fit here shares.
# ----------------------------------------------------------------------

def _lstsq(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of y on the columns of design, and the rms
    residual.  A design of deficient rank, or whose singular values span
    more than 13 decades, raises ConditioningError: its coefficients are
    not determined by the data."""
    coef, _, rank, sv = np.linalg.lstsq(design, y, rcond=None)
    with np.errstate(all="ignore"):             # a zero singular value
        ratio = sv[0] / sv[-1]
    if rank < design.shape[1] or ratio > 1e13:
        raise ConditioningError(f"design matrix ill-conditioned (rank {rank} of "
                                f"{design.shape[1]}, sv ratio {ratio:.2e})")
    return coef, float(np.sqrt(np.mean((y - design @ coef) ** 2)))


def fit_log_tail(samples: Iterable[tuple[float, float]]) -> LogTailFit:
    """Least-squares fit of c1 log X + c0 to (X, value) samples.

    The constant c0 is the quantity of interest (the extracted limit of a
    logarithmically growing cumulative integral).  Needs at least four
    samples spanning two decades in X; equal weights.
    """
    pts = [(float(x), float(v)) for x, v in samples]
    if len(pts) < 4:
        raise DomainError(f"need at least 4 samples, got {len(pts)}")
    xs, ys = np.array(pts).T
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise DomainError("samples must be finite")
    if np.any(xs <= 0.0):
        raise DomainError("sample abscissae must be positive")
    if np.max(xs) / np.min(xs) < 99.0:
        raise DomainError("samples must span at least two decades in X")
    lx = np.log(xs)
    (c1, c0), residual = _lstsq(np.column_stack([lx, np.ones_like(lx)]), ys)
    return LogTailFit(c1=float(c1), c0=float(c0), residual=residual)
