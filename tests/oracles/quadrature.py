"""The adaptive tanh-sinh rule that lovelab's fixed rule is cut from: the
same nested levels on (0, 1), refined one level and one integrand call at a
time until a row converges, up to level 12.

Up to level 5 it is ``lovelab.quadrature._tanh_sinh`` in its plainest form,
so it pins that rule's bits and its ConvergenceError; past level 5 it takes
the integrals that the fixed rule refuses (the j_split oracle's outer
integral at eps = 1e-4 converges at level 6).
"""

from __future__ import annotations

import math

import numpy as np

from lovelab.errors import ConvergenceError
from lovelab.quadrature import _TOL, _TS_DEPTH, _TS_TMAX

_MAX_LEVEL = 12


def level_by_level_tanh_sinh(f, first=_TS_DEPTH, last=_MAX_LEVEL):
    """The nested tanh-sinh rule on (0, 1) with one integrand call per
    level.  Level j adds the nodes t = k 2^-j for odd k (every k at level 0,
    plus the midpoint), at s and 1 - s, each kept if it lies inside (0, 1).
    A row converges at the first level from `first` on whose last two
    refinements both change its value by less than _TOL (relative to
    max(1, |I|)), and keeps that level's value; with `first` at 5, an
    integral that converges there has _tanh_sinh's bits.  Returns
    ((value, error), the abscissae of each level); raises ConvergenceError,
    with the value and the change at level `last` of the first row that
    missed, if level `last` gets there first."""
    xs, history = [], []
    raw = ndim = done = best = error = value = None
    for level in range(last + 1):
        h = 0.5 ** level
        k = np.arange(1, int(math.floor(_TS_TMAX / h)) + 1)
        if level:
            k = k[k % 2 == 1]
        t = k * h
        q = np.exp(-2.0 * (0.5 * math.pi * np.sinh(t)))
        s = q / (1.0 + q)
        w = 2.0 * math.pi * np.cosh(t) * q / (1.0 + q) ** 2
        s, w = s[w > 0.0], w[w > 0.0]
        xl, xr = s, 1.0 - s
        lok, rok = xl > 0.0, xr < 1.0
        x = np.concatenate([[0.5] if level == 0 else [], xl[lok], xr[rok]])
        w = np.concatenate([[0.5 * math.pi] if level == 0 else [], w[lok], w[rok]])
        xs.append(x)
        fx = np.asarray(f(x))
        ndim = fx.ndim
        part = np.array([np.dot(w, row) for row in fx.reshape(-1, len(x))])
        raw = part if raw is None else raw + part
        value = 0.5 * h * raw
        history.append(value)
        if level == 0:
            best, error = value.copy(), np.zeros_like(value)
            done = np.zeros(value.shape, dtype=bool)
        if level >= first:
            scale = np.maximum(1.0, np.abs(value))
            d1 = np.abs(history[-1] - history[-2])
            d2 = np.abs(history[-2] - history[-3])
            now = ~done & (d1 < _TOL * scale) & (d2 < _TOL * scale)
            best[now] = value[now]
            error[now] = np.maximum(d1, 4e-16 * scale)[now]
            done |= now
            if done.all():
                result = (float(best[0]), float(error[0])) if ndim == 1 else (best, error)
                return result, xs
    row = int(np.flatnonzero(~done)[0])
    raise ConvergenceError(f"level cap {last}", float(value[row]),
                           float(abs(history[-1][row] - history[-2][row])))
