"""Nystrom solver for the Love integral equation

    f(x) - (kappa/pi) int_{-1}^{1} f(y) / ((x - y)^2 + kappa^2) dy = v0

on [-1, 1], and the physical observables built from the moments of f:
capacitance, dimensionless coupling and ground-state energy per particle.

The kernel is a Lorentzian of width kappa, but the solution f is smooth:
its singularities sit at x = +-1 + i m kappa, off the interval ends.  So
the mesh resolves f, not the kernel.  f is even, and it is held on [0, 1]
in the distance d = 1 - |x| from the edge, on Gauss panels with edges 0,
3 kappa/4, 3 kappa/2, 3 kappa, ... below d = 1/2 and uniform panels of
width at most 1/3 above, graded so that each panel sees those
singularities on or outside one Bernstein ellipse: O(log 1/kappa) panels,
192 unknowns at kappa = 1e-3.

The kernel is a Cauchy kernel, k(x - y) = (1/pi) Im 1/(y - x - i kappa),
so the weights that integrate the panel interpolant of f exactly against
k(x - y) + k(x + y) (product integration) come from the Legendre moments
of 1/(u - z) on each panel.  One rows builder, _rows, maps any targets to
these weights; the system matrix and the defect check both use it.  A
solve makes one _rows call, on its nodes followed by its defect-check
midpoints, and slices the system rows and the check rows from it; _rows
lays its far field out with the targets innermost, so its elementwise
loops run along the targets, and builds its mid and near fields with one
BLAS product each, or not at all where no panel can hold a pair close
enough to need them.  A dense solve of (I - W) f = v0 is refined once
with the residual of the subtracted form
    leak_i f_i + sum_j W_ij (f_i - f_j) = v0,
whose leak 1 - int k is exact, so the large near-diagonal weights at small
kappa act on differences of f only.  The solver's floor is kappa >= 1e-3
(_KAPPA_MIN), checked before any weight is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError, WindowError, _check_int, _check_real
from .quadrature import _lstsq, _recurrence, gauss_legendre

__all__ = [
    "LoveProblem",
    "LoveSolution",
    "EnergyPoint",
    "GAS_POTENTIAL",
    "default_node_count",
    "solve_love",
    "moments",
    "observables",
    "weak_coupling_fit",
]

_PI = math.pi

#: Right-hand side for the gas problem; the capacitor normalization is v0 = 1.
GAS_POTENTIAL = 1.0 / (2.0 * _PI)

_KAPPA_MIN = 1e-3
_RESIDUAL_TOL = 1e-8
_MIN_NODES = 16                          # the smallest node budget
_ORDER = 16                              # Gauss points per panel: the default,
_MAX_ORDER = 32                          # and the most a node budget buys
_FINE_ORDER = 64                         # rule for poles at 1.5 < rho <= 4
# semi-major axes (rho + 1/rho)/2 of the Bernstein ellipses rho = 4 and 1.5
_FAR, _NEAR = 2.125, 13.0 / 12.0


@dataclass(frozen=True)
class LoveProblem:
    """Problem data: kernel width kappa, with pi kappa finite (so gamma <=
    pi kappa is), and constant right-hand side v0."""

    kappa: float
    v0: float = GAS_POTENTIAL

    def __post_init__(self) -> None:
        # stored as Python floats: every solve runs in double precision
        object.__setattr__(self, "kappa", _check_real(self.kappa, "kappa", "(0, inf)"))
        _check_real(_PI * self.kappa, "pi * kappa", "(0, inf)")
        object.__setattr__(self, "v0", _check_real(self.v0, "v0", "(0, inf)"))


@dataclass(frozen=True)
class LoveSolution:
    """Discretized solution f on its own quadrature rule over [-1, 1]."""

    problem: LoveProblem
    nodes: np.ndarray
    weights: np.ndarray
    f: np.ndarray
    residual: float


@dataclass(frozen=True)
class EnergyPoint:
    """One (kappa, gamma, C, e) tuple linking capacitor and gas observables."""

    kappa: float
    gamma: float
    capacitance: float
    energy: float


def _edges(kappa: float) -> np.ndarray:
    """Panel edges in d: 0, 3 kappa/4, 3 kappa/2, 3 kappa, ... below 1/2,
    then uniform panels of width at most 1/3 up to d = 1.

    Each panel sees f's singularities on or outside one Bernstein ellipse,
    rho = 3 + sqrt(8): on [0, 3 kappa/4] the nearest, d = i kappa, lies at
    -1 + (8/3) i on it, and each panel [a, 2 a] sees d = 0 on it.  The
    last geometric edge is at least 1/4, so a uniform width of at most
    1/3 keeps each uniform panel's end ratio at or below 2.  For kappa >=
    2/3 there is no geometric edge: three panels of width 1/3."""
    kappa = _check_real(kappa, "kappa", "(0, inf)")
    edges = [0.0]
    edge = 0.75 * kappa
    while edge < 0.5:
        edges.append(edge)
        edge *= 2.0
    last = edges[-1]
    div = math.ceil(3.0 * (1.0 - last))
    step = (1.0 - last) / div            # the edges of np.linspace(last, 1.0, div + 1)
    return np.array(edges + [i * step + last for i in range(1, div)] + [1.0])


def default_node_count(kappa: float) -> int:
    """Nodes on [-1, 1] of the default mesh: 16 per panel, both halves."""
    return 2 * _ORDER * (len(_edges(kappa)) - 1)


def _mesh(kappa: float, n: int | None = None) -> tuple[np.ndarray, int]:
    """Panel edges and Gauss order for a budget of n nodes on [-1, 1], at
    least 16; None is the default budget, default_node_count(kappa).

    The edges depend on kappa alone; the budget sets the order, n // (2
    panels) clamped to [16, 32].  So any budget up to the default gives
    order 16, and twice the default gives order 32.  Refuses a budget
    that is not an integer (a float, even an integral one, or a bool) or is
    below 16, then kappa below the solver floor.
    """
    if n is not None:
        n = _check_int(n, "node budget", math.inf)
        if n < _MIN_NODES:
            raise DomainError(f"node budget too small: {n!r}")
    if not kappa >= _KAPPA_MIN:
        raise ResolutionError(
            f"kappa={kappa!r} is below the solver floor {_KAPPA_MIN:g}; for "
            f"smaller kappa, use the asymptotic expansions")
    edges = _edges(kappa)
    if n is None:
        return edges, _ORDER
    return edges, min(_MAX_ORDER, max(_ORDER, n // (2 * (len(edges) - 1))))


def _nodes(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending d) and weights of the order-point rule on each panel."""
    d, w = gauss_legendre(order).mapped(edges[:-1, None], edges[1:, None])
    return d.ravel(), w.ravel()


@functools.lru_cache(maxsize=None)
def _tables(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of the order-point panel on [-1, 1]: to_nodes maps
    Legendre moments int P_k(u) g(u) du to weights at the Gauss nodes, so
    that they integrate the interpolant exactly; to_fine and to_mid map
    node values to the interpolant at the 64-point rule and at the
    midpoints between adjacent nodes.

    to_nodes is the inverse of P_k at the nodes as stored.  The Gauss
    shortcut, (k + 1/2) w_j P_k(u_j), holds only for the exact nodes and
    weights: with both rounded, it moves the interpolant at the panel
    ends by ~order^2 ulp, and a pole 1e-4 from an end (kappa = 1e-3,
    order 31) turns that into 1.2e-14 of a row's value, against 2.6e-15
    by the inverse.  Its k = 0 row stays w_j / 2, so that the near field
    integrates a constant with the far field's weights: with the row of
    the inverse, gamma, C and e at kappa = 1e-3 spread by 7e-14 over
    orders 16, 24 and 32, against 3e-15."""
    rule, fine = gauss_legendre(order), gauss_legendre(_FINE_ORDER)
    u = rule.nodes
    at_nodes, at_fine, at_mid = (
        np.column_stack(list(_recurrence(np.ones_like(x), x, x, order)))
        for x in (u, fine.nodes, 0.5 * (u[:-1] + u[1:])))
    to_nodes = np.linalg.inv(at_nodes)
    to_nodes[0] = 0.5 * rule.weights
    tables = (to_nodes, at_fine @ to_nodes, at_mid @ to_nodes)
    for table in tables:
        table.flags.writeable = False
    return tables


def _cauchy_moments(z: np.ndarray, order: int) -> np.ndarray:
    """q_k = int_{-1}^{1} P_k(u) / (u - z) du, k < order, for Im z > 0, by
    forward recurrence, which is accurate only for z near [-1, 1]."""
    q0 = np.log(1.0 - z) - np.log(-1.0 - z)
    return np.column_stack(list(_recurrence(q0, 2.0 + z * q0, z, order)))


def _rows(kappa: float, edges: np.ndarray, order: int, d: np.ndarray) -> np.ndarray:
    """Product-integration weights W, (targets, nodes), at targets x = 1 - d.

    W @ f is int_0^1 [k(x - y) + k(x + y)] p(y) dy for the panel
    interpolant p of f.  On a panel c + h u, each kernel is (1/pi) Im
    1/(u - z) with z = (d - c + i kappa) / h for k(x - y) and
    (2 - d - c + i kappa) / h for k(x + y).  By the Bernstein ellipse rho
    of z: plain Gauss for rho > 4, the 64-point rule on the interpolant for
    1.5 < rho <= 4, and Legendre moments for rho <= 1.5.

    The far field is built in a (2, panels, order, targets) layout, so each
    elementwise loop runs along the targets; the mid and the near field are
    each one gather by flat (term, panel, target) index, in C order, and
    one BLAS product.  A pair can have rho <= 4 only on a panel with y^2 /
    (a^2 - 1) <= 1 (a = 2.125); where no panel has, the ellipse tests and
    both fields are skipped, with the same bits: on the default mesh from
    kappa ~ 0.2128 up to 2/9 (where the uniform panels go from three to
    two) and from kappa ~ 0.2752 up.
    """
    rule = gauss_legendre(order)
    c, h = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    y = min(kappa, 1e300) / h           # finite; w = 0 from kappa ~ 1e153 on
    x = np.empty((2, len(c), len(d)))   # (2, panels, targets)
    np.subtract(d, c[:, None], out=x[0])
    np.subtract(2.0 - d, c[:, None], out=x[1])
    x /= h[:, None]
    with np.errstate(over="ignore"):     # y^2 = inf at kappa > 1e153: w = 0, far
        w = rule.nodes[:, None] - x[:, :, None, :]
        w *= w
        y2 = y * y
        w += y2[:, None, None]
        np.divide(((rule.weights / _PI) * y[:, None])[..., None], w, out=w)
    # z = x + i y lies inside the Bernstein ellipse of semi-major axis a
    # (foci +-1) where x^2 / a^2 + y^2 / (a^2 - 1) <= 1, so only on a panel
    # where y^2 / (a^2 - 1) <= 1
    y2_far = y2 / (_FAR * _FAR - 1.0)
    if (y2_far <= 1.0).any():
        fine = gauss_legendre(_FINE_ORDER)
        to_nodes, to_fine, _ = _tables(order)
        panels, targets = x.shape[1:]
        with np.errstate(over="ignore"):
            x2 = x * x
            mid = x2 / (_FAR * _FAR) + y2_far[:, None] <= 1.0
            near = x2 / (_NEAR * _NEAR) + (y2 / (_NEAR * _NEAR - 1.0))[:, None] <= 1.0
        mid &= ~near
        pairs = w.reshape(-1, order, targets)    # (term and panel, order, targets)
        at = np.flatnonzero(mid)
        if len(at):
            row, j = np.divmod(at, targets)
            panel = row % panels
            fw = fine.nodes - x.take(at)[:, None]
            fw *= fw
            fw += y2[panel][:, None]
            np.divide(((fine.weights / _PI) * y[:, None])[panel], fw, out=fw)
            pairs[row, :, j] = fw @ to_fine
        at = np.flatnonzero(near)
        if len(at):
            row, j = np.divmod(at, targets)
            z = x.take(at) + 1j * y[row % panels]
            pairs[row, :, j] = _cauchy_moments(z, order).imag @ to_nodes / _PI
    w = np.add(w[0], w[1], out=w[0]).reshape(len(c) * order, len(d))
    return np.ascontiguousarray(w.T)


def _leak(kappa: float, d: np.ndarray) -> np.ndarray:
    """1 - int_{-1}^{1} k(x - y) dy at x = 1 - d, without cancellation."""
    return (np.arctan2(kappa, d) + np.arctan2(kappa, 2.0 - d)) / _PI


def _subtracted(leak: np.ndarray, w: np.ndarray, t: np.ndarray,
                f: np.ndarray) -> np.ndarray:
    """leak_i t_i + sum_j W_ij (t_i - f_j): (I - K) applied to the
    interpolant of the node values f, at targets where it takes values t."""
    terms = t[:, None] - f
    terms *= w
    return leak * t + terms.sum(axis=1)


def _midpoints(d: np.ndarray, order: int) -> np.ndarray:
    """The midpoints between adjacent nodes d of each panel."""
    d = d.reshape(-1, order)
    return 0.5 * (d[:, :-1] + d[:, 1:]).ravel()


def _defect(v0: float, order: int, w: np.ndarray, leak: np.ndarray,
            f: np.ndarray) -> float:
    """Largest |p - v0 - K p| of the panel interpolant p of the node values
    f at the midpoints, given their rows w and leak."""
    *_, to_mid = _tables(order)
    p = (f.reshape(-1, order) @ to_mid.T).ravel()
    return float(np.abs(_subtracted(leak, w, p, f) - v0).max())


def solve_love(problem: LoveProblem, n: int | None = None,
               check_residual: bool = True) -> LoveSolution:
    """Solve the Love equation by Nystrom product integration on a graded mesh.

    n is a budget of nodes on [-1, 1], at least 16: it sets the Gauss
    order of the panels, from 16 (any budget up to default_node_count) to
    32 (twice the default or more); the panels themselves depend on kappa
    alone.  The unknowns are f at the nodes of [0, 1].  A dense solve of
    (I - W) f = v0 and one step of iterative refinement, with the residual
    in the subtracted form, solve the subtracted system to rounding
    (further steps move m0 and e by at most 6e-16).  The returned residual is the largest
    integral-equation defect of the panel interpolant at the midpoints
    between adjacent nodes; it must not exceed 1e-8 v0.  One _rows call,
    on the nodes followed by the midpoints, gives the system rows and the
    check rows; without check_residual it is on the nodes alone, and the
    residual is NaN.  The solution is returned on all of [-1, 1], mirrored.

    At kappa = 0.1 (96 unknowns; 2 vCPUs, one BLAS thread) the _rows
    call takes about 48 % of a solve, the two LU solves 29 %, _subtracted
    and _defect 11 %, and the mesh, the nodes and the rest 12 %; at kappa
    = 0.5 (48 unknowns, no mid or near pair) _rows takes 31 %, the two LU
    solves 28 %, _subtracted and _defect 16 % and the rest a quarter.
    """
    kappa, v0 = problem.kappa, problem.v0
    edges, order = _mesh(kappa, n)
    d, weights = _nodes(edges, order)
    m = len(d)
    targets = np.concatenate([d, _midpoints(d, order)]) if check_residual else d
    rows = _rows(kappa, edges, order, targets)
    leak = _leak(kappa, targets)
    w = rows[:m]
    system = -w
    system.ravel()[::m + 1] += 1.0
    f = np.linalg.solve(system, np.full(m, v0))
    f += np.linalg.solve(system, v0 - _subtracted(leak[:m], w, f, f))
    residual = math.nan
    if check_residual:
        residual = _defect(v0, order, rows[m:], leak[m:], f)
        if not residual <= _RESIDUAL_TOL * v0:
            raise ResolutionError(
                f"collocation residual {residual:.3e} exceeds "
                f"{_RESIDUAL_TOL * v0:.3e} at kappa={kappa!r}")
    return LoveSolution(problem=problem, nodes=np.concatenate([d - 1.0, (1.0 - d)[::-1]]),
                        weights=np.concatenate([weights, weights[::-1]]),
                        f=np.concatenate([f, f[::-1]]), residual=residual)


def moments(sol: LoveSolution) -> tuple[float, float]:
    """(m0, m2) = (int f dx, int x^2 f dx) using the solution's own rule."""
    m0 = float(np.dot(sol.weights, sol.f))
    m2 = float(np.dot(sol.weights, sol.nodes ** 2 * sol.f))
    return m0, m2


def observables(sol: LoveSolution) -> EnergyPoint:
    """Physical observables of a solution.

    gamma = kappa/m0 and e = m2/m0^3 with the moments rescaled to the gas
    normalization v0 = 1/(2 pi); f is linear in v0, so solutions computed
    with any v0 yield the same point.  The capacitance is C = kappa/gamma.
    """
    kappa, v0 = sol.problem.kappa, sol.problem.v0
    m0, m2 = moments(sol)
    scale = 1.0 / (2.0 * _PI * v0)
    m0 *= scale
    m2 *= scale
    gamma = kappa / m0
    return EnergyPoint(kappa=kappa, gamma=gamma, capacitance=m0,
                       energy=m2 / m0 ** 3)


_WEAK_WINDOW = (1e-3, 5e-2)
_MIN_FIT_POINTS = 5                      # the fewest points a weak fit takes


def weak_coupling_fit(points: list[EnergyPoint]) -> tuple[float, float]:
    """Extract the gamma^2 coefficient of the weak-coupling energy.

    The reduced quantity r(gamma) = (e - gamma + (4/(3 pi)) gamma^{3/2}) /
    gamma^2 is fitted with c2 + c3 sqrt(gamma); returns (c2, rms residual).
    Demands at least five points with gamma inside [1e-3, 5e-2], at least
    two distinct gammas among them, and finite energies; a grid too narrow
    to tell c2 from c3 raises ConditioningError.
    """
    if len(points) < _MIN_FIT_POINTS:
        raise WindowError(f"need at least {_MIN_FIT_POINTS} points, got {len(points)}")
    g = np.array([p.gamma for p in points])
    e = np.array([p.energy for p in points])
    lo, hi = _WEAK_WINDOW
    if not np.all((g >= lo) & (g <= hi)):
        raise WindowError(
            f"points must have gamma in [{lo:g}, {hi:g}]; got range "
            f"[{g.min():.3g}, {g.max():.3g}]")
    if len(np.unique(g)) < 2:
        raise WindowError("need at least two distinct gamma values")
    if not np.isfinite(e).all():
        raise DomainError("every energy must be finite")
    r = (e - g + 4.0 / (3.0 * _PI) * g ** 1.5) / g ** 2
    coef, rms = _lstsq(np.column_stack([np.ones_like(g), np.sqrt(g)]), r)
    return float(coef[0]), rms
