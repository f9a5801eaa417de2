"""Nystrom solver for the Love integral equation

    f(x) - (kappa/pi) int_{-1}^{1} f(y) / ((x - y)^2 + kappa^2) dy = v0

on [-1, 1], and the physical observables built from the moments of f:
capacitance, dimensionless coupling, ground-state energy per particle, and
the third moment of the disc charge density.

The kernel is a Lorentzian of width kappa centered on the diagonal, so the
quadrature must resolve scale kappa *everywhere*, not only near the edges:
the mesh uses uniform panels of width ~min(kappa, 1/4) with the polynomial
order set by the node budget.  Every panel carries the same Gauss rule, so
the kernel matrix is block-Toeplitz in the panel lag: the solver never forms
it, applying it by FFT in O(N log N) inside conjugate gradients, and the
residual check uses the same structure.  The mesh and its rules are mirror
symmetric about each panel centre, so the lag-block spectrum of the lower
half of the target offsets is the conjugate of the upper half's: only half
of each spectrum is computed, on 5-smooth FFT lengths.  One node budget,
_MAX_NODES = 48000 (the default mesh at kappa = 1e-3), is the solver's
kappa floor: _mesh refuses a larger mesh before any kernel is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, ResolutionError, WindowError
from .quadrature import QuadratureRule, gauss_legendre

__all__ = [
    "LoveProblem",
    "LoveSolution",
    "EnergyPoint",
    "GAS_POTENTIAL",
    "default_node_count",
    "solve_love",
    "operator_norm",
    "operator_norm_discrete",
    "moments",
    "observables",
    "third_moment_sigma",
    "weak_coupling_fit",
]

_PI = math.pi

#: Right-hand side for the gas problem; the capacitor normalization is v0 = 1.
GAS_POTENTIAL = 1.0 / (2.0 * _PI)

_MAX_NODES = 48000                       # 2000 panels x 24 points: kappa >= 1e-3
_RESIDUAL_TOL = 1e-8
_CG_TOL = 1e-15
_CG_MAX_ITER = 500                       # 156 used at the kappa floor
_ROW_BLOCK = 1 << 18                     # entries per dense kernel block (2 MiB)


@dataclass(frozen=True)
class LoveProblem:
    """Problem data: kernel width kappa and constant right-hand side v0."""

    kappa: float
    v0: float = GAS_POTENTIAL

    def __post_init__(self) -> None:
        if not 0.0 < self.kappa < math.inf:
            raise DomainError(f"kappa must be positive and finite, got {self.kappa!r}")
        if not 0.0 < self.v0 < math.inf:
            raise DomainError(f"v0 must be positive and finite, got {self.v0!r}")


@dataclass(frozen=True)
class LoveSolution:
    """Discretized solution f on its own quadrature rule."""

    problem: LoveProblem
    nodes: np.ndarray
    weights: np.ndarray
    f: np.ndarray
    residual: float

    def interpolate(self, x: np.ndarray) -> np.ndarray:
        """Nystrom interpolant: exact off-node extension of the discrete f."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        kappa, y = self.problem.kappa, self.nodes
        # arbitrary targets repeat no panel structure: dense kernel rows,
        # in blocks of at most _ROW_BLOCK entries so memory stays bounded
        step = max(1, _ROW_BLOCK // len(y))
        out = np.empty(len(x))
        for start in range(0, len(x), step):
            diff = x[start:start + step, None] - y[None, :]
            rows = (kappa / _PI) * self.weights[None, :] / (diff * diff + kappa * kappa)
            out[start:start + step] = rows @ self.f
        return self.problem.v0 + out


@dataclass(frozen=True)
class EnergyPoint:
    """One (kappa, gamma, C, e) tuple linking capacitor and gas observables."""

    kappa: float
    gamma: float
    capacitance: float
    energy: float


def default_node_count(kappa: float) -> int:
    """Node budget resolving the Lorentzian ridge: ~48/kappa, at least 240."""
    return int(max(240, math.ceil(48.0 / kappa)))


def _mesh(kappa: float, n: int) -> tuple[int, QuadratureRule]:
    """Panel count and per-panel Gauss rule for a budget of about n nodes."""
    width = min(0.25, kappa)
    panels = int(math.ceil(2.0 / width))
    points = int(round(n / panels))
    if points > 24:
        panels = int(math.ceil(n / 24.0))
        points = 24
    points = max(points, 8)
    if panels % 2 == 1:
        panels += 1                      # symmetric mesh about x = 0
    if panels * points > _MAX_NODES:
        raise ResolutionError(
            f"kappa={kappa!r} needs {panels * points} nodes but the solver "
            f"allows at most {_MAX_NODES}; use the asymptotic expansions instead")
    return panels, gauss_legendre(points)


def _nodes(panels: int, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the rule repeated on uniform panels of [-1, 1]."""
    edges = np.linspace(-1.0, 1.0, panels + 1)
    x, w = rule.mapped(edges[:-1, None], edges[1:, None])
    return x.ravel(), w.ravel()


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT serves fast."""
    while True:
        rest = n
        for factor in (2, 3, 5):
            while rest % factor == 0:
                rest //= factor
        if rest == 1:
            return n
        n += 1


def _panel_kernel(kappa: float, panels: int, tau: np.ndarray, s: np.ndarray,
                  ws: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Kernel product between two point sets that repeat panel by panel.

    Targets sit at c_p + tau_i and weighted sources at c_q + s_j, where c
    are the centres of the uniform panels of width h = 2/panels.  The block
    coupling panel p to panel q is k(h (p - q) + tau_i - s_j) ws_j, so the
    product is a block-Toeplitz convolution along the panel axis: one
    zero-padded real FFT of the lag blocks, then per frequency a
    len(tau) x len(s) contraction.  Returns u (panels, len(s)) ->
    (panels, len(tau)) in O(N log N + N len(s)).

    Both offset sets must be mirror-symmetric (tau reversed is -tau, and
    likewise s, with ws reversed equal to ws), or DomainError is raised.
    Then, k being even, the lag sequence of the pair (nt-1-i, ns-1-j) is
    that of (i, j) reversed, and with lag d stored at index d mod L its
    spectrum is the conjugate of the (i, j) spectrum: only the top
    ceil(nt/2) target rows are evaluated and transformed.  L is the
    smallest 2^a 3^b 5^c >= 2 panels - 1, so the circular convolution
    never wraps.
    """
    if not (np.array_equal(tau, -tau[::-1]) and np.array_equal(s, -s[::-1])
            and np.array_equal(ws, ws[::-1])):
        raise DomainError("panel offsets and weights must be mirror-symmetric")
    h = 2.0 / panels
    nt, ns = len(tau), len(s)
    top = (nt + 1) // 2
    # lag d at index d mod L along the last, contiguous axis, so that output
    # p of the circular convolution is entry p and a reversed lag sequence
    # transforms to the plain conjugate; lags beyond +-(panels-1) are zero
    length = _smooth_length(2 * panels - 1)
    lags = np.arange(length)
    lags[panels:] -= length
    block = np.subtract.outer(tau[:top], s)[:, :, None] + h * lags
    np.multiply(block, block, out=block)
    block += kappa * kappa
    np.divide(((kappa / _PI) * ws)[:, None], block, out=block)
    block[:, :, panels:length - panels + 1] = 0.0
    half = np.fft.rfft(block, axis=-1)
    del block
    # spectrum[k, i, j], frequency first for the per-frequency contraction;
    # row nt-1-i, column ns-1-j is the conjugate of row i, column j
    spectrum = np.empty((half.shape[-1], nt, ns), dtype=complex)
    spectrum[:, :top] = half.transpose(2, 0, 1)
    np.conjugate(half[:nt - top].transpose(2, 0, 1), out=spectrum[:, top:][:, ::-1, ::-1])
    del half

    def apply(u: np.ndarray) -> np.ndarray:
        uh = np.fft.rfft(u, n=length, axis=0)
        product = np.matmul(spectrum, uh[:, :, None])[:, :, 0]
        return np.fft.irfft(product, n=length, axis=0)[:panels]

    return apply


def _conjugate_gradients(apply: Callable[[np.ndarray], np.ndarray],
                         b: np.ndarray, kappa: float) -> np.ndarray:
    """Solve apply(g) = b for a symmetric positive definite operator."""
    g = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = bb = float(np.vdot(r, r))
    stop = _CG_TOL * _CG_TOL * bb
    for _ in range(_CG_MAX_ITER):
        if not rr > stop:                # converged, or NaN
            break
        q = apply(p)
        alpha = rr / float(np.vdot(p, q))
        g += alpha * p
        r -= alpha * q
        rr, previous = float(np.vdot(r, r)), rr
        p = r + (rr / previous) * p
    if not rr <= stop:
        raise ConvergenceError(
            f"conjugate gradients did not reach relative residual "
            f"{_CG_TOL:g} in {_CG_MAX_ITER} iterations at kappa={kappa!r}",
            best=math.nan, estimate=math.sqrt(rr / bb))
    return g


def solve_love(problem: LoveProblem, n: int | None = None,
               check_residual: bool = True) -> LoveSolution:
    """Solve the Love equation by collocation on a composite Gauss mesh.

    n is a total node budget (default ~48/kappa).  The Nystrom system is
    solved matrix-free: conjugate gradients on the symmetrized system
    (I - W^1/2 K W^1/2) g = W^1/2 v0, f = W^-1/2 g, with the kernel applied
    as a block-Toeplitz FFT product.  The returned residual is the
    integral-equation defect of the Nystrom interpolant, measured at
    inter-node midpoints against a quadrature of the interpolant itself by
    the doubled Gauss rule on the same panels; it must not exceed 1e-8 v0.
    """
    kappa, v0 = problem.kappa, problem.v0
    if n is None:
        n = default_node_count(kappa)
    if n < 16:
        raise DomainError(f"node budget too small: {n!r}")
    panels, rule = _mesh(kappa, n)
    x, w = _nodes(panels, rule)
    tau, root_w = rule.nodes / panels, np.sqrt(rule.weights / panels)
    kernel = _panel_kernel(kappa, panels, tau, tau, root_w)
    g = _conjugate_gradients(lambda u: u - root_w * kernel(u),
                             root_w * np.full((panels, len(tau)), v0), kappa)
    f = (g / root_w).ravel()
    residual = math.nan
    if check_residual:
        residual = _collocation_residual(problem, panels, rule, f)
        if not residual <= _RESIDUAL_TOL * v0:
            raise ResolutionError(
                f"collocation residual {residual:.3e} exceeds "
                f"{_RESIDUAL_TOL * v0:.3e} at kappa={kappa!r}",
                suggested_n=2 * n)
    return LoveSolution(problem=problem, nodes=x, weights=w, f=f,
                        residual=residual)


def _collocation_residual(problem: LoveProblem, panels: int,
                          rule: QuadratureRule, f: np.ndarray) -> float:
    """Largest defect of the Nystrom interpolant of f at the node midpoints.

    The interpolant v0 + K f is evaluated at the midpoints and at the nodes
    of the doubled Gauss rule on the same panels; the integral term is the
    doubled rule's quadrature of the interpolant.  The midpoint between two
    panels sits on their common edge.  Each panel's targets are its two
    edges and its interior midpoints, a mirror-symmetric set; the left
    edges, each the previous panel's right edge or x = -1, and the last
    right edge, x = 1, are dropped.
    """
    kappa, v0 = problem.kappa, problem.v0
    half = 1.0 / panels                  # panel half-width
    tau, w = half * rule.nodes, half * rule.weights
    fine = gauss_legendre(2 * len(rule))
    tau_f, w_f = half * fine.nodes, half * fine.weights
    tau_m = np.concatenate([[-half], 0.5 * (tau[:-1] + tau[1:]), [half]])
    f = f.reshape(panels, len(rule))
    at_mid = _panel_kernel(kappa, panels, tau_m, tau, w)(f)
    at_fine = v0 + _panel_kernel(kappa, panels, tau_f, tau, w)(f)
    integral = _panel_kernel(kappa, panels, tau_m, tau_f, w_f)(at_fine)
    return float(np.max(np.abs(at_mid - integral)[:, 1:].ravel()[:-1]))


def operator_norm(kappa: float) -> float:
    """Norm of the Love operator on C[-1, 1]: (2/pi) arctan(1/kappa).

    This is the supremum over x of int |k(x, y)| dy, attained at x = 0; it
    controls the convergence of the Neumann series.  (The L^2 spectral norm
    is strictly smaller for every kappa; see operator_norm_discrete.)
    """
    if not kappa > 0.0:
        raise DomainError(f"kappa must be positive, got {kappa!r}")
    return (2.0 / _PI) * math.atan(1.0 / kappa)


def operator_norm_discrete(kappa: float, n: int | None = None) -> float:
    """Discrete counterpart of operator_norm: the largest weighted row sum
    of the Nystrom kernel matrix over collocation points (x = 0 included,
    where the row integral is maximal), as one panel-kernel product K 1.

    Converges to (2/pi) arctan(1/kappa) with the quadrature; the agreement
    to ~1e-12 is a mesh-quality check.  Note the matrix sup-norm, not its
    largest singular value, discretizes the operator norm above: the
    spectral norm of the symmetrized matrix converges to the strictly
    smaller L^2 norm (e.g. 0.4536 vs 0.5 at kappa = 1).
    """
    if not kappa > 0.0:
        raise DomainError(f"kappa must be positive, got {kappa!r}")
    if n is None:
        n = default_node_count(kappa)
    panels, rule = _mesh(kappa, n)
    tau, w = rule.nodes / panels, rule.weights / panels
    # targets: each panel's two edges and its nodes; _mesh makes the panel
    # count even, so the left edge of panel panels // 2 is x = 0
    targets = np.concatenate([[-1.0 / panels], tau, [1.0 / panels]])
    sums = _panel_kernel(kappa, panels, targets, tau, w)(np.ones((panels, len(tau))))
    return max(float(np.max(sums[:, 1:-1])), float(sums[panels // 2, 0]))


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


def third_moment_sigma(sol: LoveSolution) -> float:
    """int_0^1 r^3 sigma(r) dr of the disc charge density, as m2 / pi^2.

    The Abel-type relation between f and sigma gives, after exchanging the
    order of integration, int_{-1}^{1} x^2 f dx = pi^2 int_0^1 r^3 sigma dr
    for the unit-potential disc; solutions with v0 != 1 are rescaled by
    linearity.
    """
    _, m2 = moments(sol)
    return m2 / (sol.problem.v0 * _PI * _PI)


_WEAK_WINDOW = (1e-3, 5e-2)


def weak_coupling_fit(points: list[EnergyPoint]) -> tuple[float, float]:
    """Extract the gamma^2 coefficient of the weak-coupling energy.

    The reduced quantity r(gamma) = (e - gamma + (4/(3 pi)) gamma^{3/2}) /
    gamma^2 is fitted with c2 + c3 sqrt(gamma); returns (c2, rms residual).
    Demands at least five points with gamma inside [1e-3, 5e-2].
    """
    if len(points) < 5:
        raise WindowError(f"need at least 5 points, got {len(points)}")
    g = np.array([p.gamma for p in points])
    e = np.array([p.energy for p in points])
    lo, hi = _WEAK_WINDOW
    if not np.all((g >= lo) & (g <= hi)):
        raise WindowError(
            f"points must have gamma in [{lo:g}, {hi:g}]; got range "
            f"[{g.min():.3g}, {g.max():.3g}]")
    r = (e - g + 4.0 / (3.0 * _PI) * g ** 1.5) / g ** 2
    design = np.column_stack([np.ones_like(g), np.sqrt(g)])
    coef, *_ = np.linalg.lstsq(design, r, rcond=None)
    rms = float(np.sqrt(np.mean((r - design @ coef) ** 2)))
    return float(coef[0]), rms
