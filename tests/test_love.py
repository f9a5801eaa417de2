import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lovelab as ll
from lovelab import love
from lovelab.errors import ConditioningError, DomainError, ResolutionError, WindowError
from oracles.asymptotics import third_moment_expansion
from oracles.love import interpolate, operator_norm, operator_norm_discrete, third_moment_sigma

PI = math.pi


def dense_kernel(kappa, x, y, wy):
    """Dense Nystrom kernel matrix k(x_i - y_j) wy_j (test-side oracle)."""
    return (kappa / PI) * wy[None, :] / ((x[:, None] - y[None, :]) ** 2 + kappa * kappa)


def kernel_apply(sol, values):
    """One application of the discrete Love operator (test-side)."""
    return dense_kernel(sol.problem.kappa, sol.nodes, sol.nodes, sol.weights) @ values


def lagrange_factors(u, s):
    """l_j(s) of the Gauss-Legendre nodes u, by the barycentric formula."""
    lam = (-1.0) ** np.arange(len(u)) * np.sqrt((1.0 - u * u) * ll.gauss_legendre(len(u)).weights)
    terms = lam / (s[:, None] - u)
    return terms / terms.sum(axis=1, keepdims=True)


def brute_rows(kappa, edges, order, d):
    """Test-side oracle of love._rows: int_0^1 [k(x - y) + k(x + y)] l_j(y) dy
    at x = 1 - d for every panel's Lagrange basis l_j, by 40-point Gauss
    on sub-panels graded by factors of 2 away from each pole's real part,
    starting at its distance kappa from the axis."""
    u, sub = ll.gauss_legendre(order).nodes, ll.gauss_legendre(40)
    out = np.zeros((len(d), (len(edges) - 1) * order))
    for p, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        y = kappa / h                    # on the reference panel [-1, 1]
        for i, t in enumerate(d):
            for x in ((t - c) / h, (2.0 - t - c) / h):
                x0 = min(1.0, max(-1.0, x))
                steps = y * 2.0 ** np.arange(60)
                cuts = np.concatenate([[-1.0, x0, 1.0], x0 - steps, x0 + steps])
                cuts = np.unique(cuts[(cuts >= -1.0) & (cuts <= 1.0)])
                s, ws = sub.mapped(cuts[:-1, None], cuts[1:, None])
                s, ws = s.ravel(), ws.ravel()
                k = ws * (y / PI) / ((s - x) ** 2 + y * y)
                out[i, p * order:(p + 1) * order] += k @ lagrange_factors(u, s)
    return out


def leak(kappa, d):
    """1 - int_{-1}^{1} k(x - y) dy at x = 1 - d."""
    return (np.arctan2(kappa, d) + np.arctan2(kappa, 2.0 - d)) / PI


# ----------------------------------------------------------------------
# solve_love.
# ----------------------------------------------------------------------

def test_neumann_series_oracle_strong_coupling():
    # ||K|| ~ 0.0064 at kappa = 100: the 3-term Neumann sum is accurate to
    # ||K||^3 ~ 2.6e-7 <= 1e-6
    sol = ll.solve_love(ll.LoveProblem(kappa=100.0, v0=1.0), n=400)
    ones = np.ones_like(sol.nodes)
    neumann = ones + kernel_apply(sol, ones) + kernel_apply(
        sol, kernel_apply(sol, ones))
    assert np.max(np.abs(sol.f - neumann)) < 1e-6


def test_solution_symmetry(gas_solution_k1):
    sol = gas_solution_k1
    resampled = interpolate(sol, -sol.nodes)
    assert np.max(np.abs(sol.f - resampled)) <= 1e-10 * np.max(sol.f)


def test_solution_positive_and_residual(gas_solution_k1):
    assert np.all(gas_solution_k1.f > 0.0)
    assert gas_solution_k1.residual <= 1e-8 * gas_solution_k1.problem.v0


def test_interior_plate_density():
    # for kappa -> 0 the interior follows the infinite-plate law
    # f(0) ~ v0 / kappa; the edge correction decays with kappa
    devs = []
    for kappa in (0.05, 0.02):
        sol = ll.solve_love(ll.LoveProblem(kappa=kappa, v0=1.0))
        f0 = float(interpolate(sol, np.array([0.0]))[0])
        devs.append(abs(f0 * kappa - 1.0))
    assert devs[-1] < 0.05
    assert devs[1] < devs[0]


def test_monotone_in_kappa():
    # stronger kernel (smaller kappa) lifts the solution everywhere
    previous = None
    for kappa in (2.0, 1.0, 0.5, 0.25):
        sol = ll.solve_love(ll.LoveProblem(kappa=kappa, v0=1.0))
        value = float(interpolate(sol, np.array([0.37]))[0])
        if previous is not None:
            assert value > previous
        previous = value


def test_self_convergence():
    prob = ll.LoveProblem(kappa=0.05)
    a = ll.observables(ll.solve_love(prob, n=960))
    b = ll.observables(ll.solve_love(prob, n=1920))
    assert abs(a.capacitance - b.capacitance) < 1e-9
    assert abs(a.energy - b.energy) < 1e-9


def test_moment_self_convergence_oracle():
    prob = ll.LoveProblem(kappa=1.0, v0=1.0)
    m0_a, _ = ll.moments(ll.solve_love(prob, n=240))
    m0_b, _ = ll.moments(ll.solve_love(prob, n=480))
    assert m0_a == pytest.approx(m0_b, abs=1e-9)


def test_solver_guards():
    with pytest.raises(DomainError):
        ll.LoveProblem(kappa=-1.0)
    with pytest.raises(DomainError):
        ll.LoveProblem(kappa=1.0, v0=0.0)
    with pytest.raises(ResolutionError):
        ll.solve_love(ll.LoveProblem(kappa=9e-4))
    with pytest.raises(DomainError):
        ll.solve_love(ll.LoveProblem(kappa=1.0), n=4)


def test_node_budget_guard_is_shared():
    # the solve and the discrete operator norm refuse the same budgets,
    # in the one mesh helper both call
    calls = (lambda n: ll.solve_love(ll.LoveProblem(kappa=0.1), n=n),
             lambda n: operator_norm_discrete(0.1, n))
    for call in calls:
        for n in (2, 15):
            with pytest.raises(DomainError, match=f"node budget too small: {n}$"):
                call(n)
        # a float budget, integral or not, or a bool is refused in words
        # about the budget, not about an inner rule size
        for n in (math.nan, math.inf, -math.inf, 200.0, 256.0, True):
            with pytest.raises(DomainError, match="node budget must be an integer"):
                call(n)
        call(16)
        call(np.int64(256))


def test_kappa_floor_refused_before_any_kernel(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("kernel weights built below the kappa floor")

    monkeypatch.setattr(love, "_rows", no_kernel)
    with pytest.raises(ResolutionError, match="below the solver floor 0.001"):
        ll.solve_love(ll.LoveProblem(kappa=9e-4))
    with pytest.raises(ResolutionError):          # an explicit budget too
        ll.solve_love(ll.LoveProblem(kappa=9e-4), n=10 ** 6)
    with pytest.raises(ResolutionError):
        operator_norm_discrete(9e-4)


def test_solve_at_the_kappa_floor():
    # 12 panels of 16 points on each half: 0, 3 kappa/4, ..., 0.384, then 2
    # uniform panels up to d = 1
    problem = ll.LoveProblem(kappa=1e-3)
    sol = ll.solve_love(problem)
    assert ll.default_node_count(1e-3) == len(sol.nodes) == 2 * 12 * 16
    assert sol.residual <= love._RESIDUAL_TOL * problem.v0
    c = ll.observables(sol).capacitance
    ce = ll.capacitance_series("extended", 1e-3)
    ck = ll.capacitance_series("kirchhoff", 1e-3)
    assert abs(c - ce) < 1e-2 * abs(c - ck)


@pytest.mark.parametrize("kwargs", [
    {"kappa": math.inf}, {"kappa": math.nan},
    {"kappa": 1.0, "v0": math.inf}, {"kappa": 1.0, "v0": math.nan},
])
def test_problem_requires_finite_data(kwargs):
    with pytest.raises(DomainError):
        ll.LoveProblem(**kwargs)


def test_residual_gate_rejects_nan(monkeypatch):
    monkeypatch.setattr(love, "_defect", lambda *args: math.nan)
    with pytest.raises(ResolutionError):
        ll.solve_love(ll.LoveProblem(kappa=1.0))


def test_node_budget_sets_the_panel_order():
    # the panels depend on kappa alone; the budget buys orders 16 to 32
    panels = ll.default_node_count(0.01) // 32
    assert panels == 9
    for n, order in ((16, 16), (288, 16), (432, 24), (575, 31), (576, 32), (10 ** 6, 32)):
        edges, got = love._mesh(0.01, n)
        assert len(edges) == panels + 1 and got == order
    assert len(ll.solve_love(ll.LoveProblem(kappa=0.01), n=576).nodes) == 576


@pytest.mark.parametrize("kappa", [1e-3, 1.4e-3, 3e-3, 0.01, 0.03, 0.1, 0.12, 0.3, 0.4,
                                   0.5, 0.7, 1.0, 1e3])
def test_panel_orders_agree(kappa):
    # orders 16, 24 and 32 on the same panels: the mesh resolves f.  The
    # ladder has two uniform top panels (1e-3, 0.01, 0.03, 0.12, 0.3, 0.5),
    # three (1.4e-3, whose last geometric edge 0.269 is near 1/4, 3e-3, 0.1,
    # 0.4), and no geometric edge at all (kappa >= 2/3)
    panels = ll.default_node_count(kappa) // 32
    points = [ll.observables(ll.solve_love(ll.LoveProblem(kappa=kappa), n=2 * panels * order))
              for order in (16, 24, 32)]
    for q in ("gamma", "capacitance", "energy"):
        values = [getattr(p, q) for p in points]
        assert max(values) - min(values) <= 1e-14 * values[0]


def test_weak_coupling_series_oracle():
    # e3 = gamma - (4/3pi) gamma^1.5 + (1/6 - 1/pi^2) gamma^2 + c3 gamma^2.5
    # with c3 = (3 zeta(3)/8 - 1/2)/pi^3; the omitted c4 gamma^3 term is
    # 2.7e-15 relative at kappa = 1e-3, and an error independent of the
    # node count (an N-independent bias) cannot pass
    point = ll.observables(ll.solve_love(ll.LoveProblem(kappa=1e-3)))
    g = point.gamma
    c3 = (3.0 * 1.2020569031595942 / 8.0 - 0.5) / PI ** 3
    e3 = g - 4.0 / (3.0 * PI) * g ** 1.5 + (1.0 / 6.0 - 1.0 / PI ** 2) * g ** 2 + c3 * g ** 2.5
    assert abs(point.energy - e3) <= 1e-14 * point.energy


# ----------------------------------------------------------------------
# product-integration weights against the brute-force oracle.
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(kappa=st.floats(1e-3, 100.0), order=st.integers(16, 32),
       targets=st.sampled_from(["nodes", "midpoints", "uniform"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(kappa=1e-3, order=32, targets="uniform", seed=0)
@example(kappa=0.05, order=16, targets="midpoints", seed=1)
@example(kappa=1e-3, order=31, targets="nodes", seed=1)   # a pole 1.4e-4 from a panel end
def test_rows_match_brute_force_weights(kappa, order, targets, seed):
    # rows applied to a smooth f, the kind the solver sees: single weights
    # differ more, by up to ~rho^-order where plain Gauss serves (rho > 4)
    rng = np.random.default_rng(seed)
    edges = love._edges(kappa)
    d, _ = love._nodes(edges, order)
    pool = {"nodes": d, "midpoints": 0.5 * (d[1:] + d[:-1]),
            "uniform": rng.uniform(0.0, 1.0, 40)}[targets]
    t = rng.choice(pool, min(40, len(pool)), replace=False)
    f = 2.0 + np.cos(rng.uniform(-4.0, 4.0) * d + rng.uniform(0.0, 2.0 * PI))
    brute = brute_rows(kappa, edges, order, t)
    fast = love._rows(kappa, edges, order, t)
    assert np.max(np.abs(fast @ f - brute @ f)) <= 1e-14 * np.max(np.abs(brute) @ f)


def linspace_edges(kappa):
    """Bit-for-bit oracle of love._edges: its uniform edges from np.linspace."""
    edges = [0.0]
    edge = 0.75 * kappa
    while edge < 0.5:
        edges.append(edge)
        edge *= 2.0
    last = edges[-1]
    uniform = np.linspace(last, 1.0, math.ceil(3.0 * (1.0 - last)) + 1)
    return np.concatenate([edges, uniform[1:]])


def masked_rows(kappa, edges, order, d):
    """Bit-for-bit oracle of love._rows: every pair goes through both
    ellipse tests, and the mid and near fields are masked gathers over
    all of them."""
    rule, fine = ll.gauss_legendre(order), ll.gauss_legendre(love._FINE_ORDER)
    to_nodes, to_fine, _ = love._tables(order)
    a_mid, a_near = love._FAR, love._NEAR
    c, h = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    y = kappa / h
    x = np.empty((2, len(c), len(d)))
    np.subtract(d, c[:, None], out=x[0])
    np.subtract(2.0 - d, c[:, None], out=x[1])
    x /= h[:, None]
    with np.errstate(over="ignore"):
        w = rule.nodes[:, None] - x[:, :, None, :]
        w *= w
        y2 = y * y
        w += y2[:, None, None]
        np.divide(((rule.weights / PI) * y[:, None])[..., None], w, out=w)
        x2 = x * x
        mid = x2 / (a_mid * a_mid) + (y2 / (a_mid * a_mid - 1.0))[:, None] <= 1.0
        near = x2 / (a_near * a_near) + (y2 / (a_near * a_near - 1.0))[:, None] <= 1.0
    mid &= ~near
    y = np.broadcast_to(y[:, None], x.shape)
    pairs = w.transpose(0, 1, 3, 2)
    if mid.any():
        ym = y[mid][:, None]
        fw = fine.nodes - x[mid][:, None]
        fw *= fw
        fw += ym * ym
        np.divide((fine.weights / PI) * ym, fw, out=fw)
        pairs[mid] = fw @ to_fine
    if near.any():
        pairs[near] = love._cauchy_moments(x[near] + 1j * y[near], order).imag @ to_nodes / PI
    w = np.add(w[0], w[1], out=w[0]).reshape(-1, len(d))
    return np.ascontiguousarray(w.T)


@pytest.mark.parametrize("order", [16, 32])
def test_rows_and_edges_keep_the_bits_of_the_masked_gather(order):
    # kappa on both sides of ~0.2128, 2/9 and ~0.2752: no panel of the
    # default mesh can hold a pair inside the rho = 4 ellipse, and _rows
    # skips its mid- and near-field pass, from ~0.2128 up to 2/9 (where the
    # uniform panels go from three to two) and from ~0.2752 up;
    # targets as a solve (nodes, or nodes and midpoints) and interpolate
    # (x = 0 at d = 1, |x| > 1 at d < 0) pass
    kappas = np.concatenate([np.geomspace(1e-3, 1e3, 19),
                             [0.2, 0.2127, 0.213, 0.222, 0.2223, 0.275, 0.2753, 0.28]])
    skipped = 0
    for kappa in kappas:
        edges = love._edges(kappa)
        assert np.array_equal(edges, linspace_edges(kappa))
        h = 0.5 * (edges[1:] - edges[:-1])
        skipped += bool(np.all((kappa / h) ** 2 > love._FAR ** 2 - 1.0))
        d, _ = love._nodes(edges, order)
        for t in (d, np.concatenate([d, love._midpoints(d, order), [1.0, -0.5, -3.0]])):
            assert np.array_equal(love._rows(kappa, edges, order, t),
                                  masked_rows(kappa, edges, order, t))
    assert 0 < skipped < len(kappas)


@pytest.mark.parametrize("kappa", [1.0, 0.1, 0.02, 0.01])
def test_solve_matches_dense_oracle(kappa):
    # the subtracted system on brute-force weights, solved densely
    sol = ll.solve_love(ll.LoveProblem(kappa=kappa))
    edges, order = love._mesh(kappa, len(sol.nodes))
    d, _ = love._nodes(edges, order)
    w = brute_rows(kappa, edges, order, d)
    a = np.diag(leak(kappa, d) + w.sum(axis=1)) - w
    f = np.linalg.solve(a, np.full(len(d), sol.problem.v0))
    dense = ll.observables(dataclasses.replace(sol, f=np.concatenate([f, f[::-1]])))
    fast = ll.observables(sol)
    assert fast.gamma == pytest.approx(dense.gamma, rel=1e-13, abs=0.0)
    assert fast.capacitance == pytest.approx(dense.capacitance, rel=1e-13, abs=0.0)
    assert fast.energy == pytest.approx(dense.energy, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("kappa, m", [(0.3, 64), (1.0, 48)])
def test_refinement_reaches_the_solution_of_the_discrete_system(kappa, m):
    # the solver's own subtracted system, diag(leak + sum_{j != i} W_ij) - W
    # on its double rows, solved in mpmath at 34 digits: after the
    # refinement step f is within 1.6e-16 of it per entry, and without the
    # step within 1.2e-15 (kappa = 0.3) and 6.2e-16 (kappa = 1)
    mpmath = pytest.importorskip("mpmath")
    sol = ll.solve_love(ll.LoveProblem(kappa=kappa))
    edges, order = love._mesh(kappa, len(sol.nodes))
    d, _ = love._nodes(edges, order)
    assert len(d) == m
    w = love._rows(kappa, edges, order, np.concatenate([d, love._midpoints(d, order)]))[:m]
    leak = love._leak(kappa, d)
    f = sol.f[:m]
    with mpmath.workdps(34):
        a = -mpmath.matrix(w.tolist())
        for i in range(m):
            a[i, i] = mpmath.mpf(leak[i]) + mpmath.fsum(w[i, j] for j in range(m) if j != i)
        exact = mpmath.lu_solve(a, mpmath.matrix([sol.problem.v0] * m))
        worst = max(abs((f[i] - exact[i]) / exact[i]) for i in range(m))
    assert worst <= 4e-16


def test_solve_memory_at_the_kappa_floor():
    problem = ll.LoveProblem(kappa=1e-3)
    ll.solve_love(problem)                # warm the per-order tables
    tracemalloc.start()
    try:
        ll.solve_love(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_interpolate_matches_brute_force_rows():
    # the Nystrom interpolant of the subtracted equation, from oracle rows
    sol = ll.solve_love(ll.LoveProblem(kappa=0.05))
    edges, order = love._mesh(0.05, len(sol.nodes))
    x = np.linspace(-1.0, 1.0, 301)
    d = 1.0 - np.abs(x)
    w = brute_rows(0.05, edges, order, d)
    f = sol.f[:len(sol.f) // 2]
    expected = (sol.problem.v0 + w @ f) / (leak(0.05, d) + w.sum(axis=1))
    np.testing.assert_allclose(interpolate(sol, x), expected, rtol=1e-14, atol=0.0)
    half = len(sol.nodes) // 2
    np.testing.assert_allclose(interpolate(sol, sol.nodes[:half]), f, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("order", [16, 32])
@pytest.mark.parametrize("kappa", [1e-3, 0.05, 1.0, 100.0])
def test_one_rows_call_serves_the_system_and_the_defect_check(kappa, order):
    # a solve's one rows call over its nodes and its midpoints gives each
    # block the rows of a call on that block alone, to rounding
    edges = love._edges(kappa)
    d, _ = love._nodes(edges, order)
    mid = love._midpoints(d, order)
    alone = (love._rows(kappa, edges, order, d), love._rows(kappa, edges, order, mid))
    joined = love._rows(kappa, edges, order, np.concatenate([d, mid]))
    assert joined.shape == (len(d) + len(mid), len(d)) and joined.flags.c_contiguous
    for block, rows in zip((slice(0, len(d)), slice(len(d), None)), alone):
        scale = np.max(np.abs(rows), axis=1, keepdims=True)
        assert np.all(np.abs(joined[block] - rows) <= 1e-15 * scale)


def test_solve_without_the_check_builds_no_midpoint_rows(monkeypatch):
    targets, rows_of = [], love._rows

    def rows(kappa, edges, order, d):
        targets.append(len(d))
        return rows_of(kappa, edges, order, d)

    monkeypatch.setattr(love, "_rows", rows)
    sol = ll.solve_love(ll.LoveProblem(kappa=0.05), check_residual=False)
    nodes = len(sol.nodes) // 2          # on [0, 1], 16 per panel
    assert targets == [nodes] and math.isnan(sol.residual)
    ll.solve_love(ll.LoveProblem(kappa=0.05))
    assert targets[1] == nodes + nodes // 16 * 15


# central-difference weights of the 8th-order first derivative, steps 1..4
_D8 = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)


@pytest.mark.parametrize("kappa", np.geomspace(1.2e-3, 3000.0, 9))
def test_edge_sum_rule(kappa):
    """m0(kappa) - kappa m0'(kappa) = 2 f(1)^2 / v0, an exact identity.

    On [-B, B], let f_B solve f - K_B f = v0 with the even kernel k and
    M(B) = int_{-B}^{B} f_B.  Differentiating the equation in B gives
    (I - K_B) df/dB = f(B) [k(x - B) + k(x + B)], by the evenness of f.
    As K_B is symmetric and (I - K_B)^{-1} v0 = f,
        int df/dB = (f(B) / v0) int f(y) [k(y - B) + k(y + B)] dy
                  = (2 f(B) / v0) (K_B f)(B) = (2 f(B) / v0) (f(B) - v0),
    the last step by the equation at x = B.  So dM/dB = 2 f(B) + int
    df/dB = 2 f(B)^2 / v0.  Scaling x = B s gives M(B) = B m0(kappa / B),
    so dM/dB at B = 1 is m0 - kappa m0'.  Here m0' is the 8th-order
    central difference with h = 1e-2 kappa, and f(1) the interpolant's.
    """
    h = 1e-2 * kappa

    def m0(k):
        return ll.moments(ll.solve_love(ll.LoveProblem(kappa=k), check_residual=False))[0]

    dm0 = sum(c * (m0(kappa + j * h) - m0(kappa - j * h))
              for j, c in enumerate(_D8, start=1)) / h
    sol = ll.solve_love(ll.LoveProblem(kappa=kappa))
    edge = float(interpolate(sol, 1.0)[0])
    lhs = ll.moments(sol)[0] - kappa * dm0
    assert lhs == pytest.approx(2.0 * edge * edge / sol.problem.v0, rel=2e-13, abs=0.0)


@pytest.mark.parametrize("kappa", np.geomspace(1.2e-3, 3000.0, 9))
def test_second_edge_sum_rule(kappa):
    """3 m2(kappa) - kappa m2'(kappa) = 2 f(1) g(1), with (I - K) g = x^2.

    With f_B as in test_edge_sum_rule, let M2(B) = int_{-B}^{B} x^2 f_B
    and g_B solve (I - K_B) g = x^2, an even function.  As K_B is
    symmetric,
        int x^2 df/dB = f(B) int g(y) [k(y - B) + k(y + B)] dy
                      = 2 f(B) (K_B g)(B) = 2 f(B) (g(B) - B^2),
    the last step by g's equation at x = B.  So dM2/dB = 2 B^2 f(B) + int
    x^2 df/dB = 2 f(B) g(B).  Scaling x = B s gives M2(B) = B^3 m2(kappa /
    B), so dM2/dB at B = 1 is 3 m2 - kappa m2'.  Here m2' is the 8th-order
    central difference with h = 1e-2 kappa, f(1) the interpolant's, and g
    is solved on the solver's own rows as solve_love solves f: one dense
    solve and one refinement step in the subtracted form.  g(1) is the
    subtracted equation at d = 0, (1 + W g) / (leak + sum W).
    """
    h = 1e-2 * kappa

    def m2(k):
        return ll.moments(ll.solve_love(ll.LoveProblem(kappa=k), check_residual=False))[1]

    dm2 = sum(c * (m2(kappa + j * h) - m2(kappa - j * h))
              for j, c in enumerate(_D8, start=1)) / h
    sol = ll.solve_love(ll.LoveProblem(kappa=kappa))
    edges, order = love._mesh(kappa)
    d, _ = love._nodes(edges, order)
    w = love._rows(kappa, edges, order, np.append(d, 0.0))
    leak = love._leak(kappa, np.append(d, 0.0))
    m = len(d)
    rhs = (1.0 - d) ** 2
    system = np.eye(m) - w[:m]
    g = np.linalg.solve(system, rhs)
    g += np.linalg.solve(system, rhs - love._subtracted(leak[:m], w[:m], g, g))
    g_edge = (1.0 + w[m] @ g) / (leak[m] + w[m].sum())
    f_edge = float(interpolate(sol, 1.0)[0])
    lhs = 3.0 * ll.moments(sol)[1] - kappa * dm2
    assert lhs == pytest.approx(2.0 * f_edge * g_edge, rel=2e-13, abs=0.0)


def test_interpolate_refuses_nan(gas_solution_k1):
    with pytest.raises(DomainError):
        interpolate(gas_solution_k1, np.array([0.5, math.nan]))


def test_interpolate_keeps_the_shape_of_its_input(gas_solution_k1):
    # an array of np.atleast_1d(x)'s shape: empty in, empty out, and 2-D
    # input gives 2-D output with the values of the flat input
    sol = gas_solution_k1
    assert interpolate(sol, []).shape == (0,)
    assert interpolate(sol, np.zeros((0, 3))).shape == (0, 3)
    assert interpolate(sol, 0.25).shape == (1,)
    x = np.array([[-0.5, 0.0, 0.25], [0.75, 1.0, 2.0]])
    np.testing.assert_array_equal(interpolate(sol, x), interpolate(sol, x.ravel()).reshape(2, 3))
    with pytest.raises(DomainError):
        interpolate(sol, np.array([[0.5], [math.nan]]))


def test_interpolate_at_the_nodes_agrees_with_f():
    # not bit for bit: the quotient (v0 + W f) / (leak + sum W) rounds
    # otherwise than the solve; the worst, 2.5e-14 relative, is at kappa = 1e-3
    worst = 0.0
    for kappa in np.geomspace(1e-3, 1e3, 61):
        for budget in (1, 2):
            sol = ll.solve_love(ll.LoveProblem(kappa=kappa), budget * ll.default_node_count(kappa))
            half = len(sol.nodes) // 2
            f = sol.f[:half]
            worst = max(worst, float(np.max(np.abs(interpolate(sol, sol.nodes[:half]) / f - 1.0))))
    assert worst < 4e-14


def test_interpolate_at_infinity_is_v0(gas_solution_k1):
    # f(x) = v0 + (K f)(x) and (K f)(x) -> 0 as |x| -> inf
    sol = gas_solution_k1
    np.testing.assert_array_equal(interpolate(sol, np.array([-math.inf, math.inf])),
                                  sol.problem.v0)


def test_interpolate_beyond_the_interval_extends_the_equation():
    # for |x| > 1 the interpolant is v0 + (K f)(x), from oracle rows
    kappa = 0.05
    sol = ll.solve_love(ll.LoveProblem(kappa=kappa))
    edges, order = love._mesh(kappa, len(sol.nodes))
    x = np.array([-3.0, -1.2, -1.0 - 1e-6, 1.0 + 1e-3, 1.5, 10.0])
    f = sol.f[:len(sol.f) // 2]
    expected = sol.problem.v0 + brute_rows(kappa, edges, order, 1.0 - np.abs(x)) @ f
    np.testing.assert_allclose(interpolate(sol, x), expected, rtol=1e-13, atol=0.0)


def dense_defect(problem, edges, order, f):
    """Test-side residual check: the defect of the panel interpolant of f
    at the midpoints between adjacent nodes, from brute-force rows."""
    kappa, v0 = problem.kappa, problem.v0
    u = ll.gauss_legendre(order).nodes
    d, _ = love._nodes(edges, order)
    d = d.reshape(-1, order)
    mid = 0.5 * (d[:, 1:] + d[:, :-1]).ravel()
    p = (f.reshape(-1, order) @ lagrange_factors(u, 0.5 * (u[1:] + u[:-1])).T).ravel()
    return float(np.max(np.abs(p - v0 - brute_rows(kappa, edges, order, mid) @ f)))


@pytest.mark.parametrize("kappa", [1.0, 0.1, 0.02])
def test_residual_gate_flags_perturbed_solution(kappa):
    problem = ll.LoveProblem(kappa=kappa)
    sol = ll.solve_love(problem)
    edges, order = love._mesh(kappa, len(sol.nodes))
    d, _ = love._nodes(edges, order)
    f = sol.f[:len(d)]
    tol = love._RESIDUAL_TOL * problem.v0
    # the midpoint rows and leak as the solve takes them, from its one
    # rows call over the nodes and the midpoints
    mid = love._midpoints(d, order)
    w = love._rows(kappa, edges, order, np.concatenate([d, mid]))[len(d):]
    leak = love._leak(kappa, mid)
    assert love._defect(problem.v0, order, w, leak, f) <= tol
    # f raised by 1e-7 everywhere, by 1e-6 on the panel next to x = 0, and
    # by 1e-4 at the node nearest x = 1
    for bump in (np.full_like(d, 1e-7), 1e-6 * (d > edges[-2]), 1e-4 * (d == d[0])):
        perturbed = f * (1.0 + bump)
        residual = love._defect(problem.v0, order, w, leak, perturbed)
        assert not residual <= tol
        # the same check points and the same defect as brute-force rows
        # give; the defect is a small difference of O(max f) terms
        assert residual == pytest.approx(dense_defect(problem, edges, order, perturbed),
                                         rel=1e-6, abs=0.0)


# ----------------------------------------------------------------------
# operator norm.
# ----------------------------------------------------------------------

def test_operator_norm_closed_forms():
    assert operator_norm(1.0) == pytest.approx(0.5, abs=1e-15)
    assert operator_norm(math.sqrt(3.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert operator_norm(1e-9) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 5.0])
def test_discrete_operator_norm_matches(kappa):
    assert abs(operator_norm_discrete(kappa) - operator_norm(kappa)) < 1e-6


@pytest.mark.parametrize("kappa,n", [(5.0, None), (1.0, None), (0.05, None),
                                     (0.01, None), (0.3, 17), (0.3, 333)])
def test_operator_norm_discrete_matches_dense_rows(kappa, n):
    # the oracle's row sums over the nodes and x = 0, where the row
    # integral is largest
    edges, order = love._mesh(kappa, ll.default_node_count(kappa) if n is None else n)
    d, _ = love._nodes(edges, order)
    dense = float(np.max(brute_rows(kappa, edges, order, np.append(d, 1.0)).sum(axis=1)))
    assert operator_norm_discrete(kappa, n) == pytest.approx(dense, rel=0.0, abs=1e-15)


def test_operator_norm_discrete_at_the_kappa_floor():
    assert operator_norm_discrete(1e-3) == pytest.approx(
        operator_norm(1e-3), rel=0.0, abs=1e-12)


def test_operator_norm_discrete_memory_bounded():
    operator_norm_discrete(0.005)           # warm the per-order tables
    tracemalloc.start()
    try:
        operator_norm_discrete(0.005)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


# ----------------------------------------------------------------------
# moments and observables.
# ----------------------------------------------------------------------

def test_moments_weak_kernel_limit():
    # kappa -> inf: f -> v0, so m0 -> 2 v0 and m2 -> 2 v0 / 3
    v0 = 1.0
    sol = ll.solve_love(ll.LoveProblem(kappa=1e6, v0=v0), n=240)
    m0, m2 = ll.moments(sol)
    assert m0 == pytest.approx(2.0 * v0, rel=1e-5, abs=0)
    assert m2 == pytest.approx(2.0 * v0 / 3.0, rel=1e-5, abs=0)


def test_odd_moment_vanishes(gas_solution_k1):
    sol = gas_solution_k1
    m1 = float(np.dot(sol.weights, sol.nodes * sol.f))
    assert abs(m1) <= 1e-12


def test_gamma_capacitance_identity(gas_solution_k1):
    point = ll.observables(gas_solution_k1)
    assert point.gamma * point.capacitance == pytest.approx(point.kappa, rel=1e-10, abs=0)


def test_observables_independent_of_v0():
    a = ll.observables(ll.solve_love(ll.LoveProblem(kappa=0.5)))
    b = ll.observables(ll.solve_love(ll.LoveProblem(kappa=0.5, v0=1.0)))
    assert a.gamma == pytest.approx(b.gamma, rel=1e-12, abs=0)
    assert a.energy == pytest.approx(b.energy, rel=1e-12, abs=0)


def test_energy_via_third_moment_route(gas_solution_k1):
    # e = (pi/2) (gamma/kappa)^3 * int r^3 sigma must equal the m2 route
    sol = gas_solution_k1
    point = ll.observables(sol)
    tm = third_moment_sigma(sol)
    e_sigma = (PI / 2.0) * tm / point.capacitance ** 3
    assert e_sigma == pytest.approx(point.energy, rel=1e-12, abs=0)


def test_strong_coupling_energy_limit():
    # free-fermion limit with the universal hard-core correction
    sol = ll.solve_love(ll.LoveProblem(kappa=50.0), n=400)
    point = ll.observables(sol)
    tonks = PI ** 2 / 3.0 * (point.gamma / (point.gamma + 2.0)) ** 2
    assert point.energy == pytest.approx(tonks, rel=1e-4, abs=0)


def strong_coupling_series(gamma, terms):
    """The first terms of e(gamma) = (pi^2/3) (1 - 4/gamma + 12/gamma^2 +
    (32/15)(pi^2 - 15)/gamma^3 - (16/3)(4 pi^2 - 15)/gamma^4 + ...)."""
    coefficients = (1.0, -4.0, 12.0, (32.0 / 15.0) * (PI ** 2 - 15.0),
                    -(16.0 / 3.0) * (4.0 * PI ** 2 - 15.0))
    return PI ** 2 / 3.0 * sum(c / gamma ** k for k, c in enumerate(coefficients[:terms]))


@pytest.mark.parametrize("kappa,bound", [(300.0, 3e-12), (1e3, 1e-14), (3e3, 1e-14)])
def test_strong_coupling_series_oracle(kappa, bound):
    # the five-term 1/gamma series misses by about c5/gamma^5, c5 ~ +800:
    # 1.1e-12 at kappa = 300, 2.3e-15 at 1e3 and -6.8e-16 at 3e3 (all
    # relative).  Every (target, panel) pair takes
    # the plain-Gauss far branch here, and a leak that disagrees with the
    # rows shows as a break in e(gamma); an error in the weights' scale acts
    # as a change of kappa and does not
    point = ll.observables(ll.solve_love(ll.LoveProblem(kappa=kappa)))
    e5 = strong_coupling_series(point.gamma, 5)
    assert abs(point.energy - e5) <= bound * point.energy
    if kappa == 1e3:
        # four terms miss by 1.3e-12: the bound tells the gamma^-4 term apart
        e4 = strong_coupling_series(point.gamma, 4)
        assert not abs(point.energy - e4) <= bound * point.energy


def test_free_fermion_limit_value():
    # e -> pi^2/3 itself once kappa is large enough that 4/gamma is le 1e-6
    point = ll.observables(ll.solve_love(ll.LoveProblem(kappa=1e6), n=240))
    assert point.energy == pytest.approx(PI ** 2 / 3.0, rel=1e-5, abs=0)
    assert point.gamma == pytest.approx(PI * 1e6, rel=1e-5, abs=0)


def test_huge_kappa_reaches_the_free_limit_quietly():
    # the kernel vanishes: f = v0, with no overflow warning on the way, up
    # to the largest kappa whose pi kappa, and so gamma, is finite
    for kappa in (1e200, 3e307, 5.72e307):
        sol = ll.solve_love(ll.LoveProblem(kappa=kappa, v0=1.0))
        np.testing.assert_allclose(sol.f, 1.0, rtol=1e-15, atol=0.0)
        assert sol.residual <= 1e-8
        assert math.isfinite(ll.observables(sol).gamma)


@pytest.mark.parametrize("kappa", [5.73e307, 1.7e308])
def test_kappa_whose_pi_kappa_overflows_is_refused(kappa):
    with pytest.raises(DomainError, match=r"pi \* kappa must lie in \(0, inf\)"):
        ll.LoveProblem(kappa=kappa)


def test_infinite_plate_capacitance_limit():
    # 4 kappa C -> 1 like O(kappa log kappa)
    for kappa in (0.1, 0.02):
        point = ll.observables(ll.solve_love(ll.LoveProblem(kappa=kappa)))
        assert abs(4.0 * kappa * point.capacitance - 1.0) <= \
            2.0 * kappa * abs(math.log(kappa))


def test_energy_linear_at_weak_coupling(weak_coupling_points):
    smallest = min(weak_coupling_points, key=lambda p: p.gamma)
    assert smallest.energy / smallest.gamma == pytest.approx(1.0, abs=0.06)


# ----------------------------------------------------------------------
# third moment of sigma.
# ----------------------------------------------------------------------

def test_third_moment_constant_density_limit():
    v0 = 1.0
    sol = ll.solve_love(ll.LoveProblem(kappa=1e6, v0=v0), n=240)
    assert third_moment_sigma(sol) == pytest.approx(
        2.0 * v0 / (3.0 * PI * PI), rel=1e-5, abs=0)


def test_third_moment_infinite_plate_trend():
    # int r^3 sigma -> 1/(8 pi kappa): the rescaled value tends to 1
    devs = []
    for kappa in (0.1, 0.05, 0.02):
        sol = ll.solve_love(ll.LoveProblem(kappa=kappa, v0=1.0))
        devs.append(abs(third_moment_sigma(sol) * 8.0 * PI * kappa - 1.0))
    assert devs == sorted(devs, reverse=True)
    assert devs[-1] < 0.25


def test_third_moment_vs_expansion(capacitor_solution_k005):
    # kappa = 0.05 -> eps = 0.025; cross-module agreement within the
    # o(eps) budget 3 eps |log eps|
    eps = 0.025
    breakdown = third_moment_expansion(eps)
    numeric = 4.0 * PI * third_moment_sigma(capacitor_solution_k005)
    assert abs(numeric - breakdown.third_moment) <= 3.0 * eps * abs(math.log(eps))


# ----------------------------------------------------------------------
# weak-coupling fit.
# ----------------------------------------------------------------------

def test_fit_recovers_synthetic_coefficient():
    gammas = np.geomspace(2e-3, 5e-2, 9)
    points = [ll.EnergyPoint(kappa=math.nan, gamma=g, capacitance=math.nan,
                             energy=ll.energy_series("takahashi", g))
              for g in gammas]
    c2, residual = ll.weak_coupling_fit(points)
    assert c2 == pytest.approx(ll.ENERGY_GAMMA2, abs=1e-10)
    assert residual < 1e-12


def test_fit_on_solver_points(weak_coupling_points):
    c2, residual = ll.weak_coupling_fit(weak_coupling_points)
    assert c2 == pytest.approx(ll.ENERGY_GAMMA2, rel=0.10, abs=0)
    # the rival coefficient must sit far outside the fit's 3 sigma band
    g = np.array([p.gamma for p in weak_coupling_points])
    e = np.array([p.energy for p in weak_coupling_points])
    r = (e - g + 4.0 / (3.0 * PI) * g ** 1.5) / g ** 2
    design = np.column_stack([np.ones_like(g), np.sqrt(g)])
    coef, *_ = np.linalg.lstsq(design, r, rcond=None)
    dof = len(g) - 2
    cov = (np.sum((r - design @ coef) ** 2) / dof) * np.linalg.inv(design.T @ design)
    sigma_c2 = math.sqrt(cov[0, 0])
    assert abs(c2 - ll.ENERGY_GAMMA2_RIVAL) > 3.0 * sigma_c2


def test_fit_window_guards():
    good = [ll.EnergyPoint(math.nan, g, math.nan, g) for g in
            np.geomspace(2e-3, 4e-2, 6)]
    with pytest.raises(WindowError):
        ll.weak_coupling_fit(good[:4])
    bad = good + [ll.EnergyPoint(math.nan, 0.3, math.nan, 0.3)]
    with pytest.raises(WindowError):
        ll.weak_coupling_fit(bad)


def test_fit_refuses_a_single_gamma():
    # five copies of one point make a rank-1 design, whose minimum-norm
    # least-squares answer is no fit
    points = [ll.EnergyPoint(math.nan, 0.01, math.nan,
                             ll.energy_series("takahashi", 0.01))] * 5
    with pytest.raises(WindowError, match="two distinct gamma"):
        ll.weak_coupling_fit(points)


def test_fit_refuses_a_grid_too_narrow_to_tell_c2_from_c3():
    # nine distinct gammas within one ulp: the design has rank 1 (singular
    # values 3.5e16 apart), and the fit used to print c2 = 0.0647
    points = [ll.EnergyPoint(math.nan, g, math.nan, ll.energy_series("takahashi", g))
              for g in np.geomspace(0.01, 0.01000000000000001, 9)]
    assert len({p.gamma for p in points}) > 1
    with pytest.raises(ConditioningError, match="rank 1 of 2"):
        ll.weak_coupling_fit(points)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_refuses_a_non_finite_energy(bad):
    points = [ll.EnergyPoint(math.nan, g, math.nan, ll.energy_series("takahashi", g))
              for g in np.geomspace(2e-3, 5e-2, 9)]
    points[4] = dataclasses.replace(points[4], energy=bad)
    with pytest.raises(DomainError, match="every energy must be finite"):
        ll.weak_coupling_fit(points)


def test_fit_rejects_nan_gamma():
    points = [ll.EnergyPoint(math.nan, g, math.nan, g) for g in
              np.geomspace(2e-3, 4e-2, 6)]
    points.append(ll.EnergyPoint(math.nan, math.nan, math.nan, math.nan))
    with pytest.raises(WindowError):
        ll.weak_coupling_fit(points)
