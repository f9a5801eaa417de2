import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lovelab as ll
from lovelab import love
from lovelab.errors import ConvergenceError, DomainError, ResolutionError, WindowError

PI = math.pi


def dense_kernel(kappa, x, y, wy):
    """Dense Nystrom kernel matrix k(x_i - y_j) wy_j (test-side oracle)."""
    return (kappa / PI) * wy[None, :] / ((x[:, None] - y[None, :]) ** 2 + kappa * kappa)


def kernel_apply(sol, values):
    """One application of the discrete Love operator (test-side)."""
    return dense_kernel(sol.problem.kappa, sol.nodes, sol.nodes, sol.weights) @ values


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
    resampled = sol.interpolate(-sol.nodes)
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
        f0 = float(sol.interpolate(np.array([0.0]))[0])
        devs.append(abs(f0 * kappa - 1.0))
    assert devs[-1] < 0.05
    assert devs[1] < devs[0]


def test_monotone_in_kappa():
    # stronger kernel (smaller kappa) lifts the solution everywhere
    previous = None
    for kappa in (2.0, 1.0, 0.5, 0.25):
        sol = ll.solve_love(ll.LoveProblem(kappa=kappa, v0=1.0))
        value = float(sol.interpolate(np.array([0.37]))[0])
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


def test_kappa_floor_refused_before_any_kernel(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("kernel built below the kappa floor")

    monkeypatch.setattr(love, "_panel_kernel", no_kernel)
    with pytest.raises(ResolutionError):
        ll.solve_love(ll.LoveProblem(kappa=9e-4))
    with pytest.raises(ResolutionError):          # an explicit budget too
        ll.solve_love(ll.LoveProblem(kappa=1.0), n=love._MAX_NODES + 48)


def test_solve_at_the_kappa_floor():
    problem = ll.LoveProblem(kappa=1e-3)
    sol = ll.solve_love(problem)
    assert ll.default_node_count(1e-3) == len(sol.nodes) == love._MAX_NODES
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
    monkeypatch.setattr(love, "_collocation_residual", lambda *args: math.nan)
    with pytest.raises(ResolutionError):
        ll.solve_love(ll.LoveProblem(kappa=1.0))


def test_conjugate_gradients_rejects_nan():
    with pytest.raises(ConvergenceError):
        love._conjugate_gradients(lambda u: u * math.nan, np.ones((4, 8)), 1.0)


def test_conjugate_gradients_iteration_cap(monkeypatch):
    monkeypatch.setattr(love, "_CG_MAX_ITER", 2)
    with pytest.raises(ConvergenceError):
        ll.solve_love(ll.LoveProblem(kappa=0.1))


# ----------------------------------------------------------------------
# matrix-free kernel products.
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(kappa=st.floats(0.02, 100.0), n=st.integers(16, 2000),
       targets=st.sampled_from(["nodes", "fine", "midpoints"]),
       fine_sources=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(kappa=1.0, n=72, targets="midpoints", fine_sources=False, seed=0)  # 9-point rule
@example(kappa=1.0, n=72, targets="nodes", fine_sources=True, seed=1)
def test_panel_kernel_matches_dense_product(kappa, n, targets, fine_sources, seed):
    # targets: the mesh nodes themselves, the doubled Gauss rule on the same
    # panels, or the panel edges and node midpoints (the residual check's
    # products); sources: the mesh rule or the doubled rule (B x 2B blocks)
    panels, rule = love._mesh(kappa, n)
    source = ll.gauss_legendre(2 * len(rule)) if fine_sources else rule
    y, w = love._nodes(panels, source)
    if targets == "midpoints":
        tau = rule.nodes / panels
        tau = np.concatenate([[-1.0 / panels], 0.5 * (tau[:-1] + tau[1:]), [1.0 / panels]])
        centres = np.linspace(-1.0, 1.0, panels + 1)[:-1] + 1.0 / panels
        x = (centres[:, None] + tau).ravel()
    else:
        target = ll.gauss_legendre(2 * len(rule)) if targets == "fine" else rule
        tau = target.nodes / panels
        x, _ = love._nodes(panels, target)
    u = np.random.default_rng(seed).standard_normal(len(y))
    k = dense_kernel(kappa, x, y, w)
    apply = love._panel_kernel(kappa, panels, tau, source.nodes / panels,
                               source.weights / panels)
    fast = apply(u.reshape(panels, len(source))).ravel()
    # relative to |K| |u|, the scale of rounding in any matvec: at large
    # kappa, K u of a zero-mean u cancels far below it
    assert np.max(np.abs(fast - k @ u)) <= 1e-13 * np.max(np.abs(k) @ np.abs(u))


@pytest.mark.parametrize("which", ["targets", "sources", "weights"])
def test_panel_kernel_refuses_unmirrored_offsets(which):
    # the spectrum of the lower target rows is the mirror image of the upper
    # ones only for mirror-symmetric offsets and weights
    panels, rule = love._mesh(1.0, 240)
    tau, w = rule.nodes / panels, rule.weights / panels
    args = {"tau": tau, "s": tau, "ws": w}
    if which == "targets":
        args["tau"] = np.append(tau, -1.0 / panels)
    elif which == "sources":
        args["s"], args["ws"] = tau + 0.1 / panels, w
    else:
        args["ws"] = w * np.linspace(1.0, 2.0, len(w))
    with pytest.raises(DomainError):
        love._panel_kernel(1.0, panels, **args)


@pytest.mark.parametrize("kappa", [1.0, 0.1, 0.02, 0.01])
def test_solve_matches_dense_oracle(kappa):
    sol = ll.solve_love(ll.LoveProblem(kappa=kappa))
    a = dense_kernel(kappa, sol.nodes, sol.nodes, sol.weights)
    np.negative(a, out=a)
    a[np.diag_indices_from(a)] += 1.0
    f = np.linalg.solve(a, np.full(len(sol.nodes), sol.problem.v0))
    del a
    dense = ll.observables(dataclasses.replace(sol, f=f))
    fast = ll.observables(sol)
    assert fast.gamma == pytest.approx(dense.gamma, rel=1e-13, abs=0.0)
    assert fast.capacitance == pytest.approx(dense.capacitance, rel=1e-13, abs=0.0)
    assert fast.energy == pytest.approx(dense.energy, rel=1e-13, abs=0.0)


def test_solve_forms_no_dense_matrix():
    problem = ll.LoveProblem(kappa=0.01)
    ll.solve_love(problem)                # warm the Gauss-rule cache
    tracemalloc.start()
    try:
        sol = ll.solve_love(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(sol.nodes) ** 2 / 4


def dense_defect(problem, panels, rule, f):
    """Test-side residual check: the defect of the Nystrom interpolant at
    each node midpoint and each interior panel edge, from dense kernel rows
    in blocks of 256 targets."""
    kappa, v0 = problem.kappa, problem.v0
    y, w = love._nodes(panels, rule)
    z, wz = love._nodes(panels, ll.gauss_legendre(2 * len(rule)))
    edges = np.linspace(-1.0, 1.0, panels + 1)
    nodes = y.reshape(panels, len(rule))
    mid = np.column_stack([0.5 * (nodes[:, :-1] + nodes[:, 1:]), edges[1:]]).ravel()[:-1]

    def apply(x, ys, ws, u):
        return np.concatenate([dense_kernel(kappa, x[i:i + 256], ys, ws) @ u
                               for i in range(0, len(x), 256)])

    interpolant = v0 + apply(z, y, w, f)
    return float(np.max(np.abs(apply(mid, y, w, f) - apply(mid, z, wz, interpolant))))


@pytest.mark.parametrize("kappa", [1.0, 0.1, 0.02])
def test_residual_gate_flags_perturbed_solution(kappa):
    problem = ll.LoveProblem(kappa=kappa)
    sol = ll.solve_love(problem)
    panels, rule = love._mesh(kappa, ll.default_node_count(kappa))
    tol = love._RESIDUAL_TOL * problem.v0
    assert love._collocation_residual(problem, panels, rule, sol.f) <= tol
    # f raised by 1e-7 everywhere, by 1e-6 on the two panels that meet at
    # x = 0 (the defect peaks on that panel edge), and by 1e-4 at the last
    # node (the defect would peak at x = 1, which the check leaves out)
    h, x = 2.0 / panels, sol.nodes
    for bump in (np.full_like(x, 1e-7), 1e-6 * (np.abs(x) < h), 1e-4 * (x == x[-1])):
        perturbed = sol.f * (1.0 + bump)
        residual = love._collocation_residual(problem, panels, rule, perturbed)
        assert not residual <= tol
        # the same check points and the same defect as dense rows give; the
        # defect is a small difference of O(max f) terms, so the two agree to
        # about 1e-15 max f (measured: at most 3.4e-7 relative, at kappa 0.02)
        assert residual == pytest.approx(dense_defect(problem, panels, rule, perturbed),
                                         rel=1e-6, abs=0.0)


# ----------------------------------------------------------------------
# operator norm.
# ----------------------------------------------------------------------

def test_operator_norm_closed_forms():
    assert ll.operator_norm(1.0) == pytest.approx(0.5, abs=1e-15)
    assert ll.operator_norm(math.sqrt(3.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert ll.operator_norm(1e-9) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 5.0])
def test_discrete_operator_norm_matches(kappa):
    assert abs(ll.operator_norm_discrete(kappa) - ll.operator_norm(kappa)) < 1e-6


def test_dense_helpers_work_in_bounded_blocks(monkeypatch):
    # interpolate, the one dense-row helper, at 43 blocks and at one row each
    sol = ll.solve_love(ll.LoveProblem(kappa=0.05))
    x = np.linspace(-1.0, 1.0, 301)
    whole = sol.problem.v0 + dense_kernel(0.05, x, sol.nodes, sol.weights) @ sol.f
    for rows in (7, 1):
        monkeypatch.setattr(love, "_ROW_BLOCK", rows * len(sol.nodes))
        np.testing.assert_allclose(sol.interpolate(x), whole, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kappa,n", [(5.0, None), (1.0, None), (0.05, None),
                                     (0.01, None), (0.3, 17), (0.3, 333)])
def test_operator_norm_discrete_matches_dense_rows(kappa, n):
    # the dense row sums over the nodes and x = 0, where the row integral
    # is largest, against the panel-kernel product
    panels, rule = love._mesh(kappa, ll.default_node_count(kappa) if n is None else n)
    y, w = love._nodes(panels, rule)
    x = np.append(y, 0.0)
    dense = max(float(np.max(dense_kernel(kappa, x[i:i + 256], y, w).sum(axis=1)))
                for i in range(0, len(x), 256))
    assert ll.operator_norm_discrete(kappa, n) == pytest.approx(dense, rel=0.0, abs=1e-15)


def test_operator_norm_discrete_at_the_kappa_floor():
    # 48000 nodes: dense rows would take seconds here
    assert ll.operator_norm_discrete(1e-3) == pytest.approx(
        ll.operator_norm(1e-3), rel=0.0, abs=1e-12)


def test_operator_norm_discrete_memory_bounded():
    ll.operator_norm_discrete(0.05)            # warm the 24-point Gauss rule
    tracemalloc.start()
    try:
        ll.operator_norm_discrete(0.005)       # 9600 nodes
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
    assert m0 == pytest.approx(2.0 * v0, rel=1e-5)
    assert m2 == pytest.approx(2.0 * v0 / 3.0, rel=1e-5)


def test_odd_moment_vanishes(gas_solution_k1):
    sol = gas_solution_k1
    m1 = float(np.dot(sol.weights, sol.nodes * sol.f))
    assert abs(m1) <= 1e-12


def test_gamma_capacitance_identity(gas_solution_k1):
    point = ll.observables(gas_solution_k1)
    assert point.gamma * point.capacitance == pytest.approx(point.kappa, rel=1e-10)


def test_observables_independent_of_v0():
    a = ll.observables(ll.solve_love(ll.LoveProblem(kappa=0.5)))
    b = ll.observables(ll.solve_love(ll.LoveProblem(kappa=0.5, v0=1.0)))
    assert a.gamma == pytest.approx(b.gamma, rel=1e-12)
    assert a.energy == pytest.approx(b.energy, rel=1e-12)


def test_energy_via_third_moment_route(gas_solution_k1):
    # e = (pi/2) (gamma/kappa)^3 * int r^3 sigma must equal the m2 route
    sol = gas_solution_k1
    point = ll.observables(sol)
    tm = ll.third_moment_sigma(sol)
    e_sigma = (PI / 2.0) * tm / point.capacitance ** 3
    assert e_sigma == pytest.approx(point.energy, rel=1e-12)


def test_strong_coupling_energy_limit():
    # free-fermion limit with the universal hard-core correction
    sol = ll.solve_love(ll.LoveProblem(kappa=50.0), n=400)
    point = ll.observables(sol)
    tonks = PI ** 2 / 3.0 * (point.gamma / (point.gamma + 2.0)) ** 2
    assert point.energy == pytest.approx(tonks, rel=1e-4)


def test_free_fermion_limit_value():
    # e -> pi^2/3 itself once kappa is large enough that 4/gamma is le 1e-6
    point = ll.observables(ll.solve_love(ll.LoveProblem(kappa=1e6), n=240))
    assert point.energy == pytest.approx(PI ** 2 / 3.0, rel=1e-5)
    assert point.gamma == pytest.approx(PI * 1e6, rel=1e-5)


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
    assert ll.third_moment_sigma(sol) == pytest.approx(
        2.0 * v0 / (3.0 * PI * PI), rel=1e-5)


def test_third_moment_infinite_plate_trend():
    # int r^3 sigma -> 1/(8 pi kappa): the rescaled value tends to 1
    devs = []
    for kappa in (0.1, 0.05, 0.02):
        sol = ll.solve_love(ll.LoveProblem(kappa=kappa, v0=1.0))
        devs.append(abs(ll.third_moment_sigma(sol) * 8.0 * PI * kappa - 1.0))
    assert devs == sorted(devs, reverse=True)
    assert devs[-1] < 0.25


def test_third_moment_vs_expansion(capacitor_solution_k005):
    # kappa = 0.05 -> eps = 0.025; cross-module agreement within the
    # o(eps) budget 3 eps |log eps|
    eps = 0.025
    breakdown = ll.third_moment_expansion(eps)
    numeric = 4.0 * PI * ll.third_moment_sigma(capacitor_solution_k005)
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
    assert c2 == pytest.approx(ll.ENERGY_GAMMA2, rel=0.10)
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


def test_fit_rejects_nan_gamma():
    points = [ll.EnergyPoint(math.nan, g, math.nan, g) for g in
              np.geomspace(2e-3, 4e-2, 6)]
    points.append(ll.EnergyPoint(math.nan, math.nan, math.nan, math.nan))
    with pytest.raises(WindowError):
        ll.weak_coupling_fit(points)
