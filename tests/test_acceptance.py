"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, none is configurable.
"""

import json
import math
import time

import numpy as np
import pytest

import lovelab as ll
from lovelab.cli import main
from lovelab.specfun import _ke_vec, _w_upper_from_offset
from oracles.asymptotics import ground_state_series, j_split, k2_energy_integral
from oracles.love import interpolate, operator_norm, operator_norm_discrete

PI = math.pi


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_01_takahashi_coefficient(capsys, tmp_path):
    start = time.time()
    path = tmp_path / "fit.json"
    code = main(["fit-weak", "--gamma-min", "2e-3", "--gamma-max", "5e-2",
                 "--gamma-points", "9", "--format", "json",
                 "--output", str(path)])
    elapsed = time.time() - start
    row = json.loads(path.read_text())[0]
    c2, residual = row["c2"], row["fit_residual"]
    target = 1.0 / 6.0 - 1.0 / PI ** 2
    rival = 1.0 / 8.0 - 1.0 / PI ** 2
    ok = (code == 0
          and abs(c2 - target) <= 0.10 * target
          and abs(c2 - rival) > 5.0 * residual
          and elapsed <= 300.0)
    with capsys.disabled():
        report(1, ok, f"c2={c2:.6f} target={target:.6f} "
                      f"(rival excluded by {abs(c2 - rival) / residual:.0f} "
                      f"residuals), {elapsed:.1f}s")


def test_02_capacitance_expansions(capsys):
    start = time.time()
    rows = []
    for kappa in (0.1, 0.05, 0.02):
        c = ll.observables(ll.solve_love(ll.LoveProblem(kappa=kappa))).capacitance
        err_k = abs(c - ll.capacitance_series("kirchhoff", kappa))
        err_e = abs(c - ll.capacitance_series("extended", kappa))
        rows.append((kappa, err_k, err_e))
    elapsed = time.time() - start
    ok = all(err_k <= 0.5 * kappa * abs(math.log(kappa)) and err_e < err_k
             for kappa, err_k, err_e in rows)
    ratios = [err_e / kappa for kappa, _, err_e in rows]
    ok = ok and ratios == sorted(ratios, reverse=True) and elapsed <= 120.0
    with capsys.disabled():
        report(2, ok, "err_extended/kappa = "
               + ", ".join(f"{r:.2e}" for r in ratios) + f", {elapsed:.1f}s")


def test_03_gamma0(capsys):
    r = ll.verify_gamma0()
    ok = r.abs_error <= 1e-8
    with capsys.disabled():
        report(3, ok, f"gamma0 error {r.abs_error:.2e} (target {r.target:.9f})")


def test_04_gamma1(capsys):
    r = ll.verify_gamma1()
    ok = r.abs_error <= 1e-8
    with capsys.disabled():
        report(4, ok, f"gamma1 error {r.abs_error:.2e} (target {r.target:.9f})")


def test_05_gamma2_two_routes(capsys):
    route_a, route_b = ll.verify_gamma2()
    agreement = abs(route_a.computed - route_b.computed)
    ok = (agreement <= 1e-9 and route_a.digits >= 13 and route_b.digits >= 13
          and abs(route_a.target - (-0.442303459247)) < 1e-12)
    with capsys.disabled():
        report(5, ok, f"routes agree to {agreement:.2e}; digits "
                      f"{route_a.digits}/{route_b.digits}")


def test_06_integral4(capsys):
    r = ll.verify_integral4()
    ok = r.digits >= 13
    with capsys.disabled():
        report(6, ok, f"integral4 digits={r.digits} error {r.abs_error:.2e}")


def test_07_polylog_claims(capsys):
    reports = ll.verify_polylog_claim([1, 2, 3, 4])
    targets = [-1.0, -0.5, -5.0 / 12.0, -7.0 / 18.0]
    ok = all(r.digits >= 13 for r in reports) and all(
        r.target == pytest.approx(t, rel=1e-15, abs=0)
        for r, t in zip(reports, targets))
    with capsys.disabled():
        report(7, ok, "digits " + ", ".join(str(r.digits) for r in reports))


def test_08_residue_identities(capsys):
    reports = ll.residue_identity([1, 2, 3, 4])
    ok = all(r.digits >= 13 for r in reports)
    with capsys.disabled():
        report(8, ok, "digits " + ", ".join(str(r.digits) for r in reports))


def test_09_operator_norm_law(capsys):
    gaps = [abs(operator_norm_discrete(k) - operator_norm(k))
            for k in (0.5, 1.0, 2.0, 5.0)]
    ok = all(g < 1e-6 for g in gaps)
    with capsys.disabled():
        report(9, ok, "norm gaps " + ", ".join(f"{g:.1e}" for g in gaps))


def test_10_delta_cancellation(capsys):
    eps = 1e-3
    totals = [sum(j_split(eps, delta)) for delta in (0.03, 0.06)]
    gap = abs(totals[0] - totals[1])
    ok = gap <= 0.02 * eps
    with capsys.disabled():
        report(10, ok, f"|J(delta=0.03) - J(delta=0.06)| = {gap:.2e} "
                       f"<= {0.02 * eps:.1e}")


def test_11_k2_integral_law(capsys):
    devs = [abs(k2_energy_integral(e) * 2.0 * PI ** 2 / e - 1.0)
            for e in (0.02, 0.01, 0.005)]
    ok = all(d <= 1e-8 for d in devs)
    with capsys.disabled():
        report(11, ok, "2 pi^2 I/eps - 1 = " + ", ".join(f"{d:.1e}" for d in devs))


def test_12_log_cancellation(capsys):
    series = ground_state_series()
    log1 = abs(series.coefficient(2, 1))
    log2 = abs(series.coefficient(2, 2))
    c2_gap = abs(series.coefficient(2, 0) - ll.ENERGY_GAMMA2)
    ok = log1 <= 1e-10 and log2 <= 1e-10 and c2_gap <= 1e-10
    with capsys.disabled():
        report(12, ok, f"|log|={log1:.1e} |log^2|={log2:.1e} "
                       f"|c2 - (1/6 - 1/pi^2)|={c2_gap:.1e}")


def test_13_strong_coupling(capsys):
    # The raw distance of e(kappa=50) to pi^2/3 is the exact hard-core
    # correction 1 - (gamma/(gamma+2))^2 ~ 4/gamma ~ 2.5%, so the limit
    # value is checked with that universal correction included (as the
    # strong-coupling solve examples do); the raw gap itself is pinned to
    # its physical window as the approach-to-limit evidence.
    point = ll.observables(ll.solve_love(ll.LoveProblem(kappa=50.0), n=400))
    limit = PI ** 2 / 3.0
    corrected = limit * (point.gamma / (point.gamma + 2.0)) ** 2
    corrected_gap = abs(point.energy - corrected) / limit
    raw_gap = abs(point.energy - limit) / limit
    ok = corrected_gap <= 0.01 and 0.02 <= raw_gap <= 0.03
    with capsys.disabled():
        report(13, ok, f"corrected gap {corrected_gap:.1e} (<= 1%), raw gap "
                       f"{raw_gap:.3%} = hard-core correction as predicted")


def test_14_property_suite_smoke(capsys):
    # compact re-run of the cross-cutting property checks at their stated
    # tolerances (the full suites live in the per-module test files)
    start = time.time()
    ok = True
    # elliptic: Legendre relation
    for k in np.linspace(0.1, 0.9, 9):
        kp = math.sqrt((1.0 - k) * (1.0 + k))
        (K, E), (Kp, Ep) = (_ke_vec(m, (1.0 - m) * (1.0 + m)) for m in (k, kp))
        ok &= abs(E * Kp + Ep * K - K * Kp - PI / 2) < 1e-12
    # Lambert W round trips on the upper cut
    for x in (-0.4, -5.0, -1e5):
        w = _w_upper_from_offset(math.log(-x) + 1.0)[0]
        ok &= abs(w * np.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
    # solution symmetry and self-convergence
    sol = ll.solve_love(ll.LoveProblem(kappa=1.0))
    ok &= float(np.max(np.abs(sol.f - interpolate(sol, -sol.nodes)))) \
        <= 1e-10 * float(np.max(sol.f))
    pa = ll.observables(ll.solve_love(ll.LoveProblem(kappa=0.05), n=960))
    pb = ll.observables(ll.solve_love(ll.LoveProblem(kappa=0.05), n=1920))
    ok &= abs(pa.capacitance - pb.capacitance) < 1e-9
    ok &= abs(pa.energy - pb.energy) < 1e-9
    elapsed = time.time() - start
    with capsys.disabled():
        report(14, bool(ok), f"elliptic/W/symmetry/convergence bundle "
                             f"in {elapsed:.1f}s")
