import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad

import lovelab as ll
from lovelab.asymptotics import _eps_bracket_from_constants, _k2_sum, _outer_subtracted
from lovelab.capacitor2d import _phi
from lovelab import asymptotics
from lovelab.errors import ConvergenceError, DomainError, WindowError
from lovelab.quadrature import _composite
from lovelab.specfun import _i1e, _i2e, _k1e, _polylog_exp_neg

PI = math.pi
GAMMA0 = (1.0 + math.log(PI)) / PI


# ----------------------------------------------------------------------
# Energy and capacitance series.
# ----------------------------------------------------------------------

def test_energy_series_values():
    assert ll.energy_series("takahashi", 0.0) == 0.0
    g = 0.37
    diff = ll.energy_series("takahashi", g) - ll.energy_series("bogoliubov", g)
    assert diff == pytest.approx(ll.ENERGY_GAMMA2 * g * g, rel=1e-14)
    gap = ll.energy_series("takahashi", 0.01) - ll.energy_series("kaminaka_wadati", 0.01)
    assert gap == pytest.approx((1.0 / 6.0 - 1.0 / 8.0) * 1e-4, rel=1e-12)
    assert gap == pytest.approx(4.1667e-6, rel=1e-4)


def test_capacitance_series_values():
    kappa = 0.1
    kirchhoff = ll.capacitance_series("kirchhoff", kappa)
    expected = 2.5 + math.log(10.0) / (4 * PI) + (math.log(16 * PI) - 1.0) / (4 * PI)
    assert kirchhoff == pytest.approx(expected, rel=1e-15)
    extended = ll.capacitance_series("extended", kappa)
    assert extended - kirchhoff == pytest.approx(
        kappa / (16 * PI ** 2) * (math.log(kappa / (16 * PI)) ** 2 - 2.0), rel=1e-13)


def test_capacitance_series_vs_solver():
    kappa = 0.05
    c_num = ll.observables(ll.solve_love(ll.LoveProblem(kappa=kappa))).capacitance
    err_k = abs(c_num - ll.capacitance_series("kirchhoff", kappa))
    err_e = abs(c_num - ll.capacitance_series("extended", kappa))
    assert err_e < err_k


def test_series_name_guards():
    with pytest.raises(DomainError):
        ll.energy_series("popov", 0.1)
    with pytest.raises(DomainError):
        ll.capacitance_series("maxwell", 0.1)


def test_expansions_reject_arguments_past_their_window():
    # past kappa = 0.3 the extended series drifts (0.29 relative at
    # kappa = 5) and at kappa = 21.5 turns negative; eps(gamma) is held to
    # the same window in kappa = 2 eps, which it leaves near gamma = 0.2501
    for which in ("kirchhoff", "extended"):
        assert ll.capacitance_series(which, 0.3) > 1.0
        with pytest.raises(WindowError):
            ll.capacitance_series(which, 0.31)
    assert 0.1 < 2.0 * ll.epsilon_of_gamma(0.25) <= 0.3
    with pytest.raises(WindowError):
        ll.epsilon_of_gamma(0.26)
    with pytest.raises(WindowError):
        ll.third_moment_expansion(0.06)


# ----------------------------------------------------------------------
# epsilon(gamma).
# ----------------------------------------------------------------------

def test_epsilon_leading_order():
    for g in (1e-8, 1e-10):
        assert ll.epsilon_of_gamma(g) / math.sqrt(g) == pytest.approx(0.25, rel=1e-3)


def test_epsilon_a5_coefficient():
    L = math.log(32.0 * PI)
    a5 = (1.0 - 4.0 * L + 2.0 * L * L) / (128.0 * PI ** 2)
    series = ll.epsilon_series()
    assert series.coefficient(Fraction(3, 2), 0) == pytest.approx(a5, rel=1e-15)


def test_epsilon_round_trip():
    # gamma(eps) = 2 eps / C(2 eps); composing back must be the identity
    # through the carried orders
    gaps = []
    for eps in (0.01, 0.003, 0.001):
        gamma = 2.0 * eps / ll.capacitance_series("extended", 2.0 * eps)
        gap = abs(ll.epsilon_of_gamma(gamma) - eps)
        gaps.append(gap)
        budget = 1e-4 * eps ** 1.5 * math.log(eps) ** 2
        assert gap < budget
    assert gaps == sorted(gaps, reverse=True)


def test_epsilon_series_evaluation_matches_closed_form():
    series = ll.epsilon_series()
    for g in (1e-3, 1e-2):
        assert series.evaluate(g) == pytest.approx(ll.epsilon_of_gamma(g), rel=1e-14)


# ----------------------------------------------------------------------
# Far field.
# ----------------------------------------------------------------------

def test_far_field_limits():
    # far out the K, E -> pi/2 contributions cancel through O(1/r^2) and
    # the true tail is the dipole-like 1/(2 r^3) (checked against the
    # defining double integral in the next test); its first correction is
    # 9/(8 r^2), the next one 75/(64 r^4)
    for r in (1e2, 1e4, 1e6, 1e8):
        tail = (1.0 + 9.0 / (8.0 * r * r)) / (2.0 * r ** 3)
        assert ll.far_field(r) == pytest.approx(tail, rel=3e-15 + 1.2 / r ** 4,
                                                abs=0.0)
    r = 1.0 + 1e-6
    assert ll.far_field(r) == pytest.approx(1.0 / (PI * (r - 1.0)), rel=1e-3)


def test_far_field_against_double_integral():
    # F(r) = (1/(2 pi)) int_0^{2pi} int_0^1 r1 dr1 dth /
    #        (r^2 + r1^2 - 2 r r1 cos th)^{3/2}
    r = 2.0
    total, _ = dblquad(
        lambda r1, th: r1 / (r * r + r1 * r1 - 2.0 * r * r1 * math.cos(th)) ** 1.5,
        0.0, 2.0 * PI, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    assert ll.far_field(r) == pytest.approx(total / (2.0 * PI), abs=1e-12)


def test_far_field_near_the_edge_against_mpmath():
    # K needs 1 - k^2 = ((r-1)/(r+1))^2 exactly: from the rounded modulus
    # it vanishes once r - 1 < ~4e-8 and K turns infinite
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for d in np.geomspace(1e-15, 1e-2, 40):
            r = 1.0 + float(d)
            rm = mpmath.mpf(r)
            m = 4 * rm / (1 + rm) ** 2
            ref = (mpmath.ellipe(m) / (mpmath.pi * (rm - 1))
                   - mpmath.ellipk(m) / (mpmath.pi * (rm + 1)))
            assert abs(ll.far_field(r) - ref) <= 2e-14 * ref, d


def test_far_field_far_out_against_mpmath():
    # the reference's own E/K difference cancels about 2 log10 r digits,
    # so it is evaluated with 60 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for r in np.geomspace(5.0, 1e8, 60):
            rm = mpmath.mpf(float(r))
            m = 4 * rm / (1 + rm) ** 2
            ref = (mpmath.ellipe(m) / (mpmath.pi * (rm - 1))
                   - mpmath.ellipk(m) / (mpmath.pi * (rm + 1)))
            assert abs(ll.far_field(float(r)) - ref) <= 3e-15 * ref, r


def test_far_field_domain():
    with pytest.raises(DomainError):
        ll.far_field(1.0)
    with pytest.raises(DomainError):
        ll.far_field(0.5)
    # refused in its own words, not as the modulus 1/r = 0 of dK/dr
    with pytest.raises(DomainError) as info:
        ll.far_field(math.inf)
    assert str(info.value) == "r must lie in (1, inf), got inf"


# ----------------------------------------------------------------------
# Green traces.
# ----------------------------------------------------------------------

def test_green_trace_signs_and_leading_term():
    g_minus, g_plus = ll.green_traces(2.0, 1.0, 0.1)
    assert g_plus < 0.0                      # E(k) < K(k) on (0, 1)
    assert g_minus == pytest.approx(-2.5, abs=1e-12)
    # a point next to the axis: Bessel arguments down to 3e-299
    g_minus, _ = ll.green_traces(1e-300, 1.0, 0.1)
    assert g_minus == pytest.approx(-5e-300, rel=1e-12)


def test_green_trace_g_plus_against_mpmath():
    # E(k) - K(k) ~ -pi k^2 / 4 cancels between two values near pi/2 at
    # small k; the reference carries 2 log10(1/k) extra digits through it.
    # Near r = 1 the g_minus sum outgrows its cap, so the ladder stops short
    mpmath = pytest.importorskip("mpmath")
    for r in (1e-300, 1e-100, 1e-30, 1e-12, 1e-8, 1e-5, 1e-3, 0.05, 0.1,
              0.2, 0.3, 0.5, 0.9, 0.999):
        _, g_plus = ll.green_traces(r, 1.0, 0.1)
        k = mpmath.mpf(r)
        with mpmath.workdps(60 + 2 * int(-mpmath.log10(k))):
            ref = (2 / (mpmath.pi * k)) * (mpmath.ellipe(k * k) - mpmath.ellipk(k * k))
            assert abs(g_plus - ref) <= 1e-14 * abs(ref), r


def test_green_trace_symmetry():
    a = ll.green_traces(2.0, 1.0, 0.25)
    b = ll.green_traces(1.0, 2.0, 0.25)
    assert a == b


def test_green_trace_truncation_stability():
    # the summed tail beyond the stopping point is below 1e-14
    r, r1, eps = 1.3, 1.0, 0.5
    g_minus, _ = ll.green_traces(r, r1, eps)
    n = np.arange(1, 3000, dtype=float)
    a = n * PI * r1 / eps
    b = n * PI * r / eps
    brute = -(r1 / r) / (2 * eps) - (2.0 / eps) * float(
        np.sum(_i2e(a) * 0.0 + np.exp(a - b) * _k1e(b) *
               np.array([ll.bessel_scaled("I1", float(v)) for v in a])))
    assert g_minus == pytest.approx(brute, abs=1e-14)


def test_green_trace_near_the_diagonal_sums_every_chunk():
    # about 1.2e5 terms, taken in eleven doubling chunks, against one plain
    # sum over 4e5 terms
    r, r1, eps = 1.0, 1.00001, 0.1
    g_minus, _ = ll.green_traces(r, r1, eps)
    n = np.arange(1, 400_001, dtype=float)
    a = n * PI * r / eps
    b = n * PI * r1 / eps
    brute = -(r / r1) / (2 * eps) - (2.0 / eps) * float(
        np.sum(_i1e(a) * _k1e(b) * np.exp(a - b)))
    assert g_minus == pytest.approx(brute, rel=1e-15, abs=0.0)


def test_bessel_sum_refuses_to_stop_at_its_cap(monkeypatch):
    # the same sum needs more terms than the cap: an error, not a partial sum
    monkeypatch.setattr(asymptotics, "_SUM_CAP", 10_000)
    with pytest.raises(ConvergenceError) as info:
        ll.green_traces(1.0, 1.00001, 0.1)
    # it carries the partial sum and its last term, still above 1e-16 of it
    assert info.value.best > 0.0
    assert info.value.estimate > 1e-16 * info.value.best


def test_green_trace_guards():
    with pytest.raises(DomainError):
        ll.green_traces(1.0, 1.0, 0.1)
    with pytest.raises(DomainError):
        ll.green_traces(1.0, 2.0, 0.0)


# ----------------------------------------------------------------------
# Kernels.
# ----------------------------------------------------------------------

def test_k1_epsilon_shift_invariance():
    # only the -1/(8 eps) term carries eps
    for r in (1.0, 1.5, 3.0):
        a = ll.kernel_k("k1", r, 1e-3) + 1.0 / (8.0 * 1e-3)
        b = ll.kernel_k("k1", r, 0.037) + 1.0 / (8.0 * 0.037)
        assert a == pytest.approx(b, abs=1e-14)


def test_k2_edge_law():
    # k2(1 + eps x) ~ -(eps/pi^2) Li_2(e^{-pi x}) to 0.5% at eps = 1e-3
    eps = 1e-3
    for x in (1.0, 2.0):
        value = ll.kernel_k("k2", 1.0 + eps * x, eps)
        law = -(eps / PI ** 2) * _polylog_exp_neg(2, PI * x)
        assert value == pytest.approx(law, rel=5e-3)


def test_k3_edge_law():
    # k3(1 + eps x) = (1/2) log(x eps/8) + 2 + O(eps log eps)
    eps, x = 1e-4, 2.0
    value = ll.kernel_k("k3", 1.0 + eps * x)
    law = 0.5 * math.log(x * eps / 8.0) + 2.0
    assert abs(value - law) <= 5.0 * eps * abs(math.log(eps))


def test_kernel_full_is_sum_of_parts():
    r, eps = 1.2, 0.02
    full = ll.kernel_k("full", r, eps)
    assert full == pytest.approx(
        ll.kernel_k("k1", r, eps) + ll.kernel_k("k2", r, eps), rel=1e-14)


def test_k2_truncation_stability():
    # ten extra terms beyond the cap move the sum by less than 1e-14
    for eps, r, cap in ((0.05, 1.0, 3_000_000), (1e-4, 1.0, 3_000_000),
                        (0.01, 1.5, 10_000), (0.05, 3.0, 10_000)):
        n = np.arange(cap + 1, cap + 11, dtype=float)
        a = n * PI / eps
        b = n * PI * r / eps
        block = (2.0 / PI) * r * float(
            np.sum((1.0 / n) * _i2e(a) * _k1e(b) * np.exp(a - b)))
        assert abs(block) < 1e-14


def test_k2_capped_sum_matches_adaptive_for_decaying_tail():
    r, eps = 1.5, 0.01
    n = np.arange(1, 5001, dtype=float)
    a = n * PI / eps
    b = n * PI * r / eps
    brute = float(np.sum((1.0 / n) * _i2e(a) * _k1e(b) * np.exp(a - b)))
    assert _k2_sum(r, eps) == pytest.approx(brute, rel=1e-14)


def test_kernel_guards():
    with pytest.raises(DomainError):
        ll.kernel_k("k1", 0.9, 0.1)
    with pytest.raises(DomainError):
        ll.kernel_k("k2", 1.5, -0.1)
    with pytest.raises(DomainError):
        ll.kernel_k("k9", 1.5, 0.1)


# ----------------------------------------------------------------------
# Edge integrals: k2 route and the inner/outer split.
# ----------------------------------------------------------------------

def test_k2_energy_integral_value():
    eps = 0.01
    assert ll.k2_energy_integral(eps) == pytest.approx(
        eps / (2.0 * PI ** 2), abs=1e-9)


def test_k2_energy_integral_linearity_and_sign():
    ratios = [ll.k2_energy_integral(e) / e for e in (0.02, 0.01, 0.005)]
    assert max(ratios) - min(ratios) < 1e-12
    assert all(r > 0.0 for r in ratios)
    with pytest.raises(WindowError):
        ll.k2_energy_integral(0.2)


def test_j_split_delta_cancellation():
    eps = 1e-3
    totals = [sum(ll.j_split(eps, delta)) for delta in (0.03, 0.06)]
    assert abs(totals[0] - totals[1]) <= 0.02 * eps


def test_j_split_leading_coefficient_trend():
    # (J1+J2)/(eps log^2 eps) -> -1/(4 pi) from below
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        total = sum(ll.j_split(eps))
        ratio = total / (eps * math.log(eps) ** 2)
        gaps.append(abs(ratio + 1.0 / (4.0 * PI)))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 5e-3


def test_j_split_constant_term():
    # after removing the known log terms the eps coefficient approaches
    # (2 - (3/2) log 2) gamma0 + gamma1/2 + gamma2 + (2/pi) log 8
    # - log^2 8/(4 pi)
    g1 = PI / 6 - 1 / PI - math.log(PI) / PI - math.log(PI) ** 2 / (2 * PI)
    g2 = -2.0 / PI - PI / 4.0
    bracket = ((2.0 - 1.5 * math.log(2.0)) * GAMMA0 + 0.5 * g1 + g2
               + 2.0 * math.log(8.0) / PI - math.log(8.0) ** 2 / (4.0 * PI))
    log_coeff = 3.0 * math.log(2.0) / (2.0 * PI) + 0.5 * GAMMA0 - 2.0 / PI
    gaps = []
    for eps in (1e-3, 1e-4, 1e-5):
        total = sum(ll.j_split(eps))
        le = math.log(eps)
        estimate = (total + eps * le * le / (4.0 * PI) - eps * le * log_coeff) / eps
        gaps.append(abs(estimate - bracket))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.01


@pytest.mark.parametrize("eps,delta", [(1e-2, None), (1e-3, None), (1e-3, 0.03),
                                        (1e-3, 0.06), (1e-4, None), (1e-5, 0.2)])
def test_j_split_inner_against_one_integral(eps, delta):
    # oracle: J1 as one composite integral of Phi(x) [log(x eps/8)/2 + 2]
    # on six panels per decade, independent of the cumulative integrals
    delta = ll.default_delta(eps) if delta is None else delta
    cutoff = delta / eps
    n = math.ceil(6 * math.log10(cutoff))
    edges = np.exp(np.linspace(0.0, math.log(cutoff), n + 1))

    def inner(x):
        return _phi(x) * (0.5 * np.log(x * eps / 8.0) + 2.0)

    j1, _ = ll.j_split(eps, delta)
    assert j1 == pytest.approx(eps * _composite(inner, [0.0, *edges]), rel=1e-14, abs=0.0)


def test_j_split_window_guards():
    with pytest.raises(WindowError):
        ll.j_split(1e-3, delta=0.3)
    with pytest.raises(WindowError):
        ll.j_split(1e-2, delta=0.02)


def test_outer_subtracted_integrand_is_tame():
    # the subtraction removes the 1/(1-s) and log(1-s)/(1-s) growth; what
    # remains is bounded by a slowly growing log^2 envelope
    for d in (1e-3, 1e-6, 1e-9, 1e-12):
        value = float(_outer_subtracted(np.array([1.0 - d]))[0])
        assert abs(value) <= 2.0 + math.log(d) ** 2 / (4.0 * PI)


# ----------------------------------------------------------------------
# Third moment and the final assembly.
# ----------------------------------------------------------------------

def test_bracket_forms_agree():
    # the closed form of the epsilon-order bracket against its assembly
    # from gamma0, gamma1 and gamma2_tilde
    l8p = math.log(8.0 * PI)
    closed = (-1.0 / 3.0 - 1.0 / (2.0 * PI ** 2) + 3.0 * l8p / PI ** 2
              - l8p ** 2 / (2.0 * PI ** 2))
    assert _eps_bracket_from_constants() == pytest.approx(closed, rel=1e-14, abs=0.0)


def test_third_moment_breakdown_consistency():
    b = ll.third_moment_expansion(0.02)
    parts = b.leading + b.constant + b.log2_term + b.log_term + b.order_eps_term
    assert b.total == pytest.approx(parts, rel=1e-15)
    assert b.third_moment == pytest.approx(b.capacitance_c1 - 2.0 * b.total,
                                           rel=1e-15)


def test_third_moment_infinite_plate_trend():
    # 4 pi int r^3 sigma ~ 1/(4 eps) at leading order
    devs = [abs(ll.third_moment_expansion(e).third_moment * 4.0 * e - 1.0)
            for e in (0.02, 0.01, 0.005)]
    assert devs == sorted(devs, reverse=True)
    assert devs[-1] < 0.05


def test_ground_state_series_coefficients():
    series = ll.ground_state_series()
    assert series.coefficient(1, 0) == pytest.approx(1.0, abs=1e-12)
    assert series.coefficient(Fraction(3, 2), 0) == pytest.approx(
        -4.0 / (3.0 * PI), abs=1e-12)
    assert abs(series.coefficient(2, 1)) <= 1e-10
    assert abs(series.coefficient(2, 2)) <= 1e-10
    assert series.coefficient(2, 0) == pytest.approx(ll.ENERGY_GAMMA2, abs=1e-15)
    # nothing below the leading physical order survives the assembly
    for term in series.terms:
        assert term.power >= 1 or abs(term.coefficient) < 1e-12


def test_ground_state_value_matches_energy_series():
    for g in (0.01, 0.05):
        assert ll.assemble_ground_state(g) == pytest.approx(
            ll.energy_series("takahashi", g), abs=1e-12)


def test_series_terms_sorted_by_growth():
    series = ll.ground_state_series()
    keys = [(t.power, -t.log_power) for t in series.terms]
    assert keys == sorted(keys)


def test_series_evaluate_domain():
    with pytest.raises(DomainError):
        ll.ground_state_series().evaluate(1.5)
