import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad

import lovelab as ll
from lovelab.asymptotics import _outer_subtracted
from lovelab.capacitor2d import _phi_of_w, _w
from lovelab import capacitor2d
from lovelab.errors import DomainError, WindowError
from lovelab.quadrature import _panel_sum, _tanh_sinh
from lovelab.specfun import _dk_vec, _k3
from oracles.asymptotics import (_eps_bracket_from_constants, _modulus, default_delta,
                                 epsilon_series, far_field, ground_state_series, j_split,
                                 k2_energy_integral, third_moment_expansion)

PI = math.pi
GAMMA0 = (1.0 + math.log(PI)) / PI


# ----------------------------------------------------------------------
# Energy and capacitance series.
# ----------------------------------------------------------------------

def test_energy_series_values():
    assert ll.energy_series("takahashi", 0.0) == 0.0
    g = 0.37
    diff = ll.energy_series("takahashi", g) - ll.energy_series("bogoliubov", g)
    assert diff == pytest.approx(ll.ENERGY_GAMMA2 * g * g, rel=1e-14, abs=0)
    gap = ll.energy_series("takahashi", 0.01) - ll.energy_series("kaminaka_wadati", 0.01)
    assert gap == pytest.approx((1.0 / 6.0 - 1.0 / 8.0) * 1e-4, rel=1e-12, abs=0)
    assert gap == pytest.approx(4.1667e-6, rel=1e-4, abs=0)


def test_capacitance_series_values():
    kappa = 0.1
    kirchhoff = ll.capacitance_series("kirchhoff", kappa)
    expected = 2.5 + math.log(10.0) / (4 * PI) + (math.log(16 * PI) - 1.0) / (4 * PI)
    assert kirchhoff == pytest.approx(expected, rel=1e-15, abs=0)
    extended = ll.capacitance_series("extended", kappa)
    assert extended - kirchhoff == pytest.approx(
        kappa / (16 * PI ** 2) * (math.log(kappa / (16 * PI)) ** 2 - 2.0), rel=1e-13, abs=0)


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
        third_moment_expansion(0.06)


# ----------------------------------------------------------------------
# epsilon(gamma).
# ----------------------------------------------------------------------

def test_epsilon_leading_order():
    for g in (1e-8, 1e-10):
        assert ll.epsilon_of_gamma(g) / math.sqrt(g) == pytest.approx(0.25, rel=1e-3, abs=0)


def test_epsilon_a5_coefficient():
    L = math.log(32.0 * PI)
    a5 = (1.0 - 4.0 * L + 2.0 * L * L) / (128.0 * PI ** 2)
    series = epsilon_series()
    assert series.coefficient(Fraction(3, 2), 0) == pytest.approx(a5, rel=1e-15, abs=0)


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
    series = epsilon_series()
    for g in (1e-3, 1e-2):
        assert series.evaluate(g) == pytest.approx(ll.epsilon_of_gamma(g), rel=1e-14, abs=0)


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
        assert far_field(r) == pytest.approx(tail, rel=3e-15 + 1.2 / r ** 4, abs=0.0)
    r = 1.0 + 1e-6
    assert far_field(r) == pytest.approx(1.0 / (PI * (r - 1.0)), rel=1e-3, abs=0)


def test_far_field_against_double_integral():
    # F(r) = (1/(2 pi)) int_0^{2pi} int_0^1 r1 dr1 dth /
    #        (r^2 + r1^2 - 2 r r1 cos th)^{3/2}
    r = 2.0
    total, _ = dblquad(
        lambda r1, th: r1 / (r * r + r1 * r1 - 2.0 * r * r1 * math.cos(th)) ** 1.5,
        0.0, 2.0 * PI, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    assert far_field(r) == pytest.approx(total / (2.0 * PI), abs=1e-12)


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
            assert abs(far_field(r) - ref) <= 2e-14 * ref, d


def test_far_field_inside_r5_against_mpmath():
    # F is (2/pi) s^2 dK/ds for every r, the integrand gamma2_tilde's route
    # (b) integrates; below r = 2.5 it carries _dk_vec's closed-form error,
    # largest next to its k = 0.4 series switch
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for r in np.concatenate([np.geomspace(1.01, 5.0, 60)[:-1],
                                 np.nextafter(5.0, 0.0) - np.geomspace(1e-12, 0.5, 20)]):
            rm = mpmath.mpf(float(r))
            m = 4 * rm / (1 + rm) ** 2
            ref = (mpmath.ellipe(m) / (mpmath.pi * (rm - 1))
                   - mpmath.ellipk(m) / (mpmath.pi * (rm + 1)))
            assert abs(far_field(float(r)) - ref) <= 3e-14 * ref, r


def test_far_field_on_one_to_five_at_5e_15():
    # dK/dk takes its series below k = 1/r = 0.4, so the closed form runs
    # only where it keeps about 3e-15 (just above k = 0.2 it is 1.5e-14 off)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for r in np.concatenate([np.geomspace(1.001, 5.0, 400)[1:-1],
                                 2.5 + np.geomspace(1e-12, 0.3, 40),
                                 2.5 - np.geomspace(1e-12, 0.3, 40)]):
            rm = mpmath.mpf(float(r))
            m = 4 * rm / (1 + rm) ** 2
            ref = (mpmath.ellipe(m) / (mpmath.pi * (rm - 1))
                   - mpmath.ellipk(m) / (mpmath.pi * (rm + 1)))
            assert abs(far_field(float(r)) - ref) <= 5e-15 * ref, r


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
            assert abs(far_field(float(r)) - ref) <= 3e-15 * ref, r


# ----------------------------------------------------------------------
# The modulus and the kernel k3.
# ----------------------------------------------------------------------

def test_modulus_complement_against_exact_fractions():
    # 1 - k^2 for k = lo/hi, within 1e-15 relative of exact arithmetic
    # from radii one ulp apart to radii 1e300 apart
    pairs = [(1.0, math.nextafter(1.0, 2.0)), (math.nextafter(1.0, 0.0), 1.0),
             (1e200, math.nextafter(1e200, math.inf)), (1.0, 1.0 + 1e-12),
             (1.0, 1.0 + 1e-6), (0.3, 0.7), (1.0, 2.0), (1.0, 5.0), (2.5, 1e3),
             (1e-150, 1e150), (1e-300, 1.0), (1.0, 1e300), (3.0, 1e300)]
    for lo, hi in pairs:
        k, kc2 = _modulus(lo, hi)
        assert k[0] == lo / hi
        exact = 1 - (Fraction(lo) / Fraction(hi)) ** 2
        assert abs(Fraction(float(kc2[0])) - exact) <= Fraction(1e-15) * exact, (lo, hi)


def test_k3_edge_law():
    # k3(1 + eps x) = (1/2) log(x eps/8) + 2 + O(eps log eps)
    eps, x = 1e-4, 2.0
    value = float(_k3(*_modulus(1.0, 1.0 + eps * x))[0])
    law = 0.5 * math.log(x * eps / 8.0) + 2.0
    assert abs(value - law) <= 5.0 * eps * abs(math.log(eps))


def test_k3_against_mpmath():
    # k3 = 2 r^2 E(1/r) + (1 - 2 r^2) K(1/r) is its closed form in K and E
    # up to r = 1.4 and its series in 1/r^2 above, where the closed form
    # cancels like r^2.  The dense rung on [1.001, 10] spans the switch.
    # The oracle's closed form gets the digits that cancellation takes
    mpmath = pytest.importorskip("mpmath")
    rs = np.concatenate([1.0 + np.geomspace(1e-9, 1e-4, 6), np.geomspace(1.001, 10.0, 200),
                         np.geomspace(1.001, 1e100, 120)])
    for r in rs.tolist():
        with mpmath.workdps(40 + 5 * int(math.log10(r))):
            rm = mpmath.mpf(r)
            K, E = mpmath.ellipk(1 / rm ** 2), mpmath.ellipe(1 / rm ** 2)
            k3 = 2 * rm ** 2 * E + (1 - 2 * rm ** 2) * K
            assert abs(float(_k3(*_modulus(1.0, r))[0]) - k3) <= 2e-14 * abs(k3), r


# ----------------------------------------------------------------------
# Edge integrals: k2 route and the inner/outer split.
# ----------------------------------------------------------------------

def test_k2_energy_integral_value():
    eps = 0.01
    assert k2_energy_integral(eps) == pytest.approx(
        eps / (2.0 * PI ** 2), abs=1e-9)


def test_k2_energy_integral_linearity_and_sign():
    ratios = [k2_energy_integral(e) / e for e in (0.02, 0.01, 0.005)]
    assert max(ratios) - min(ratios) < 1e-12
    assert all(r > 0.0 for r in ratios)
    with pytest.raises(WindowError):
        k2_energy_integral(0.2)


def test_j_split_delta_cancellation():
    eps = 1e-3
    totals = [sum(j_split(eps, delta)) for delta in (0.03, 0.06)]
    assert abs(totals[0] - totals[1]) <= 0.02 * eps


def test_j_split_leading_coefficient_trend():
    # (J1+J2)/(eps log^2 eps) -> -1/(4 pi) from below
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        total = sum(j_split(eps))
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
        total = sum(j_split(eps))
        le = math.log(eps)
        estimate = (total + eps * le * le / (4.0 * PI) - eps * le * log_coeff) / eps
        gaps.append(abs(estimate - bracket))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.01


@pytest.mark.parametrize("eps,delta", [(1e-2, None), (1e-3, None), (1e-3, 0.03),
                                        (1e-3, 0.06), (1e-4, None), (1e-5, 0.2)])
def test_j_split_inner_against_one_integral(eps, delta):
    # oracle: J1 as one integral of Phi(x) [log(x eps/8)/2 + 2], by
    # tanh-sinh on (0, 1) and 16-point Gauss panels, six per decade, past
    # x = 1: independent of the mapped tail of the cumulative integrals
    delta = default_delta(eps) if delta is None else delta
    cutoff = delta / eps
    n = math.ceil(6 * math.log10(cutoff))
    edges = np.exp(np.linspace(0.0, math.log(cutoff), n + 1))

    def inner(x):
        return _phi_of_w(_w(x)) * (0.5 * np.log(x * eps / 8.0) + 2.0)

    j1, _ = j_split(eps, delta)
    head, _ = _tanh_sinh(inner)
    assert j1 == pytest.approx(eps * (head + _panel_sum(inner, edges)), rel=1e-14, abs=0.0)


def test_j_split_window_guards():
    with pytest.raises(WindowError):
        j_split(1e-3, delta=0.3)
    with pytest.raises(WindowError):
        j_split(1e-2, delta=0.02)
    # 1 + delta rounds to 1: the default delta below eps ~ 6e-32, or an
    # explicit delta below 1.1e-16
    with pytest.raises(WindowError):
        j_split(1e-300)
    with pytest.raises(WindowError):
        j_split(1e-40, 1e-17)


@pytest.mark.parametrize("eps,delta", [(1e-2, None), (1e-4, None), (1e-5, 0.2)])
def test_j_split_inner_is_one_w_pass(monkeypatch, eps, delta):
    # both edge-potential moments of J1 are rows of one tanh-sinh integral
    # on (0, 1), head and mapped tail, which converges on its first
    # integrand call
    calls = []
    w_upper = capacitor2d._w_upper_from_offset

    def counted(d):
        calls.append(d)
        return w_upper(d)

    monkeypatch.setattr(capacitor2d, "_w_upper_from_offset", counted)
    j_split(eps, delta)
    assert len(calls) == 1


def test_outer_integrand_against_mpmath():
    # F(1/s) k3(1/s) / s^2 = (2/pi) dK/ds k3(1/s), the product
    # _outer_subtracted forms, from s = 1e-6 to 1e-12 short of the
    # endpoint.  The oracle's closed form cancels like s^4, so it carries
    # 4 log10(1/s) more digits
    mpmath = pytest.importorskip("mpmath")
    ss = np.concatenate([np.geomspace(1e-6, 0.5, 20), np.linspace(0.5, 0.99, 15),
                         1.0 - np.geomspace(1e-2, 1e-12, 8)])
    kc2 = (1.0 - ss) * (1.0 + ss)
    for s, value in zip(ss, (2.0 / PI) * _dk_vec(ss, kc2) * _k3(ss, kc2)):
        with mpmath.workdps(30 + int(4 * math.log10(1.0 / s))):
            sm = mpmath.mpf(float(s))
            m = sm * sm
            K, E = mpmath.ellipk(m), mpmath.ellipe(m)
            dk = (E - (1 - m) * K) / (sm * (1 - m))
            k3 = (2 * E - (2 - m) * K) / m
            ref = (2 / mpmath.pi) * dk * k3
            assert abs(value - ref) <= 2e-14 * abs(ref), s


def test_outer_subtracted_integrand_is_tame():
    # the subtraction removes the 1/(1-s) and log(1-s)/(1-s) growth; what
    # remains is bounded by a slowly growing log^2 envelope
    for d in (1e-3, 1e-6, 1e-9, 1e-12):
        s = np.array([1.0 - d])
        value = float(_outer_subtracted(s, _dk_vec(s, (1.0 - s) * (1.0 + s)))[0])
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
    b = third_moment_expansion(0.02)
    parts = b.leading + b.constant + b.log2_term + b.log_term + b.order_eps_term
    assert b.total == pytest.approx(parts, rel=1e-15, abs=0)
    assert b.third_moment == pytest.approx(b.capacitance_c1 - 2.0 * b.total,
                                           rel=1e-15, abs=0)


def test_third_moment_infinite_plate_trend():
    # 4 pi int r^3 sigma ~ 1/(4 eps) at leading order
    devs = [abs(third_moment_expansion(e).third_moment * 4.0 * e - 1.0)
            for e in (0.02, 0.01, 0.005)]
    assert devs == sorted(devs, reverse=True)
    assert devs[-1] < 0.05


def test_ground_state_series_coefficients():
    series = ground_state_series()
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
        assert ground_state_series().evaluate(g) == pytest.approx(
            ll.energy_series("takahashi", g), abs=1e-12)


def test_series_terms_sorted_by_growth():
    series = ground_state_series()
    keys = [(t.power, -t.log_power) for t in series.terms]
    assert keys == sorted(keys)


def test_series_evaluate_folds_its_terms_left_to_right():
    # evaluate adds its terms in the order they were formed, one after the
    # other, as third_moment_expansion does: builtin sum() would compensate
    # them from Python 3.12 on, and move the last bits with the interpreter.
    # At some of these t a compensated sum differs from the fold
    compensated = 0
    for series in (ground_state_series(), epsilon_series()):
        for t in np.geomspace(1e-8, 0.99, 50).tolist():
            ell = math.log(1.0 / t)
            terms = [c * t ** float(p) * ell ** q for (p, q), c in series._terms.items()]
            total = 0.0
            for term in terms:
                total = total + term
            assert series.evaluate(t) == total
            compensated += math.fsum(terms) != total
    assert compensated > 0
