import math
import sys
import warnings

import numpy as np
import pytest

import lovelab as ll
from lovelab.conjectures import GAMMA0, GAMMA1
from lovelab.errors import DomainError, WindowError
from oracles.capacitor2d import phi_psi, phi_series, psi_series

PI = math.pi


# ----------------------------------------------------------------------
# Exact evaluator.
# ----------------------------------------------------------------------

def test_edge_values():
    sample = phi_psi(0.0)
    assert sample.phi == 1.0
    assert sample.psi == 0.0
    assert sample.phi_prime == -math.inf


def test_phi_bounds_and_monotonicity():
    xs = np.linspace(1e-6, 50.0, 400)
    phis = np.array([phi_psi(float(x)).phi for x in xs])
    assert np.all(phis > 0.0)
    assert np.all(phis <= 1.0)
    assert np.all(np.diff(phis) < 0.0)


def test_phi_prime_negative():
    for x in (1e-8, 0.1, 3.0, 100.0):
        assert phi_psi(x).phi_prime < 0.0


def test_implicit_equation_residual():
    # pi z = 1 - i pi + e^{i pi Phi_c} + i pi Phi_c at z = x, rebuilt from
    # the returned floats
    for x in (0.0, 1e-6, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        s = phi_psi(x)
        phic = complex(s.phi, s.psi)
        rhs = 1.0 - 1j * PI + np.exp(1j * PI * phic) + 1j * PI * phic
        scale = max(1.0, abs(np.exp(1j * PI * phic)))
        assert abs(PI * x - rhs) <= 1e-11 * scale


def test_phi_prime_against_finite_difference():
    h = 1e-6
    for x in (0.3, 1.7, 8.0):
        fd = (phi_psi(x + h).phi - phi_psi(x - h).phi) / (2.0 * h)
        assert phi_psi(x).phi_prime == pytest.approx(fd, abs=1e-7)


def test_far_field_stays_finite():
    # Phi ~ 1/(pi x) and Psi ~ -log(pi x)/pi out to the largest admitted x;
    # Phi' ~ -1/(pi x^2) reads -0.0 once |1 + W|^2 overflows
    for x in (1e16, 1e200, 1e300, 5.7e307):
        s = phi_psi(x)
        assert math.isfinite(s.phi_prime) and s.phi_prime <= 0.0
        assert s.phi * PI * x == pytest.approx(1.0, rel=1e-14, abs=0)
        assert s.psi == pytest.approx(-math.log(PI * x) / PI, rel=1e-14, abs=0)


# ----------------------------------------------------------------------
# Series.
# ----------------------------------------------------------------------

def test_phi_small_series_window():
    # remainder O(x^{7/2})
    for x in (0.01, 0.04, 0.1):
        gap = abs(phi_series(x) - phi_psi(x).phi)
        assert gap <= x ** 3.5


def test_phi_small_series_error_slope():
    xs = np.array([0.01, 0.02, 0.04, 0.08])
    errs = [abs(phi_series(float(x)) - phi_psi(float(x)).phi)
            for x in xs]
    slope = np.polyfit(np.log(xs), np.log(errs), 1)[0]
    assert slope == pytest.approx(3.5, abs=0.2)


def test_phi_small_series_values():
    assert phi_series(0.0) == 1.0
    x = 0.01
    expected = 1.0 - math.sqrt(2.0 / PI) * 0.1 + math.sqrt(PI / 2.0) / 9.0 * 1e-3 \
        - PI ** 1.5 / (540.0 * math.sqrt(2.0)) * 1e-5
    assert phi_series(x) == pytest.approx(expected, rel=1e-15, abs=0)


def test_phi_large_series_window():
    # remainder O(log^2 x / x^3)
    for x in (5.0, 10.0, 20.0, 50.0):
        gap = abs(phi_series(x) - phi_psi(x).phi)
        assert gap <= math.log(x) ** 2 / x ** 3


def test_phi_large_series_error_slope():
    # error ~ log^2 x / x^3: effective log-log slope -3 + 2/log x
    xs = np.array([20.0, 40.0, 80.0])
    errs = [abs(phi_series(float(x)) - phi_psi(float(x)).phi)
            for x in xs]
    slope = np.polyfit(np.log(xs), np.log(errs), 1)[0]
    expected = -3.0 + 2.0 / math.log(40.0)
    assert slope == pytest.approx(expected, abs=0.25)


def test_psi_small_series_window():
    for x in (0.001, 0.01, 0.05):
        gap = abs(psi_series(x) - phi_psi(x).psi)
        assert gap <= 5.0 * x ** 4


def test_psi_small_leading_term():
    x = 1e-4
    assert psi_series(x) / x == pytest.approx(-1.0 / 3.0, abs=1e-4)
    assert phi_psi(x).psi / x == pytest.approx(-1.0 / 3.0, abs=1e-3)


def test_psi_cubic_coefficient_against_oracle():
    # (psi + x/3 - 2 pi x^2/135)/x^3 -> 4 pi^2/8505; this also rules out
    # the circulating -28 pi^2/135 value for the cubic term
    target = 4.0 * PI ** 2 / 8505.0
    for x in (0.005, 0.0025):
        psi = phi_psi(x).psi
        c3 = (psi + x / 3.0 - 2.0 * PI / 135.0 * x * x) / x ** 3
        assert c3 == pytest.approx(target, rel=5e-3, abs=0)
        assert abs(c3 - (-28.0 * PI ** 2 / 135.0)) > 1.0


def test_psi_large_series_window():
    # remainder O(log^2 x / x^2)
    for x in (5.0, 30.0, 200.0):
        gap = abs(psi_series(x) - phi_psi(x).psi)
        assert gap <= math.log(x) ** 2 / x ** 2


def test_psi_normalization():
    assert psi_series(0.0) == 0.0


@pytest.mark.parametrize("series", [phi_series, psi_series])
def test_series_refuse_the_gap_between_windows(series):
    # each window's edge is its own; strictly between them neither
    # truncation holds
    for x in (0.1, 5.0):
        series(x)
    for x in (0.1 + 1e-12, 0.5, 3.0, 5.0 - 1e-12):
        with pytest.raises(WindowError) as info:
            series(x)
        assert str(info.value) == f"the Phi and Psi series need x <= 0.1 or x >= 5, got {x!r}"


# ----------------------------------------------------------------------
# Cumulative integrals.
# ----------------------------------------------------------------------

def test_cumulative_phi_bounds():
    value = ll.cumulative_phi(1.0)
    assert 0.0 < value < 1.0


def test_cumulative_phi_difference_kills_constant():
    diff = ll.cumulative_phi(100.0) - ll.cumulative_phi(10.0)
    assert abs(diff - math.log(10.0) / PI) <= 0.05


def test_cumulative_phi_demo_grid_fit():
    # a desk-size grid reproduces the constant only to the size of its
    # O(log X / X) remainder; the acceptance-grade grids sit much higher
    samples = [(X, ll.cumulative_phi(X)) for X in (10.0, 30.0, 100.0, 300.0, 1000.0)]
    fit = ll.fit_log_tail(samples)
    assert fit.c1 == pytest.approx(1.0 / PI, abs=0.02)
    assert fit.c0 == pytest.approx(0.682689, abs=0.08)


def test_cumulative_phi_log_sign():
    assert ll.cumulative_phi_log(1.0) < 0.0


def test_cumulative_phi_log_growth():
    # pure 1/(pi t) tails grow like log^2 X/(2 pi); the true integrand
    # approaches that rate
    d1 = ll.cumulative_phi_log(1e6) - ll.cumulative_phi_log(1e4)
    expected = (math.log(1e6) ** 2 - math.log(1e4) ** 2) / (2.0 * PI)
    assert d1 == pytest.approx(expected, rel=2e-3, abs=0)


@pytest.mark.parametrize("X", [1.7e308, sys.float_info.max])
def test_cumulative_integrals_up_to_the_largest_double(X):
    # the tail beyond X is mapped onto (0, 1) with no abscissa past the
    # largest finite offset pi t: both values are finite, with no warning
    # (tier-1 makes a RuntimeWarning an error), and past their log growth
    # they are the constants, to the rounding of log X / pi ~ 226 and
    # log^2 X / (2 pi) ~ 8e4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, value_log = ll.cumulative_phi(X), ll.cumulative_phi_log(X)
    assert math.isfinite(value) and math.isfinite(value_log)
    assert abs(value - math.log(X) / PI - GAMMA0) <= 1e-13
    assert abs(value_log - math.log(X) ** 2 / (2.0 * PI) - GAMMA1) <= 5e-11


def test_cumulative_domain_guards():
    with pytest.raises(DomainError):
        ll.cumulative_phi(0.5)
    with pytest.raises(DomainError):
        ll.cumulative_phi_log(0.0)


# ----------------------------------------------------------------------
# Polylog integrals.
# ----------------------------------------------------------------------

def test_phi_prime_polylog_integral_values():
    n2, n1, n4 = ll.phi_prime_polylog_integral([2, 1, 4])
    assert n2 == pytest.approx(-0.5, abs=1e-10)
    assert n1 == pytest.approx(-1.0, abs=1e-10)
    assert n4 == pytest.approx(-7.0 / 18.0, abs=1e-9)


def test_phi_prime_polylog_integral_guards():
    for bad in (0, 8, True):
        with pytest.raises(DomainError) as info:
            ll.phi_prime_polylog_integral([bad])
        assert str(info.value) == f"order must be an integer in [1, 7], got {bad!r}"


def test_phi_prime_polylog_integral_sequence_matches_per_order():
    # one Phi' evaluation serves every order; the rows meet the same
    # abscissae and stop at their own levels, and the measured gap to the
    # per-order calls is 0
    orders = [1, 2, 3, 4, 5, 6, 7]
    together = ll.phi_prime_polylog_integral(orders)
    assert isinstance(together, list) and len(together) == len(orders)
    for n, value in zip(orders, together):
        [single] = ll.phi_prime_polylog_integral([n])
        assert isinstance(single, float)
        assert abs(value - single) <= 4e-16 * abs(single)


@pytest.mark.parametrize("orders", [[1, 8], [0, 2], [2, 2.0], (3, None), []])
def test_phi_prime_polylog_integral_sequence_guards(orders):
    with pytest.raises(DomainError):
        ll.phi_prime_polylog_integral(orders)
