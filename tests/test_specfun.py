import math
import warnings

import numpy as np
import pytest

import lovelab as ll
from lovelab import asymptotics, capacitor2d, quadrature, specfun
from lovelab.errors import (ConvergenceError, DivergenceError, DomainError, PoleError,
                            _check_real)

PI = math.pi


# ----------------------------------------------------------------------
# Elliptic integrals.
# ----------------------------------------------------------------------

def agm_oracle_k(k):
    """Plain AGM fixed point for K(k), independent of the library loop."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(64):
        if abs(a - b) <= 1e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return PI / (2.0 * a)


def test_elliptic_degenerate_modulus():
    pair = ll.elliptic_ke(0.0)
    assert pair.K == pytest.approx(PI / 2, abs=1e-15)
    assert pair.E == pytest.approx(PI / 2, abs=1e-15)


def test_elliptic_e_at_one():
    assert ll.elliptic_e(1.0) == 1.0


def test_elliptic_e_against_mpmath():
    # mpmath's ellipe takes the parameter m = k^2; moduli up to 1 - 1e-15
    mpmath = pytest.importorskip("mpmath")
    ks = np.concatenate([np.linspace(0.0, 0.99, 50), 1.0 - np.geomspace(1e-3, 1e-15, 13)])
    with mpmath.workdps(40):
        for k in ks:
            ref = mpmath.ellipe(mpmath.mpf(float(k)) ** 2)
            assert abs(ll.elliptic_e(float(k)) - ref) <= 1e-15 * ref, k


def test_elliptic_k_lemniscatic_point():
    k = 1.0 / math.sqrt(2.0)
    pair = ll.elliptic_ke(k)
    assert pair.K == pytest.approx(1.854074677301372, abs=2e-15)
    assert pair.K == pytest.approx(agm_oracle_k(k), rel=1e-15)


def test_elliptic_ordering_invariant():
    for k in np.linspace(0.0, 0.999999, 25):
        pair = ll.elliptic_ke(float(k))
        assert pair.K >= PI / 2 - 1e-14
        assert pair.E <= PI / 2 + 1e-14
        assert pair.K >= pair.E


def test_elliptic_domain_errors():
    with pytest.raises(DomainError):
        ll.elliptic_ke(-0.1)
    with pytest.raises(DomainError):
        ll.elliptic_ke(1.2)
    with pytest.raises(PoleError):
        ll.elliptic_ke(1.0)


def test_legendre_relation():
    # E(k) K(k') + E(k') K(k) - K(k) K(k') = pi/2
    for k in np.linspace(0.05, 0.95, 19):
        kp = math.sqrt((1.0 - k) * (1.0 + k))
        a, b = ll.elliptic_ke(float(k)), ll.elliptic_ke(kp)
        lhs = a.E * b.K + b.E * a.K - a.K * b.K
        assert lhs == pytest.approx(PI / 2, abs=1e-12)


def test_landen_identities():
    # Ascending Landen transformation with up-modulus 2 sqrt(r)/(1+r):
    #   K(up) = (1+r) K(r)
    #   E(up) = (2E(r) - (1-r^2) K(r)) / (1+r)
    # (the coefficient of K is 1 - r^2; a (2 - r^2) variant circulating in
    # print is off by K(r), as is easily checked at r = 1/4), together with
    # the bracket combination the outer-integrand transform relies on:
    #   (1+r) E(up) - (1-r) K(up) = 2 (E(r) - (1-r^2) K(r)).
    for r in np.linspace(0.05, 0.9, 18):
        up = 2.0 * math.sqrt(r) / (1.0 + r)
        low = ll.elliptic_ke(float(r))
        high = ll.elliptic_ke(up)
        omr2 = (1.0 - r) * (1.0 + r)
        assert high.K == pytest.approx((1.0 + r) * low.K, rel=1e-12)
        assert high.E == pytest.approx(
            (2.0 * low.E - omr2 * low.K) / (1.0 + r), rel=1e-12)
        assert (1.0 + r) * high.E - (1.0 - r) * high.K == pytest.approx(
            2.0 * (low.E - omr2 * low.K), rel=1e-11, abs=1e-13)


def test_k_derivative_against_finite_difference():
    r, h = 0.5, 1e-5
    fd = (ll.elliptic_ke(r + h).K - ll.elliptic_ke(r - h).K) / (2.0 * h)
    assert ll.elliptic_k_derivative(r) == pytest.approx(fd, abs=1e-8)


def test_k_derivative_small_r_series():
    # K = (pi/2)(1 + r^2/4 + ...)  =>  dK/dr ~ (pi/4) r
    for r in (1e-4, 1e-3, 1e-2):
        assert ll.elliptic_k_derivative(r) == pytest.approx(PI * r / 4, rel=1e-3)


def test_k_derivative_monotone_toward_pole():
    assert ll.elliptic_k_derivative(0.9) > ll.elliptic_k_derivative(0.5) > 0.0


def test_k_derivative_guards():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            ll.elliptic_k_derivative(bad)


def test_elliptic_ke_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    ks = np.concatenate([np.linspace(0.0, 0.99, 100),
                         1.0 - np.geomspace(1e-16, 1e-2, 60)])
    with mpmath.workdps(30):
        for k in ks:
            pair = ll.elliptic_ke(float(k))
            m = mpmath.mpf(float(k)) ** 2
            assert abs(pair.K - mpmath.ellipk(m)) <= 1e-15 * mpmath.ellipk(m), k
            assert abs(pair.E - mpmath.ellipe(m)) <= 1e-15 * mpmath.ellipe(m), k


def test_k_derivative_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # dense from r = 0.05 to 0.4, where the closed form cancels worst and
    # the small-r series hands over to it (at r = 0.2)
    rs = np.concatenate([np.geomspace(1e-6, 0.05, 60), np.linspace(0.05, 0.4, 400),
                         np.nextafter(0.2, [0.0, 1.0]),
                         np.linspace(0.4, 0.99, 60), 1.0 - np.geomspace(1e-12, 1e-2, 20)])
    with mpmath.workdps(40):
        for r in rs:
            rm = mpmath.mpf(float(r))
            m = rm * rm
            ref = (mpmath.ellipe(m) - (1 - m) * mpmath.ellipk(m)) / (rm * (1 - m))
            assert abs(ll.elliptic_k_derivative(float(r)) - ref) <= 3e-14 * ref, r


# ----------------------------------------------------------------------
# Scaled Bessel functions.
# ----------------------------------------------------------------------

def k1_scaled_series_oracle(x):
    """e^x K_1(x) from the ascending series 1/x + log(x/2) I_1(x)
    - (x/4) sum (psi(k+1) + psi(k+2)) (x^2/4)^k / (k! (k+1)!)."""
    def i_nu(nu, x):
        total, term = 0.0, (0.5 * x) ** nu / math.factorial(nu)
        k = 0
        while True:
            total += term
            k += 1
            term *= (0.25 * x * x) / (k * (k + nu))
            if term < 1e-18 * total:
                return total

    psi = [-0.5772156649015329]
    for j in range(1, 40):
        psi.append(psi[-1] + 1.0 / j)
    total, term = 0.0, 1.0
    for k in range(0, 30):
        total += (psi[k] + psi[k + 1]) * term
        term *= (0.25 * x * x) / ((k + 1.0) * (k + 2.0))
    k1 = 1.0 / x + math.log(0.5 * x) * i_nu(1, x) - 0.25 * x * total
    return math.exp(x) * k1


def test_k1_scaled_at_one():
    assert ll.bessel_scaled("K1", 1.0) == pytest.approx(1.636153486, abs=5e-10)
    assert ll.bessel_scaled("K1", 1.0) == pytest.approx(
        k1_scaled_series_oracle(1.0), rel=1e-13)


def test_k1_scaled_series_oracle_grid():
    # the ascending series cancels like e^x, so give it e^x * eps headroom
    for x in (0.3, 0.7, 2.0, 5.0):
        assert ll.bessel_scaled("K1", x) == pytest.approx(
            k1_scaled_series_oracle(x), rel=max(1e-13, 150.0 * math.exp(x) * 2e-16))


def test_i2_small_argument_behavior():
    # I_2(x) ~ x^2/8, so the scaled value vanishes quadratically
    for x in (1e-4, 1e-3):
        assert ll.bessel_scaled("I2", x) == pytest.approx(
            x * x / 8.0 * math.exp(-x), rel=1e-3)


def test_i2_k1_product_leading_order():
    # I_2(x) K_1(x) -> 1/(2x); the scaled product equals the unscaled one
    # here.  The first correction is -3/(2x) relative (so ~3% at x = 50):
    # check the value against leading order with that allowance and the
    # deviation itself against its predicted size.
    for x in (50.0, 200.0):
        product = ll.bessel_scaled("I2", x) * ll.bessel_scaled("K1", x)
        deviation = product * 2.0 * x - 1.0
        assert abs(deviation) <= 1.2 * 1.5 / x
        assert deviation == pytest.approx(-1.5 / x, rel=0.2)


def test_bessel_finite_positive_over_kernel_range():
    # the kernel range, then 1e-150 to 1e300: scipy's ive(2, x) is 0 below
    # x ~ 1.8e-152, and the large-x expansion is evaluated on large x only
    xs = np.concatenate([np.geomspace(1e-8, 700.0 * PI / 1e-4, 60),
                         np.geomspace(1e-150, 1e300, 46)])
    for kind in ("I1", "I2", "K1"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = np.array([ll.bessel_scaled(kind, float(x)) for x in xs])
        assert np.all(np.isfinite(vals))
        assert np.all(vals > 0.0)


def test_bessel_asymptotic_switch_is_seamless():
    from scipy.special import ive, kve
    x = 1.0e8  # scipy still accurate here; the switch activates just above
    assert ll.bessel_scaled("I2", x * 1.0000001) == pytest.approx(
        float(ive(2, x * 1.0000001)), rel=1e-12)
    assert ll.bessel_scaled("K1", x * 1.0000001) == pytest.approx(
        float(kve(1, x * 1.0000001)), rel=1e-12)


def test_bessel_scaled_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # spans scipy's range and the asymptotic expansions above 1e8
    xs = np.concatenate([np.geomspace(1e-3, 1e12, 60), [1e8, np.nextafter(1e8, 2e8)]])
    with mpmath.workdps(30):
        for x in xs:
            xm = mpmath.mpf(float(x))
            refs = {"I1": mpmath.besseli(1, xm) * mpmath.exp(-xm),
                    "I2": mpmath.besseli(2, xm) * mpmath.exp(-xm),
                    "K1": mpmath.besselk(1, xm) * mpmath.exp(xm)}
            for kind, ref in refs.items():
                assert abs(ll.bessel_scaled(kind, float(x)) - ref) <= 3e-15 * ref, (kind, x)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        ll.bessel_scaled("I1", 0.0)
    with pytest.raises(DomainError):
        ll.bessel_scaled("I1", -2.0)
    with pytest.raises(DomainError):
        ll.bessel_scaled("J0", 1.0)


# ----------------------------------------------------------------------
# Lambert W.
# ----------------------------------------------------------------------

def test_upper_cut_round_trip_and_branch():
    for x in (-0.368, -0.4, -1.0, -10.0, -1e3, -1e8, -1e100):
        w = specfun._w_upper_from_offset(math.log(-x) + 1.0)[0]
        assert 0.0 < w.imag < PI
        residual = w * np.exp(w) - x
        assert abs(residual) <= 1e-12 * max(1.0, abs(x))
    # offsets whose z = -e^{d-1} is no double, up to the largest: the log
    # form W + log W = (d - 1) + i pi, on the cut.  Im W rounds to math.pi,
    # the double just below pi
    for d in (1e154, 1e200, 1e300, 1.7e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = specfun._w_upper_from_offset(d)[0]
        assert np.isfinite(w) and 0.0 < w.imag <= PI
        assert abs(w + np.log(w) - complex(d - 1.0, PI)) <= 1e-15 * abs(w)


def test_upper_cut_branch_point_continuity():
    # approaching -1/e from below: W -> -1 with Im -> 0+
    prev_im = PI
    for delta in (1e-3, 1e-6, 1e-9):
        w = specfun._w_upper_from_offset(math.log1p(delta))[0]   # z = -(1 + delta)/e
        assert abs(w.real + 1.0) < 0.1
        assert 0.0 < w.imag < prev_im
        prev_im = w.imag


def test_upper_cut_asymptotic_seed_form():
    # W ~ log|x| + i pi - log(log|x| + i pi) to leading orders
    x = -1e8
    t = complex(math.log(abs(x)), PI)
    w = specfun._w_upper_from_offset(math.log(-x) + 1.0)[0]
    gap = abs(w - (t - np.log(t)))
    next_order = abs(np.log(t) / t)
    assert 0.5 * next_order < gap < 2.0 * next_order


# d = log(-z) + 1 across the seams of _w_upper_from_offset: the branch-point
# series below 3e-4, down to offsets within a few ulps of the branch point,
# Halley from the series seed below 0.5, from the asymptotic seed above, out
# to d = 1e16, and the asymptotic seed alone far past _W_SEED_EXACT.
_W_OFFSETS = np.concatenate([
    [0.0, 3e-4, 0.5],
    np.nextafter([3e-4, 3e-4, 0.5, 0.5], [0.0, 1.0, 0.0, 1.0]),
    np.geomspace(1e-17, 1e-9, 40),
    np.geomspace(1e-9, 1e-2, 120),
    np.linspace(0.25, 0.75, 41),
    np.geomspace(1.0, 1e16, 120),
    [1e154, 1e200, 1e300, 1.7e308],
])


def test_upper_cut_offset_form_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    W = specfun._w_upper_from_offset(_W_OFFSETS)
    with mpmath.workdps(30):
        for d, w in zip(_W_OFFSETS, W):
            z = -mpmath.exp(mpmath.mpf(float(d)) - 1)
            # the principal branch, approached from above its cut
            ref = mpmath.lambertw(mpmath.mpc(z, mpmath.mpf(10) ** -40))
            assert abs(mpmath.mpc(w) - ref) <= 3e-14 * abs(ref), d


def test_upper_cut_offset_form_is_batch_independent():
    # a value must not depend on which abscissae share the call: the same
    # bits one at a time, in one batch, and in a reversed batch
    batch = specfun._w_upper_from_offset(_W_OFFSETS)
    single = np.array([specfun._w_upper_from_offset(d)[0] for d in _W_OFFSETS])
    reverse = specfun._w_upper_from_offset(_W_OFFSETS[::-1])[::-1]
    assert batch.tobytes() == single.tobytes()
    assert reverse.tobytes() == single.tobytes()
    grid = specfun._w_upper_from_offset(_W_OFFSETS.reshape(-1, 2))
    assert grid.shape == (len(_W_OFFSETS) // 2, 2)
    assert grid.ravel().tobytes() == single.tobytes()


# two abscissa sets per integrand building block: the nodes of a tanh-sinh
# head on (0, 1) (levels 0-5, its first call, down to ~1e-275 from either
# end), and a set reaching every other branch, with points one ulp either side
# of each switch
_HEAD = np.concatenate([quadrature._ts_level(0.0, 1.0, j)[0]
                        for j in range(quadrature._TS_FIRST_CALL + 1)])
_UNIT = np.concatenate([
    np.geomspace(1e-12, 1e-2, 30), np.linspace(0.01, 0.99, 50),
    np.nextafter([0.05, 0.05, 0.2, 0.2], [0.0, 1.0, 0.0, 1.0]),
])
_LOG2 = math.log(2.0)
_POLYLOG_T = np.concatenate([
    PI * _UNIT, np.nextafter([_LOG2, _LOG2], [0.0, 1.0]), np.linspace(_LOG2, 45.0, 40)])


@pytest.mark.parametrize("func, first, second", [
    (capacitor2d._phi, _HEAD, np.concatenate([_UNIT, np.geomspace(1.0, 1e18, 40)])),
    (capacitor2d._phi_prime, _HEAD, np.concatenate([_UNIT, np.geomspace(1.0, 1e18, 40)])),
    *[(lambda t, n=n: specfun._polylog_exp_neg(n, t), PI * _HEAD, _POLYLOG_T)
      for n in range(1, 5)],
    (specfun._dk_vec, _HEAD, _UNIT),
    (asymptotics._outer_subtracted, _HEAD, _UNIT),
], ids=["phi", "phi_prime", "polylog_n1", "polylog_n2", "polylog_n3", "polylog_n4",
        "dk", "outer_subtracted"])
def test_integrand_building_blocks_are_batch_independent(func, first, second):
    # the quadrature evaluates several tanh-sinh levels and the Gauss tail in
    # one call; that keeps every bit only if a value depends on its own
    # abscissa alone
    alone = np.concatenate([func(first), func(second)])
    together = func(np.concatenate([first, second]))
    assert np.all(np.isfinite(alone))
    assert together.tobytes() == alone.tobytes()


def test_upper_cut_offset_form_refuses_unconverged(monkeypatch):
    monkeypatch.setattr(specfun, "_HALLEY_MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as info:
        specfun._w_upper_from_offset(np.array([1e-4, 0.3, 40.0]))
    assert 0.0 < info.value.best.imag < PI
    assert info.value.estimate >= 2e-16
    # the branch-point series needs no iteration
    assert specfun._w_upper_from_offset(1e-4).shape == (1,)


# ----------------------------------------------------------------------
# Polylogarithms.
# ----------------------------------------------------------------------

def li2_summation_oracle():
    # direct summation with an integral tail bound: sum_{k>N} 1/k^2 < 1/N
    N = 4000
    partial = sum(1.0 / (k * k) for k in range(1, N + 1))
    return partial, 1.0 / N


def test_polylog_at_zero():
    for n in range(1, 8):
        assert ll.polylog(n, 0.0) == 0.0


def test_li1_is_log():
    assert ll.polylog(1, 0.5) == pytest.approx(math.log(2.0), rel=1e-15)


def test_li2_at_one_against_summation_oracle():
    partial, bound = li2_summation_oracle()
    value = ll.polylog(2, 1.0)
    assert abs(value - partial) <= bound
    assert value == pytest.approx(PI * PI / 6.0, abs=1e-14)


def test_polylog_at_one_is_zeta_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for n in range(2, 61):
            ref = mpmath.zeta(n)
            assert abs(ll.polylog(n, 1.0) - ref) <= 1e-15 * ref, n


def test_polylog_any_order_against_mpmath():
    # the expansion about x = 1 needs H_{n-1} at every order, not only n <= 40
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        cases = [(ll.polylog(41, 0.9), mpmath.polylog(41, mpmath.mpf(0.9))),
                 (ll.polylog(60, 0.99), mpmath.polylog(60, mpmath.mpf(0.99))),
                 (specfun._polylog_exp_neg(45, 0.1),
                  mpmath.polylog(45, mpmath.exp(-mpmath.mpf(0.1))))]
        for value, ref in cases:
            assert abs(value - ref) <= 1e-14 * ref


def test_polylog_small_argument_against_mpmath():
    # below x = 1/2 the series runs in x itself, so tiny x keeps full
    # relative accuracy; mpmath.polylog returns 0 at x = 1e-300, so the
    # oracle there is the summed series
    mpmath = pytest.importorskip("mpmath")
    xs = [1e-300, 1e-100, 1e-20, 1e-5, 0.3, 0.4999999, 0.5, 0.75, 0.999999]
    with mpmath.workdps(40):
        for n in (1, 2, 3, 5, 8):
            for x in xs:
                xm = mpmath.mpf(x)
                if x < 0.5:
                    ref = mpmath.nsum(lambda k: xm ** k / k ** n, [1, mpmath.inf])
                else:
                    ref = mpmath.polylog(n, xm)
                assert abs(ll.polylog(n, x) - ref) <= 1e-15 * ref, (n, x)


def test_polylog_series_ladder_consistency():
    # the direct series and the log-expansion route agree at a common point
    from lovelab.specfun import _polylog_exp_neg

    for n in (2, 3, 5, 7):
        for x in (0.45, 0.55, 0.65):
            direct = sum(x ** k / float(k) ** n for k in range(1, 200))
            assert _polylog_exp_neg(n, -math.log(x)) == pytest.approx(
                direct, rel=1e-14)
            assert ll.polylog(n, x) == pytest.approx(direct, rel=1e-14)


def test_polylog_derivative_ladder():
    # x * Li_{n+1}'(x) = Li_n(x)
    h = 1e-6
    for n in (1, 2, 3):
        for x in (0.3, 0.7):
            fd = (ll.polylog(n + 1, x + h) - ll.polylog(n + 1, x - h)) / (2 * h)
            assert fd * x == pytest.approx(ll.polylog(n, x), abs=1e-6)


def test_polylog_errors():
    with pytest.raises(DivergenceError):
        ll.polylog(1, 1.0)
    for bad in (0, 170, True):
        with pytest.raises(DomainError) as info:
            ll.polylog(bad, 0.5)
        assert str(info.value) == f"order must be an integer in [1, 169], got {bad!r}"
    with pytest.raises(DomainError):
        ll.polylog(2, 1.5)
    with pytest.raises(DomainError):
        ll.polylog(2, -0.1)


@pytest.mark.parametrize("call", [
    lambda: ll.polylog(True, 0.5),                       # a bool is no order
    lambda: ll.polylog(170, 0.9),                        # past the tables
    lambda: ll.polylog(170, 0.3),
    lambda: specfun._polylog_exp_neg([2, 200], np.array([0.1, 2.0])),
    lambda: ll.energy_series("takahashi", math.nan),
    lambda: ll.energy_series("takahashi", math.inf),
    lambda: ll.phi_series(math.nan),
    lambda: ll.psi_series(math.nan),
    lambda: ll.phi_series(math.inf),
    lambda: ll.phi_psi(math.inf),
    lambda: ll.green_traces(1.0, 2.0, math.inf),
    lambda: ll.operator_norm_discrete(math.inf),
    lambda: ll.kernel_k("k3", math.inf),
    lambda: ll.cumulative_phi(math.inf),
    lambda: ll.cumulative_phi_log(math.inf),
    lambda: ll.fit_log_tail([(10.0, 1.0), (100.0, math.nan), (1e3, 3.0), (1e4, 4.0)]),
    lambda: ll.fit_log_tail([(10.0, 1.0), (100.0, 2.0), (1e3, 3.0), (math.inf, 4.0)]),
    lambda: ll.default_delta(math.nan),
    lambda: ll.green_traces(math.inf, 2.0, 0.1),
    lambda: ll.default_node_count(math.inf),
    lambda: ll.operator_norm(math.inf),
    lambda: ll.bessel_scaled("K1", math.inf),
    lambda: ll.bessel_scaled("I2", math.inf),
    lambda: ll.capacitance_series("kirchhoff", math.inf),
    lambda: ll.AsymptoticSeries().reciprocal(),
    lambda: ll.AsymptoticSeries([(0, 1, 1.0)]).reciprocal(),
    lambda: ll.AsymptoticSeries([(0, 0, -1.0)]).log(),
], ids=["polylog-bool", "polylog-170-expansion", "polylog-170-direct",
        "polylog-exp-neg-200", "energy-nan", "energy-inf", "phi-nan", "psi-nan",
        "phi-inf", "phi-psi-inf", "green-traces-eps-inf",
        "operator-norm-discrete-inf", "kernel-k3-inf", "cumulative-phi-inf",
        "cumulative-phi-log-inf", "fit-log-tail-nan-value", "fit-log-tail-inf-x",
        "default-delta-nan", "green-traces-r-inf", "default-node-count-inf",
        "operator-norm-inf", "bessel-k1-inf", "bessel-i2-inf", "capacitance-inf",
        "series-reciprocal-empty", "series-reciprocal-log-led", "series-log-negative-lead"])
def test_boundary_refuses_bad_inputs(call):
    # refused up front with DomainError, not iterated to a ConvergenceError,
    # returned as NaN or a number, or raised as OverflowError, LinAlgError
    # or WindowError
    with pytest.raises(DomainError):
        call()


# Every real scalar argument whose domain errors._check_real guards: the
# argument's name, its interval, and a call with the argument in place.
_REAL_GUARDS = [
    ("kappa", "(0, inf)", lambda v: ll.LoveProblem(kappa=v), "love-problem-kappa"),
    ("v0", "(0, inf)", lambda v: ll.LoveProblem(kappa=1.0, v0=v), "love-problem-v0"),
    ("kappa", "(0, inf)", ll.default_node_count, "default-node-count"),
    ("kappa", "(0, inf)", ll.operator_norm, "operator-norm"),
    ("kappa", "(0, inf)", ll.operator_norm_discrete, "operator-norm-discrete"),
    ("t", "(0, 1)", lambda v: ll.ground_state_series().evaluate(v), "series-evaluate"),
    ("gamma", "[0, inf)", lambda v: ll.energy_series("takahashi", v), "energy-series"),
    ("kappa", "(0, inf)", lambda v: ll.capacitance_series("kirchhoff", v),
     "capacitance-series"),
    ("gamma", "(0, inf)", ll.epsilon_of_gamma, "epsilon-of-gamma"),
    ("r", "(0, inf)", lambda v: ll.green_traces(v, 2.0, 0.1), "green-traces-r"),
    ("r1", "(0, inf)", lambda v: ll.green_traces(1.0, v, 0.1), "green-traces-r1"),
    ("epsilon", "(0, inf)", lambda v: ll.green_traces(1.0, 2.0, v), "green-traces-eps"),
    ("r", "(1, inf)", ll.far_field, "far-field"),
    ("r", "[1, inf)", lambda v: ll.kernel_k("k3", v), "kernel-k-r"),
    ("epsilon", "(0, inf)", lambda v: ll.kernel_k("k1", 1.5, v), "kernel-k-eps"),
    ("epsilon", "(0, inf)", ll.default_delta, "default-delta"),
    ("epsilon", "(0, inf)", ll.j_split, "j-split"),
    ("x", "[0, inf)", ll.phi_psi, "phi-psi"),
    ("x", "[0, inf)", ll.phi_series, "phi-series"),
    ("x", "[0, inf)", ll.psi_series, "psi-series"),
    ("X", "[1, inf)", ll.cumulative_phi, "cumulative-phi"),
    ("X", "[1, inf)", ll.cumulative_phi_log, "cumulative-phi-log"),
    ("k", "[0, 1]", ll.elliptic_ke, "elliptic-ke"),
    ("k", "[0, 1]", ll.elliptic_e, "elliptic-e"),
    ("r", "(0, 1)", ll.elliptic_k_derivative, "elliptic-k-derivative"),
    ("x", "(0, inf)", lambda v: ll.bessel_scaled("I1", v), "bessel-scaled"),
    ("x", "[0, 1]", lambda v: ll.polylog(2, v), "polylog"),
]


@pytest.mark.parametrize("name, interval, call",
                         [guard[:3] for guard in _REAL_GUARDS],
                         ids=[guard[3] for guard in _REAL_GUARDS])
def test_real_guards_refuse_nan(name, interval, call):
    # in the guard's words, naming the caller's own argument rather than an
    # inner function's (a NaN radius of green_traces is no modulus of K)
    with pytest.raises(DomainError) as info:
        call(math.nan)
    assert type(info.value) is DomainError
    assert str(info.value) == f"{name} must lie in {interval}, got nan"


def test_check_real_compares_each_end_as_its_bracket_says():
    for value, interval in ((0.0, "[0, 1]"), (1.0, "[0, 1]"), (0.5, "(0, 1)"),
                            (1.0, "[1, inf)"), (1e308, "(0, inf)")):
        _check_real(value, "x", interval)
    for value, interval in ((0.0, "(0, 1)"), (1.0, "(0, 1)"), (-1e-300, "[0, 1]"),
                            (math.inf, "[1, inf)"), (-math.inf, "[0, inf)")):
        with pytest.raises(DomainError) as info:
            _check_real(value, "x", interval)
        assert str(info.value) == f"x must lie in {interval}, got {value!r}"


def test_polylog_highest_order_holds():
    # Li_169(x) = x (1 + x 2^-169 + ...) is x to double precision
    for x in (0.0, 1e-300, 0.3, 0.5, 0.9, 1.0):
        assert ll.polylog(169, x) == pytest.approx(x, rel=1e-15, abs=0.0)


def test_polylog_exp_neg_vectorized_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    log2 = math.log(2.0)
    # both sides of the switch from the expansion about 1 to the direct series
    t = np.concatenate([np.geomspace(1e-6, 40.0, 150),
                        np.nextafter(log2, [0.0, 1.0]), [log2]])
    with mpmath.workdps(30):
        for n in range(1, 8):
            values = specfun._polylog_exp_neg(n, t)
            assert values.shape == t.shape
            for ti, v in zip(t, values):
                ref = mpmath.polylog(n, mpmath.exp(-mpmath.mpf(float(ti))))
                assert abs(v - ref) <= 1e-14 * abs(ref), (n, ti)


def test_polylog_exp_neg_scalar_and_array_agree():
    t = np.array([0.0, 1e-3, 0.5, math.log(2.0), 2.0, 30.0])
    for n in (2, 3, 7):
        values = specfun._polylog_exp_neg(n, t)
        for ti, v in zip(t, values):
            scalar = specfun._polylog_exp_neg(n, float(ti))
            assert isinstance(scalar, float)
            assert scalar == v
        assert values[0] == ll.polylog(n, 1.0)
    with pytest.raises(DivergenceError):
        specfun._polylog_exp_neg(1, t)
    with pytest.raises(DomainError):
        specfun._polylog_exp_neg(2, np.array([1.0, -1e-3]))


@pytest.mark.parametrize("orders", [(1, 2, 3, 4), (2, 7), (5, 19, 45)])
def test_polylog_exp_neg_order_rows_equal_single_orders_bit_for_bit(orders):
    # both branches, their switch at log 2, and t = 0 where no row is the
    # log form; the expansion tables of 19 and 45 are longer than the rest
    log2 = math.log(2.0)
    t = np.concatenate([np.geomspace(1e-17, 50.0, 200),
                        np.nextafter(log2, [0.0, 1.0]), [log2]])
    if 1 not in orders:
        t = np.concatenate([[0.0], t])
    for ts in (t, t[:200].reshape(10, 20)):
        rows = specfun._polylog_exp_neg(list(orders), ts)
        assert rows.shape == (len(orders),) + ts.shape
        for n, row in zip(orders, rows):
            assert row.tobytes() == specfun._polylog_exp_neg(n, ts).tobytes()
    rows = specfun._polylog_exp_neg(orders, 0.25)
    assert rows.tolist() == [specfun._polylog_exp_neg(n, 0.25) for n in orders]


def test_polylog_exp_neg_order_rows_refuse_bad_arguments():
    for bad in (np.array([0.5, np.nan]), np.array([1.0, -1e-3]), -2.0):
        with pytest.raises(DomainError):
            specfun._polylog_exp_neg([2, 3], bad)
    with pytest.raises(DivergenceError):
        specfun._polylog_exp_neg([3, 1], np.array([0.5, 0.0]))
    # the log form diverges only at t = 0
    assert np.all(np.isfinite(specfun._polylog_exp_neg([3, 1], np.array([0.5, 1e-300]))))
