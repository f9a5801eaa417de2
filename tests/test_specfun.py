import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lovelab as ll
from lovelab import specfun
from lovelab.errors import (BranchError, ConvergenceError, DivergenceError, DomainError,
                            PoleError)

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
    xs = np.geomspace(1e-8, 700.0 * PI / 1e-4, 60)
    for kind in ("I1", "I2", "K1"):
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

def test_lambert_w_fixed_points():
    assert ll.lambert_w(0.0) == 0.0
    assert ll.lambert_w(math.e) == pytest.approx(1.0, abs=1e-15)
    assert ll.lambert_w(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-12)


def test_lambert_w_round_trip_grid():
    xs = np.concatenate([
        -1.0 / math.e + np.geomspace(1e-12, 0.36, 25),
        np.geomspace(1e-8, 1e300, 40),
    ])
    for x in xs:
        w = ll.lambert_w(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-13 * max(1.0, abs(x))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-0.36787944117144228, max_value=1e12,
                 allow_nan=False, allow_infinity=False))
def test_lambert_w_round_trip_property(x):
    w = ll.lambert_w(x)
    assert abs(w * math.exp(w) - x) <= 1e-13 * max(1.0, abs(x))


def test_lambert_w_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # away from the branch point -1/e (where W' diverges), out to 1e300
    xs = np.concatenate([np.linspace(-0.36, -1e-3, 60), -np.geomspace(1e-300, 1e-3, 30),
                         [0.0], np.geomspace(1e-300, 1e300, 120)])
    with mpmath.workdps(30):
        for x in xs:
            ref = mpmath.lambertw(mpmath.mpf(float(x))).real
            assert abs(ll.lambert_w(float(x)) - ref) <= 1e-15 * abs(ref), x
    # just above the branch point, p = sqrt(2 (e x + 1)) in [1e-6, 0.2]: the
    # series' p must come from the exact e x + 1 of the double x
    ps = np.geomspace(1e-6, 0.2, 400)
    with mpmath.workdps(40):
        for x in (0.5 * ps * ps - 1.0) / math.e:
            ref = mpmath.lambertw(mpmath.mpf(float(x))).real
            assert abs(ll.lambert_w(float(x)) - ref) <= 5e-15 * abs(ref), x


def test_lambert_w_branch_error():
    with pytest.raises(BranchError):
        ll.lambert_w(-0.5)


def test_upper_cut_round_trip_and_branch():
    for x in (-0.368, -0.4, -1.0, -10.0, -1e3, -1e8, -1e100):
        w = ll.lambert_w_upper_cut(x)
        assert 0.0 < w.imag < PI
        residual = w * np.exp(w) - x
        assert abs(residual) <= 1e-12 * max(1.0, abs(x))


def test_upper_cut_branch_point_continuity():
    # approaching -1/e from below: W -> -1 with Im -> 0+
    prev_im = PI
    for d in (1e-3, 1e-6, 1e-9):
        w = ll.lambert_w_upper_cut(-(1.0 + d) / math.e)
        assert abs(w.real + 1.0) < 0.1
        assert 0.0 < w.imag < prev_im
        prev_im = w.imag


def test_upper_cut_asymptotic_seed_form():
    # W ~ log|x| + i pi - log(log|x| + i pi) to leading orders
    x = -1e8
    t = complex(math.log(abs(x)), PI)
    w = ll.lambert_w_upper_cut(x)
    gap = abs(w - (t - np.log(t)))
    next_order = abs(np.log(t) / t)
    assert 0.5 * next_order < gap < 2.0 * next_order


# d = log(-z) + 1 across the seams of _w_upper_from_offset: the branch-point
# series below 3e-4, Halley from the series seed below 0.5, from the
# asymptotic seed above, out to d = 1e16.
_W_OFFSETS = np.concatenate([
    [0.0, 3e-4, 0.5],
    np.nextafter([3e-4, 3e-4, 0.5, 0.5], [0.0, 1.0, 0.0, 1.0]),
    np.geomspace(1e-9, 1e-2, 120),
    np.linspace(0.25, 0.75, 41),
    np.geomspace(1.0, 1e16, 120),
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


def test_upper_cut_offset_form_refuses_unconverged(monkeypatch):
    monkeypatch.setattr(specfun, "_HALLEY_MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as info:
        specfun._w_upper_from_offset(np.array([1e-4, 0.3, 40.0]))
    assert 0.0 < info.value.best.imag < PI
    assert info.value.estimate >= 2e-16
    # the branch-point series needs no iteration
    assert specfun._w_upper_from_offset(1e-4).shape == (1,)


def test_upper_cut_wrong_branch_errors():
    with pytest.raises(BranchError):
        ll.lambert_w_upper_cut(-0.3)
    with pytest.raises(BranchError):
        ll.lambert_w_upper_cut(1.0)


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
    with pytest.raises(DomainError):
        ll.polylog(0, 0.5)
    with pytest.raises(DomainError):
        ll.polylog(2, 1.5)
    with pytest.raises(DomainError):
        ll.polylog(2, -0.1)


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
