import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import lovelab as ll
from lovelab import asymptotics, capacitor2d, quadrature, specfun
from lovelab.errors import ConvergenceError, DomainError, _check_real
from lovelab.specfun import _dk_vec, _ke_vec, _polylog_exp_neg
from oracles.asymptotics import AsymptoticSeries, third_moment_expansion
from oracles.love import operator_norm_discrete

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


def ke(k):
    """K(k) and E(k), with 1 - k^2 formed as (1 - k)(1 + k)."""
    return _ke_vec(k, (1.0 - k) * (1.0 + k))


def dk(r):
    """dK/dr at each modulus of r, with 1 - r^2 formed as (1 - r)(1 + r)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return _dk_vec(r, (1.0 - r) * (1.0 + r))


def test_elliptic_degenerate_modulus():
    K, E = ke(0.0)
    assert K == pytest.approx(PI / 2, abs=1e-15)
    assert E == pytest.approx(PI / 2, abs=1e-15)


def test_elliptic_e_against_mpmath():
    # mpmath's ellipe takes the parameter m = k^2; moduli up to 1 - 1e-15
    mpmath = pytest.importorskip("mpmath")
    ks = np.concatenate([np.linspace(0.0, 0.99, 50), 1.0 - np.geomspace(1e-3, 1e-15, 13)])
    with mpmath.workdps(40):
        for k, E in zip(ks, ke(ks)[1]):
            ref = mpmath.ellipe(mpmath.mpf(float(k)) ** 2)
            assert abs(E - ref) <= 1e-15 * ref, k


def test_elliptic_k_lemniscatic_point():
    k = 1.0 / math.sqrt(2.0)
    K, _ = ke(k)
    assert K == pytest.approx(1.854074677301372, abs=2e-15)
    assert K == pytest.approx(agm_oracle_k(k), rel=1e-15, abs=0)


def test_elliptic_ordering_invariant():
    for K, E in zip(*ke(np.linspace(0.0, 0.999999, 25))):
        assert K >= PI / 2 - 1e-14
        assert E <= PI / 2 + 1e-14
        assert K >= E


def test_legendre_relation():
    # E(k) K(k') + E(k') K(k) - K(k) K(k') = pi/2
    for k in np.linspace(0.05, 0.95, 19):
        kp = math.sqrt((1.0 - k) * (1.0 + k))
        (K, E), (Kp, Ep) = ke(k), ke(kp)
        lhs = E * Kp + Ep * K - K * Kp
        assert lhs == pytest.approx(PI / 2, abs=1e-12)


def test_landen_identities():
    # Ascending Landen transformation with up-modulus 2 sqrt(r)/(1+r):
    #   K(up) = (1+r) K(r)
    #   E(up) = (2E(r) - (1-r^2) K(r)) / (1+r)
    # (the coefficient of K is 1 - r^2; a (2 - r^2) variant circulating in
    # print is off by K(r), as is easily checked at r = 1/4), together with
    # the bracket combination behind far_field's (2/pi) s^2 dK/ds form:
    #   (1+r) E(up) - (1-r) K(up) = 2 (E(r) - (1-r^2) K(r)).
    for r in np.linspace(0.05, 0.9, 18):
        up = 2.0 * math.sqrt(r) / (1.0 + r)
        K, E = ke(r)
        Kup, Eup = ke(up)
        omr2 = (1.0 - r) * (1.0 + r)
        assert Kup == pytest.approx((1.0 + r) * K, rel=1e-12, abs=0)
        assert Eup == pytest.approx((2.0 * E - omr2 * K) / (1.0 + r), rel=1e-12, abs=0)
        assert (1.0 + r) * Eup - (1.0 - r) * Kup == pytest.approx(
            2.0 * (E - omr2 * K), rel=1e-11, abs=1e-13)


def test_k_derivative_against_finite_difference():
    r, h = 0.5, 1e-5
    fd = (ke(r + h)[0] - ke(r - h)[0]) / (2.0 * h)
    assert dk(r)[0] == pytest.approx(fd, abs=1e-8)


def test_k_derivative_small_r_series():
    # K = (pi/2)(1 + r^2/4 + ...)  =>  dK/dr ~ (pi/4) r
    for r in (1e-4, 1e-3, 1e-2):
        assert dk(r)[0] == pytest.approx(PI * r / 4, rel=1e-3, abs=0)


def test_k_derivative_monotone_toward_pole():
    high, low = dk([0.9, 0.5])
    assert high > low > 0.0


def test_elliptic_ke_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    ks = np.concatenate([np.linspace(0.0, 0.99, 100),
                         1.0 - np.geomspace(1e-16, 1e-2, 60)])
    with mpmath.workdps(30):
        for k, K, E in zip(ks, *ke(ks)):
            m = mpmath.mpf(float(k)) ** 2
            assert abs(K - mpmath.ellipk(m)) <= 1e-15 * mpmath.ellipk(m), k
            assert abs(E - mpmath.ellipe(m)) <= 1e-15 * mpmath.ellipe(m), k


def test_k_derivative_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # dense from r = 0.05 to 0.4, where the closed form cancels worst and
    # the small-r series hands over to it (at r = 0.2)
    rs = np.concatenate([np.geomspace(1e-6, 0.05, 60), np.linspace(0.05, 0.4, 400),
                         np.nextafter(0.2, [0.0, 1.0]),
                         np.linspace(0.4, 0.99, 60), 1.0 - np.geomspace(1e-12, 1e-2, 20)])
    with mpmath.workdps(40):
        for r, value in zip(rs, dk(rs)):
            rm = mpmath.mpf(float(r))
            m = rm * rm
            ref = (mpmath.ellipe(m) - (1 - m) * mpmath.ellipk(m)) / (rm * (1 - m))
            assert abs(value - ref) <= 3e-14 * ref, r


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


# d = log(-z) + 1 across the seams of _w_upper_from_offset: the 24-term
# branch-point series below 0.02, down to offsets within a few ulps of the
# branch point, three Halley steps from the 8-term series below 0.5 and from
# the asymptotic seed above, out to d = 1e16, and the asymptotic seed alone
# far past _W_SEED_EXACT.
_W_OFFSETS = np.concatenate([
    [0.0, 3e-4, 0.02, 0.5],
    np.nextafter([0.02, 0.02, 0.5, 0.5], [0.0, 1.0, 0.0, 1.0]),
    np.geomspace(1e-17, 1e-9, 40),
    np.geomspace(1e-9, 1e-2, 120),
    np.geomspace(3e-4, 1e-2, 40),
    np.linspace(0.015, 0.025, 41),
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
            assert abs(mpmath.mpc(w) - ref) <= 3e-15 * abs(ref), d


def test_branch_point_coefficients_follow_the_corless_recurrence():
    # mu_k of W = sum mu_k p^k rebuilt in exact arithmetic (Corless et al.
    # 1996, eqs. 4.23-4.24); the stored literals are their roundings
    mu, alpha = [Fraction(-1), Fraction(1)], [Fraction(2), Fraction(-1)]
    for k in range(2, len(specfun._MU)):
        alpha.append(sum((mu[j] * mu[k + 1 - j] for j in range(2, k)), Fraction(0)))
        mu.append(Fraction(k - 1, k + 1) * (mu[k - 2] / 2 + alpha[k - 2] / 4)
                  - alpha[k] / 2 - mu[k - 1] / (k + 1))
    assert len(mu) == 24
    assert mu[:4] == [-1, 1, Fraction(-1, 3), Fraction(11, 72)]
    assert specfun._MU == tuple(float(m) for m in mu)


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
_HEAD = np.concatenate([quadrature._ts_level(j)[0]
                        for j in range(quadrature._TS_DEPTH + 1)])
_UNIT = np.concatenate([
    np.geomspace(1e-12, 1e-2, 30), np.linspace(0.01, 0.99, 50),
    np.nextafter([0.05, 0.05, 0.2, 0.2], [0.0, 1.0, 0.0, 1.0]),
])
_LOG2 = math.log(2.0)
_POLYLOG_T = np.concatenate([
    PI * _UNIT, np.nextafter([_LOG2, _LOG2], [0.0, 1.0]), np.linspace(_LOG2, 45.0, 40)])


@pytest.mark.parametrize("func, first, second", [
    (lambda x: capacitor2d._phi_of_w(capacitor2d._w(x)), _HEAD,
     np.concatenate([_UNIT, np.geomspace(1.0, 1e18, 40)])),
    (lambda x: capacitor2d._phi_prime_of_w(capacitor2d._w(x)), _HEAD,
     np.concatenate([_UNIT, np.geomspace(1.0, 1e18, 40)])),
    (lambda t: capacitor2d._phi_tail_of_w(capacitor2d._w(t)), 1.0 / _HEAD,
     np.concatenate([1.0 / _UNIT, np.geomspace(1.0, 1e300, 40),
                     np.nextafter([11.055254414364697] * 2, [0.0, 20.0])])),
    *[(lambda t, n=n: _polylog_exp_neg([n], t)[0], PI * _HEAD, _POLYLOG_T)
      for n in range(1, 5)],
    (lambda r: specfun._dk_vec(r, (1.0 - r) * (1.0 + r)), _HEAD, _UNIT),
    (lambda s: asymptotics._outer_subtracted(s, specfun._dk_vec(s, (1.0 - s) * (1.0 + s))),
     _HEAD, _UNIT),
], ids=["phi", "phi_prime", "phi_tail", "polylog_n1", "polylog_n2", "polylog_n3", "polylog_n4",
        "dk", "outer_subtracted"])
def test_integrand_building_blocks_are_batch_independent(func, first, second):
    # the quadrature evaluates several tanh-sinh levels, and the head and
    # tails of the Phi moments, in one call; that keeps every bit only if a
    # value depends on its own abscissa alone
    alone = np.concatenate([func(first), func(second)])
    together = func(np.concatenate([first, second]))
    assert np.all(np.isfinite(alone))
    assert together.tobytes() == alone.tobytes()


def test_upper_cut_offset_form_refuses_unconverged(monkeypatch):
    # a seed table three times too large leaves Halley short of the
    # rounding floor after its three steps: the residual guard raises
    # rather than return the value
    monkeypatch.setattr(specfun, "_MU_TABLE", 3.0 * specfun._MU_TABLE)
    with pytest.raises(ConvergenceError, match=r"at d = 0\.3 missed residual 1e-14") as info:
        specfun._w_upper_from_offset(np.array([1e-4, 0.3, 40.0]))
    assert 0.0 < info.value.best.imag < PI
    assert info.value.estimate > 1e-14
    # the asymptotic seed needs no table, and a NaN offset, whose residual
    # is NaN, is refused by the same guard
    assert specfun._w_upper_from_offset(40.0).shape == (1,)
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError, match="at d = nan"):
        specfun._w_upper_from_offset(math.nan)


# ----------------------------------------------------------------------
# Polylogarithms.
# ----------------------------------------------------------------------

def li2_summation_oracle():
    # direct summation with an integral tail bound: sum_{k>N} 1/k^2 < 1/N
    N = 4000
    partial = sum(1.0 / (k * k) for k in range(1, N + 1))
    return partial, 1.0 / N


def test_polylog_at_zero():
    # Li_n(e^{-t}) at t = inf, the argument 0
    assert _polylog_exp_neg(range(1, 8), math.inf).tolist() == [0.0] * 7


def test_li1_is_log():
    [value] = _polylog_exp_neg([1], math.log(2.0))
    assert value == pytest.approx(math.log(2.0), rel=1e-15, abs=0)


def test_li2_at_one_against_summation_oracle():
    partial, bound = li2_summation_oracle()
    [value] = _polylog_exp_neg([2], 0.0)
    assert abs(value - partial) <= bound
    assert value == pytest.approx(PI * PI / 6.0, abs=1e-14)


def test_polylog_at_one_is_zeta_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for n, value in zip(range(2, 61), _polylog_exp_neg(range(2, 61), 0.0)):
            ref = mpmath.zeta(n)
            assert abs(value - ref) <= 1e-15 * ref, n


def test_polylog_any_order_against_mpmath():
    # the expansion about the unit argument needs H_{n-1} at every order,
    # not only n <= 40
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for n, t in ((41, -math.log(0.9)), (60, -math.log(0.99)), (45, 0.1)):
            [value] = _polylog_exp_neg([n], t)
            ref = mpmath.polylog(n, mpmath.exp(-mpmath.mpf(t)))
            assert abs(value - ref) <= 1e-14 * ref, n


def test_polylog_small_argument_against_mpmath():
    # above t = log 2 the series runs in e^{-t} itself, so a tiny argument
    # keeps full relative accuracy; mpmath.polylog returns 0 at e^{-t} =
    # 1e-300, so the oracle there is the summed series.  Li_1 holds to 2 ulp
    mpmath = pytest.importorskip("mpmath")
    ts = [-math.log(x) for x in (1e-300, 1e-100, 1e-20, 1e-5, 0.3, 0.4999999, 0.5,
                                 0.75, 0.999999)]
    with mpmath.workdps(40):
        for n in (1, 2, 3, 5, 8):
            for t, value in zip(ts, _polylog_exp_neg([n], np.array(ts))[0]):
                xm = mpmath.exp(-mpmath.mpf(t))
                if t > math.log(2.0):
                    ref = mpmath.nsum(lambda k: xm ** k / k ** n, [1, mpmath.inf])
                else:
                    ref = mpmath.polylog(n, xm)
                bound = 4.5e-16 if n == 1 else 1e-15
                assert abs(value - ref) <= bound * ref, (n, t)


def test_polylog_series_ladder_consistency():
    # the direct series and the log-expansion route agree at a common point
    for n in (2, 3, 5, 7):
        for x in (0.45, 0.55, 0.65):
            direct = sum(x ** k / float(k) ** n for k in range(1, 200))
            [value] = _polylog_exp_neg([n], -math.log(x))
            assert value == pytest.approx(direct, rel=1e-14, abs=0)


def test_polylog_derivative_ladder():
    # d/dt Li_{n+1}(e^{-t}) = -Li_n(e^{-t})
    h = 1e-6
    for n in (1, 2, 3):
        for t in (-math.log(0.3), -math.log(0.7)):
            up, down = _polylog_exp_neg([n + 1], np.array([t + h, t - h]))[0]
            [value] = _polylog_exp_neg([n], t)
            assert -(up - down) / (2 * h) == pytest.approx(value, abs=1e-6)


def test_polylog_errors():
    with pytest.raises(DomainError, match="Li_1"):
        _polylog_exp_neg([1], 0.0)
    with pytest.raises(DomainError, match=r"order must be an integer in \[1, 169\], got 170$"):
        _polylog_exp_neg([170], 0.5)
    with pytest.raises(DomainError, match="need t >= 0"):
        _polylog_exp_neg([2], -0.1)


@pytest.mark.parametrize("call", [
    lambda: ll.phi_prime_polylog_integral([True]),       # a bool is no order
    lambda: _polylog_exp_neg([170], 0.1),                # past the tables
    lambda: _polylog_exp_neg([170], 1.2),
    lambda: _polylog_exp_neg([2, 200], np.array([0.1, 2.0])),
    lambda: _polylog_exp_neg([0], 1.0),                  # below the tables
    lambda: _polylog_exp_neg([-1], 1.0),
    lambda: _polylog_exp_neg([], 1.0),                   # no order
    lambda: ll.energy_series("takahashi", math.nan),
    lambda: ll.energy_series("takahashi", math.inf),
    lambda: operator_norm_discrete(math.inf),
    lambda: ll.cumulative_phi(math.inf),
    lambda: ll.cumulative_phi_log(math.inf),
    lambda: ll.fit_log_tail([(10.0, 1.0), (100.0, math.nan), (1e3, 3.0), (1e4, 4.0)]),
    lambda: ll.fit_log_tail([(10.0, 1.0), (100.0, 2.0), (1e3, 3.0), (math.inf, 4.0)]),
    lambda: ll.default_node_count(math.inf),
    lambda: ll.capacitance_series("kirchhoff", math.inf),
    lambda: AsymptoticSeries().reciprocal(),
    lambda: AsymptoticSeries([(0, 1, 1.0)]).reciprocal(),
    lambda: AsymptoticSeries([(0, 0, -1.0)]).log(),
    lambda: third_moment_expansion(math.nan),
], ids=["polylog-bool", "polylog-170-expansion", "polylog-170-direct",
        "polylog-exp-neg-200", "polylog-exp-neg-0", "polylog-exp-neg-negative",
        "polylog-exp-neg-none", "energy-nan", "energy-inf", "operator-norm-discrete-inf",
        "cumulative-phi-inf", "cumulative-phi-log-inf", "fit-log-tail-nan-value",
        "fit-log-tail-inf-x", "default-node-count-inf", "capacitance-inf",
        "series-reciprocal-empty", "series-reciprocal-log-led", "series-log-negative-lead",
        "third-moment-expansion-nan"])
def test_boundary_refuses_bad_inputs(call):
    # refused up front with DomainError, not iterated to a ConvergenceError,
    # returned as NaN or a number, or raised as OverflowError, LinAlgError
    # or WindowError
    with pytest.raises(DomainError):
        call()


# Every real scalar argument of the package that errors._check_real guards: the
# argument's name, its interval, and a call with the argument in place.
_REAL_GUARDS = [
    ("kappa", "(0, inf)", lambda v: ll.LoveProblem(kappa=v), "love-problem-kappa"),
    ("v0", "(0, inf)", lambda v: ll.LoveProblem(kappa=1.0, v0=v), "love-problem-v0"),
    ("kappa", "(0, inf)", ll.default_node_count, "default-node-count"),
    ("gamma", "[0, inf)", lambda v: ll.energy_series("takahashi", v), "energy-series"),
    ("kappa", "(0, inf)", lambda v: ll.capacitance_series("kirchhoff", v),
     "capacitance-series"),
    ("gamma", "(0, inf)", ll.epsilon_of_gamma, "epsilon-of-gamma"),
    ("X", "[1, inf)", ll.cumulative_phi, "cumulative-phi"),
    ("X", "[1, inf)", ll.cumulative_phi_log, "cumulative-phi-log"),
]
_each_real_guard = pytest.mark.parametrize("name, interval, call",
                                           [guard[:3] for guard in _REAL_GUARDS],
                                           ids=[guard[3] for guard in _REAL_GUARDS])


@_each_real_guard
def test_real_guards_refuse_nan(name, interval, call):
    # in the guard's words, naming the caller's own argument rather than an
    # inner value's (a NaN kappa of LoveProblem, not its pi * kappa)
    with pytest.raises(DomainError) as info:
        call(math.nan)
    assert type(info.value) is DomainError
    assert str(info.value) == f"{name} must lie in {interval}, got nan"


@_each_real_guard
def test_real_guards_refuse_a_bool(name, interval, call):
    # a bool is no real, as it is no integer for _check_int: True is not
    # taken as 1.0 (LoveProblem(kappa=True).kappa, cumulative_phi(True)),
    # nor False as 0.0 where the interval holds 0 (energy_series)
    for value in (True, False, np.True_, np.False_):
        with pytest.raises(DomainError) as info:
            call(value)
        assert type(info.value) is DomainError
        assert str(info.value) == f"{name} must lie in {interval}, got {value!r}"


@_each_real_guard
def test_real_guards_refuse_a_non_real(name, interval, call):
    # what is no real number and no 0-d real array is taken as NaN: refused
    # in the same words, not raised as the TypeError of a comparison or of
    # float() on a sequence.  So is a real that has no double, not raised as
    # the OverflowError or ValueError of float()
    for value in ("0.5", None, 1j, [0.5], np.array([0.5]),
                  10 ** 400, -10 ** 400, Fraction(10 ** 400), Decimal("sNaN")):
        with pytest.raises(DomainError) as info:
            call(value)
        assert type(info.value) is DomainError
        assert str(info.value) == f"{name} must lie in {interval}, got {value!r}"


def test_check_real_compares_each_end_as_its_bracket_says():
    for value, interval in ((0.0, "[0, 1]"), (1.0, "[0, 1]"), (0.5, "(0, 1)"),
                            (1.0, "[1, inf)"), (1e308, "(0, inf)")):
        _check_real(value, "x", interval)
    for value, interval in ((0.0, "(0, 1)"), (1.0, "(0, 1)"), (-1e-300, "[0, 1]"),
                            (math.inf, "[1, inf)"), (-math.inf, "[0, inf)")):
        with pytest.raises(DomainError) as info:
            _check_real(value, "x", interval)
        assert str(info.value) == f"x must lie in {interval}, got {value!r}"


def _polylog_by_float_powers(orders, t):
    """_polylog_exp_neg with the expansion's mu^(n-1) taken by pow on every
    order's row, as one broadcast of the power column."""
    direct_table, expansion_table, power, factorial = specfun._polylog_tables(tuple(orders))
    direct = t > math.log(2.0)
    out = np.empty((len(orders), len(t)))
    te = t[~direct]
    mu = -te
    log_te = np.log(te, out=np.zeros_like(te), where=te > 0.0)
    out[:, ~direct] = specfun._horner(expansion_table, mu) - mu ** power / factorial * log_te
    x = np.exp(-t[direct])
    out[:, direct] = x * specfun._horner(direct_table, x)
    return out


@pytest.mark.parametrize("orders", [[1, 2, 3, 4], [2, 3, 4, 5, 6, 7], [1], [2], [1, 7, 169]])
def test_polylog_power_split_keeps_the_bits_of_pow(orders):
    # orders 1 and 2 take 1.0 and mu for mu^0 and mu^1, which is what pow
    # returns; the rows of power 2 and up still call it
    log2 = math.log(2.0)
    s = np.concatenate([quadrature._ts_level(j)[0] for j in range(quadrature._TS_DEPTH + 1)])
    t = np.concatenate([[0.0, 5e-324, log2], np.nextafter(log2, [0.0, 1.0]),
                        s, -np.log1p(-s), math.pi * s])
    if 1 in orders:
        t = t[t > 0.0]                          # Li_1(1) diverges
    assert np.array_equal(_polylog_exp_neg(orders, t), _polylog_by_float_powers(orders, t))


def test_polylog_highest_order_holds():
    # Li_169(x) = x (1 + x 2^-169 + ...) is x to double precision
    t = np.array([math.inf, 690.0, 1.2, math.log(2.0), 0.1, 0.0])
    assert _polylog_exp_neg([169], t)[0] == pytest.approx(np.exp(-t), rel=1e-15, abs=0.0)


def test_polylog_exp_neg_vectorized_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    log2 = math.log(2.0)
    # both sides of the switch from the expansion about 1 to the direct series
    t = np.concatenate([np.geomspace(1e-6, 40.0, 150),
                        np.nextafter(log2, [0.0, 1.0]), [log2]])
    with mpmath.workdps(30):
        rows = _polylog_exp_neg(range(1, 8), t)
        assert rows.shape == (7,) + t.shape
        for n, values in zip(range(1, 8), rows):
            for ti, v in zip(t, values):
                ref = mpmath.polylog(n, mpmath.exp(-mpmath.mpf(float(ti))))
                assert abs(v - ref) <= 1e-14 * abs(ref), (n, ti)
    # Li_1 holds to 2 ulp from t = 1e-300 to 700.  At 40 digits each form of
    # the oracle keeps its digits on one side of t = 1 only
    t1 = np.concatenate([np.geomspace(1e-300, 700.0, 300), t])
    with mpmath.workdps(40):
        for ti, v in zip(t1, _polylog_exp_neg([1], t1)[0]):
            tm = mpmath.mpf(float(ti))
            ref = (-mpmath.log(-mpmath.expm1(-tm)) if ti < 1.0
                   else -mpmath.log1p(-mpmath.exp(-tm)))
            assert abs(v - ref) <= 4.5e-16 * ref, ti


def test_polylog_exp_neg_scalar_and_array_agree():
    # a float t gives one value per order, each the bits of the array form
    t = np.array([0.0, 1e-3, 0.5, math.log(2.0), 2.0, 30.0])
    rows = _polylog_exp_neg([2, 3, 7], t)
    for i, ti in enumerate(t):
        column = _polylog_exp_neg([2, 3, 7], float(ti))
        assert column.shape == (3,)
        assert column.tobytes() == rows[:, i].tobytes()
    with pytest.raises(DomainError):
        _polylog_exp_neg([1], t)
    with pytest.raises(DomainError):
        _polylog_exp_neg([2], np.array([1.0, -1e-3]))


@pytest.mark.parametrize("orders", [(1, 2, 3, 4), (2, 7), (5, 19, 45)])
def test_polylog_exp_neg_order_rows_equal_single_orders_bit_for_bit(orders):
    # both branches, their switch at log 2, and t = 0 where no row is
    # Li_1; the expansion tables of 19 and 45 are longer than the rest
    log2 = math.log(2.0)
    t = np.concatenate([np.geomspace(1e-17, 50.0, 200),
                        np.nextafter(log2, [0.0, 1.0]), [log2]])
    if 1 not in orders:
        t = np.concatenate([[0.0], t])
    for ts in (t, t[:200].reshape(10, 20)):
        rows = _polylog_exp_neg(orders, ts)
        assert rows.shape == (len(orders),) + ts.shape
        for n, row in zip(orders, rows):
            assert row.tobytes() == _polylog_exp_neg([n], ts)[0].tobytes()


def test_polylog_exp_neg_order_rows_refuse_bad_arguments():
    for bad in (np.array([0.5, np.nan]), np.array([1.0, -1e-3]), -2.0):
        with pytest.raises(DomainError):
            _polylog_exp_neg([2, 3], bad)
    with pytest.raises(DomainError):
        _polylog_exp_neg([3, 1], np.array([0.5, 0.0]))
    # Li_1 diverges only at t = 0
    assert np.all(np.isfinite(_polylog_exp_neg([3, 1], np.array([0.5, 1e-300]))))
