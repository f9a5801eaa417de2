import math
from fractions import Fraction as F

import numpy as np
import pytest

import lovelab as ll
from lovelab import capacitor2d, conjectures, quadrature, specfun
from lovelab.cli import main
from lovelab.conjectures import GAMMA0, GAMMA1, GAMMA2_TILDE, INTEGRAL4
from lovelab.errors import DomainError
from oracles.quadrature import level_by_level_tanh_sinh

PI = math.pi

# The first rows of the iterated transform applied to 1, 2, 3, ...; these
# are exact rationals and must reproduce with no floating point involved.
TABLE = [
    [F(-1), F(-1, 2), F(-1, 3), F(-1, 4), F(-1, 5), F(-1, 6)],
    [F(-1, 2), F(-1, 12), F(-1, 36), F(-1, 80), F(-1, 150), F(-1, 252)],
    [F(-5, 12), F(-1, 36), F(-11, 2160), F(-7, 4800), F(-17, 31500), F(-5, 21168)],
    [F(-7, 18), F(-49, 4320), F(-157, 129600), F(-463, 2016000),
     F(-803, 13230000), F(-71, 3556224)],
    [F(-1631, 4320), F(-1313, 259200), F(-17813, 54432000)],
    [F(-96547, 259200), F(-257917, 108864000)],
    [F(-40291823, 108864000)],
]


# ----------------------------------------------------------------------
# Sequence transform.
# ----------------------------------------------------------------------

def test_transform_table_rows_exact():
    seq = [F(i) for i in range(1, 14)]
    for row in TABLE:
        seq = ll.t_transform(seq)
        assert seq[:len(row)] == row


def test_transform_of_constant_sequence():
    assert ll.t_transform([F(5)] * 6) == [F(0)] * 5


def test_transform_requires_two_elements():
    with pytest.raises(DomainError):
        ll.t_transform([F(1)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_transform_refuses_non_finite_elements(bad):
    with pytest.raises(DomainError, match="finite"):
        ll.t_transform([1, bad, 3])


@pytest.mark.parametrize("bad", [True, np.True_])
def test_transform_refuses_bools(bad):
    # a bool is not a real here, as it is not an integer for the orders
    with pytest.raises(DomainError, match="finite"):
        ll.t_transform([1, bad, 3])


def test_transform_refuses_strings():
    # a str is no real for errors._check_real: refused, not parsed
    with pytest.raises(DomainError, match="finite"):
        ll.t_transform(["1", "2", "7/3"])


def test_transform_takes_numpy_reals():
    # a numpy float is the double it converts to; a numpy int is exact, in
    # Python ints, so the differences cannot wrap around at 2^63
    assert ll.t_transform([np.float32(2.5), 1]) == [F(3, 2)]
    assert ll.t_transform([np.int64(2 ** 62), np.int64(-2 ** 62)]) == [F(2 ** 63)]


def test_tn_first_values():
    firsts = conjectures._tn_firsts(7)
    assert firsts[1] == F(-1)
    assert firsts[3] == F(-5, 12)
    assert firsts[4] == F(-7, 18)
    assert firsts[7] == F(-40291823, 108864000)


def test_tn_firsts_are_built_once_as_an_immutable_tuple():
    # exact rationals, like GAMMA0: every call returns the tuple built by
    # the first, equal to a fresh pass of the transform over 1..n+1
    for n in range(1, 7):
        firsts = conjectures._tn_firsts(n)
        assert type(firsts) is tuple and conjectures._tn_firsts(n) is firsts
        seq = [F(i) for i in range(1, n + 2)]
        fresh = [seq[0]]
        for _ in range(n):
            seq = ll.t_transform(seq)
            fresh.append(seq[0])
        assert firsts == tuple(fresh)
        assert all(type(v) is F for v in firsts)


# ----------------------------------------------------------------------
# Polylog claim.
# ----------------------------------------------------------------------

def test_polylog_claim_reports():
    r2, r1, r5 = ll.verify_polylog_claim([2, 1, 5])
    assert r2.target == -0.5
    assert r2.abs_error <= 1e-9
    assert r2.digits >= 13
    assert r1.target == -1.0
    assert r1.digits >= 13
    assert r5.target == pytest.approx(-1631.0 / 4320.0, rel=1e-15, abs=0)
    assert r5.target == pytest.approx(-0.377546296, abs=1e-9)
    assert r5.digits >= 13


# ----------------------------------------------------------------------
# Residue identity.
# ----------------------------------------------------------------------

def test_residue_targets_and_digits():
    reports = ll.residue_identity([1, 2, 3, 4])
    r1, r2 = reports[:2]
    assert r1.target == pytest.approx(math.exp(-1.0), rel=1e-15, abs=0)
    assert r1.target == pytest.approx(0.3678794, abs=1e-7)
    assert r2.target == pytest.approx(4.0 * math.exp(-2.0), rel=1e-15, abs=0)
    assert r2.target == pytest.approx(0.5413411, abs=1e-7)
    for report in reports:
        assert report.digits >= 13


def test_residue_integrand_has_one_sign():
    # Im(1/(1+W)) < 0 along the upper cut, so the integrand never oscillates
    from lovelab.specfun import _w_upper_from_offset

    W = _w_upper_from_offset(np.geomspace(1e-12, 40.0, 50))
    im = -W.imag / ((1.0 + W.real) ** 2 + W.imag ** 2)
    assert np.all(im < 0.0)


def test_residue_guards():
    with pytest.raises(DomainError):
        ll.residue_identity([0])
    with pytest.raises(DomainError):       # isinstance(True, int) holds
        ll.residue_identity([True])
    with pytest.raises(DomainError):
        ll.residue_identity([9])


@pytest.mark.parametrize("check, orders", [
    (ll.verify_polylog_claim, [1, 2, 3, 4, 5, 6]),
    (ll.residue_identity, [1, 2, 3, 4, 5, 6, 7, 8]),
    (ll.residue_identity, (3, 8)),
])
def test_sequence_forms_match_per_order_calls(check, orders):
    # the residue rows share the panels of the smallest k; measured gap to
    # the per-order calls (each on its own panels) is 0
    together = check(orders)
    assert isinstance(together, list)
    singles = [single for n in orders for single in check([n])]
    assert [r.name for r in together] == [r.name for r in singles]
    for joint, single in zip(together, singles):
        assert joint.target == single.target and joint.method == single.method
        assert abs(joint.computed - single.computed) <= 4e-16 * abs(single.computed)


@pytest.mark.parametrize("check", [
    ll.phi_prime_polylog_integral, ll.verify_polylog_claim, ll.residue_identity,
])
def test_a_numpy_array_of_orders_is_a_sequence_of_orders(check):
    # an array of orders is taken as its elements, each a numpy integer
    assert check(np.arange(1, 3)) == check([1, 2])


@pytest.mark.parametrize("check", [
    ll.phi_prime_polylog_integral, ll.verify_polylog_claim, ll.residue_identity,
])
def test_orders_come_as_a_sequence_only(check):
    with pytest.raises(TypeError):
        check(2)


@pytest.mark.parametrize("check, bad", [
    (ll.verify_polylog_claim, [1, 7]),
    (ll.verify_polylog_claim, [0, 1]),
    (ll.residue_identity, [2, 9]),
    (ll.residue_identity, [1, 2.0]),
    (ll.residue_identity, []),
    (ll.verify_polylog_claim, [1, True]),    # isinstance(True, int) holds
])
def test_sequence_guards_reject_a_bad_order_anywhere(check, bad):
    with pytest.raises(DomainError):
        check(bad)


@pytest.mark.parametrize("which", ["polylog", "residue"])
def test_one_w_evaluation_per_level_and_one_for_the_panels(capsys, monkeypatch, which):
    # the group's orders share one W per abscissa set: one call per
    # integrand call of its tanh-sinh integral on (0, 1), and the same count
    # on a repeat, since nothing is kept from one command to the next
    w_calls, levels = [], []
    w_upper = specfun._w_upper_from_offset
    tanh_sinh = quadrature._tanh_sinh

    def counted_w(d):
        w_calls.append(d)
        return w_upper(d)

    def counted_levels(f):
        def level(x):
            levels.append(x)
            return f(x)
        return tanh_sinh(level)

    for module in (capacitor2d, conjectures):
        monkeypatch.setattr(module, "_w_upper_from_offset", counted_w)
        monkeypatch.setattr(module, "_tanh_sinh", counted_levels)
    counts = []
    for _ in range(2):
        w_calls.clear()
        levels.clear()
        assert main(["verify", "--which", which]) == 0
        assert 0 < len(w_calls) == len(levels)
        counts.append(len(w_calls))
    capsys.readouterr()
    assert counts[0] == counts[1]


def _count_suite_calls(monkeypatch) -> dict:
    """Counts of integrand calls (one per tanh-sinh integral call of f), W
    calls and the offsets they take, polylog calls, dK/dk calls and Gauss
    panel sums, kept up to date while the patches stand."""
    calls = {"integrand": 0, "w": 0, "w_elems": 0, "polylog": 0, "dk": 0, "panel_sum": 0}
    tanh_sinh = quadrature._tanh_sinh

    def counted(key, func):
        def wrapper(*args):
            calls[key] += 1
            return func(*args)
        return wrapper

    def counted_integrand(f):
        return tanh_sinh(counted("integrand", f))

    for module in (quadrature, capacitor2d, conjectures):
        monkeypatch.setattr(module, "_tanh_sinh", counted_integrand)
    monkeypatch.setattr(quadrature, "_panel_sum", counted("panel_sum", quadrature._panel_sum))
    counted_w = counted("w", specfun._w_upper_from_offset)

    def w_upper(d):
        calls["w_elems"] += np.size(d)
        return counted_w(d)

    for module in (capacitor2d, conjectures):
        monkeypatch.setattr(module, "_w_upper_from_offset", w_upper)
    monkeypatch.setattr(capacitor2d, "_polylog_exp_neg",
                        counted("polylog", specfun._polylog_exp_neg))
    monkeypatch.setattr(conjectures, "_dk_vec", counted("dk", specfun._dk_vec))
    return calls


# the abscissae of tanh-sinh levels 0-5 on (0, 1), where every integral of
# the suite converges
_NODES = sum(len(quadrature._ts_level(level)[0])
             for level in range(quadrature._TS_DEPTH + 1))


def test_one_integrand_call_per_integral_of_the_suite(monkeypatch):
    # all 12 rows of the suite are one tanh-sinh integral on (0, 1) that
    # converges at level 5, so its integrand's first call (levels 0-5) is
    # its only one.  That call makes one W call on the offsets pi s, pi / s
    # and -log(1 - s), whose last block the polylog and residue rows
    # share, one dK/dk pass and one _polylog_exp_neg call; per-group
    # integrals would make 4 integrand and 3 W calls on 4 blocks.  No Gauss
    # panel is summed
    assert _NODES == 297
    calls = _count_suite_calls(monkeypatch)
    assert len(conjectures.run_all()) == 13
    assert calls == {"integrand": 1, "w": 1, "w_elems": 3 * _NODES, "polylog": 1, "dk": 1,
                     "panel_sum": 0}


@pytest.mark.parametrize("group, w_blocks, polylog, dk", [
    ("gamma0", 2, 0, 0), ("gamma1", 2, 0, 0), ("gamma2", 0, 0, 1), ("integral4", 0, 0, 1),
    ("polylog", 1, 1, 0), ("residue", 1, 0, 0),
])
def test_a_group_alone_integrates_its_own_rows(monkeypatch, group, w_blocks, polylog, dk):
    # called without its rows, a group takes one integral of its own only, with
    # at most one W call, on its own offsets
    calls = _count_suite_calls(monkeypatch)
    conjectures.SUITE[group]()
    assert calls == {"integrand": 1, "w": min(w_blocks, 1), "w_elems": w_blocks * _NODES,
                     "polylog": polylog, "dk": dk, "panel_sum": 0}


def test_no_shared_value_outlives_its_run(monkeypatch):
    # each run computes its shared integral afresh
    calls = _count_suite_calls(monkeypatch)
    for _ in range(2):
        calls.update(integrand=0, w=0)
        assert len(conjectures.run_all()) == 13
        assert (calls["integrand"], calls["w"]) == (1, 1)


def test_no_shared_value_outlives_a_failed_run(monkeypatch):
    # the last group raises after gamma0 and gamma1 read the suite's
    # shared integral; a later check on its own computes its own
    def refuse(k, values=None):
        raise DomainError("refused")

    calls = _count_suite_calls(monkeypatch)
    monkeypatch.setattr(conjectures, "residue_identity", refuse)
    with pytest.raises(DomainError):
        conjectures.run_all()
    calls["w"] = 0
    assert conjectures.verify_gamma0().digits >= 15
    assert calls["w"] == 1


def _fields(report):
    return (report.name, report.computed.hex(), report.target.hex(),
            report.abs_error.hex(), report.digits, report.method)


@pytest.mark.parametrize("group", list(conjectures.SUITE))
def test_a_group_handed_its_rows_integrates_nothing(monkeypatch, group):
    # run_all hands each producer its rows of the suite's one integral: from
    # them it makes no integrand, W, dK/dk or polylog call, and the reports
    # it builds are those of the group run on its own, to the bit
    values, _ = quadrature._tanh_sinh(conjectures._suite_rows)
    alone = [_fields(r) for r in conjectures.SUITE[group]()]
    calls = _count_suite_calls(monkeypatch)
    handed = conjectures.SUITE[group](values[conjectures._SUITE_ROWS[group]])
    assert calls == dict.fromkeys(calls, 0)
    assert [_fields(r) for r in handed] == alone


@pytest.mark.parametrize("producer", [conjectures.verify_polylog_claim,
                                      conjectures.residue_identity])
def test_values_of_the_wrong_length_raise(producer):
    # three values for four orders drop no report silently
    values, _ = quadrature._tanh_sinh(conjectures._suite_rows)
    with pytest.raises(ValueError):
        producer([1, 2, 3, 4], values=values[4:7])


def test_run_all_equals_each_group_alone():
    # sharing within a run moves no bit of any report
    alone = [_fields(r) for task in conjectures.SUITE.values() for r in task()]
    assert [_fields(r) for r in conjectures.run_all()] == alone


# ----------------------------------------------------------------------
# Cumulative-potential constants.
# ----------------------------------------------------------------------

def test_gamma0_report():
    report = ll.verify_gamma0()
    assert report.target == pytest.approx(0.682689, abs=1e-6)
    assert report.abs_error <= 1e-15
    assert report.digits >= 15


def test_gamma1_report():
    report = ll.verify_gamma1()
    assert report.target == pytest.approx(-0.367647, abs=1e-6)
    assert report.abs_error <= 1e-13
    assert report.digits >= 13


def test_cumulative_route_approaches_the_constants():
    # The cumulative integrals miss the constants by their tails beyond X,
    # whose leading terms follow from Phi ~ 1/(pi t) + log(pi t)/(pi t)^2;
    # the next order leaves a relative deviation of about log X / X.
    X = 1e6
    lx, lpx = math.log(X), math.log(PI * X)
    tail0 = (lpx + 1.0) / (PI ** 2 * X)
    tail1 = (lpx * lx + lpx + lx + 2.0) / (PI ** 2 * X)
    gap0 = ll.verify_gamma0().computed - (ll.cumulative_phi(X) - lx / PI)
    gap1 = ll.verify_gamma1().computed - (ll.cumulative_phi_log(X) - lx * lx / (2.0 * PI))
    assert abs(gap0 / tail0 - 1.0) <= 1e-5
    assert abs(gap1 / tail1 - 1.0) <= 1e-5


def test_gamma0_fit_self_consistency():
    # doubling the largest X in the grid moves the constant by < 1e-8
    base = [10.0 ** e for e in np.linspace(10.0, 13.0, 7)]
    fit_a = ll.fit_log_tail([(X, ll.cumulative_phi(X)) for X in base])
    fit_b = ll.fit_log_tail([(X, ll.cumulative_phi(X)) for X in base[:-1]
                             + [2.0 * base[-1]]])
    assert abs(fit_a.c0 - fit_b.c0) < 1e-8


# ----------------------------------------------------------------------
# gamma2 and integral4.
# ----------------------------------------------------------------------

def test_integral4_report():
    report = ll.verify_integral4()
    assert report.target == pytest.approx(-2.0 / PI - PI / 2.0 + 2.0 * math.log(8.0) / PI,
                                          rel=1e-15, abs=0)
    assert report.digits >= 13


def test_gamma2_two_routes():
    route_a, route_b = ll.verify_gamma2()
    assert abs(route_a.computed - route_b.computed) <= 1e-9
    for report in (route_a, route_b):
        assert report.target == pytest.approx(-0.442303459247, abs=1e-12)
        assert report.digits >= 13
        assert report.abs_error <= abs(report.target) * 1e-9


def test_elliptic_routes_reach_fourteen_digits():
    # with K, E and dK/dr at rounding level, integral4 and both gamma2
    # routes are limited by quadrature alone
    for report in (ll.verify_integral4(), *ll.verify_gamma2()):
        assert report.digits >= 14, report


def test_constants_closed_forms():
    assert GAMMA0 == pytest.approx((1.0 + math.log(PI)) / PI, rel=1e-15, abs=0)
    assert GAMMA1 == pytest.approx(-0.367647624035, abs=1e-12)
    assert GAMMA2_TILDE == pytest.approx(-0.442303459247, abs=1e-12)
    assert INTEGRAL4 == pytest.approx(-0.883602498247, abs=1e-12)


# ----------------------------------------------------------------------
# Harness.
# ----------------------------------------------------------------------

def test_run_all_contents_and_digits():
    reports = ll.run_all()
    assert len(reports) == 13
    names = [r.name for r in reports]
    assert names == sorted(names, key=names.index)  # deterministic order
    # the report order is the verify table's contract
    assert names == ["gamma0", "gamma1", "gamma2_tilde_via_integral4",
                     "gamma2_tilde_direct", "integral4",
                     "polylog_n1", "polylog_n2", "polylog_n3", "polylog_n4",
                     "residue_k1", "residue_k2", "residue_k3", "residue_k4"]
    for report in reports:
        # one digit above the MIN_DIGITS gate of `verify`, which stays at 13
        assert report.digits >= conjectures.MIN_DIGITS + 1 == 14, report
        assert report.abs_error == abs(report.computed - report.target)
        # digits is the floor of the matched significant digits
        rel = report.abs_error / abs(report.target)
        if report.digits < 17:
            assert rel <= 10.0 ** (-report.digits)
            assert rel > 10.0 ** (-(report.digits + 1)) / 10.0


# ----------------------------------------------------------------------
# Each group's one tanh-sinh integral against its own next level, and the
# tail product of gamma0 and gamma1 against mpmath.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("group, producer, module", [
    ("gamma", ll.verify_gamma0, conjectures),
    ("gamma-to-2e4", lambda: ll.cumulative_phi(2e4), capacitor2d),
    ("polylog", lambda: ll.phi_prime_polylog_integral(range(1, 8)), capacitor2d),
    ("residue", lambda: ll.residue_identity(range(1, 9)), conjectures),
    ("unit", ll.verify_integral4, conjectures),
    ("suite", conjectures.run_all, conjectures),
])
def test_one_more_tanh_sinh_level_moves_no_row(monkeypatch, group, producer, module):
    # each group, every order included, is one tanh-sinh integral on (0, 1),
    # and so are the Phi moments up to a finite X and run_all's 12 rows.
    # Each row passes the rule's gate at level 5 with room: levels 4 and 5
    # change it by less than a quarter of its tolerance (gamma2's direct
    # row, the tightest, by 0.053 of it)
    calls = []

    def recorded(f):
        result = quadrature._tanh_sinh(f)
        calls.append((f, result))
        return result

    monkeypatch.setattr(module, "_tanh_sinh", recorded)
    producer()
    [(f, (values, _))] = calls
    monkeypatch.setattr(quadrature, "_TOL", quadrature._TOL / 4.0)
    quadrature._tanh_sinh(f)
    if group in ("unit", "suite"):
        # level 6 moves gamma2's direct row by 1.3e-14 of its value, away
        # from its target, so these two assert the margin only
        return
    # taken on through level 6, every other row moves by at most 5e-16 of
    # its value, so the rule's truncation is at rounding
    (finer, _), levels = level_by_level_tanh_sinh(f, first=quadrature._TS_DEPTH + 1)
    assert len(levels) == quadrature._TS_DEPTH + 2
    assert np.all(np.abs(finer - values) <= 5e-16 * np.abs(values)), (group, finer - values)


def _mp_upper_w(d, mpmath):
    """The upper-cut W at the float offset d, in mpmath's working precision:
    Halley on W + log W = d - 1 + i pi from the float solver's value, to
    convergence (each step triples the digits)."""
    w = mpmath.mpc(complex(specfun._w_upper_from_offset(d)[0]))
    target = mpmath.mpc(mpmath.mpf(d) - 1, mpmath.pi)
    for _ in range(8):
        f = w + mpmath.log(w) - target
        w -= 2 * f * (w + 1) * w / (2 * (w + 1) ** 2 + f)
    return w


def test_phi_tail_product_against_mpmath():
    # t (Phi(t) - 1/(pi t)) from W's polar form, from t = 1 to the largest
    # tail abscissa and beyond, one ulp either side of the series switch
    # theta = 0.1 (t ~ 11.06), at the float offset pi t the quadrature
    # evaluates.  The oracle's own arg(W)/pi - 1/(pi t) cancels about
    # 2 log10 t digits, which it carries on top of 40
    mpmath = pytest.importorskip("mpmath")
    switch = 11.055254414364697
    ts = [1.0, 1.5, 2.0, 3.0, 5.0, 8.0, math.nextafter(switch, 0.0), switch,
          math.nextafter(switch, 20.0), 20.0, 1e2, 1e3, 1e4, 1e6, 1e8, 1e12, 1e16,
          1e24, 1e32, 1e64, 1e128, 1e200, 1e256, 1e302, 1e305, 5e307]
    offsets = PI * np.array(ts)
    got = capacitor2d._phi_tail_of_w(specfun._w_upper_from_offset(offsets))
    for t, d, value in zip(ts, offsets, got):
        with mpmath.workdps(int(2 * math.log10(t)) + 40):
            d = mpmath.mpf(float(d))
            ref = (d * mpmath.arg(_mp_upper_w(float(d), mpmath)) / mpmath.pi - 1) / mpmath.pi
            assert abs(value - ref) <= 4e-15 * abs(ref), (t, float((value - ref) / ref))
