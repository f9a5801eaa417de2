import math
from fractions import Fraction as F

import numpy as np
import pytest

import lovelab as ll
from lovelab import asymptotics, capacitor2d, conjectures, quadrature, specfun
from lovelab.cli import main
from lovelab.conjectures import GAMMA0, GAMMA1, GAMMA2_TILDE, INTEGRAL4
from lovelab.errors import DomainError

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


def test_tn_first_values():
    assert ll.tn_first(1) == F(-1)
    assert ll.tn_first(3) == F(-5, 12)
    assert ll.tn_first(4) == F(-7, 18)
    assert ll.tn_first(7) == F(-40291823, 108864000)


def test_tn_first_guards():
    for bad in (0, 8, True):
        with pytest.raises(DomainError) as info:
            ll.tn_first(bad)
        assert str(info.value) == f"n must be an integer in [1, 7], got {bad!r}"


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
    assert r5.target == pytest.approx(-1631.0 / 4320.0, rel=1e-15)
    assert r5.target == pytest.approx(-0.377546296, abs=1e-9)
    assert r5.digits >= 13


# ----------------------------------------------------------------------
# Residue identity.
# ----------------------------------------------------------------------

def test_residue_targets_and_digits():
    reports = ll.residue_identity([1, 2, 3, 4])
    r1, r2 = reports[:2]
    assert r1.target == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert r1.target == pytest.approx(0.3678794, abs=1e-7)
    assert r2.target == pytest.approx(4.0 * math.exp(-2.0), rel=1e-15)
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
    # integrand call of the tanh-sinh head, whose first call also holds the
    # Gauss panels, and the same count on a repeat, since nothing is kept
    # from one command to the next
    w_calls, levels = [], []
    w_upper = specfun._w_upper_from_offset
    tanh_sinh = quadrature._tanh_sinh

    def counted_w(d):
        w_calls.append(d)
        return w_upper(d)

    def counted_levels(f, a, b):
        def level(x):
            levels.append(x)
            return f(x)
        return tanh_sinh(level, a, b)

    for module in (capacitor2d, conjectures):
        monkeypatch.setattr(module, "_w_upper_from_offset", counted_w)
    monkeypatch.setattr(quadrature, "_tanh_sinh", counted_levels)
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
    calls, polylog calls and dK/dk calls, kept up to date while the patches
    stand."""
    calls = {"integrand": 0, "w": 0, "polylog": 0, "dk": 0}
    tanh_sinh = quadrature._tanh_sinh

    def counted(key, func):
        def wrapper(*args):
            calls[key] += 1
            return func(*args)
        return wrapper

    def counted_integrand(f, a, b):
        return tanh_sinh(counted("integrand", f), a, b)

    for module in (quadrature, conjectures, asymptotics):
        monkeypatch.setattr(module, "_tanh_sinh", counted_integrand)
    w_upper = counted("w", specfun._w_upper_from_offset)
    for module in (capacitor2d, conjectures):
        monkeypatch.setattr(module, "_w_upper_from_offset", w_upper)
    monkeypatch.setattr(capacitor2d, "_polylog_exp_neg",
                        counted("polylog", specfun._polylog_exp_neg))
    dk = counted("dk", specfun._dk_vec)
    for module in (asymptotics, conjectures):
        monkeypatch.setattr(module, "_dk_vec", dk)
    return calls


def test_one_integrand_call_per_integral_of_the_suite(monkeypatch):
    # every tanh-sinh integral of the suite converges at level 5, so its
    # integrand's first call (levels 0-5 and any Gauss tail) is its only
    # one; gamma0 and gamma1 are two rows of one W integral, integral4 and
    # gamma2's subtracted outer integrand are two rows of one integral on
    # (0, 1), whose integral4 also serves gamma2's route (a), and the
    # polylog orders share one _polylog_exp_neg call, and the two rows on
    # (0, 1) one dK/dk pass; per-level calls would make 21, 12 and 12, and
    # unshared integrals 7, 4 and 1
    calls = _count_suite_calls(monkeypatch)
    assert len(conjectures.run_all()) == 13
    assert calls == {"integrand": 4, "w": 3, "polylog": 1, "dk": 1}


def test_no_shared_value_outlives_its_run(monkeypatch):
    # each run computes its shared integrals afresh
    calls = _count_suite_calls(monkeypatch)
    for _ in range(2):
        calls.update(integrand=0, w=0)
        assert len(conjectures.run_all()) == 13
        assert (calls["integrand"], calls["w"]) == (4, 3)


def test_no_shared_value_outlives_a_failed_run(monkeypatch):
    # the last group raises after gamma0 and gamma1 took their shared
    # integral; a later check on its own computes it again
    def refuse(k):
        raise DomainError("refused")

    calls = _count_suite_calls(monkeypatch)
    monkeypatch.setattr(conjectures, "residue_identity", refuse)
    with pytest.raises(DomainError):
        conjectures.run_all()
    calls["w"] = 0
    assert conjectures.verify_gamma0().digits >= 15
    assert calls["w"] == 1


def test_run_all_equals_each_group_alone():
    # sharing within a run moves no bit of any report
    def fields(report):
        return (report.name, report.computed.hex(), report.target.hex(),
                report.abs_error.hex(), report.digits, report.method)

    alone = [fields(r) for task in conjectures.SUITE.values() for r in task()]
    assert [fields(r) for r in conjectures.run_all()] == alone


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
                                          rel=1e-15)
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
    assert GAMMA0 == pytest.approx((1.0 + math.log(PI)) / PI, rel=1e-15)
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
# The Gauss tails against a finer rule.
# ----------------------------------------------------------------------

def _exact_rows(group, ts, mpmath):
    """The rows of a group's integrand at the tail abscissae ts, in mpmath's
    working precision: W from the float solver, refined by two Halley
    steps, so neither the rounding of the float integrands nor the
    cancellation in Phi - 1/(pi t) out to t = 1e18 hides the rule's
    truncation."""
    pi, rows = mpmath.pi, []
    offsets = ts if group == "residue" else [pi * t for t in ts]
    for t, d, w in zip(ts, offsets, specfun._w_upper_from_offset(np.array(offsets, dtype=float))):
        w, target = mpmath.mpc(w), mpmath.mpc(d - 1, pi)
        for _ in range(2):
            f = w + mpmath.log(w) - target
            w -= 2 * f * (w + 1) * w / (2 * (w + 1) ** 2 + f)
        if group == "gamma":
            g = mpmath.arg(w) / pi - 1 / (pi * t)
            rows.append([g, g * mpmath.log(t)])
        else:
            phi_prime = -w.imag / abs(1 + w) ** 2
            if group == "polylog":
                rows.append([phi_prime * mpmath.polylog(n, mpmath.exp(-pi * t))
                             for n in range(1, 5)])
            else:
                rows.append([mpmath.exp(-j * t) * phi_prime for j in range(1, 5)])
    return rows


def _mp_gauss(n, mpmath):
    """The n-point Gauss-Legendre nodes and weights in mpmath's precision:
    Newton on P_n from the float rule.  The float tables themselves are off
    by up to 4e-16 in their moments, more than the truncation looked for."""
    rule = ll.gauss_legendre(n)
    nodes, weights = [], []
    for x in map(mpmath.mpf, rule.nodes.tolist()):
        for _ in range(4):
            p0, p1 = mpmath.mpf(1), x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            dp = n * (x * p1 - p0) / (x * x - 1)
            x -= p1 / dp
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def _rule_sum(group, edges, n, mpmath):
    """The n-point Gauss sum of a group's rows over the panels between
    edges, in exact arithmetic: nodes, mapping, integrand and sum."""
    nodes, weights = _mp_gauss(n, mpmath)
    x, w = [], []
    for a, b in zip(map(mpmath.mpf, edges[:-1].tolist()), map(mpmath.mpf, edges[1:].tolist())):
        x += [(a + b) / 2 + (b - a) / 2 * node for node in nodes]
        w += [(b - a) / 2 * weight for weight in weights]
    rows = _exact_rows(group, x, mpmath)
    return [mpmath.fsum(wi * r[i] for wi, r in zip(w, rows)) for i in range(len(rows[0]))]


@pytest.mark.parametrize("group, producer, module", [
    ("gamma", ll.verify_gamma0, capacitor2d),
    ("polylog", lambda: ll.verify_polylog_claim(range(1, 5)), capacitor2d),
    ("residue", lambda: ll.residue_identity(range(1, 5)), conjectures),
])
def test_gauss_tails_match_a_finer_rule(monkeypatch, group, producer, module):
    # each group's Gauss tail, on its own panels and with the rule size
    # _panel_nodes takes, against 32 points on panels half as wide (four
    # per decade on the geometric tail of gamma0 and gamma1), both in exact
    # arithmetic: the rule's truncation is below 2e-16 of each row's
    # integral.  t = 1e18 needs W to 55 digits
    mpmath = pytest.importorskip("mpmath")
    calls = []
    composite = quadrature._composite

    def recorded(f, edges):
        values = composite(f, edges)
        calls.append((np.asarray(edges, dtype=float), np.atleast_1d(values)))
        return values

    monkeypatch.setattr(module, "_composite", recorded)
    producer()
    [(edges, values)] = calls
    tail = edges[1:]
    if group == "gamma":
        decades = math.log10(tail[-1] / tail[0])
        assert len(tail) - 1 == math.ceil(2 * decades)
        fine = np.geomspace(tail[0], tail[-1], math.ceil(4 * decades) + 1)
    else:
        fine = np.sort(np.concatenate([tail, 0.5 * (tail[:-1] + tail[1:])]))
    points = quadrature._panel_nodes(tail)[0].shape[1]
    with mpmath.workdps(70 if group == "gamma" else 30):
        got = _rule_sum(group, tail, points, mpmath)
        want = _rule_sum(group, fine, 32, mpmath)
        for g, r, value in zip(got, want, values):
            assert abs(g - r) <= 2e-16 * abs(value), (group, float(g), float(r))
