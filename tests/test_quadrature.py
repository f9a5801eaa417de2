import math

import numpy as np
import pytest

import lovelab as ll
from lovelab import quadrature
from lovelab.conjectures import _suite_rows
from lovelab.errors import ConditioningError, ConvergenceError, DomainError
from lovelab.quadrature import _TS_DEPTH, _panel_sum, _tanh_sinh, _ts_level
from oracles.quadrature import level_by_level_tanh_sinh

PI = math.pi


# ----------------------------------------------------------------------
# Gauss-Legendre rules.
# ----------------------------------------------------------------------

def test_single_point_rule():
    rule = ll.gauss_legendre(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]


def test_two_point_exactness():
    rule = ll.gauss_legendre(2)
    assert float(np.dot(rule.weights, rule.nodes ** 2)) == pytest.approx(
        2.0 / 3.0, abs=1e-15)
    assert float(np.dot(rule.weights, rule.nodes ** 3)) == pytest.approx(
        0.0, abs=1e-15)


@pytest.mark.parametrize("n", [3, 8, 17])
def test_degree_2n_minus_1_exactness(n):
    rule = ll.gauss_legendre(n)
    for degree in (2 * n - 2, 2 * n - 1):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        got = float(np.dot(rule.weights, rule.nodes ** degree))
        assert got == pytest.approx(exact, abs=5e-15)


def test_weights_sum_and_ordering():
    for n in (5, 24, 129):
        rule = ll.gauss_legendre(n)
        assert float(np.sum(rule.weights)) == pytest.approx(2.0, abs=1e-13)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)


def test_lorentzian_with_64_points():
    rule = ll.gauss_legendre(64)
    got = float(np.dot(rule.weights, 1.0 / (rule.nodes ** 2 + 0.25)))
    assert got == pytest.approx(2.0 * math.atan(2.0) / 0.5, abs=1e-12)


def test_against_numpy_reference():
    for n in (2, 7, 40, 200):
        rule = ll.gauss_legendre(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(rule.nodes - x_ref)) < 1e-13
        assert np.max(np.abs(rule.weights - w_ref)) < 1e-13


def test_doubling_never_hurts_on_smooth_integrand():
    exact = math.e - 1.0 / math.e

    def err(n):
        rule = ll.gauss_legendre(n)
        return abs(float(np.dot(rule.weights, np.exp(rule.nodes))) - exact)

    for n in (2, 3, 4, 6):
        assert err(2 * n) <= err(n) + 1e-15


def test_rule_size_guards():
    for bad in (0, -3, 10001, True):
        with pytest.raises(DomainError) as info:
            ll.gauss_legendre(bad)
        assert str(info.value) == f"rule size must be an integer in [1, 10000], got {bad!r}"


# ----------------------------------------------------------------------
# tanh-sinh and the Gauss panel sum.
# ----------------------------------------------------------------------

def test_polynomial_both_schemes():
    value, est = _tanh_sinh(lambda x: x * x)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert est < 1e-13
    value = _panel_sum(lambda x: x * x, [0.0, 0.5, 1.0, 2.0])
    assert value == pytest.approx(8.0 / 3.0, abs=1e-13)


def test_tanh_sinh_inverse_sqrt_singularity():
    value, _ = _tanh_sinh(lambda x: 1.0 / np.sqrt(x))
    assert value == pytest.approx(2.0, abs=1e-12)


def test_log_endpoint_singularity():
    # antiderivative (1-x) log(1-x) - (1-x)  =>  integral is exactly 1
    value, _ = _tanh_sinh(lambda x: np.log(1.0 / (1.0 - x)))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_scheme_cross_check_smooth():
    # on (0, 2), mapped onto (0, 1) by x = 2 u
    f = lambda x: np.exp(-x * x) * np.cos(3.0 * x)
    a, _ = _tanh_sinh(lambda u: 2.0 * f(2.0 * u))
    b = _panel_sum(f, np.linspace(0.0, 2.0, 5))
    assert a == pytest.approx(b, abs=1e-13)


def test_one_integrand_call_per_panel_set_and_per_level():
    calls = []

    def recorded(g):
        def h(x):
            calls.append(np.array(x))
            return g(x)
        return h

    f = recorded(lambda x: 1.0 / x)

    edges = np.geomspace(1.0, 1e3, 13)
    value = _panel_sum(f, edges)
    assert value == pytest.approx(math.log(1e3), abs=1e-13)
    assert len(calls) == 1 and calls[0].shape == (12 * 16,)
    # abscissae arrive panel after panel, in edge order
    assert np.all(np.diff(calls[0]) > 0.0)

    # 1/x on (1, 3), mapped onto (0, 1) by x = 1 + 2 u
    mapped = lambda u: 2.0 / (1.0 + 2.0 * u)
    calls.clear()
    value, _ = _tanh_sinh(recorded(mapped))
    assert value == pytest.approx(math.log(3.0), abs=1e-13)
    _, levels = level_by_level_tanh_sinh(mapped)
    # the one call holds levels 0-5, with nodes near both endpoints
    assert len(levels) == _TS_DEPTH + 1 and len(calls) == 1
    assert calls[0].tolist() == np.concatenate(levels).tolist()
    assert calls[0].min() < 1e-4 and calls[0].max() > 1.0 - 1e-4

    # the narrow Lorentzian converges at level 8 of the level-by-level
    # rule: the fixed rule raises after its one call, on the same nodes
    lorentzian = ROWS[3]
    calls.clear()
    with pytest.raises(ConvergenceError):
        _tanh_sinh(recorded(lorentzian))
    _, levels = level_by_level_tanh_sinh(lorentzian)
    assert len(levels) == 9 and len(calls) == 1
    assert calls[0].tolist() == np.concatenate(levels[:_TS_DEPTH + 1]).tolist()


def test_level_tables_are_read_only():
    # built once per level, every abscissa inside (0, 1) with a positive weight
    for level in range(_TS_DEPTH + 1):
        x, w = _ts_level(level)
        assert np.all((x > 0.0) & (x < 1.0)) and np.all(w > 0.0)
        for table in (x, w):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.5
    assert _ts_level(4) is _ts_level(4)
    # and so are the rule's joined abscissae, level slices and half steps
    x, levels, half_steps = quadrature._ts_rule()
    assert quadrature._ts_rule()[0] is x and len(x) == 297
    for level, (part, wj) in enumerate(levels):
        assert x[part].tobytes() == _ts_level(level)[0].tobytes()
        assert wj[:, 0].tobytes() == _ts_level(level)[1].tobytes()
    assert sum(len(wj) for _, wj in levels) == len(x)
    for table in (x, half_steps, *(wj for _, wj in levels)):
        assert not table.flags.writeable


@pytest.mark.parametrize("f, best", [
    (lambda x: 1.0 / x, None),                        # divergent
    (lambda x: np.where(x < 0.3, 1.0, 0.0), 0.3),     # interior jump
])
def test_tanh_sinh_raises_at_level_cap(f, best):
    calls = []
    with pytest.raises(ConvergenceError, match="at level 5") as info:
        _tanh_sinh(lambda x: calls.append(x) or f(x))
    assert len(calls) == 1
    assert info.value.estimate > 1e-13
    if best is not None:
        assert info.value.best == pytest.approx(best, abs=1e-3)


# the narrow Lorentzian needs level 8, three levels past the fixed rule's 5
ROWS = [lambda x: x * x, lambda x: 1.0 / np.sqrt(x),
        lambda x: np.log(1.0 / (1.0 - x)), lambda x: 1.0 / (0.01 + (x - 0.5) ** 2)]


def stacked(x, rows=ROWS):
    return np.array([f(x) for f in rows])


def converging(x):
    return stacked(x, ROWS[:3])


def test_vector_integrand_rows_equal_scalar_calls_bit_for_bit():
    values, errors = _tanh_sinh(converging)
    assert values.shape == errors.shape == (3,)
    for f, value, error in zip(ROWS, values, errors):
        assert (value, error) == _tanh_sinh(f)
    # the Lorentzian misses alone and as the last row of four
    with pytest.raises(ConvergenceError, match=r"on \(0, 1\) missed"):
        _tanh_sinh(ROWS[3])
    with pytest.raises(ConvergenceError, match=r"on \(0, 1\), row 3 missed"):
        _tanh_sinh(stacked)
    edges = [0.5, 0.75, 0.9, 0.99]
    values = _panel_sum(stacked, edges)
    assert values.tolist() == [_panel_sum(f, edges) for f in ROWS]


def test_batched_levels_match_the_level_by_level_oracle_bit_for_bit():
    # _suite_rows: the 12 rows of verify's one integral
    for f in [converging, *ROWS[:3], _suite_rows]:
        (value, error), _ = level_by_level_tanh_sinh(f)
        got_value, got_error = _tanh_sinh(f)
        assert np.asarray(got_value).tobytes() == np.asarray(value).tobytes()
        assert np.asarray(got_error).tobytes() == np.asarray(error).tobytes()
    # the oracle takes the Lorentzian on to level 8; the fixed rule raises
    level_by_level_tanh_sinh(ROWS[3])
    with pytest.raises(ConvergenceError):
        _tanh_sinh(ROWS[3])


def test_rows_that_meet_the_tolerance_early_keep_their_level_five_value():
    # a constant and x^3 on (-1, 1), mapped onto (0, 1) by x = 2 u - 1,
    # change by less than the tolerance from level 3 on: the first test, at
    # level 5, keeps level 5's value, and the integrand is called once
    constant = lambda u: np.full_like(u, 2.0)
    for f in (constant, lambda u: 2.0 * (2.0 * u - 1.0) ** 3):
        calls = []
        got = _tanh_sinh(lambda x: calls.append(x) or f(x))
        want, levels = level_by_level_tanh_sinh(f)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert len(levels) == _TS_DEPTH + 1 and len(calls) == 1
    assert _tanh_sinh(constant)[0] == pytest.approx(2.0, rel=2e-16, abs=0.0)


def still_at_level_five(x):
    """Below 1/2, 1 at the nodes of levels 0-3, 0 at level 4's and, at level
    5's, the constant whose level sum equals that of levels 0-4 (0 above
    1/2).  Level 5 then changes the value by rounding only, since h_5/2
    times (level 5's sum - the sum through level 4) is the change, while
    level 4 halves it."""
    left = [xj[xj < 0.5] for xj, _ in map(_ts_level, range(_TS_DEPTH + 1))]
    weight = [wj[xj < 0.5].sum() for xj, wj in map(_ts_level, range(_TS_DEPTH + 1))]
    f = np.zeros_like(x)
    f[np.isin(x, np.concatenate(left[:4]))] = 1.0
    f[np.isin(x, left[5])] = sum(weight[:4]) / weight[5]
    return f


@pytest.mark.parametrize("f", [
    lambda x: 1.0 / x,                                # divergent
    lambda x: np.where(x < 0.3, 1.0, 0.0),            # interior jump
    lambda x: np.array([x * x, 1.0 / x]),             # one row diverges
    still_at_level_five,                              # level 4 moves it
])
def test_level_cap_error_matches_the_level_by_level_oracle(f):
    # the fixed rule's error carries the oracle's level-5 value and change
    with pytest.raises(ConvergenceError) as want:
        level_by_level_tanh_sinh(f, last=_TS_DEPTH)
    with pytest.raises(ConvergenceError) as got:
        _tanh_sinh(f)
    assert (got.value.best, got.value.estimate) == (want.value.best, want.value.estimate)


def test_vector_tanh_sinh_raises_when_one_row_diverges():
    def f(x):
        return np.array([x * x, 1.0 / x])

    with pytest.raises(ConvergenceError, match=r"on \(0, 1\), row 1") as info:
        _tanh_sinh(f)
    assert info.value.estimate > 1e-13


# ----------------------------------------------------------------------
# fit_log_tail.
# ----------------------------------------------------------------------

def test_fit_linear_log_model():
    g0 = (1.0 + math.log(PI)) / PI
    samples = [(x, math.log(x) / PI + g0) for x in np.geomspace(10, 1e4, 6)]
    fit = ll.fit_log_tail(samples)
    assert fit.c1 == pytest.approx(1.0 / PI, abs=1e-12)
    assert fit.c0 == pytest.approx(0.682689, abs=1e-6)


def test_fit_constant_samples():
    samples = [(x, 4.25) for x in np.geomspace(1.0, 1e3, 5)]
    fit = ll.fit_log_tail(samples)
    assert fit.c1 == pytest.approx(0.0, abs=1e-12)
    assert fit.c0 == pytest.approx(4.25, abs=1e-12)


def test_fit_precondition_guards():
    with pytest.raises(DomainError):
        ll.fit_log_tail([(10.0, 1.0), (100.0, 2.0), (1000.0, 3.0)])
    with pytest.raises(DomainError):
        ll.fit_log_tail([(x, 1.0) for x in (10.0, 20.0, 40.0, 80.0)])
    with pytest.raises(DomainError, match="sample abscissae must be positive"):
        ll.fit_log_tail([(0.0, 1.0), (10.0, 1.0), (100.0, 2.0), (1000.0, 3.0)])


def test_fit_refuses_a_rank_deficient_design():
    # a zero singular value makes the ratio inf, with no divide warning
    design = np.column_stack([np.ones(4), np.zeros(4)])
    with pytest.raises(ConditioningError, match=r"rank 1 of 2, sv ratio inf"):
        quadrature._lstsq(design, np.arange(4.0))


# ----------------------------------------------------------------------
# The stacked level sums keep the bits of per-row dots.
# ----------------------------------------------------------------------

# every abscissa of levels 0-5, once, so that a tabulated integrand's value
# depends on its own abscissa alone, as the rule's sums require
_ABSCISSAE = np.unique(np.concatenate([_ts_level(level)[0] for level in range(_TS_DEPTH + 1)]))


def tabulated(table):
    """An integrand of len(table) rows taking table's column at each
    abscissa of the rule (a one-row table gives a 1-D integrand)."""
    def f(x):
        at = np.searchsorted(_ABSCISSAE, x)
        assert np.array_equal(_ABSCISSAE[at], x)
        return table[0, at] if len(table) == 1 else table[:, at]
    return f


@pytest.mark.parametrize("m", [1, 4, 12])
def test_stacked_level_sums_match_per_row_dots_bit_for_bit(m):
    # smooth rows carrying random last bits at every abscissa of every
    # level converge, and each sum's rounding depends on the order of its
    # terms: value and error are the level-by-level oracle's, whose level
    # sums are one np.dot per row
    rng = np.random.default_rng(m)
    x = _ABSCISSAE
    smooth = np.array([x ** (k % 5) * np.log(1.0 / (1.0 - x)) ** (k // 5) / np.sqrt(x)
                       for k in range(m)])
    f = tabulated(smooth * (1.0 + 2.0 ** -50 * rng.standard_normal(smooth.shape)))
    (value, error), _ = level_by_level_tanh_sinh(f)
    got = _tanh_sinh(f)
    assert np.asarray(got[0]).tobytes() == np.asarray(value).tobytes()
    assert np.asarray(got[1]).tobytes() == np.asarray(error).tobytes()
    # random rows over 60 decades converge nowhere: each row in turn is the
    # first that misses, and carries the oracle's level-5 value and change
    table = rng.standard_normal((m, len(x))) * 10.0 ** rng.uniform(-30.0, 30.0, (m, len(x)))
    for row in range(m):
        f = tabulated(np.roll(table, -row, axis=0))
        with pytest.raises(ConvergenceError) as want:
            level_by_level_tanh_sinh(f, last=_TS_DEPTH)
        with pytest.raises(ConvergenceError) as got:
            _tanh_sinh(f)
        assert (got.value.best, got.value.estimate) == (want.value.best, want.value.estimate)
