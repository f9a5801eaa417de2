import math

import numpy as np
import pytest

import lovelab as ll
from lovelab import quadrature
from lovelab.errors import ConditioningError, ConvergenceError, DomainError
from lovelab.quadrature import (_TOL, _TS_FIRST_CALL, _TS_MAX_LEVEL, _TS_TMAX, _composite,
                                _panel_sum, _tanh_sinh, _ts_unit_level)

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
# tanh-sinh and the composite head-plus-panels path.
# ----------------------------------------------------------------------

def test_polynomial_both_schemes():
    value, est = _tanh_sinh(lambda x: x * x, 0.0, 1.0)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert est < 1e-13
    value = _composite(lambda x: x * x, [0.0, 0.5, 1.0, 2.0])
    assert value == pytest.approx(8.0 / 3.0, abs=1e-13)


def test_tanh_sinh_inverse_sqrt_singularity():
    value, _ = _tanh_sinh(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert value == pytest.approx(2.0, abs=1e-12)
    # the singular head goes to tanh-sinh, the panels never see x = 0
    value = _composite(lambda x: 1.0 / np.sqrt(x), [0.0, 1.0, 2.0, 4.0])
    assert value == pytest.approx(4.0, abs=1e-12)


def test_log_endpoint_singularity():
    # antiderivative (1-x) log(1-x) - (1-x)  =>  integral is exactly 1
    value, _ = _tanh_sinh(lambda x: np.log(1.0 / (1.0 - x)), 0.0, 1.0)
    assert value == pytest.approx(1.0, abs=1e-12)
    # and log t on (0, 1] as a composite head: int_0^e log t dt = 0
    value = _composite(np.log, [0.0, 1.0, math.e])
    assert value == pytest.approx(0.0, abs=1e-12)


def test_scheme_cross_check_smooth():
    f = lambda x: np.exp(-x * x) * np.cos(3.0 * x)
    a, _ = _tanh_sinh(f, 0.0, 2.0)
    b = _composite(f, np.linspace(0.0, 2.0, 5))
    assert a == pytest.approx(b, abs=1e-13)


def test_composite_zero_width_tail_adds_nothing():
    f = lambda x: 1.0 / np.sqrt(x)
    head, _ = _tanh_sinh(f, 0.0, 1.0)
    assert _composite(f, [0.0, 1.0, 1.0]) == head


def level_by_level_tanh_sinh(f, a, b):
    """The nested tanh-sinh rule with one integrand call per level, in the
    plainest form: the oracle whose (value, error) bits, and whose
    ConvergenceError, the batched _tanh_sinh must reproduce.  Level j adds
    the nodes t = k 2^-j for odd k (every k at level 0, plus the midpoint).
    Returns the abscissae of each level along with the result."""
    width = b - a
    xs, history = [], []
    raw = ndim = done = best = error = value = None
    for level in range(_TS_MAX_LEVEL + 1):
        h = 0.5 ** level
        k = np.arange(1, int(math.floor(_TS_TMAX / h)) + 1)
        if level:
            k = k[k % 2 == 1]
        t = k * h
        q = np.exp(-2.0 * (0.5 * PI * np.sinh(t)))
        s = q / (1.0 + q)
        w = 2.0 * PI * np.cosh(t) * q / (1.0 + q) ** 2
        s, w = s[w > 0.0], w[w > 0.0]
        xl, xr = a + width * s, b - width * s
        lok, rok = xl > a, xr < b
        x = np.concatenate([[a + 0.5 * width] if level == 0 else [], xl[lok], xr[rok]])
        w = np.concatenate([[0.5 * PI] if level == 0 else [], w[lok], w[rok]])
        xs.append(x)
        part = 0.0
        if len(x):
            fx = np.asarray(f(x))
            ndim = fx.ndim
            part = np.array([np.dot(w, row) for row in fx.reshape(-1, len(x))])
        raw = part if raw is None else raw + part
        value = 0.5 * width * h * raw
        history.append(value)
        if level == 0:
            best, error = value.copy(), np.zeros_like(value)
            done = np.zeros(value.shape, dtype=bool)
        if level >= 3:
            scale = np.maximum(1.0, np.abs(value))
            d1 = np.abs(history[-1] - history[-2])
            d2 = np.abs(history[-2] - history[-3])
            now = ~done & (d1 < _TOL * scale) & (d2 < _TOL * scale)
            best[now] = value[now]
            error[now] = np.maximum(d1, 4e-16 * scale)[now]
            done |= now
            if done.all():
                result = (float(best[0]), float(error[0])) if ndim == 1 else (best, error)
                return result, xs
    row = int(np.flatnonzero(~done)[0])
    raise ConvergenceError("level cap", float(value[row]),
                           float(abs(history[-1][row] - history[-2][row])))


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
    assert len(calls) == 1 and calls[0].shape == (12 * 24,)
    # abscissae arrive panel after panel, in edge order
    assert np.all(np.diff(calls[0]) > 0.0)
    tail = calls[0]

    calls.clear()
    value, _ = _tanh_sinh(f, 1.0, 3.0)
    assert value == pytest.approx(math.log(3.0), abs=1e-13)
    _, levels = level_by_level_tanh_sinh(lambda x: 1.0 / x, 1.0, 3.0)
    # the first call holds levels 0-5, with nodes near both endpoints: 1/x
    # converges at level 5, so it makes no other call
    assert len(levels) == _TS_FIRST_CALL + 1 and len(calls) == 1
    assert calls[0].tolist() == np.concatenate(levels).tolist()
    assert calls[0].min() < 1.0 + 1e-4 and calls[0].max() > 3.0 - 1e-4

    # the narrow Lorentzian converges at level 8: each level after the
    # first call holds one call; no abscissa is evaluated twice
    lorentzian = ROWS[3]
    calls.clear()
    got = _tanh_sinh(recorded(lorentzian), 0.0, 1.0)
    want, levels = level_by_level_tanh_sinh(lorentzian, 0.0, 1.0)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert len(levels) == 9 and len(calls) == len(levels) - _TS_FIRST_CALL
    assert calls[0].tolist() == np.concatenate(levels[:_TS_FIRST_CALL + 1]).tolist()
    for x, level in zip(calls[1:], levels[_TS_FIRST_CALL + 1:]):
        assert x.tolist() == level.tolist()
        assert x.min() < 0.5 < x.max()

    # under _composite the first call also holds every tail abscissa
    calls.clear()
    value = _composite(f, np.concatenate([[0.5], edges]))
    assert value == pytest.approx(math.log(2e3), abs=1e-13)
    _, levels = level_by_level_tanh_sinh(lambda x: 1.0 / x, 0.5, 1.0)
    assert len(levels) == _TS_FIRST_CALL + 1 and len(calls) == 1
    assert calls[0].tolist() == np.concatenate(levels + [tail]).tolist()


def test_level_tables_are_read_only():
    for level in range(_TS_MAX_LEVEL + 1):
        for table in _ts_unit_level(level):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.5
    assert _ts_unit_level(4) is _ts_unit_level(4)


@pytest.mark.parametrize("f, best", [
    (lambda x: 1.0 / x, None),                        # divergent
    (lambda x: np.where(x < 0.3, 1.0, 0.0), 0.3),     # interior jump
])
def test_tanh_sinh_raises_at_level_cap(f, best):
    with pytest.raises(ConvergenceError) as info:
        _tanh_sinh(f, 0.0, 1.0)
    assert info.value.estimate > 1e-13
    if best is not None:
        assert info.value.best == pytest.approx(best, abs=1e-3)


# the narrow Lorentzian converges at level 8, three levels after the others
ROWS = [lambda x: x * x, lambda x: 1.0 / np.sqrt(x),
        lambda x: np.log(1.0 / (1.0 - x)), lambda x: 1.0 / (0.01 + (x - 0.5) ** 2)]


def stacked(x):
    return np.array([f(x) for f in ROWS])


def test_vector_integrand_rows_equal_scalar_calls_bit_for_bit():
    # each row keeps the value of the level at which it converged; refined
    # on to the Lorentzian's level, x^2 would move in its last bit
    values, errors = _tanh_sinh(stacked, 0.0, 1.0)
    assert values.shape == errors.shape == (4,)
    for f, value, error in zip(ROWS, values, errors):
        assert (value, error) == _tanh_sinh(f, 0.0, 1.0)
    edges = [0.0, 0.5, 0.75, 0.9, 0.99]
    values = _composite(stacked, edges)
    assert values.tolist() == [_composite(f, edges) for f in ROWS]
    values = _panel_sum(stacked, edges[1:])
    assert values.tolist() == [_panel_sum(f, edges[1:]) for f in ROWS]


def test_batched_levels_match_the_level_by_level_oracle_bit_for_bit():
    edges = [0.0, 0.5, 0.75, 0.9, 0.99]
    for f in [stacked, *ROWS]:
        (value, error), _ = level_by_level_tanh_sinh(f, 0.0, 1.0)
        got_value, got_error = _tanh_sinh(f, 0.0, 1.0)
        assert np.asarray(got_value).tobytes() == np.asarray(value).tobytes()
        assert np.asarray(got_error).tobytes() == np.asarray(error).tobytes()
        (head, _), _ = level_by_level_tanh_sinh(f, edges[0], edges[1])
        expected = head + _panel_sum(f, edges[1:])
        assert np.asarray(_composite(f, edges)).tobytes() == np.asarray(expected).tobytes()


def test_composite_leaves_the_head_before_the_panel_sum_starts(monkeypatch):
    # a span opened around each step nests as the steps run: the head's
    # tanh-sinh must not run inside the panel sum
    events = []

    def recorded(name, func):
        def wrapper(*args):
            events.append(f"enter {name}")
            result = func(*args)
            events.append(f"exit {name}")
            return result
        return wrapper

    monkeypatch.setattr(quadrature, "_tanh_sinh", recorded("head", _tanh_sinh))
    monkeypatch.setattr(quadrature, "_panel_sum", recorded("tail", _panel_sum))
    value = _composite(lambda x: 1.0 / np.sqrt(x), [0.0, 1.0, 2.0, 4.0])
    assert value == pytest.approx(4.0, abs=1e-12)
    assert events == ["enter head", "exit head", "enter tail", "exit tail"]


@pytest.mark.parametrize("f", [
    lambda x: 1.0 / x,                                # divergent
    lambda x: np.where(x < 0.3, 1.0, 0.0),            # interior jump
    lambda x: np.array([x * x, 1.0 / x]),             # one row diverges
])
def test_level_cap_error_matches_the_level_by_level_oracle(f):
    with pytest.raises(ConvergenceError) as want:
        level_by_level_tanh_sinh(f, 0.0, 1.0)
    with pytest.raises(ConvergenceError) as got:
        _tanh_sinh(f, 0.0, 1.0)
    assert (got.value.best, got.value.estimate) == (want.value.best, want.value.estimate)


def test_vector_tanh_sinh_raises_when_one_row_diverges():
    def f(x):
        return np.array([x * x, 1.0 / x])

    with pytest.raises(ConvergenceError, match="row 1") as info:
        _tanh_sinh(f, 0.0, 1.0)
    assert info.value.estimate > 1e-13


# ----------------------------------------------------------------------
# fit_log_tail.
# ----------------------------------------------------------------------

def test_fit_recovers_synthetic_model():
    xs = np.geomspace(10.0, 1e6, 9)
    samples = [(x, 0.3 * math.log(x) ** 2 + 0.2 * math.log(x) + 1.5) for x in xs]
    fit = ll.fit_log_tail(samples, with_log2=True)
    assert fit.c2 == pytest.approx(0.3, abs=1e-10)
    assert fit.c1 == pytest.approx(0.2, abs=1e-10)
    assert fit.c0 == pytest.approx(1.5, abs=1e-10)
    assert fit.residual < 1e-10


def test_fit_linear_log_model():
    g0 = (1.0 + math.log(PI)) / PI
    samples = [(x, math.log(x) / PI + g0) for x in np.geomspace(10, 1e4, 6)]
    fit = ll.fit_log_tail(samples)
    assert fit.c2 == 0.0
    assert fit.c1 == pytest.approx(1.0 / PI, abs=1e-12)
    assert fit.c0 == pytest.approx(0.682689, abs=1e-6)


def test_fit_constant_samples():
    samples = [(x, 4.25) for x in np.geomspace(1.0, 1e3, 5)]
    fit = ll.fit_log_tail(samples, with_log2=True)
    assert fit.c2 == pytest.approx(0.0, abs=1e-12)
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
    # two decades, but only two distinct X: three columns of rank 2
    samples = [(1.0, 0.0), (1.0, 0.0), (100.0, 1.0), (100.0, 1.0)]
    with pytest.raises(ConditioningError, match=r"rank 2 of 3"):
        ll.fit_log_tail(samples, with_log2=True)
    # a zero singular value makes the ratio inf, with no divide warning
    design = np.column_stack([np.ones(4), np.zeros(4)])
    with pytest.raises(ConditioningError, match=r"rank 1 of 2, sv ratio inf"):
        quadrature._lstsq(design, np.arange(4.0))
