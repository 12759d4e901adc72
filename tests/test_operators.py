import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstab.errors import DomainError, RangeError, ShapeError
from fracstab.operators import (
    _FFT_MIN_TERMS,
    FracOrder,
    SampleSeries,
    TimeGrid,
    _lag_sum,
    caputo_l1,
    caputo_power_oracle,
    l1_weights,
    rect_weights,
    rl_integral,
    rl_weights,
)
from fracstab.special import gamma

from oracles import caputo_power_exact, fit_order, rl_power_exact


def grid_series(fn, t0=0.0, h=1e-3, n=1000):
    g = TimeGrid(t0, h, n)
    return g, SampleSeries.from_function(g, fn)


# --- types --------------------------------------------------------------------


def test_timegrid_validation():
    g = TimeGrid(0.0, 0.5, 4)
    assert g.n_nodes == 5 and g.t_end == 2.0
    assert np.all(np.diff(g.nodes()) > 0)
    with pytest.raises(DomainError):
        TimeGrid(0.0, 0.0, 5)
    with pytest.raises(DomainError):
        TimeGrid(0.0, -0.1, 5)
    with pytest.raises(ShapeError):
        TimeGrid(0.0, 0.1, 0)


def test_timegrid_between_needs_a_step_that_divides_the_span():
    assert TimeGrid.between(5.0, 6.0, 0.01) == TimeGrid(5.0, 0.01, 100)
    assert TimeGrid.between(0.0, 1.0, 1 / 3).n_steps == 3
    for h in (0.0031, 0.3, 2.0, 0.0, -0.01):
        with pytest.raises(DomainError):
            TimeGrid.between(0.0, 1.0, h)


def test_sampleseries_validation():
    g = TimeGrid(0.0, 0.1, 3)
    SampleSeries(g, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ShapeError):
        SampleSeries(g, [1.0, 2.0])
    with pytest.raises(DomainError):
        SampleSeries(g, [1.0, math.nan, 3.0, 4.0])
    s = SampleSeries(g, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0  # frozen buffer


def test_fracorder_validation():
    FracOrder(1.0)
    FracOrder(0.01)
    for bad in (0.0, 1.01, -0.3, math.nan):
        with pytest.raises(DomainError):
            FracOrder(bad)


# --- Riemann-Liouville integral -------------------------------------------------


def test_rl_constant_power_law():
    g, f = grid_series(lambda t: np.ones_like(t))
    out = rl_integral(f, 0.5)
    t = g.nodes()
    exact = t**0.5 / gamma(1.5)
    mask = t >= 0.1
    rel = np.abs(out.values[mask] - exact[mask]) / exact[mask]
    assert out.values[0] == 0.0
    assert np.max(rel) < 1e-6


def test_rl_zero_function():
    g, f = grid_series(lambda t: np.zeros_like(t), n=200)
    assert np.all(rl_integral(f, 1.3).values == 0.0)


def test_rl_order_one_is_ordinary_integral():
    g, f = grid_series(lambda t: t, n=2000)
    out = rl_integral(f, 1.0)
    assert np.max(np.abs(out.values - g.nodes() ** 2 / 2.0)) < 1e-12


def test_rl_order_one_matches_cumulative_trapezoid():
    g = TimeGrid(0.0, 0.01, 2000)
    vals = np.sin(g.nodes()) + 0.3 * g.nodes() ** 2
    f = SampleSeries(g, vals)
    out = rl_integral(f, 1.0)
    ref = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) / 2.0) * g.h])
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(out.values - ref)) < 1e-12 * scale


def test_rl_invalid_order():
    _, f = grid_series(lambda t: t, n=10)
    for mu in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            rl_integral(f, mu)


def test_rl_convergence_order_two():
    errs = []
    hs = (1e-2, 5e-3, 2.5e-3)
    for h in hs:
        g = TimeGrid(0.0, h, round(1.0 / h))
        f = SampleSeries.from_function(g, lambda t: t**3)
        out = rl_integral(f, 0.5)
        t = g.nodes()
        exact = rl_power_exact(3.0, 0.5, t)
        m = t >= 0.1
        errs.append(np.max(np.abs(out.values[m] - exact[m])))
    assert fit_order(hs, errs) == pytest.approx(2.0, abs=0.3)


# --- Caputo L1 ------------------------------------------------------------------


def test_caputo_of_constant_is_zero():
    g, f = grid_series(lambda t: 3.7 * np.ones_like(t), n=500)
    for alpha in (0.3, 0.7, 1.0):
        out = caputo_l1(f, FracOrder(alpha))
        assert np.max(np.abs(out.values)) < 1e-10


def test_caputo_linear_function():
    g, f = grid_series(lambda t: t)
    out = caputo_l1(f, FracOrder(0.5))
    t = g.nodes()
    exact = caputo_power_exact(1.0, 0.5, t)
    m = t >= 0.1
    rel = np.abs(out.values[m] - exact[m]) / exact[m]
    assert out.values[0] == 0.0
    assert np.max(rel) < 1e-3


def test_caputo_alpha_one_quadratic():
    # L1 at alpha = 1 is its own limit: (f_k - f_{k-1}) / h, node 0 defined as 0;
    # for t^2 that is t_k + t_{k-1}
    for n in (2, 1000, 1500):  # 1500 steps sum by FFT
        g, f = grid_series(lambda t: t * t, n=n)
        out = caputo_l1(f, FracOrder(1.0)).values
        t = g.nodes()
        backward = np.diff(f.values) / g.h
        assert out[0] == 0.0
        assert np.max(np.abs(out[1:] - backward)) <= 8 * np.spacing(np.max(np.abs(backward)))
        assert np.max(np.abs(out[1:] - (t[1:] + t[:-1]))) < 1e-9
    # a non-polynomial function takes the same backward difference
    g, f = grid_series(lambda t: np.sin(3 * t) + t * t, n=1500)
    backward = np.diff(f.values) / g.h
    out = caputo_l1(f, FracOrder(1.0)).values
    assert np.max(np.abs(out[1:] - backward)) <= 8 * np.spacing(np.max(np.abs(backward)))
    # continuous in alpha: on the grid of the near-one test below
    g = TimeGrid(0.0, 1e-3, 2000)
    f = SampleSeries.from_function(g, lambda t: np.sin(t) + 0.5 * t**2)
    near = caputo_l1(f, FracOrder(1.0 - 1e-6)).values
    assert np.max(np.abs(near - caputo_l1(f, FracOrder(1.0)).values)) < 1e-5


def test_caputo_alpha_one_on_a_one_step_grid():
    # one step: node 0 is 0 and node 1 takes the one backward difference
    f = SampleSeries(TimeGrid(0.0, 0.5, 1), np.array([1.0, 2.0]))
    assert caputo_l1(f, FracOrder(1.0)).values.tolist() == [0.0, 2.0]


def test_caputo_convergence_order():
    for alpha in (0.3, 0.5, 0.8):
        errs = []
        hs = (1e-2, 5e-3, 2.5e-3)
        for h in hs:
            g = TimeGrid(0.0, h, round(1.0 / h))
            f = SampleSeries.from_function(g, lambda t: t**3)
            out = caputo_l1(f, FracOrder(alpha))
            t = g.nodes()
            exact = caputo_power_exact(3.0, alpha, t)
            m = t >= 0.1
            errs.append(np.max(np.abs(out.values[m] - exact[m])))
        assert fit_order(hs, errs) == pytest.approx(2.0 - alpha, abs=0.3)


def test_caputo_linearity():
    rng = np.random.default_rng(5)
    g = TimeGrid(0.0, 0.01, 300)
    t = g.nodes()
    fv = np.sin(t) + t**2
    gv = np.cos(2 * t) - t
    order = FracOrder(0.6)
    a, b = rng.uniform(-3, 3, 2)
    lhs = caputo_l1(SampleSeries(g, a * fv + b * gv), order).values
    rhs = a * caputo_l1(SampleSeries(g, fv), order).values + b * caputo_l1(
        SampleSeries(g, gv), order
    ).values
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


def test_caputo_rl_composition_recovers_function():
    # rl_integral(caputo(f, a), a) ~ f - f(0) with order >= 2 - a - 0.3,
    # measured away from the t^alpha boundary layer (t >= 0.1)
    alpha = 0.6
    errs = []
    hs = (2e-2, 1e-2, 5e-3)
    for h in hs:
        g = TimeGrid(0.0, h, round(2.0 / h))
        f = SampleSeries.from_function(g, lambda t: np.sin(t) + 0.5 * t**2 + 1.0)
        order = FracOrder(alpha)
        back = rl_integral(caputo_l1(f, order), alpha)
        target = f.values - f.values[0]
        m = g.nodes() >= 0.1
        errs.append(np.max(np.abs(back.values[m] - target[m])))
    assert fit_order(hs, errs) >= 2.0 - alpha - 0.3


def test_caputo_alpha_near_one_consistency():
    g = TimeGrid(0.0, 1e-3, 2000)
    f = SampleSeries.from_function(g, lambda t: np.sin(t) + 0.5 * t**2)
    near = caputo_l1(f, FracOrder(1.0 - 1e-6)).values
    exact = caputo_l1(f, FracOrder(1.0)).values
    # both are L1 sums, whose limit at alpha = 1 is the backward difference;
    # node 0 is 0 in both
    assert np.max(np.abs(near[1:] - exact[1:])) < 1e-3


def test_rl_huge_order_is_a_range_error():
    # weights of order 1000 on 10 steps reach 10^1001: refused before numpy
    # overflows (a warning is an error here) or returns inf and nan weights
    with pytest.raises(RangeError):
        rl_weights(1000.0, 10)
    _, f = grid_series(lambda t: t, n=10)
    with pytest.raises(RangeError):
        rl_integral(f, 1e300)
    a0, body = rl_weights(150.0, 100)  # 100^151 fits the double range
    assert np.all(np.isfinite(a0)) and np.all(np.isfinite(body))
    with pytest.raises(RangeError):
        rect_weights(1000.0, 10)
    assert np.all(np.isfinite(rect_weights(150.0, 100)))


def test_caputo_needs_two_nodes():
    with pytest.raises(ShapeError):
        TimeGrid(0.0, 0.1, 0)


@pytest.mark.parametrize(
    "weights, order, n_steps",
    [
        (rl_weights, 0.5, -5),
        (rl_weights, 0.5, 2.5),
        (rect_weights, 0.5, -3),
        (rect_weights, math.nan, 4),
        (rect_weights, 0.0, 4),
        (l1_weights, 0.5, -2),
        (l1_weights, 1.5, 10),
        (l1_weights, 0.0, 10),
    ],
)
def test_weight_helpers_refuse_what_the_argument_policy_refuses(weights, order, n_steps):
    # a negative or fractional step count and an order outside mu > 0 or
    # alpha in (0, 1] end in a DomainError, not a numpy error or warning
    with pytest.raises(DomainError):
        weights(order, n_steps)


def test_weight_accessors():
    w = l1_weights(0.5, 10)
    assert w[0] == 0.0
    assert w[1] == 1.0
    # kernel decreases in lag for alpha < 1
    assert np.all(np.diff(w[1:]) < 0.0)
    a0, body = rl_weights(1.0, 10)
    assert a0[1] == 1.0
    assert np.all(body[1:] == 2.0)


def test_l1_weights_at_alpha_one_are_their_limit():
    # m^0 - (m-1)^0 with 0^0 taken as the limit 0 of 0^p, p -> 0+
    w = l1_weights(1.0, 4)
    assert w.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
    assert np.max(np.abs(w - l1_weights(1.0 - 1e-9, 4))) < 1e-6


def _rl_weights_by_index(mu, n_steps):
    # the weights of rl_weights' docstring, each power taken on its own index array
    a0 = np.zeros(n_steps + 1)
    k = np.arange(1, n_steps + 1, dtype=float)
    km1 = k - 1.0
    a0[1:] = km1 ** (mu + 1.0) - (km1 - mu) * k**mu
    body = np.zeros(max(n_steps, 1))
    m = np.arange(1, n_steps, dtype=float)
    body[1:] = (m + 1.0) ** (mu + 1.0) + (m - 1.0) ** (mu + 1.0) - 2.0 * m ** (mu + 1.0)
    return a0, body


@pytest.mark.parametrize("mu", [0.05, 0.1, 0.35, 0.5, 0.9, 1.0, 1.3, 2.5])
def test_rl_weights_are_bit_identical_to_the_indexed_formula(mu):
    for n_steps in (0, 1, 2, 3, 7, 100, 1023, 1024, 5000, 50_000):
        got, expect = rl_weights(mu, n_steps), _rl_weights_by_index(mu, n_steps)
        for g, e in zip(got, expect):
            assert g.shape == e.shape and g.tobytes() == e.tobytes(), (mu, n_steps)


# --- power-rule oracle -----------------------------------------------------------


def test_power_oracle_values():
    assert caputo_power_oracle(1.0, FracOrder(1.0), 3.0, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert caputo_power_oracle(2.0, FracOrder(0.5), 1.0, 0.0) == pytest.approx(
        2.0 / gamma(2.5), rel=1e-13
    )
    assert caputo_power_oracle(2.0, FracOrder(1.0), 4.0, 0.0) == pytest.approx(8.0, rel=1e-14)
    assert caputo_power_oracle(2.0, FracOrder(0.5), 1.5, 0.5) == pytest.approx(
        2.0 / gamma(2.5), rel=1e-13
    )


def test_power_oracle_domain_errors():
    with pytest.raises(DomainError):
        caputo_power_oracle(0.5, FracOrder(0.5), 1.0, 0.0)
    with pytest.raises(DomainError):
        caputo_power_oracle(2.0, FracOrder(0.5), -1.0, 0.0)


def test_power_oracle_range_error():
    # (1e300)^2.5 is beyond the double range, (1e100)^2.5 is not
    with pytest.raises(RangeError):
        caputo_power_oracle(3.0, FracOrder(0.5), 1e300, 0.0)
    assert math.isfinite(caputo_power_oracle(3.0, FracOrder(0.5), 1e100, 0.0))


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.15, 0.95),
    p=st.floats(1.0, 4.0),
)
def test_caputo_matches_power_oracle_property(alpha, p):
    g = TimeGrid(0.0, 5e-3, 200)
    t = g.nodes()
    f = SampleSeries(g, t**p)
    out = caputo_l1(f, FracOrder(alpha))
    exact = np.array([caputo_power_oracle(p, FracOrder(alpha), float(x), 0.0) for x in t])
    m = t >= 0.5
    denom = np.maximum(np.abs(exact[m]), 1e-12)
    assert np.max(np.abs(out.values[m] - exact[m]) / denom) < 5e-2


def test_rl_order_above_one():
    hs = (1e-2, 5e-3, 2.5e-3)
    errs = []
    for h in hs:
        g = TimeGrid(0.0, h, round(1.0 / h))
        t = g.nodes()
        out = rl_integral(SampleSeries(g, t**2), 1.5).values
        exact = rl_power_exact(2.0, 1.5, t)
        m = t >= 0.1
        errs.append(np.max(np.abs(out[m] - exact[m])))
    assert errs[0] < 1e-4
    assert fit_order(hs, errs) == pytest.approx(2.0, abs=0.3)


def test_operators_respect_nonzero_t0():
    g = TimeGrid(2.0, 1e-3, 1000)
    t = g.nodes()
    f = SampleSeries(g, (t - 2.0) ** 2)
    out = caputo_l1(f, FracOrder(0.5)).values
    exact = caputo_power_exact(2.0, 0.5, t - 2.0)
    m = t - 2.0 >= 0.1
    assert np.max(np.abs(out[m] - exact[m]) / exact[m]) < 1e-2


# --- history-sum kernel: direct below the crossover, FFT from it on -----------------

LARGE_STEPS = 50_000


def _sample_nodes(n_steps, rng):
    return sorted({*range(1, 11), *rng.integers(1, n_steps + 1, 50).tolist(), n_steps})


def _caputo_terms(vals, alpha, k):
    # L1 sum at node k: sum_{m=1}^{k} W[m] (f_{k-m+1} - f_{k-m}), scale outside
    w = l1_weights(alpha, k)
    d = np.diff(vals[: k + 1])
    return w[1:] * d[::-1]


def _rl_terms(vals, mu, k):
    # product-trapezoidal sum at node k: a0[k] f_0 + sum_{j=1}^{k-1} body[k-j] f_j + f_k
    a0, body = rl_weights(mu, k)
    return np.concatenate([[a0[k] * vals[0]], body[1:k][::-1] * vals[1:k], [vals[k]]])


def test_history_sum_direct_below_crossover_is_bit_identical():
    # the largest sizes that stay direct: n_steps terms for caputo_l1,
    # n_steps - 1 for rl_integral; the reference is the np.convolve formula
    rng = np.random.default_rng(3)
    alpha = 0.35
    for n in (2, 3, 500, _FFT_MIN_TERMS - 1):
        g = TimeGrid(0.0, 1.0 / n, n)
        vals = rng.uniform(-1.0, 1.0, n + 1)
        f = SampleSeries(g, vals)
        w = l1_weights(alpha, n)
        expect = np.zeros(n + 1)
        expect[1:] = g.h ** (-alpha) / gamma(2.0 - alpha) * np.convolve(w[1:], np.diff(vals))[:n]
        assert np.array_equal(caputo_l1(f, FracOrder(alpha)).values, expect)
    for n in (2, 3, 500, _FFT_MIN_TERMS):
        g = TimeGrid(0.0, 1.0 / n, n)
        vals = rng.uniform(-1.0, 1.0, n + 1)
        a0, body = rl_weights(alpha, n)
        expect = np.zeros(n + 1)
        expect[1:] = a0[1:] * vals[0] + vals[1:]
        expect[2:] += np.convolve(body[1:], vals[1:n])[: n - 1]
        expect *= g.h**alpha / gamma(alpha + 2.0)
        assert np.array_equal(rl_integral(SampleSeries(g, vals), alpha).values, expect)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("op", ["caputo_l1", "rl_integral"])
@pytest.mark.parametrize("size", ["above_crossover", "large"])
def test_history_sum_fft_matches_fsum(alpha, op, size):
    # Random signs: each node's error against an exactly rounded sum stays
    # within 1e-13 of that node's sum of |terms|.  t^p: the FFT error is
    # normwise, so near t = 0, where the history is tiny, only the largest
    # sum of |terms| (at the last node) bounds it.
    rng = np.random.default_rng(int(alpha * 10) + 7 * len(op) + len(size))
    if size == "large":
        n = LARGE_STEPS
    else:
        n = _FFT_MIN_TERMS if op == "caputo_l1" else _FFT_MIN_TERMS + 1
    g = TimeGrid(0.0, 1.0 / n, n)
    nodes = _sample_nodes(n, rng)
    for vals, normwise in ((rng.uniform(-1.0, 1.0, n + 1), False), (g.nodes() ** 2.3, True)):
        f = SampleSeries(g, vals)
        if op == "caputo_l1":
            out = caputo_l1(f, FracOrder(alpha)).values
            scale = g.h ** (-alpha) / gamma(2.0 - alpha)
            terms = [_caputo_terms(vals, alpha, k) for k in nodes]
        else:
            out = rl_integral(f, alpha).values
            scale = g.h**alpha / gamma(alpha + 2.0)
            terms = [_rl_terms(vals, alpha, k) for k in nodes]
        errs = np.array([abs(out[k] / scale - math.fsum(t)) for k, t in zip(nodes, terms)])
        sizes = np.array([math.fsum(np.abs(t)) for t in terms])
        bound = 1e-13 * (np.max(sizes) if normwise else sizes)
        assert np.all(errs <= bound), (normwise, float(np.max(errs / bound)))


@pytest.mark.parametrize("n", [_FFT_MIN_TERMS, 1500, 3000])
def test_history_sum_fft_over_trailing_axes_matches_each_lane_bit_for_bit(n):
    # the solver folds both history copies and every component in one call:
    # w by (lag, copy, 1), v by (row, copy, component) with fewer rows than n
    rng = np.random.default_rng(n)
    w = rng.uniform(-1.0, 1.0, (n, 2, 1))
    v = rng.uniform(-1.0, 1.0, (n // 2 + 1, 2, 3))
    got = _lag_sum(w, v, n)
    assert got.shape == (n, 2, 3)
    lane = np.zeros(n)
    for c, d in np.ndindex(2, 3):
        lane[: len(v)] = v[:, c, d]
        assert np.array_equal(got[:, c, d], _lag_sum(w[:, c, 0], lane, n)), (c, d)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_operators_power_rule_at_large_size(alpha):
    # criterion 2 at 5e4 steps: relative 1e-2 and the absolute C h^order that
    # one lost digit would break (C = 10 for caputo_l1, 2 for rl_integral)
    g = TimeGrid(0.0, 1.0 / LARGE_STEPS, LARGE_STEPS)
    t = g.nodes()
    m = t >= 0.1
    for p in (1.0, 1.7, 2.99):
        f = SampleSeries(g, t**p)
        for got, exact, bound in (
            (caputo_l1(f, FracOrder(alpha)).values, caputo_power_exact(p, alpha, t), 10.0 * g.h ** (2.0 - alpha)),
            (rl_integral(f, alpha).values, rl_power_exact(p, alpha, t), 2.0 * g.h**2),
        ):
            err = np.abs(got[m] - exact[m])
            assert np.max(err / exact[m]) < 1e-2, (p, alpha)
            assert np.max(err) <= bound, (p, alpha, float(np.max(err)), bound)


def test_exact_zeros_at_large_size():
    g = TimeGrid(0.0, 1.0 / LARGE_STEPS, LARGE_STEPS)
    const = SampleSeries(g, np.full(g.n_nodes, 3.7))
    zero = SampleSeries(g, np.zeros(g.n_nodes))
    for alpha in (0.1, 0.5, 0.9):
        assert np.all(caputo_l1(const, FracOrder(alpha)).values == 0.0)
        assert np.all(rl_integral(zero, alpha).values == 0.0)
