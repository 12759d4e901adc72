"""Discrete fractional operators on uniform grids.

The Riemann-Liouville integral uses the product-trapezoidal rule (exact for
piecewise-linear integrands); the Caputo derivative uses the L1 scheme for
every order alpha in (0, 1]; at alpha = 1 that is the backward difference,
the L1 scheme's own limit.  Node 0 is the empty integral and is returned
as 0 by both.

Both fractional operators reduce to one history sum, `_lag_sum`: a direct
O(n^2) convolution below `_FFT_MIN_TERMS` output terms and an O(n log n)
zero-padded real FFT product from there on.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, RangeError, Record, ShapeError, _set, count, real, reals
from .special import gamma

__all__ = [
    "TimeGrid",
    "SampleSeries",
    "FracOrder",
    "rl_weights",
    "rect_weights",
    "l1_weights",
    "rl_integral",
    "caputo_l1",
    "caputo_power_oracle",
]


# Log of the largest double, for the range check of rl_weights.
_LOG_MAX = math.log(np.finfo(float).max)

# Largest step count of a TimeGrid: its node count must still be a numpy
# array length.
_MAX_STEPS = np.iinfo(np.intp).max - 1


class TimeGrid(Record):
    """Uniform grid t0 + j*h for j = 0..n_steps; t0 and h are stored as
    floats, n_steps as an int."""

    _fields = ("t0", "h", "n_steps")

    def __init__(self, t0: float, h: float, n_steps: int):
        t0 = real(t0, "TimeGrid.t0")
        h = real(h, "TimeGrid.h")
        n_steps = count(n_steps, "TimeGrid.n_steps", 0, _MAX_STEPS)
        if h <= 0.0:
            raise DomainError(f"TimeGrid requires h > 0, got {h!r}")
        if n_steps < 1:
            raise ShapeError(f"TimeGrid requires n_steps >= 1, got {n_steps}")
        _set(self, "t0", t0)
        _set(self, "h", h)
        _set(self, "n_steps", n_steps)

    @classmethod
    def between(cls, t0: float, t_end: float, h: float, name: str = "h") -> "TimeGrid":
        """The grid from t0 to t_end > t0 at step h, which must divide t_end - t0.

        It has round((t_end - t0) / h) steps, a number that must be at least
        one and at most _MAX_STEPS and land on t_end to within
        1e-9 max(1, |t_end|); otherwise DomainError, which calls the step
        `name`.
        """
        t0, t_end, h = real(t0, "t0"), real(t_end, "t_end"), _positive_order(h, name)
        if t_end <= t0:
            raise DomainError(f"t_end must exceed t0, got t_end={t_end}, t0={t0}")
        steps = (t_end - t0) / h
        if not steps <= _MAX_STEPS:
            size = "is not finite" if math.isinf(steps) else f"exceeds {_MAX_STEPS} steps"
            raise DomainError(f"(t_end - t0) / {name} {size}: {t_end - t0} / {h}")
        n_steps = round(steps)
        if n_steps < 1 or abs(t0 + n_steps * h - t_end) > 1e-9 * max(1.0, abs(t_end)):
            raise DomainError(f"(t_end - t0) must be a multiple of {name}, got {t_end - t0} / {h}")
        return cls(t0, h, n_steps)

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def t_end(self) -> float:
        return self.t0 + self.h * self.n_steps

    def nodes(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.n_nodes)

    def halved(self) -> "TimeGrid":
        """Same interval at half the step."""
        return TimeGrid(self.t0, self.h / 2.0, 2 * self.n_steps)


class SampleSeries(Record):
    """Real samples of a scalar function on a TimeGrid."""

    _fields = ("grid", "values")

    def __init__(self, grid: TimeGrid, values: np.ndarray):
        vals = reals(values, "series values")
        if vals.shape != (grid.n_nodes,):
            raise ShapeError(
                f"series needs {grid.n_nodes} values, got shape {vals.shape}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        _set(self, "grid", grid)
        _set(self, "values", vals)

    @classmethod
    def from_function(cls, grid: TimeGrid, fn: Callable[[np.ndarray], np.ndarray]) -> "SampleSeries":
        """The vectorized t -> value map fn sampled at the grid's nodes."""
        return cls(grid, np.asarray(fn(grid.nodes()), dtype=float))


class FracOrder(Record):
    """Fractional differentiation order restricted to (0, 1], stored as a float."""

    _fields = ("alpha",)

    def __init__(self, alpha: float):
        alpha = real(alpha, "FracOrder.alpha")
        if not 0.0 < alpha <= 1.0:
            raise DomainError(f"FracOrder.alpha must be in (0, 1], got {alpha!r}")
        _set(self, "alpha", alpha)


# Output length from which `_lag_sum` convolves by FFT.  Timing sweep of
# np.convolve against one zero-padded rfft product (numpy 2.4, one core,
# best of 5): 256 terms 21 vs 24 us, 512 39 vs 36 us, 1000 171 vs 87 us,
# 1024 136 vs 53 us, 2000 597 vs 153 us, 5000 4.3 ms vs 0.35 ms, 5e4 586 ms
# vs 8.8 ms.  The two break even near 500; the crossover sits just above
# 1000 so that grids of up to 1001 nodes (the CLI's suites run on 501) keep
# the direct sum's exact rounding, at a cost of at most about 80 us per call
# between 500 and 1024 terms.
_FFT_MIN_TERMS = 1024


def _lag_sum(w: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the causal convolution: out[k] = sum_{j<=k} w[j] v[k-j].

    w and v need at least n entries; entries past n do not reach the result.
    Below `_FFT_MIN_TERMS` this is np.convolve.  From there on it is one real
    FFT product on a power-of-two length >= 2n - 1, so no term wraps around.
    Its error is normwise: a few ulps of sum(|w|) * max(|v|) at every k, so
    a term whose own history is far smaller than that (t^p near t = 0) keeps
    its absolute accuracy but not its relative one.
    """
    if n < _FFT_MIN_TERMS:
        return np.convolve(w, v)[:n]
    size = 1 << (2 * n - 2).bit_length()
    spectrum = np.fft.rfft(w[:n], size) * np.fft.rfft(v[:n], size)
    return np.fft.irfft(spectrum, size)[:n]


def _positive_order(mu, name: str) -> float:
    mu = real(mu, name)
    if mu <= 0.0:
        raise DomainError(f"{name} must be > 0, got {mu!r}")
    return mu


def _power_steps(p: float, n_steps: int) -> np.ndarray:
    """[0, 1^p - 0^p, ..., n_steps^p - (n_steps - 1)^p] for checked arguments.

    0^p is taken as 0 also at p = 0, the limit from p > 0, so that p = 0
    gives [0, 1, 0, ..., 0].
    """
    w = np.arange(n_steps + 1, dtype=float) ** p
    w[0] = 0.0
    out = np.empty_like(w)
    out[0] = 0.0
    out[1:] = w[1:] - w[:-1]
    return out


def rl_weights(mu: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Product-trapezoidal weights for the order-mu RL integral.

    Returns (a0, body): a0[k] weights f_0 at node k (k = 0..n), and body[m]
    weights f_{k-m} for 1 <= m <= k-1; the newest sample f_k has weight 1.
    All are to be scaled by h^mu / Gamma(mu + 2).  RangeError, before any
    power is taken, where an intermediate could leave the double range:
    about (mu + 1) log(n_steps) > log(max double).  mu must be > 0 and
    n_steps an integer >= 0 (DomainError otherwise).
    """
    mu = _positive_order(mu, "rl integral order")
    n_steps = count(n_steps, "rl_weights n_steps", 0, _MAX_STEPS)
    # every intermediate below is at most n^mu (2 n + mu) in size
    n = max(n_steps, 1)
    if mu * math.log(n) + math.log(2.0 * n + mu) > _LOG_MAX:
        raise RangeError(
            f"rl integral order {mu!r} on {n_steps} steps gives weights beyond the double range"
        )
    j = np.arange(n_steps + 1, dtype=float)
    # j^(mu+1) for j = 0..n_steps; every (mu + 1)-th power below is a slice of it
    power = j ** (mu + 1.0)
    a0 = np.zeros(n_steps + 1)
    # a0[k] = (k-1)^(mu+1) - (k-1-mu) k^mu for k = 1..n_steps
    a0[1:] = power[:-1] - (j[:-1] - mu) * j[1:] ** mu
    body = np.zeros(max(n_steps, 1))
    # body[m] = (m+1)^(mu+1) + (m-1)^(mu+1) - 2 m^(mu+1) for m = 1..n_steps-1
    body[1:] = power[2:] + power[:-2] - 2.0 * power[1:-1]
    return a0, body


def rl_integral(f: SampleSeries, mu: float) -> SampleSeries:
    """Riemann-Liouville fractional integral of order mu on f's grid.

    Discretizes (1/Gamma(mu)) * integral of (t - tau)^(mu-1) f(tau) by the
    product-trapezoidal rule; node 0 is exactly 0 and the error is O(h^2)
    for twice-differentiable f.  The history sum has n - 1 terms for n
    steps; `_lag_sum` takes it by FFT in O(n log n) from `_FFT_MIN_TERMS`
    terms on (1025 steps) and directly in O(n^2) below.
    """
    grid = f.grid
    n = grid.n_steps
    a0, body = rl_weights(mu, n)  # checks mu
    scale = grid.h**mu / gamma(mu + 2.0)
    vals = f.values
    out = np.zeros(n + 1)
    # node k >= 1: scale * (a0[k] f_0 + sum_{j=1}^{k-1} body[k-j] f_j + f_k)
    out[1:] = a0[1:] * vals[0] + vals[1:]
    if n >= 2:
        out[2:] += _lag_sum(body[1:], vals[1:n], n - 1)
    out *= scale
    return SampleSeries(grid, out)


def rect_weights(mu: float, n_steps: int) -> np.ndarray:
    """Product-rectangle kernel W[m] = m^mu - (m-1)^mu for m = 1..n_steps.

    Entry 0 is unused (set to 0).  Scaled by h^mu / Gamma(mu + 1), W[m]
    weights f_{k-m} in the order-mu RL integral at node k.  mu must be > 0
    and n_steps an integer >= 0 (DomainError otherwise); RangeError where
    n_steps^mu leaves the double range.
    """
    mu = _positive_order(mu, "rect_weights order")
    n_steps = count(n_steps, "rect_weights n_steps", 0, _MAX_STEPS)
    if n_steps > 1 and mu * math.log(n_steps) > _LOG_MAX:
        raise RangeError(
            f"rect_weights order {mu!r} on {n_steps} steps gives weights beyond the double range"
        )
    return _power_steps(mu, n_steps)


def l1_weights(alpha: float, n_steps: int) -> np.ndarray:
    """L1 kernel W[m] = m^(1-alpha) - (m-1)^(1-alpha) for m = 1..n_steps.

    Entry 0 is unused (set to 0); scale sums by h^(-alpha) / Gamma(2 - alpha).
    At alpha = 1 it is the limit [0, 1, 0, ..., 0].  alpha must be in (0, 1]
    and n_steps an integer >= 0 (DomainError otherwise).
    """
    alpha = real(alpha, "L1 order")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"L1 order must be in (0, 1], got {alpha!r}")
    return _power_steps(1.0 - alpha, count(n_steps, "l1_weights n_steps", 0, _MAX_STEPS))


def caputo_l1(f: SampleSeries, order: FracOrder) -> SampleSeries:
    """Caputo fractional derivative of f on its grid.

    This is the L1 discretization for every alpha in (0, 1], node 0 defined
    as 0; at alpha = 1 it is the backward difference, so the result is
    continuous in alpha.  The L1 history sum has n terms for n steps;
    `_lag_sum` takes it by FFT in O(n log n) from `_FFT_MIN_TERMS` terms on
    (1024 steps) and directly in O(n^2) below.
    """
    grid = f.grid
    n = grid.n_steps
    alpha = order.alpha
    w = l1_weights(alpha, n)
    d = np.diff(f.values)
    scale = grid.h ** (-alpha) / gamma(2.0 - alpha)
    out = np.zeros(n + 1)
    out[1:] = scale * _lag_sum(w[1:], d, n)
    return SampleSeries(grid, out)


def caputo_power_oracle(p: float, order: FracOrder, t: float, t0: float) -> float:
    """Exact Caputo derivative of (t - t0)^p: Gamma(p+1)/Gamma(p+1-alpha) * (t-t0)^(p-alpha).

    RangeError where that value leaves the double range.
    """
    p, t, t0 = real(p, "oracle p"), real(t, "oracle t"), real(t0, "oracle t0")
    if p < 1.0:
        raise DomainError(f"power-rule oracle requires p >= 1, got {p!r}")
    if t < t0:
        raise DomainError(f"oracle requires t >= t0, got t={t}, t0={t0}")
    alpha = order.alpha
    coeff = gamma(p + 1.0) / gamma(p + 1.0 - alpha)  # p + 1 - alpha >= 1: no pole
    if t == t0:
        return 0.0 if p > alpha else coeff
    try:
        value = coeff * (t - t0) ** (p - alpha)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise RangeError(f"oracle value at t - t0 = {t - t0} exceeds the double range (p={p})")
    return value
