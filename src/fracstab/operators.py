"""Discrete fractional operators on uniform grids.

The Riemann-Liouville integral uses the product-trapezoidal rule (exact for
piecewise-linear integrands); the Caputo derivative of order alpha < 1 uses
the L1 scheme, with an exact switch to second-order finite differences at
alpha = 1.  Node 0 is the empty integral and is returned as 0 for the
fractional branches.

Both fractional operators reduce to one history sum, `_lag_sum`: a direct
O(n^2) convolution below `_FFT_MIN_TERMS` output terms and an O(n log n)
zero-padded real FFT product from there on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, RangeError, ShapeError, count, real, reals
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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0 + j*h for j = 0..n_steps; t0 and h are stored as
    floats, n_steps as an int."""

    t0: float
    h: float
    n_steps: int

    def __post_init__(self):
        t0 = real(self.t0, "TimeGrid.t0")
        h = real(self.h, "TimeGrid.h")
        n_steps = count(self.n_steps, "TimeGrid.n_steps", 0, _MAX_STEPS)
        if h <= 0.0:
            raise DomainError(f"TimeGrid requires h > 0, got {h!r}")
        if n_steps < 1:
            raise ShapeError(f"TimeGrid requires n_steps >= 1, got {n_steps}")
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "n_steps", n_steps)

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


@dataclass(frozen=True)
class SampleSeries:
    """Real samples of a scalar function on a TimeGrid.

    `source`, when present, is the vectorized t -> value map the samples came
    from; it is what makes refinement under grid halving possible.
    """

    grid: TimeGrid
    values: np.ndarray
    source: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        vals = reals(self.values, "series values")
        if vals.shape != (self.grid.n_nodes,):
            raise ShapeError(
                f"series needs {self.grid.n_nodes} values, got shape {vals.shape}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, grid: TimeGrid, fn: Callable[[np.ndarray], np.ndarray]) -> "SampleSeries":
        return cls(grid, np.asarray(fn(grid.nodes()), dtype=float), source=fn)

    def resampled(self, grid: TimeGrid) -> "SampleSeries":
        if self.source is None:
            raise ShapeError("series has no source function; cannot resample")
        return SampleSeries.from_function(grid, self.source)


@dataclass(frozen=True)
class FracOrder:
    """Fractional differentiation order restricted to (0, 1], stored as a float."""

    alpha: float

    def __post_init__(self):
        alpha = real(self.alpha, "FracOrder.alpha")
        if not 0.0 < alpha <= 1.0:
            raise DomainError(f"FracOrder.alpha must be in (0, 1], got {alpha!r}")
        object.__setattr__(self, "alpha", alpha)


# Output length from which `_lag_sum` convolves by FFT.  Timing sweep of
# np.convolve against one zero-padded rfft product (numpy 2.4, one core,
# best of 5): 256 terms 21 vs 24 us, 512 39 vs 36 us, 1000 171 vs 87 us,
# 1024 136 vs 53 us, 2000 597 vs 153 us, 5000 4.3 ms vs 0.35 ms, 5e4 586 ms
# vs 8.8 ms.  The two break even near 500; the crossover sits just above
# 1000 so that grids of up to 1001 nodes (the CLI's suites on 501 nodes and
# their one refinement) keep the direct sum's exact rounding, at a cost of
# at most about 80 us per call between 500 and 1024 terms.
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


def rl_weights(mu: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Product-trapezoidal weights for the order-mu RL integral.

    Returns (a0, body): a0[k] weights f_0 at node k (k = 0..n), and body[m]
    weights f_{k-m} for 1 <= m <= k-1; the newest sample f_k has weight 1.
    All are to be scaled by h^mu / Gamma(mu + 2).  RangeError, before any
    power is taken, where an intermediate could leave the double range:
    about (mu + 1) log(n_steps) > log(max double).
    """
    mu = real(mu, "rl integral order")
    if mu <= 0.0:
        raise DomainError(f"rl integral order must be > 0, got {mu!r}")
    # every intermediate below is at most n^mu (2 n + mu) in size
    n = max(n_steps, 1)
    if mu * math.log(n) + math.log(2.0 * n + mu) > _LOG_MAX:
        raise RangeError(
            f"rl integral order {mu!r} on {n_steps} steps gives weights beyond the double range"
        )
    a0 = np.zeros(n_steps + 1)
    k = np.arange(1, n_steps + 1, dtype=float)
    km1 = k - 1.0
    a0[1:] = km1 ** (mu + 1.0) - (km1 - mu) * k**mu
    body = np.zeros(max(n_steps, 1))
    m = np.arange(1, n_steps, dtype=float)
    body[1:] = (m + 1.0) ** (mu + 1.0) + (m - 1.0) ** (mu + 1.0) - 2.0 * m ** (mu + 1.0)
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
    weights f_{k-m} in the order-mu RL integral at node k.
    """
    m = np.arange(n_steps + 1, dtype=float)
    w = m**mu
    out = np.empty_like(w)
    out[0] = 0.0
    out[1:] = w[1:] - w[:-1]
    return out


def l1_weights(alpha: float, n_steps: int) -> np.ndarray:
    """L1 kernel W[m] = m^(1-alpha) - (m-1)^(1-alpha) for m = 1..n_steps.

    Entry 0 is unused (set to 0); scale sums by h^(-alpha) / Gamma(2 - alpha).
    """
    return rect_weights(1.0 - alpha, n_steps)


def caputo_l1(f: SampleSeries, order: FracOrder) -> SampleSeries:
    """Caputo fractional derivative of f on its grid.

    For alpha < 1 this is the L1 discretization (node 0 defined as 0); at
    alpha = 1 exactly it returns centered differences at interior nodes and
    one-sided second-order differences at the two ends.  The L1 history sum
    has n terms for n steps; `_lag_sum` takes it by FFT in O(n log n) from
    `_FFT_MIN_TERMS` terms on (1024 steps) and directly in O(n^2) below.
    """
    grid = f.grid
    n = grid.n_steps
    vals = f.values
    alpha = order.alpha
    if alpha == 1.0:
        out = np.empty(n + 1)
        h = grid.h
        if n == 1:
            out[0] = (vals[1] - vals[0]) / h
            out[1] = out[0]
        else:
            out[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
            out[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
            out[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * h)
        return SampleSeries(grid, out)
    w = l1_weights(alpha, n)
    d = np.diff(vals)
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
