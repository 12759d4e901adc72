"""Adams-Bashforth-Moulton predictor-corrector for Caputo systems.

Solves D^alpha x = f(t, x), x(t0) = x0 with commensurate order
alpha in (0, 1] in PECE form: fractional-rectangle prediction, one
product-trapezoidal correction per step.  Each step's history sums take the
recent rows directly and the older rows from accumulators filled by FFT
convolutions (`operators._lag_sum`) of completed blocks, so a solve of n
steps costs O(n log^2 n), and O(n^2) below 1024 steps, where it sums
directly.  The right-hand sides are compiled once per solve.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError, DomainError, EvalError, Record, ShapeError, _set, count, real, reals
from .expressions import Expr, _compile, max_state_index, parse, to_text, variables
from .operators import (
    _FFT_MIN_TERMS,
    FracOrder,
    SampleSeries,
    TimeGrid,
    _lag_sum,
    rect_weights,
    rl_weights,
)
from .special import gamma

__all__ = ["SystemDef", "Trajectory", "solve", "ConvergenceStudy", "convergence_study"]

# States beyond this magnitude abort the run; nonlinear presets blow up fast
# once they leave the basin and the history sums then poison every later step.
OVERFLOW_LIMIT = 1e12


class SystemDef(Record):
    """A fractional-order system: dimension, order, RHS expressions, x0."""

    _fields = ("dim", "order", "rhs", "x0")

    def __init__(self, dim: int, order: FracOrder, rhs: tuple[Expr, ...], x0: np.ndarray):
        dim = count(dim, "dim", 1)
        rhs = tuple(rhs)
        x0 = reals(x0, "x0")
        if len(rhs) != dim or x0.shape != (dim,):
            raise ShapeError(
                f"need {dim} rhs expressions and initial values, "
                f"got {len(rhs)} and {x0.shape}"
            )
        for i, e in enumerate(rhs):
            if max_state_index(e) > dim:
                raise ShapeError(f"rhs{i + 1} references x{max_state_index(e)} beyond dim {dim}")
            if "r" in variables(e):
                raise ShapeError(f"rhs{i + 1} must not use the class-K variable 'r'")
        x0 = x0.copy()
        x0.flags.writeable = False
        _set(self, "dim", dim)
        _set(self, "order", order)
        _set(self, "rhs", rhs)
        _set(self, "x0", x0)

    @classmethod
    def from_strings(cls, dim, alpha, rhs_texts, x0) -> "SystemDef":
        return cls(dim, FracOrder(alpha), tuple(parse(s) for s in rhs_texts), x0)


class Trajectory(Record):
    """Solver output: one SampleSeries per component on a shared grid."""

    _fields = ("grid", "states", "system")

    def __init__(self, grid: TimeGrid, states: tuple[SampleSeries, ...], system: SystemDef):
        _set(self, "grid", grid)
        _set(self, "states", states)
        _set(self, "system", system)

    @property
    def dim(self) -> int:
        return len(self.states)

    def matrix(self) -> np.ndarray:
        """(n_nodes, dim) array of states."""
        return np.column_stack([s.values for s in self.states])

    def norms(self) -> np.ndarray:
        """Euclidean norm of the state at each node."""
        return np.sqrt(np.sum(self.matrix() ** 2, axis=1))


def _rhs_at(system: SystemDef, rhs, t: float, x: list[float]) -> list[float]:
    """f(t, x), all components; rhs holds the compiled system.rhs."""
    out = []
    for i, f in enumerate(rhs):
        try:
            out.append(f(t, x, None))
        except EvalError as exc:
            raise EvalError(f"rhs{i + 1} failed at t={t:.17g}: {exc}", to_text(system.rhs[i])) from exc
    return out


def _fold(far: np.ndarray, weights: np.ndarray, block: np.ndarray, m: int, count: int) -> None:
    """far[:, n] += sum_j weights[:, 0, n - j] block[:, j - (m - L)] for n = m .. m + count - 1.

    block holds both copies of the L history rows j = m - L .. m - 1; the
    lags n - j run from 1 to L - 1 + count, so this is one causal
    convolution per copy and column.
    """
    size = block.shape[1]
    n_out = size - 1 + count
    v = np.zeros(n_out)
    for c, d in np.ndindex(block.shape[0], block.shape[2]):
        v[:size] = block[c, :, d]
        far[c, m : m + count, d] += _lag_sum(weights[c, 0, 1 : n_out + 1], v, n_out)[size - 1 :]


def solve(system: SystemDef, grid: TimeGrid) -> Trajectory:
    """Integrate the system over the grid with the PECE scheme.

    Per step, component-wise: predict with the product-rectangle RL weights
    (`rect_weights`), then correct once with the product-trapezoid RL
    weights (`rl_weights`, the newest term taken at the prediction); the
    RHS history is evaluated at corrected states.  Raises DivergenceError
    once any |x_i| leaves the finite range, carrying the last valid step.

    The RHS history is kept twice, the second copy with row 0 zeroed (the
    corrector weights that row by a0, apart from its sum), and the two weight
    rows are stacked, so one batched product per step returns the predictor
    and corrector sums together: numpy sums a negative-stride view in lag
    order, the same sequential sum as a dot product, and the zeroed row
    only adds +0.  The rest of a step is arithmetic on Python floats.

    History sums (Hairer, Lubich and Schlichte's nested blocks, B =
    `_FFT_MIN_TERMS` = 1024): the rows of the current length-B block are
    summed directly; every older row was folded into per-step accumulators
    when its block completed.  Once rows 0 .. m - 1 are known (m a multiple
    of B), the last L of them (L = B times the largest power of two dividing
    m / B) are convolved with the weights by `_lag_sum` into the sums of
    steps m .. m + L - 1, so a solve costs O(n log^2 n).  Solves of fewer
    than B steps fold nothing and sum the whole history directly in O(n^2);
    the first B steps of any solve are the same arithmetic.
    """
    alpha = system.order.alpha
    h = grid.h
    n = grid.n_steps
    ts = grid.nodes()
    rhs = tuple(_compile(e, scalar=True) for e in system.rhs)

    a0, body = rl_weights(alpha, n)
    weights = np.zeros((2, 1, n + 1))  # [rect; body] by lag; corrector lag n weighs 0
    weights[0, 0] = rect_weights(alpha, n)
    weights[1, 0, :n] = body
    scale_p = h**alpha / gamma(alpha + 1.0)
    scale_c = h**alpha / gamma(alpha + 2.0)

    x0 = system.x0.tolist()
    states = np.empty((n + 1, system.dim))
    hist = np.zeros((2, n + 1, system.dim))  # f at each row; row 0 only in copy 0
    far = np.zeros((2, n + 1, system.dim))  # each step's two sums over the folded rows
    states[0] = x0
    f0 = _rhs_at(system, rhs, ts.item(0), x0)
    hist[0, 0] = f0
    lagged = hist[:, ::-1]  # row j at n - j

    for k in range(n):
        t = ts.item(k + 1)
        s = (k + 1) // _FFT_MIN_TERMS * _FFT_MIN_TERMS  # first row summed directly
        (sum_p,), (sum_c,) = (weights[:, :, 1 : k + 2 - s] @ lagged[:, n - k : n + 1 - s]).tolist()
        if s:
            far_p, far_c = far[:, k + 1].tolist()
            sum_p = [a + b for a, b in zip(sum_p, far_p)]
            sum_c = [a + b for a, b in zip(sum_c, far_c)]
        xs = [x + scale_p * v for x, v in zip(x0, sum_p)]
        if not all(map(math.isfinite, xs)):
            raise DivergenceError(f"predictor left the finite range at step {k + 1}", last_step=k)
        f_pred = _rhs_at(system, rhs, t, xs)
        a0k = a0.item(k + 1)
        xs = [x + scale_c * (fp + a0k * f + v) for x, fp, f, v in zip(x0, f_pred, f0, sum_c)]
        if not all(abs(v) <= OVERFLOW_LIMIT for v in xs):
            raise DivergenceError(
                f"state exceeded {OVERFLOW_LIMIT:g} at step {k + 1} "
                f"(t = {t:.6g})",
                last_step=k,
            )
        states[k + 1] = xs
        hist[:, k + 1] = _rhs_at(system, rhs, t, xs)

        m = k + 2  # rows 0 .. m - 1 are known
        if m % _FFT_MIN_TERMS == 0 and m <= n:
            q = m // _FFT_MIN_TERMS
            size = _FFT_MIN_TERMS * (q & -q)
            _fold(far, weights, hist[:, m - size : m], m, min(size, n + 1 - m))

    series = tuple(SampleSeries(grid, states[:, i]) for i in range(system.dim))
    return Trajectory(grid, series, system)


class ConvergenceStudy(Record):
    """Self-convergence errors: each step's distance to its own halving."""

    _fields = ("entries", "fitted_order")

    def __init__(self, entries: tuple[tuple[float, float], ...], fitted_order: float):
        _set(self, "entries", entries)  # (h, max |x_h - x_{h/2}| on grid h's nodes)
        _set(self, "fitted_order", fitted_order)


def finest_steps(span: float, h_list) -> int | float:
    """Step count of the finest grid `convergence_study` solves on an interval
    of length span: the halving of the grid at min(h_list).

    It is inf when span / min(h_list) overflows, so a caller can bound the
    grid before anything is sized by it.
    """
    h = min(h_list)
    steps = span / h if h > 0.0 else math.inf
    return 2 * round(steps) if math.isfinite(steps) else math.inf


def _solve_at(system: SystemDef, grid: TimeGrid) -> Trajectory:
    try:
        return solve(system, grid)
    except DivergenceError as exc:
        raise DivergenceError(f"divergence at h={grid.h:g}: {exc}", exc.last_step) from exc


def convergence_study(system: SystemDef, t_end: float, h_list, t0: float = 0.0) -> ConvergenceStudy:
    """Measure the observed order on [t0, t_end] over decreasing steps.

    Each step h must divide t_end - t0 (`TimeGrid.between`; DomainError
    otherwise).  Its error is max |x_h - x_{h/2}| against the solve on its
    own halving: node j of grid h is node 2j of the halved grid, so the two
    are compared exactly there, at the nodes with t >= t0 + 0.1 (t_end - t0).
    Solutions carry a t^alpha layer at the initial time that caps the order
    there, the same convention the discrete operators use.  The order is the
    slope of log error against log h.  When the error expansion in powers of
    h holds (Diethelm, Ford and Freed 2004), the distance to the halving is
    (1 - 2^-p) times the error of x_h, so it has the same slope p; for
    smooth fields p is about min(2, 1 + alpha).

    A halving that is the next entry's grid (h_list = [h, h/2, h/4, ...])
    is solved once and reused, so such a list solves each of its grids and
    the halving of the last; other lists cost each entry's own solve and
    its halving's, about 3x its steps.
    """
    t_end, t0 = real(t_end, "t_end"), real(t0, "t0")
    steps = reals(h_list, "h_list")
    if steps.ndim != 1 or steps.size < 2 or np.any(np.diff(steps) >= 0.0):
        raise DomainError("h_list must be decreasing with at least 2 entries")
    h_list = steps.tolist()
    grids = [TimeGrid.between(t0, t_end, h, "h_list step") for h in h_list]
    start = t0 + 0.1 * (t_end - t0)

    entries = []
    half = None
    for grid in grids:
        traj = half if half is not None and half.grid == grid else _solve_at(system, grid)
        half = _solve_at(system, grid.halved())
        keep = grid.nodes() >= start
        diff = traj.matrix()[keep] - half.matrix()[::2][keep]
        entries.append((grid.h, float(np.max(np.abs(diff)))))

    errs = np.array([e for _, e in entries])
    if np.any(errs <= 1e-14):
        order = math.nan  # exact to rounding; no measurable order
    else:
        order = float(np.polyfit(np.log(h_list), np.log(errs), 1)[0])
    return ConvergenceStudy(tuple(entries), order)
