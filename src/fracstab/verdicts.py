"""The verdict policy the verifiers share, and the envelope it may sample.

`_judge` applies one tolerance-and-refinement rule and builds the
`IneqReport`; `make_report` is its entry for checks that compare an LHS
with an RHS.  The inequality suites (`inequalities`) and all four Lyapunov
certificates (`stability`, the exact ones at scale 0) judge through it;
only nr4's identity residual keeps its own rounding-level rule.
`EnvelopeSpec` is a monotone multiplier phi(t), checked for its declared
shape on the grid it is sampled on.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import EnvelopeError, Record, _set
from .expressions import Expr, parse, sample_on, to_text
from .operators import SampleSeries, TimeGrid

__all__ = ["ENVELOPE_KINDS", "EnvelopeSpec", "IneqReport", "make_report"]

ENVELOPE_KINDS = ("mono_decreasing", "mono_increasing", "nonneg_decreasing", "positive_decreasing")


class EnvelopeSpec(Record):
    """A monotone multiplier phi(t), given as an expression in t only."""

    _fields = ("kind", "expression")

    def __init__(self, kind: str, expression: Expr):
        if kind not in ENVELOPE_KINDS:
            raise EnvelopeError(f"unknown envelope kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "expression", expression if isinstance(expression, Expr) else parse(expression))

    def sample(self, grid: TimeGrid) -> np.ndarray:
        """Sample on the grid, checking the declared shape holds there."""
        ts = grid.nodes()
        vals = sample_on(self.expression, ts)
        d = np.diff(vals)
        if self.kind == "mono_increasing":
            if np.any(d < 0.0):
                raise self._error("is not increasing on the grid")
        else:
            if np.any(d > 0.0):
                raise self._error("is not decreasing on the grid")
        if self.kind == "nonneg_decreasing" and np.any(vals < 0.0):
            raise self._error("goes negative on the grid")
        if self.kind == "positive_decreasing" and np.any(vals <= 0.0):
            raise self._error("is not positive on the grid")
        return vals

    def _error(self, what: str) -> EnvelopeError:
        # The text is rendered only when raised: sample runs once per verifier call.
        return EnvelopeError(f"envelope '{to_text(self.expression)}' {what}")


class IneqReport(Record):
    """Outcome of one inequality check.

    slack holds RHS - LHS per node (oriented so that >= 0 means the
    inequality holds); the verdict applies the refinement rule: a violation
    above tol passes only if halving the grid shrinks it by at least 1.5x
    and brings it under the halved grid's own tolerance.
    """

    _fields = ("name", "slack", "lhs", "rhs", "max_violation", "tol", "refinement_ratio", "verdict")

    def __init__(
        self,
        name: str,
        slack: SampleSeries,
        lhs: np.ndarray,
        rhs: np.ndarray,
        max_violation: float,
        tol: float,
        refinement_ratio: float,
        verdict: bool,
    ):
        _set(self, "name", name)
        _set(self, "slack", slack)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "max_violation", max_violation)
        _set(self, "tol", tol)
        _set(self, "refinement_ratio", refinement_ratio)
        _set(self, "verdict", verdict)


def _judge(
    name: str, grid: TimeGrid, measure: Callable, refinable: bool, skip_nodes: int = 0
) -> IneqReport:
    """The tolerance-and-refinement policy of every verifier; builds its report.

    measure(grid) -> (lhs, rhs, slack, scale).  The violation is the worst
    negative slack, max(0, -min(slack)), over the nodes from skip_nodes on
    (the slack series still reports the skipped ones).  It passes if it is
    within tol = 10 * h * scale (so scale 0 makes the check exact); above
    tol it passes only if the grid is refinable and halving it shrinks the
    violation by at least 1.5x and brings it under the halved grid's own
    tolerance.  The report holds the data of `grid`; its ratio is NaN unless
    the grid was halved.  The tolerance is first order in h for every order
    alpha in (0, 1].
    """

    def violation(slack: np.ndarray) -> float:
        judged = slack[skip_nodes:]
        return max(0.0, -float(np.min(judged))) if judged.size else 0.0

    lhs, rhs, slack, scale = measure(grid)
    viol = violation(slack)
    tol = 10.0 * grid.h * scale
    ratio = math.nan
    verdict = viol <= tol
    if not verdict and refinable:
        half = grid.halved()
        _, _, slack2, scale2 = measure(half)
        viol2 = violation(slack2)
        ratio = math.inf if viol2 == 0.0 else viol / viol2
        verdict = ratio >= 1.5 and viol2 <= 10.0 * half.h * scale2
    return IneqReport(
        name=name,
        slack=SampleSeries(grid, slack),
        lhs=lhs,
        rhs=rhs,
        max_violation=viol,
        tol=tol,
        refinement_ratio=ratio,
        verdict=verdict,
    )


def make_report(
    name: str,
    grid: TimeGrid,
    compute: Callable[[TimeGrid], tuple[np.ndarray, np.ndarray]],
    refinable: bool,
    direction: int = 1,
    skip_nodes: int = 0,
) -> IneqReport:
    """Evaluate compute(grid) -> (lhs, rhs), apply the tolerance/refinement policy.

    direction +1 checks LHS <= RHS, -1 checks LHS >= RHS.  skip_nodes
    excludes leading nodes from the verdict (the slack series still reports
    them); used where the operator's node-0 convention makes the comparison
    vacuous.  The tolerance scale is the largest |RHS|; the tolerance
    10 * h * scale is the same for every order.
    """

    def measure(g: TimeGrid):
        lhs, rhs = compute(g)
        scale = float(np.max(np.abs(rhs))) if rhs.size else 0.0
        return lhs, rhs, direction * (rhs - lhs), scale

    return _judge(name, grid, measure, refinable, skip_nodes)
