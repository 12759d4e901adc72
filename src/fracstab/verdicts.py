"""The verdict policy the verifiers share, and the envelope it may sample.

`_judge` applies one tolerance rule to arrays computed on one grid and
builds the `IneqReport`; `make_report` is its entry for checks that compare
an LHS with an RHS.  The inequality suites (`inequalities`) and all four
Lyapunov certificates (`stability`, each at scale 0, so exactly) judge
through it; only nr4's identity residual keeps its own rounding-level rule.
No verifier refines.  `EnvelopeSpec` is a monotone multiplier phi(t),
checked for its declared shape on the grid it is sampled on; the suites'
envelopes and the E(t) of each dissipation term are sampled through it.
"""

from __future__ import annotations

import math

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
    inequality holds); the verdict is max_violation <= tol.  No verifier
    refines, so refinement_ratio is NaN in every report; it stays as the
    report CSV's column.
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
    name: str, grid: TimeGrid, lhs: np.ndarray, rhs: np.ndarray, slack: np.ndarray, scale: float
) -> IneqReport:
    """The tolerance policy of every verifier; builds its report on grid.

    The violation is the worst negative slack, max(0, -min(slack)).  It
    passes if it is within tol = 10 * h * scale, so scale 0 makes the check
    exact.  The tolerance is first order in h for every order alpha in
    (0, 1].
    """
    viol = max(0.0, -float(np.min(slack))) if slack.size else 0.0
    tol = 10.0 * grid.h * scale
    return IneqReport(
        name=name,
        slack=SampleSeries(grid, slack),
        lhs=lhs,
        rhs=rhs,
        max_violation=viol,
        tol=tol,
        refinement_ratio=math.nan,
        verdict=viol <= tol,
    )


def make_report(name: str, grid: TimeGrid, lhs: np.ndarray, rhs: np.ndarray, direction: int = 1) -> IneqReport:
    """Judge lhs against rhs on grid under the tolerance policy of `_judge`.

    direction +1 checks LHS <= RHS, -1 checks LHS >= RHS.  The tolerance
    scale is the largest |RHS|.
    """
    scale = float(np.max(np.abs(rhs))) if rhs.size else 0.0
    return _judge(name, grid, lhs, rhs, direction * (rhs - lhs), scale)
