"""Lyapunov-certificate checks along solved trajectories.

Three certificate ingredients are checked numerically: the class-K sandwich
gamma1(|x|) <= V(t,x) <= gamma2(|x|) (exact pointwise, no tolerance), the
fractional dissipation D^alpha V(t, x(t)) <= -gamma3(|x|) (discretized with
the L1 operator under the step-size tolerance and refinement rule), and the
Mittag-Leffler decay envelope |x(t)|^2 <= amp * E_alpha(-rate t^alpha) *
|x(0)|^2 with a fixed 5% slack allowance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvalError, PreconditionError, real
from .expressions import Expr, _compile, evaluate, parse, sample_on, to_text, variables
from .inequalities import IneqReport, _judge, make_report
from .operators import FracOrder, SampleSeries, TimeGrid, caputo_l1
from .solver import Trajectory, solve
from .special import MLParams, mittag_leffler_many

__all__ = [
    "LyapunovCandidate",
    "SandwichResult",
    "BallResult",
    "StabilityReport",
    "evaluate_candidate",
    "check_sandwich",
    "check_dissipation",
    "check_ml_envelope",
    "check_local_ball",
    "ENVELOPE_SLACK_ALLOWANCE",
]

# Headroom on the Mittag-Leffler envelope: scheme error near t0 plus the
# envelope's own evaluation error need room; 5% is frozen after checking the
# certified presets clear it with margin.
ENVELOPE_SLACK_ALLOWANCE = 0.05

_CLASS_K_PROBE = np.concatenate([[1e-6, 1e-3], np.linspace(0.01, 10.0, 200)])


def _validate_class_k(expr: Expr, label: str):
    if variables(expr) - {"r"}:
        raise DomainError(f"{label} must be an expression in r only, got '{to_text(expr)}'")
    at_zero = evaluate(expr, r=0.0)
    if abs(at_zero) > 1e-12:
        raise DomainError(f"{label} must vanish at r=0, got {at_zero!r}")
    vals = sample_on(expr, _CLASS_K_PROBE, r=_CLASS_K_PROBE)
    if np.any(np.diff(vals) <= 0.0):
        raise DomainError(f"{label} must be strictly increasing in r")


@dataclass(frozen=True)
class LyapunovCandidate:
    """V(t, x) with optional class-K bounds and dissipation rate in r."""

    expression: Expr
    class_k_lower: Expr | None = None
    class_k_upper: Expr | None = None
    dissipation_rate: Expr | None = None

    def __post_init__(self):
        for name in ("expression", "class_k_lower", "class_k_upper", "dissipation_rate"):
            val = getattr(self, name)
            if isinstance(val, str):
                object.__setattr__(self, name, parse(val))
        if "r" in variables(self.expression):
            raise DomainError("V must be an expression in t and x1..xn, not r")
        for label in ("class_k_lower", "class_k_upper", "dissipation_rate"):
            e = getattr(self, label)
            if e is not None:
                _validate_class_k(e, label)


@dataclass(frozen=True)
class SandwichResult:
    ok: bool
    worst_slack: float
    worst_node: int


@dataclass(frozen=True)
class BallResult:
    ok: bool
    radius: float
    max_norm: float
    first_violation_node: int | None


@dataclass(frozen=True)
class StabilityReport:
    """Bundle of whichever certificate checks a preset runs."""

    label: str
    sandwich: SandwichResult | None = None
    dissipation: IneqReport | None = None
    envelope: IneqReport | None = None
    ball: BallResult | None = None

    @property
    def all_passed(self) -> bool:
        checks = [
            self.sandwich.ok if self.sandwich else None,
            self.dissipation.verdict if self.dissipation else None,
            self.envelope.verdict if self.envelope else None,
            self.ball.ok if self.ball else None,
        ]
        done = [c for c in checks if c is not None]
        return bool(done) and all(done)


def _candidate_values(V: LyapunovCandidate, traj: Trajectory) -> np.ndarray:
    ts = traj.grid.nodes()
    cols = tuple(s.values for s in traj.states)
    try:
        return sample_on(V.expression, ts, x=cols)
    except EvalError:
        # locate the offending node for the error message
        at_point = _compile(V.expression, scalar=True)
        for j, t in enumerate(ts):
            try:
                at_point(float(t), [float(c[j]) for c in cols], None)
            except EvalError as exc:
                raise EvalError(f"candidate failed at node {j} (t={t:.17g}): {exc}") from exc
        raise


def evaluate_candidate(V: LyapunovCandidate, traj: Trajectory) -> SampleSeries:
    """V(t_j, x(t_j)) sampled on the trajectory's grid."""
    return SampleSeries(traj.grid, _candidate_values(V, traj))


def check_sandwich(V: LyapunovCandidate, traj: Trajectory) -> SandwichResult:
    """gamma1(|x|) <= V <= gamma2(|x|) at every node, zero tolerance."""
    if V.class_k_lower is None or V.class_k_upper is None:
        raise DomainError("sandwich check needs both class-K bounds on the candidate")
    vals = _candidate_values(V, traj)
    norms = traj.norms()
    lo = sample_on(V.class_k_lower, norms, r=norms)
    hi = sample_on(V.class_k_upper, norms, r=norms)
    slack = np.minimum(vals - lo, hi - vals)
    worst = int(np.argmin(slack))
    return SandwichResult(bool(slack[worst] >= 0.0), float(slack[worst]), worst)


def check_dissipation(V: LyapunovCandidate, traj: Trajectory, order: FracOrder) -> IneqReport:
    """D^alpha V(t, x(t)) <= -gamma3(|x(t)|) under the tolerance/refinement rule.

    The composite V(t, x(t)) is discretized directly from trajectory samples;
    refinement re-solves the system at half the step.
    """
    if V.dissipation_rate is None:
        raise DomainError("dissipation check needs the candidate's gamma3 rate")
    if order.alpha != traj.system.order.alpha:
        raise PreconditionError(
            f"order {order.alpha} does not match the system order {traj.system.order.alpha}"
        )

    def compute(grid: TimeGrid):
        tr = traj if grid == traj.grid else solve(traj.system, grid)
        lhs = caputo_l1(evaluate_candidate(V, tr), order).values
        norms = tr.norms()
        rhs = -sample_on(V.dissipation_rate, norms, r=norms)
        return lhs, rhs

    # node 0 is excluded: the discrete operator defines D[0] = 0 while the
    # exact derivative at t0+ lives in the singular t^alpha layer, so the
    # node-0 comparison is vacuous for any nonzero initial state
    return make_report("dissipation", traj.grid, compute, refinable=True, skip_nodes=1)


def check_ml_envelope(
    traj: Trajectory, order: FracOrder, rate: float, amplification: float
) -> IneqReport:
    """|x(t_j)|^2 <= amplification * E_alpha(-rate t_j^alpha) * |x(0)|^2 * 1.05.

    Exact pointwise check (tol = 0); amplification below 1 is accepted so
    sharpness probes can drive the check to fail at t = 0.
    """
    rate = real(rate, "envelope rate")
    amplification = real(amplification, "amplification")
    if rate <= 0.0:
        raise DomainError(f"envelope rate must be > 0, got {rate!r}")
    if amplification <= 0.0:
        raise DomainError(f"amplification must be > 0, got {amplification!r}")
    alpha = order.alpha
    ts = traj.grid.nodes()
    t0 = ts[0]
    norms_sq = traj.norms() ** 2
    decay = mittag_leffler_many(MLParams(alpha), [-rate * (t - t0) ** alpha for t in ts])
    rhs = amplification * decay * norms_sq[0] * (1.0 + ENVELOPE_SLACK_ALLOWANCE)

    def measure(grid: TimeGrid):
        return norms_sq, rhs, rhs - norms_sq, 0.0

    # scale 0: the policy's tolerance is 0, and the envelope is not refined
    return _judge("ml_envelope", traj.grid, measure, refinable=False)


def check_local_ball(traj: Trajectory, r: float) -> BallResult:
    """|x(t_j)| <= r at every node (domain of the local dissipation estimate)."""
    r = real(r, "ball radius")
    if not 0.0 < r < 1.0:
        raise DomainError(f"ball radius must be in (0, 1), got {r!r}")
    norms = traj.norms()
    bad = np.nonzero(norms > r)[0]
    return BallResult(
        ok=bad.size == 0,
        radius=r,
        max_norm=float(np.max(norms)),
        first_violation_node=int(bad[0]) if bad.size else None,
    )
