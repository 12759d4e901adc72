"""Lyapunov-certificate checks along solved trajectories.

Four certificate ingredients are checked, each exact (tol 0, no refinement)
into an `IneqReport` judged by `verdicts._judge`: the class-K sandwich
gamma1(|x|) <= V(t,x) <= gamma2(|x|), the local ball |x(t)| <= r, the
Mittag-Leffler decay envelope |x(t)|^2 <= amp * E_alpha(-rate t^alpha) *
|x(0)|^2 (with a fixed 5% slack allowance), and the dissipation hypothesis
of the paper's composite power rule, B(t, x) <= -gamma3(|x|) with B the
bound it gives on D^alpha V along a solution (`check_dissipation`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, EvalError, PreconditionError, RangeError, Record, _set, real
from .expressions import BinOp, Expr, Num, Var, _compile, evaluate, parse, sample_on, to_text, variables
from .operators import SampleSeries
from .solver import Trajectory
from .special import MLParams, mittag_leffler_many
from .verdicts import EnvelopeSpec, IneqReport, _judge

__all__ = [
    "LyapunovCandidate",
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


class LyapunovCandidate(Record):
    """V(t, x) with optional class-K bounds and dissipation rate in r."""

    _fields = ("expression", "class_k_lower", "class_k_upper", "dissipation_rate")

    def __init__(
        self,
        expression: Expr,
        class_k_lower: Expr | None = None,
        class_k_upper: Expr | None = None,
        dissipation_rate: Expr | None = None,
    ):
        given = (expression, class_k_lower, class_k_upper, dissipation_rate)
        for name, e in zip(self._fields, given):
            _set(self, name, parse(e) if isinstance(e, str) else e)
        if "r" in variables(self.expression):
            raise DomainError("V must be an expression in t and x1..xn, not r")
        for label in self._fields[1:]:
            e = getattr(self, label)
            if e is not None:
                _validate_class_k(e, label)


class StabilityReport(Record):
    """Bundle of whichever certificate checks a preset runs."""

    _fields = ("label", "sandwich", "dissipation", "envelope", "ball")

    def __init__(
        self,
        label: str,
        sandwich: IneqReport | None = None,
        dissipation: IneqReport | None = None,
        envelope: IneqReport | None = None,
        ball: IneqReport | None = None,
    ):
        for name, value in zip(self._fields, (label, sandwich, dissipation, envelope, ball)):
            _set(self, name, value)

    @property
    def all_passed(self) -> bool:
        checks = (self.sandwich, self.dissipation, self.envelope, self.ball)
        done = [c.verdict for c in checks if c is not None]
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


def _in_range(name: str, traj: Trajectory, *arrays: np.ndarray) -> None:
    """RangeError naming the first node where one of the arrays is not finite."""
    finite = np.logical_and.reduce([np.isfinite(a) for a in arrays])
    if not finite.all():
        j = int(np.argmin(finite))
        raise RangeError(f"{name} check leaves the double range at node {j} (t={traj.grid.nodes()[j]:.17g})")


def _norms(name: str, traj: Trajectory) -> np.ndarray:
    """|x| at each node, the one norm guard of all four checks: RangeError,
    not a numpy warning, names the first node where it leaves the double range."""
    with np.errstate(over="ignore"):
        norms = traj.norms()
    _in_range(name, traj, norms)
    return norms


def _exact_report(name: str, traj: Trajectory, sides: Callable) -> IneqReport:
    """sides(norms) -> (lhs, rhs, slack) on the trajectory's grid, judged at
    scale 0 (tol 0) and not refined.  RangeError, not a numpy warning, names
    the first node where the norm (`_norms`), a side or the slack leaves the
    double range."""
    norms = _norms(name, traj)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs, slack = sides(norms)
    _in_range(name, traj, lhs, rhs, slack)
    return _judge(name, traj.grid, lhs, rhs, slack, 0.0)


def check_sandwich(V: LyapunovCandidate, traj: Trajectory) -> IneqReport:
    """gamma1(|x|) <= V <= gamma2(|x|) at every node, exact: lhs = V - gamma1(|x|),
    rhs = gamma2(|x|) - V, slack = min(lhs, rhs)."""
    if V.class_k_lower is None or V.class_k_upper is None:
        raise DomainError("sandwich check needs both class-K bounds on the candidate")
    vals = _candidate_values(V, traj)

    def sides(norms):
        lo = sample_on(V.class_k_lower, norms, r=norms)
        hi = sample_on(V.class_k_upper, norms, r=norms)
        return vals - lo, hi - vals, np.minimum(vals - lo, hi - vals)

    return _exact_report("sandwich", traj, sides)


def _power_terms(node: Expr) -> list[tuple[int, float, Expr]]:
    """V = sum E(t) x_i^beta read off V's own tree as terms (i, beta, E):
    sums distribute, and a factor or divisor in t alone joins E.
    DomainError for any other V."""
    if isinstance(node, BinOp) and node.op == "+":
        return _power_terms(node.left) + _power_terms(node.right)
    if isinstance(node, BinOp) and node.op in "*/" and variables(node.right) <= {"t"}:
        return [(i, beta, BinOp(node.op, E, node.right)) for i, beta, E in _power_terms(node.left)]
    if isinstance(node, BinOp) and node.op == "*" and variables(node.left) <= {"t"}:
        return [(i, beta, BinOp("*", node.left, E)) for i, beta, E in _power_terms(node.right)]
    power = isinstance(node, BinOp) and node.op == "^" and isinstance(node.right, Num)
    base, beta = (node.left, node.right.value) if power else (node, 1.0)
    if isinstance(base, Var) and base.index and beta >= 1.0:
        return [(base.index, beta, Num(1.0))]
    raise DomainError(f"dissipation check needs V = sum E(t) x_i^beta with beta >= 1, at '{to_text(node)}'")


def check_dissipation(V: LyapunovCandidate, traj: Trajectory) -> IneqReport:
    """B(t, x(t)) <= -gamma3(|x(t)|) at every node, exact.

    V must read as sum E(t) x_i^beta (`_power_terms`) with each E
    non-negative and decreasing on the grid (else EnvelopeError), and beta
    an even integer or x_i >= 0 along the trajectory (else
    PreconditionError).  The composite power rule then bounds D^alpha V <=
    B = sum E beta x_i^(beta-1) f_i(t, x) along a solution of
    D^alpha x = f, whatever alpha, so no discrete D^alpha enters:
    lhs = B, rhs = -gamma3(|x|), slack = rhs - lhs.
    """
    if V.dissipation_rate is None:
        raise DomainError("dissipation check needs the candidate's gamma3 rate")
    terms = _power_terms(V.expression)
    ts, cols = traj.grid.nodes(), [s.values for s in traj.states]
    if max(i for i, _, _ in terms) > len(cols):
        raise DomainError(f"V uses a state beyond the system's dimension {len(cols)}")

    def sides(norms):
        f = [sample_on(e, ts, x=cols) for e in traj.system.rhs]
        bound = np.zeros_like(ts)
        for i, beta, E in terms:
            x = cols[i - 1]
            if beta % 2.0 != 0.0 and np.any(x < 0.0):
                raise PreconditionError(f"x{i}^{beta:g} in V needs x{i} >= 0 along the trajectory")
            bound += EnvelopeSpec("nonneg_decreasing", E).sample(traj.grid) * beta * x ** (beta - 1.0) * f[i - 1]
        rhs = -sample_on(V.dissipation_rate, norms, r=norms)
        return bound, rhs, rhs - bound

    return _exact_report("dissipation", traj, sides)


def check_ml_envelope(traj: Trajectory, rate: float, amplification: float) -> IneqReport:
    """|x(t_j)|^2 <= amplification * E_alpha(-rate t_j^alpha) * |x(0)|^2 * 1.05,
    alpha the system's own order.

    Exact pointwise check (tol = 0); amplification below 1 is accepted so
    sharpness probes can drive the check to fail at t = 0.
    """
    rate = real(rate, "envelope rate")
    amplification = real(amplification, "amplification")
    if rate <= 0.0:
        raise DomainError(f"envelope rate must be > 0, got {rate!r}")
    if amplification <= 0.0:
        raise DomainError(f"amplification must be > 0, got {amplification!r}")
    alpha = traj.system.order.alpha
    ts = traj.grid.nodes()
    t0 = ts[0]
    decay = mittag_leffler_many(MLParams(alpha), [-rate * (t - t0) ** alpha for t in ts])

    def sides(norms):
        norms_sq = norms**2
        rhs = amplification * decay * norms_sq[0] * (1.0 + ENVELOPE_SLACK_ALLOWANCE)
        return norms_sq, rhs, rhs - norms_sq

    return _exact_report("ml_envelope", traj, sides)


def check_local_ball(traj: Trajectory, r: float) -> IneqReport:
    """|x(t_j)| <= r at every node (domain of the local dissipation estimate),
    exact: lhs = |x|, rhs = r at every node, slack = r - |x|."""
    r = real(r, "ball radius")
    if not 0.0 < r < 1.0:
        raise DomainError(f"ball radius must be in (0, 1), got {r!r}")

    return _exact_report("ball", traj, lambda norms: (norms, np.full_like(norms, r), r - norms))
