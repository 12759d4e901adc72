"""Numerical verification of the fractional product/power inequalities.

Each verifier evaluates both sides of an inequality with the discrete L1
Caputo operator and reports per-node slack.  The discrete operator inherits
the sign properties of the exact one (the L1 kernel is positive and
monotone), so violations beyond rounding indicate either broken hypotheses
or operator bugs; violations within the step-size tolerance that shrink
under grid halving are attributed to discretization.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    EnvelopeError,
    PreconditionError,
    ShapeError,
    SingularityError,
    UnknownCheckError,
    count,
    real,
)
from .expressions import BinOp, Call, Expr, Neg, Num, Var, parse, sample_on, to_text
from .operators import FracOrder, SampleSeries, TimeGrid, caputo_l1

__all__ = [
    "EnvelopeSpec",
    "PowerTerm",
    "IneqReport",
    "IdentityResidual",
    "verify_product_decreasing",
    "verify_product_increasing",
    "verify_odd_power_envelope",
    "verify_power_rule",
    "verify_composite",
    "verify_decomposition_nr4",
    "verify_decomposition_nr6",
    "InstanceProfile",
    "generate_instance",
    "SuiteResult",
    "run_suite",
    "SUITE_NAMES",
    "MAX_INSTANCES",
    "make_report",
]

ENVELOPE_KINDS = ("mono_decreasing", "mono_increasing", "nonneg_decreasing", "positive_decreasing")

# Positive lower bound required of x wherever an exponent below 1 would make
# x^(beta-1) singular at a zero of x.
POWER_FLOOR = 1e-8


@dataclass(frozen=True)
class EnvelopeSpec:
    """A monotone multiplier phi(t), given as an expression in t only."""

    kind: str
    expression: Expr

    def __post_init__(self):
        if self.kind not in ENVELOPE_KINDS:
            raise EnvelopeError(f"unknown envelope kind {self.kind!r}")
        expr = self.expression if isinstance(self.expression, Expr) else parse(self.expression)
        object.__setattr__(self, "expression", expr)

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


@dataclass(frozen=True)
class PowerTerm:
    """One term c * phi(t)^p * x^beta of a composite candidate.

    beta as a Fraction must have an even numerator (in lowest terms), which
    is what lets x change sign; a float beta >= 1 is allowed when the bound
    series it multiplies is non-negative.  c, p and a beta that is not a
    Fraction are stored as floats.
    """

    c: float
    beta: Fraction | float
    p: float = 1.0
    envelope: EnvelopeSpec | None = None

    def __post_init__(self):
        c = real(self.c, "coefficient")
        p = real(self.p, "envelope exponent p")
        if c < 0.0:
            raise DomainError(f"coefficient must be >= 0, got {c!r}")
        if p < 1.0:
            raise DomainError(f"envelope exponent p must be >= 1, got {p!r}")
        if isinstance(self.beta, Fraction):
            _validate_even_fraction(self.beta)
        else:
            beta = real(self.beta, "beta")
            if beta < 1.0:
                raise DomainError(f"beta must be >= 1, got {beta!r}")
            object.__setattr__(self, "beta", beta)
        if self.envelope is not None and self.envelope.kind not in (
            "nonneg_decreasing",
            "positive_decreasing",
        ):
            raise DomainError("composite envelopes must be non-negative decreasing")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "p", p)

    @property
    def signed_ok(self) -> bool:
        return isinstance(self.beta, Fraction)


def _validate_even_fraction(beta: Fraction):
    if beta < 1:
        raise DomainError(f"beta must be >= 1, got {beta}")
    if beta.numerator % 2 != 0:
        raise DomainError(
            f"beta = {beta} needs an even numerator in lowest terms for sign-changing x"
        )


def _power(vals: np.ndarray, beta) -> np.ndarray:
    """|x|^beta: x^beta where x >= 0, and the even-numerator rational power otherwise."""
    return np.abs(vals) ** float(beta)


def _power_slope(vals: np.ndarray, beta) -> np.ndarray:
    """beta sign(x) |x|^(beta-1), the derivative factor of the power rule (0 at beta = 0)."""
    b = float(beta)
    if b == 1.0:
        return np.ones_like(vals)
    if b == 0.0:
        return np.zeros_like(vals)
    return b * np.sign(vals) * np.abs(vals) ** (b - 1.0)


def _require_nonneg(vals: np.ndarray, what: str):
    bad = np.nonzero(vals < 0.0)[0]
    if bad.size:
        raise PreconditionError(f"{what} is negative at node {bad[0]} ({vals[bad[0]]!r})")


def _require_positive(vals: np.ndarray, what: str):
    bad = np.nonzero(vals <= 0.0)[0]
    if bad.size:
        raise PreconditionError(f"{what} is not positive at node {bad[0]} ({vals[bad[0]]!r})")


@dataclass(frozen=True)
class IneqReport:
    """Outcome of one inequality check.

    slack holds RHS - LHS per node (oriented so that >= 0 means the
    inequality holds); the verdict applies the refinement rule: a violation
    above tol passes only if halving the grid shrinks it by at least 1.5x
    and brings it under the halved grid's own tolerance.
    """

    name: str
    slack: SampleSeries
    lhs: np.ndarray
    rhs: np.ndarray
    max_violation: float
    tol: float
    refinement_ratio: float
    verdict: bool


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


def _series_at(x: SampleSeries, grid: TimeGrid) -> np.ndarray:
    if grid == x.grid:
        return x.values
    return x.resampled(grid).values


# --- product inequalities ----------------------------------------------------


def _envelope_product(
    name: str, phi: EnvelopeSpec, m: int, x: SampleSeries, beta, order: FracOrder, direction: int = 1
) -> IneqReport:
    """D(phi^m x^beta) against phi^m D(x^beta), for the product and odd-power verifiers."""

    def compute(grid: TimeGrid):
        pv = phi.sample(grid) ** m
        xv = _series_at(x, grid)
        _require_nonneg(xv, "x (refined)")
        xb = xv**beta
        lhs = caputo_l1(SampleSeries(grid, pv * xb), order).values
        rhs = pv * caputo_l1(SampleSeries(grid, xb), order).values
        return lhs, rhs

    refinable = x.source is not None
    return make_report(name, x.grid, compute, refinable=refinable, direction=direction)


def verify_product_decreasing(phi: EnvelopeSpec, x: SampleSeries, order: FracOrder) -> IneqReport:
    """D(phi*x) <= phi * D(x) for decreasing phi and non-negative x."""
    _require_nonneg(x.values, "x")
    if phi.kind == "mono_increasing":
        raise EnvelopeError("verify_product_decreasing needs a decreasing envelope")
    return _envelope_product("product_decreasing", phi, 1, x, 1.0, order)


def verify_product_increasing(phi: EnvelopeSpec, x: SampleSeries, order: FracOrder) -> IneqReport:
    """D(phi*x) >= phi * D(x) for increasing phi and non-negative x."""
    _require_nonneg(x.values, "x")
    if phi.kind != "mono_increasing":
        raise EnvelopeError("verify_product_increasing needs an increasing envelope")
    return _envelope_product("product_increasing", phi, 1, x, 1.0, order, direction=-1)


def verify_odd_power_envelope(
    phi: EnvelopeSpec, n: int, x: SampleSeries, beta: float, order: FracOrder
) -> IneqReport:
    """D(phi^(2n+1) * x^beta) <= phi^(2n+1) * D(x^beta).

    phi decreasing (sign unrestricted: the odd power preserves monotonicity),
    x >= 0, real beta >= 0.  For beta < 1, x must stay above a small floor
    since x^beta loses differentiability at zeros of x.  n is at most
    sys.maxsize // 2, so that the exponent 2n + 1 is a machine integer.
    """
    n = count(n, "n", 0, sys.maxsize // 2)
    beta = real(beta, "beta")
    if beta < 0.0:
        raise DomainError(f"beta must be >= 0, got {beta!r}")
    _require_nonneg(x.values, "x")
    if beta < 1.0 and beta != 0.0 and np.min(x.values) < POWER_FLOOR:
        raise SingularityError(
            f"beta={beta} < 1 needs x >= {POWER_FLOOR} everywhere (min is {np.min(x.values)})"
        )
    if phi.kind == "mono_increasing":
        raise EnvelopeError("verify_odd_power_envelope needs a decreasing envelope")
    return _envelope_product("odd_power_envelope", phi, 2 * n + 1, x, beta, order)


def verify_power_rule(x: SampleSeries, beta, order: FracOrder) -> IneqReport:
    """D(x^beta) <= beta * x^(beta-1) * D(x).

    beta's type sets the sign rule, as in a PowerTerm: a Fraction with an
    even numerator (in lowest terms) lets x change sign, x^beta meaning
    |x|^beta (Lemma 4); any other beta is a real >= 1 and x must be >= 0
    (Lemma 3).  The one-term case of the composite check.
    """
    term = PowerTerm(1.0, beta)
    if not term.signed_ok:
        _require_nonneg(x.values, "x")
    return _power_sum("power_rule", [[term]], [x], order)


# --- composite sums (suites nr7..nr12) ----------------------------------------


def _power_sum(
    name: str, terms: Sequence[Sequence[PowerTerm]], x: Sequence[SampleSeries], order: FracOrder
) -> IneqReport:
    """D(sum of the terms) against the sum of their power-rule bounds."""

    def compute(grid: TimeGrid):
        total = np.zeros(grid.n_nodes)
        rhs = np.zeros(grid.n_nodes)
        for i, group in enumerate(terms):
            xv = _series_at(x[i], grid)
            dxi = caputo_l1(SampleSeries(grid, xv), order).values
            for term in group:
                weight = term.c * (term.envelope.sample(grid) ** term.p if term.envelope else 1.0)
                total += weight * _power(xv, term.beta)
                rhs += weight * _power_slope(xv, term.beta) * dxi
        lhs = caputo_l1(SampleSeries(grid, total), order).values
        return lhs, rhs

    refinable = all(s.source is not None for s in x)
    return make_report(name, x[0].grid, compute, refinable=refinable)


def verify_composite(
    terms: Sequence[Sequence[PowerTerm]], x: Sequence[SampleSeries], order: FracOrder
) -> IneqReport:
    """Composite bound: D(sum of all terms) <= termwise power-rule bound.

    terms[i] lists the PowerTerms multiplying x[i] (an enveloped term, a
    plain one, an extra power, in any combination); every term with a float
    beta requires x[i] >= 0, Fraction betas allow sign changes.
    """
    if len(terms) != len(x):
        raise ShapeError(f"need one term group per series, got {len(terms)} and {len(x)}")
    if not x:
        raise ShapeError("composite check needs at least one series")
    for s in x[1:]:
        if s.grid != x[0].grid:
            raise ShapeError("all series must share one grid")
    for i, group in enumerate(terms):
        for term in group:
            if not term.signed_ok:
                _require_nonneg(x[i].values, f"x[{i}]")
    return _power_sum("composite", terms, x, order)


# --- proof-identity checks (suites nr4_identity and nr6) ----------------------


def _decomposition_parts(pv: np.ndarray, xv: np.ndarray, beta: float, grid: TimeGrid, order: FracOrder):
    """D(phi x^b), D(x^b), D(x) and b x^(b-1), the pieces of the nr4 and nr6 checks."""
    xb = _power(xv, beta)
    d_prod = caputo_l1(SampleSeries(grid, pv * xb), order).values
    d_pow = caputo_l1(SampleSeries(grid, xb), order).values
    d_x = caputo_l1(SampleSeries(grid, xv), order).values
    return d_prod, d_pow, d_x, _power_slope(xv, beta)


@dataclass(frozen=True)
class IdentityResidual:
    """Max pointwise residual of an exact operator-linearity identity.

    verdict: the residual is at rounding level (<= 1e-10 * scale);
    max_violation: the relative residual, which a suite reports as its worst.
    """

    max_residual: float
    scale: float

    @property
    def relative(self) -> float:
        return self.max_residual / self.scale if self.scale else 0.0

    @property
    def verdict(self) -> bool:
        return self.max_residual <= 1e-10 * self.scale

    @property
    def max_violation(self) -> float:
        return self.relative


def verify_decomposition_nr4(
    phi: EnvelopeSpec, x: SampleSeries, beta: float, order: FracOrder
) -> IdentityResidual:
    """Two-bracket decomposition of the enveloped power rule.

    D(phi x^b) - phi b x^(b-1) Dx
        = [D(phi x^b) - phi D(x^b)] + phi [D(x^b) - b x^(b-1) Dx]
    is exact under operator linearity; the residual must sit at rounding
    level (<= 1e-10 * scale) for every valid input.
    """
    _require_nonneg(x.values, "x")
    beta = real(beta, "beta")
    if beta < 1.0:
        raise DomainError(f"beta must be >= 1, got {beta!r}")
    pv = phi.sample(x.grid)
    d_prod, d_pow, d_x, slope = _decomposition_parts(pv, x.values, beta, x.grid, order)
    left = d_prod - pv * slope * d_x
    right = (d_prod - pv * d_pow) + pv * (d_pow - slope * d_x)
    pieces = [d_prod, pv * d_pow, pv * slope * d_x]
    scale = max(float(np.max(np.abs(p))) for p in pieces)
    return IdentityResidual(float(np.max(np.abs(left - right))), scale)


def verify_decomposition_nr6(
    phi: EnvelopeSpec, x: SampleSeries, beta: float, order: FracOrder
) -> IneqReport:
    """Component checks of the decomposition behind the nr6 suite.

    With y = phi x^b and psi = 1/phi (positive increasing), the identity
    D(x^b) - b x^(b-1) Dx = f + g holds with
        f = psi [D(phi x^b) - phi b x^(b-1) Dx]   (<= 0 given the hypothesis)
        g = D(psi y) - psi D(y)                    (>= 0 by the increasing-
                                                    envelope product rule)
    Both component signs are checked: the report's lhs holds f, its rhs -g,
    and its slack min(-f, g) shows a violation of either as negative slack.
    """
    _require_positive(x.values, "x")
    beta = real(beta, "beta")
    if beta < 0.0:
        raise DomainError(f"beta must be >= 0, got {beta!r}")
    if phi.kind != "positive_decreasing":
        raise EnvelopeError("verify_decomposition_nr6 needs a positive decreasing envelope")

    def measure(grid: TimeGrid):
        pv = phi.sample(grid)
        xv = _series_at(x, grid)
        _require_positive(xv, "x (refined)")
        psi = 1.0 / pv
        d_prod, d_pow, d_x, slope = _decomposition_parts(pv, xv, beta, grid, order)
        f = psi * (d_prod - pv * slope * d_x)
        g = d_pow - psi * d_prod
        worst = np.maximum(f, -g)  # <= 0 wanted for both components
        scale = float(np.max(np.maximum(np.abs(psi * d_prod), psi * np.abs(pv * slope * d_x))))
        return f, -g, -worst, scale

    return _judge("nr6_decomposition", x.grid, measure, x.source is not None)


# --- randomized instances ------------------------------------------------------

_DEFAULT_GRID = TimeGrid(0.0, 0.01, 500)

# Random instances draw alpha uniformly from [0.1, 1); alpha = 1 (finite
# differences, no exact discrete sign property) is exercised by targeted
# tests rather than random suites.
_ALPHA_RANGE = (0.1, 1.0)


@dataclass(frozen=True)
class InstanceProfile:
    """What generate_instance should draw: envelope family, x family, ranges."""

    envelope_kind: str
    x_kind: str  # 'nonneg' | 'positive' | 'signed'
    beta_kind: str = "none"  # 'none' | 'real' | 'nonneg_real' | 'even_rational'
    beta_range: tuple[float, float] = (1.0, 4.0)
    grid: TimeGrid = _DEFAULT_GRID


_T = Var("t")


def _lit(v: float) -> Expr:
    """v rounded to 12 significant digits, as the tree a parsed literal gives.

    The parser has no negative literal: `(-c)` reads as Neg(Num(c)).
    """
    text = f"{v:.12g}"
    return Neg(Num(float(text[1:]))) if text[0] == "-" else Num(float(text))


def _sum(terms: Sequence[Expr]) -> Expr:
    """terms[0] + terms[1] + ..., associated to the left as the parser reads it."""
    return functools.reduce(lambda a, b: BinOp("+", a, b), terms)


def _decay(lam: float) -> Expr:
    """exp(-lam*t)."""
    return Call("exp", (BinOp("*", Neg(_lit(lam)), _T),))


def _draw_decreasing(rng, kind: str) -> Expr:
    if kind == "mono_decreasing":
        base = rng.uniform(-1.0, 1.0)
    elif kind == "positive_decreasing":
        base = rng.uniform(0.05, 1.0)
    else:
        base = rng.uniform(0.0, 1.0)
    if rng.random() < 0.5:
        terms = [_lit(base)]
        for _ in range(rng.integers(1, 4)):
            c = rng.uniform(0.1, 2.0)
            lam = rng.uniform(0.05, 2.0)
            terms.append(BinOp("*", _lit(c), _decay(lam)))
        return _sum(terms)
    c = rng.uniform(0.2, 2.0)
    a = rng.uniform(0.1, 2.0)
    m = int(rng.integers(1, 4))
    denominator = BinOp("^", BinOp("+", Num(1.0), BinOp("*", _lit(a), _T)), Num(float(m)))
    return BinOp("+", _lit(base), BinOp("/", _lit(c), denominator))


def _draw_increasing(rng) -> Expr:
    base = rng.uniform(0.0, 1.0)
    if rng.random() < 0.5:
        c = rng.uniform(0.1, 2.0)
        lam = rng.uniform(0.05, 2.0)
        return BinOp("+", _lit(base), BinOp("*", _lit(c), BinOp("-", Num(1.0), _decay(lam))))
    s = rng.uniform(0.05, 1.0)
    return BinOp("+", _lit(base), BinOp("*", _lit(s), _T))


def _draw_trig_poly(rng) -> Expr:
    terms = [_lit(rng.uniform(-1.0, 1.0))]
    degree = int(rng.integers(1, 5))
    for d in range(1, degree + 1):
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-1.0, 1.0)
        dt = (BinOp("*", Num(float(d)), _T),)
        terms.append(BinOp("*", _lit(a), Call("cos", dt)))
        terms.append(BinOp("*", _lit(b), Call("sin", dt)))
    return _sum(terms)


def _draw_x(rng, x_kind: str) -> Expr:
    q = _draw_trig_poly(rng)
    if x_kind == "signed":
        return q
    shift = rng.uniform(0.2, 1.0) if x_kind == "positive" else rng.uniform(0.0, 0.5)
    return BinOp("+", BinOp("^", q, Num(2.0)), _lit(shift))


def _draw_even_fraction(rng) -> Fraction:
    while True:
        u = 2 * int(rng.integers(1, 5))
        v = int(rng.choice([1, 3, 5]))
        if u >= v:
            return Fraction(u, v)


def generate_instance(seed: int, profile: InstanceProfile):
    """Deterministic (envelope, x series, beta, order) draw for a profile; seed is an int >= 0."""
    rng = np.random.default_rng(count(seed, "seed", 0))
    if profile.envelope_kind == "mono_increasing":
        env_expr = _draw_increasing(rng)
    else:
        env_expr = _draw_decreasing(rng, profile.envelope_kind)
    envelope = EnvelopeSpec(profile.envelope_kind, env_expr)
    x = SampleSeries.from_function(profile.grid, functools.partial(sample_on, _draw_x(rng, profile.x_kind)))
    if profile.beta_kind == "none":
        beta = 1.0
    elif profile.beta_kind == "real":
        beta = float(rng.uniform(*profile.beta_range))
    elif profile.beta_kind == "nonneg_real":
        beta = float(rng.uniform(0.0, profile.beta_range[1]))
        if beta < 1.0 and rng.random() < 0.3:
            beta = 0.0  # exercise the degenerate exponent explicitly
    elif profile.beta_kind == "even_rational":
        beta = _draw_even_fraction(rng)
    else:
        raise DomainError(f"unknown beta_kind {profile.beta_kind!r}")
    order = FracOrder(float(rng.uniform(*_ALPHA_RANGE)))
    return envelope, x, beta, order


PROFILES = {
    "nr1": InstanceProfile("mono_decreasing", "nonneg"),
    "nr1_increasing": InstanceProfile("mono_increasing", "nonneg"),
    "nr2": InstanceProfile("mono_decreasing", "positive", beta_kind="nonneg_real", beta_range=(0.0, 3.0)),
    "lemma3": InstanceProfile("nonneg_decreasing", "nonneg", beta_kind="real", beta_range=(1.0, 4.0)),
    "lemma4": InstanceProfile("nonneg_decreasing", "signed", beta_kind="even_rational"),
    "nr4_identity": InstanceProfile("nonneg_decreasing", "nonneg", beta_kind="real", beta_range=(1.0, 4.0)),
    "nr6": InstanceProfile("positive_decreasing", "positive", beta_kind="real", beta_range=(1.0, 3.0)),
}


def _composite_instance(seed: int, flavor: str, grid: TimeGrid):
    """Terms and series for the composite suites (nr7..nr12)."""
    rng = np.random.default_rng(seed)
    order = FracOrder(float(rng.uniform(*_ALPHA_RANGE)))
    if flavor in ("nr7", "nr8"):
        n_vars = 1
    else:
        n_vars = int(rng.integers(2, 4))
    signed = flavor in ("nr7", "nr10", "nr11", "nr12")
    x_kind = "signed" if signed else "nonneg"
    series = []
    groups = []
    for _ in range(n_vars):
        series.append(SampleSeries.from_function(grid, functools.partial(sample_on, _draw_x(rng, x_kind))))
        env = EnvelopeSpec("nonneg_decreasing", _draw_decreasing(rng, "nonneg_decreasing"))
        beta = _draw_even_fraction(rng) if signed else float(rng.uniform(1.0, 4.0))
        p = 1.0 if flavor == "nr7" else float(rng.uniform(1.0, 3.0))
        group = [PowerTerm(c=float(rng.uniform(0.1, 2.0)), beta=beta, p=p, envelope=env)]
        if flavor in ("nr11", "nr12"):
            group.append(PowerTerm(c=float(rng.uniform(0.1, 2.0)), beta=beta))
        if flavor == "nr12":
            gamma_exp = _draw_even_fraction(rng) if signed else float(rng.uniform(1.0, 4.0))
            group.append(PowerTerm(c=float(rng.uniform(0.1, 2.0)), beta=gamma_exp))
        groups.append(group)
    return groups, series, order


_COMPOSITE_FLAVORS = ("nr7", "nr8", "nr9", "nr10", "nr11", "nr12")

# Largest instance count of one suite run; every instance keeps its report
# (about 16 KiB) until the suite's files are written.
MAX_INSTANCES = 10_000

SUITE_NAMES = tuple(PROFILES) + _COMPOSITE_FLAVORS


@dataclass(frozen=True)
class SuiteResult:
    """Aggregate of one named suite run."""

    name: str
    instances: int
    passes: int
    max_violation: float
    reports: tuple

    @property
    def all_passed(self) -> bool:
        return self.passes == self.instances


def _run_one(name: str, seed: int, grid: TimeGrid):
    if name in _COMPOSITE_FLAVORS:
        groups, series, order = _composite_instance(seed, name, grid)
        return verify_composite(groups, series, order)
    profile = dataclasses.replace(PROFILES[name], grid=grid)
    envelope, x, beta, order = generate_instance(seed, profile)
    if name == "nr1":
        return verify_product_decreasing(envelope, x, order)
    if name == "nr1_increasing":
        return verify_product_increasing(envelope, x, order)
    if name == "nr2":
        n = seed % 3
        return verify_odd_power_envelope(envelope, n, x, beta, order)
    if name in ("lemma3", "lemma4"):
        return verify_power_rule(x, beta, order)
    if name == "nr4_identity":
        return verify_decomposition_nr4(envelope, x, beta, order)
    if name == "nr6":
        return verify_decomposition_nr6(envelope, x, beta, order)
    raise DomainError(f"unknown suite {name!r}")


def run_suite(name: str, instances: int, seed: int, grid: TimeGrid | None = None) -> SuiteResult:
    """Run a named suite of seeded instances; deterministic in (name, instances, seed)."""
    if name not in SUITE_NAMES:
        raise UnknownCheckError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    instances = count(instances, "instance count", 1, MAX_INSTANCES)
    seed = count(seed, "seed", 0)
    grid = grid or _DEFAULT_GRID
    child_seeds = np.random.SeedSequence(seed).generate_state(instances)
    reports = []
    passes = 0
    worst = 0.0
    for child in child_seeds:
        out = _run_one(name, int(child), grid)
        reports.append(out)
        passes += int(out.verdict)
        worst = max(worst, out.max_violation)
    return SuiteResult(name, instances, passes, worst, tuple(reports))
