"""Numerical verification of the fractional product/power inequalities.

Each verifier evaluates both sides of an inequality with the discrete L1
Caputo operator on the series' own grid and reports per-node slack.  The
L1 kernel is positive and decreasing for every order in (0, 1], so each
inequality holds for the discrete sums themselves, not only in the limit:
a violation beyond rounding indicates broken hypotheses or an operator bug.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    EnvelopeError,
    PreconditionError,
    Record,
    ShapeError,
    SingularityError,
    UnknownCheckError,
    _set,
    count,
    real,
)
from .expressions import BinOp, Call, Expr, Neg, Num, Var, sample_on
from .operators import FracOrder, SampleSeries, TimeGrid, caputo_l1
from .verdicts import EnvelopeSpec, IneqReport, _judge, make_report

__all__ = [
    "PowerTerm",
    "IdentityResidual",
    "verify_product_decreasing",
    "verify_product_increasing",
    "verify_odd_power_envelope",
    "verify_power_rule",
    "verify_composite",
    "verify_decomposition_nr4",
    "verify_decomposition_nr6",
    "SuiteResult",
    "run_suite",
    "SUITE_NAMES",
    "MAX_INSTANCES",
]

# Positive lower bound required of x wherever an exponent below 1 would make
# x^(beta-1) singular at a zero of x.
POWER_FLOOR = 1e-8


class PowerTerm(Record):
    """One term c * phi(t)^p * x^beta of a composite candidate.

    beta as a Fraction must have an even numerator (in lowest terms), which
    is what lets x change sign; a float beta >= 1 is allowed when the bound
    series it multiplies is non-negative.  c, p and a beta that is not a
    Fraction are stored as floats.
    """

    _fields = ("c", "beta", "p", "envelope")

    def __init__(self, c: float, beta: Fraction | float, p: float = 1.0, envelope: EnvelopeSpec | None = None):
        c = real(c, "coefficient")
        p = real(p, "envelope exponent p")
        if c < 0.0:
            raise DomainError(f"coefficient must be >= 0, got {c!r}")
        if p < 1.0:
            raise DomainError(f"envelope exponent p must be >= 1, got {p!r}")
        if isinstance(beta, Fraction):
            _validate_even_fraction(beta)
        else:
            beta = real(beta, "beta")
            if beta < 1.0:
                raise DomainError(f"beta must be >= 1, got {beta!r}")
        if envelope is not None and envelope.kind not in (
            "nonneg_decreasing",
            "positive_decreasing",
        ):
            raise DomainError("composite envelopes must be non-negative decreasing")
        _set(self, "c", c)
        _set(self, "beta", beta)
        _set(self, "p", p)
        _set(self, "envelope", envelope)

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


# --- product inequalities ----------------------------------------------------


def _envelope_product(
    name: str, phi: EnvelopeSpec, m: int, x: SampleSeries, beta, order: FracOrder, direction: int = 1
) -> IneqReport:
    """D(phi^m x^beta) against phi^m D(x^beta), for the product and odd-power verifiers."""
    grid = x.grid
    pv = phi.sample(grid) ** m
    xb = x.values**beta
    lhs = caputo_l1(SampleSeries(grid, pv * xb), order).values
    rhs = pv * caputo_l1(SampleSeries(grid, xb), order).values
    return make_report(name, grid, lhs, rhs, direction=direction)


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
    grid = x[0].grid
    total = np.zeros(grid.n_nodes)
    rhs = np.zeros(grid.n_nodes)
    for xi, group in zip(x, terms):
        dxi = caputo_l1(xi, order).values
        for term in group:
            weight = term.c * (term.envelope.sample(grid) ** term.p if term.envelope else 1.0)
            total += weight * _power(xi.values, term.beta)
            rhs += weight * _power_slope(xi.values, term.beta) * dxi
    lhs = caputo_l1(SampleSeries(grid, total), order).values
    return make_report(name, grid, lhs, rhs)


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


class IdentityResidual(Record):
    """Max pointwise residual of an exact operator-linearity identity.

    verdict: the residual is at rounding level (<= 1e-10 * scale);
    max_violation: the relative residual, which a suite reports as its worst.
    """

    _fields = ("max_residual", "scale")

    def __init__(self, max_residual: float, scale: float):
        _set(self, "max_residual", max_residual)
        _set(self, "scale", scale)

    @property
    def verdict(self) -> bool:
        return self.max_residual <= 1e-10 * self.scale

    @property
    def max_violation(self) -> float:
        return self.max_residual / self.scale if self.scale else 0.0


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

    pv = phi.sample(x.grid)
    psi = 1.0 / pv
    d_prod, d_pow, d_x, slope = _decomposition_parts(pv, x.values, beta, x.grid, order)
    f = psi * (d_prod - pv * slope * d_x)
    g = d_pow - psi * d_prod
    worst = np.maximum(f, -g)  # <= 0 wanted for both components
    scale = float(np.max(np.maximum(np.abs(psi * d_prod), psi * np.abs(pv * slope * d_x))))
    return _judge("nr6_decomposition", x.grid, f, -g, -worst, scale)


# --- randomized instances ------------------------------------------------------

_DEFAULT_GRID = TimeGrid(0.0, 0.01, 500)

# Random instances draw alpha uniformly from [0.1, 1).  The L1 scheme keeps
# its exact discrete sign properties at alpha = 1 (the backward difference),
# which targeted tests cover.
_ALPHA_RANGE = (0.1, 1.0)


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


def _draw_envelope(rng, kind: str) -> EnvelopeSpec:
    expr = _draw_increasing(rng) if kind == "mono_increasing" else _draw_decreasing(rng, kind)
    return EnvelopeSpec(kind, expr)


def _draw_series(rng, x_kind: str, grid: TimeGrid) -> SampleSeries:
    return SampleSeries.from_function(grid, functools.partial(sample_on, _draw_x(rng, x_kind)))


def _draw_order(rng) -> FracOrder:
    return FracOrder(float(rng.uniform(*_ALPHA_RANGE)))


def _draw_terms(rng, name: str, grid: TimeGrid):
    """Term groups and series of a composite suite (nr7..nr12)."""
    n_vars = 1 if name in ("nr7", "nr8") else int(rng.integers(2, 4))
    signed = name in ("nr7", "nr10", "nr11", "nr12")

    def exponent():
        return _draw_even_fraction(rng) if signed else float(rng.uniform(1.0, 4.0))

    series = []
    groups = []
    for _ in range(n_vars):
        series.append(_draw_series(rng, "signed" if signed else "nonneg", grid))
        env = _draw_envelope(rng, "nonneg_decreasing")
        beta = exponent()
        p = 1.0 if name == "nr7" else float(rng.uniform(1.0, 3.0))
        group = [PowerTerm(c=float(rng.uniform(0.1, 2.0)), beta=beta, p=p, envelope=env)]
        if name in ("nr11", "nr12"):
            group.append(PowerTerm(c=float(rng.uniform(0.1, 2.0)), beta=beta))
        if name == "nr12":
            gamma_exp = exponent()
            group.append(PowerTerm(c=float(rng.uniform(0.1, 2.0)), beta=gamma_exp))
        groups.append(group)
    return groups, series


def _instance(name: str, seed: int, grid: TimeGrid) -> functools.partial:
    """The verifier call of suite name's instance drawn from default_rng(seed), unevaluated.

    A one-series suite draws its envelope, x, exponent and order, in that
    order (the power-rule suites draw an envelope they do not use); a
    composite suite draws its order first.
    """
    rng = np.random.default_rng(seed)
    if name == "nr1":
        phi, x = _draw_envelope(rng, "mono_decreasing"), _draw_series(rng, "nonneg", grid)
        return functools.partial(verify_product_decreasing, phi, x, _draw_order(rng))
    if name == "nr1_increasing":
        phi, x = _draw_envelope(rng, "mono_increasing"), _draw_series(rng, "nonneg", grid)
        return functools.partial(verify_product_increasing, phi, x, _draw_order(rng))
    if name == "nr2":
        phi, x = _draw_envelope(rng, "mono_decreasing"), _draw_series(rng, "positive", grid)
        beta = float(rng.uniform(0.0, 3.0))
        if beta < 1.0 and rng.random() < 0.3:
            beta = 0.0  # exercise the degenerate exponent explicitly
        return functools.partial(verify_odd_power_envelope, phi, seed % 3, x, beta, _draw_order(rng))
    if name == "lemma3":
        _, x = _draw_envelope(rng, "nonneg_decreasing"), _draw_series(rng, "nonneg", grid)
        return functools.partial(verify_power_rule, x, float(rng.uniform(1.0, 4.0)), _draw_order(rng))
    if name == "lemma4":
        _, x = _draw_envelope(rng, "nonneg_decreasing"), _draw_series(rng, "signed", grid)
        return functools.partial(verify_power_rule, x, _draw_even_fraction(rng), _draw_order(rng))
    if name == "nr4_identity":
        phi, x = _draw_envelope(rng, "nonneg_decreasing"), _draw_series(rng, "nonneg", grid)
        beta = float(rng.uniform(1.0, 4.0))
        return functools.partial(verify_decomposition_nr4, phi, x, beta, _draw_order(rng))
    if name == "nr6":
        phi, x = _draw_envelope(rng, "positive_decreasing"), _draw_series(rng, "positive", grid)
        beta = float(rng.uniform(1.0, 3.0))
        return functools.partial(verify_decomposition_nr6, phi, x, beta, _draw_order(rng))
    order = _draw_order(rng)  # nr7..nr12
    return functools.partial(verify_composite, *_draw_terms(rng, name, grid), order)


# Largest instance count of one suite run; every instance keeps its report
# (about 16 KiB) until the suite's files are written.
MAX_INSTANCES = 10_000

SUITE_NAMES = ("nr1", "nr1_increasing", "nr2", "lemma3", "lemma4", "nr4_identity", "nr6",
               "nr7", "nr8", "nr9", "nr10", "nr11", "nr12")


class SuiteResult(Record):
    """The reports of one named suite run, one per instance, in order."""

    _fields = ("name", "reports")

    def __init__(self, name: str, reports: tuple):
        _set(self, "name", name)
        _set(self, "reports", reports)

    @property
    def instances(self) -> int:
        return len(self.reports)

    @property
    def passes(self) -> int:
        return sum(r.verdict for r in self.reports)

    @property
    def max_violation(self) -> float:
        """The largest report's max_violation, 0.0 for none; a NaN never wins
        (the left fold max(0.0, v1, v2, ...))."""
        return max([0.0, *(r.max_violation for r in self.reports)])

    @property
    def all_passed(self) -> bool:
        return self.passes == self.instances


def run_suite(name: str, instances: int, seed: int, grid: TimeGrid | None = None) -> SuiteResult:
    """Run a named suite of seeded instances; deterministic in (name, instances, seed)."""
    if name not in SUITE_NAMES:
        raise UnknownCheckError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    instances = count(instances, "instance count", 1, MAX_INSTANCES)
    seed = count(seed, "seed", 0)
    grid = grid or _DEFAULT_GRID
    child_seeds = np.random.SeedSequence(seed).generate_state(instances)
    return SuiteResult(name, tuple(_instance(name, int(child), grid)() for child in child_seeds))
