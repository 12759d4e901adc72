"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own evaluation paths:
erfc comes from its Maclaurin series / Legendre continued fraction, the
Mittag-Leffler reference from the spectral integral representation via
scipy quadrature, from its power series in mpmath at a precision sized for
the series' cancellation, from its asymptotic expansion in mpmath (large
|z| on the negative axis), and (at alpha = 1) from mpmath's confluent
hypergeometric function; the classical integrator is a plain running-sum
trapezoidal PECE, and closed forms use math.gamma.  Expressions are
evaluated by a math-module transcription of their documented semantics, and
the fractional PECE reference is the solver's direct O(n^2) history loop.
CSV files are rebuilt from their documented layouts, one built-in
format(v, ".17g") per value.  Random suite instances are written as text,
for parse to read.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad


class OracleError(RuntimeError):
    """An oracle cannot vouch for its own value at the requested accuracy."""


def erfc_oracle(x: float) -> float:
    """erfc(x) for x >= 0: Maclaurin series below 2, continued fraction above."""
    if x < 2.0:
        # erf(x) = (2/sqrt(pi)) sum (-1)^n x^(2n+1) / (n! (2n+1))
        total = 0.0
        term = x
        n = 0
        while abs(term) > 1e-20 * max(1.0, abs(total)):
            total += term / (2 * n + 1)
            n += 1
            term *= -x * x / n
        return 1.0 - 2.0 / math.sqrt(math.pi) * total
    return math.exp(-x * x) * erfcx_oracle(x)


def erfcx_oracle(x: float) -> float:
    """exp(x^2) erfc(x) via the Legendre continued fraction (x >= 2)."""
    if x < 2.0:
        return math.exp(x * x) * erfc_oracle(x)
    # erfcx(x) = (1/sqrt(pi)) * 1/(x + (1/2)/(x + (2/2)/(x + (3/2)/(x + ...))))
    cf = 0.0
    for n in range(120, 0, -1):
        cf = (n / 2.0) / (x + cf)
    return 1.0 / (math.sqrt(math.pi) * (x + cf))


# Relative error the integral oracle vouches for: the tightest tolerance a
# caller asserts against it.
GLL_RTOL = 1e-10
# Correct decimal digits of the series oracle.
SERIES_DIGITS = 50


def ml_gll_oracle(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for z < 0 from the spectral integral representation.

    Valid for 0 < alpha < 1; beta is reduced below 1 + alpha first through
    E_{a,b+a}(z) = (E_{a,b}(z) - 1/Gamma(b)) / z.  Raises OracleError when
    quad warns or when its error estimate, carried through the recurrence,
    exceeds GLL_RTOL relative to the value.
    """
    assert z < 0.0 and 0.0 < alpha < 1.0
    shifts = 0
    b = beta
    while b >= 1.0 + alpha - 1e-12:
        b -= alpha
        shifts += 1

    sin_b = math.sin(math.pi * (1.0 - b))
    sin_ba = math.sin(math.pi * (1.0 - b + alpha))
    cos_a = math.cos(math.pi * alpha)

    def kernel(chi):
        num = chi * sin_b - z * sin_ba
        den = chi * chi - 2.0 * chi * z * cos_a + z * z
        return (1.0 / (math.pi * alpha)) * chi ** ((1.0 - b) / alpha) * math.exp(
            -(chi ** (1.0 / alpha))
        ) * num / den

    upper = max(2.0 * abs(z) + 20.0, 60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            v1, e1 = quad(kernel, 0.0, upper, points=[abs(z)], limit=500, epsabs=1e-15, epsrel=1e-13)
            v2, e2 = quad(kernel, upper, np.inf, limit=200, epsabs=1e-16, epsrel=1e-13)
        except IntegrationWarning as exc:
            raise OracleError(f"quad at {(alpha, beta, z)}: {exc}") from None
    value = v1 + v2
    err = e1 + e2
    for _ in range(shifts):
        value = (value - 1.0 / math.gamma(b)) / z
        err /= abs(z)
        b += alpha
    if not err <= GLL_RTOL * abs(value):
        raise OracleError(f"quad error estimate {err:.2e} exceeds {GLL_RTOL:g} * |{value!r}| at {(alpha, beta, z)}")
    return value


def ml_series_oracle(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z), beta > 0, by its power series in mpmath at SERIES_DIGITS correct digits.

    The working precision starts from the cancellation on the negative
    axis: the decimal size of the largest term, plus 2 log10|z| since the
    sum can be as small as 1/z^2 (when 1/Gamma(beta - alpha) = 0), plus 20
    guard digits.  The sum can be smaller still (at large beta it is about
    1/Gamma(beta)), so the precision is judged against the sum itself: the
    series is summed at p and at p + 30 digits, and p doubles until the
    two agree to SERIES_DIGITS.  Terms decrease once alpha k + beta >
    |z|^(1/alpha); the sum stops past that point at the first term below
    10^-(SERIES_DIGITS + 10) of the total.  Both the term count and the
    precision grow like |z|^(1/alpha), so this is the reference for small
    |z|^(1/alpha), where the integral oracle can be unsafe.
    """
    r = abs(z) ** (1.0 / alpha)
    past_peak = int((r + 2.0) / alpha) + 2
    log_peak = max(
        [k * math.log(abs(z)) - math.lgamma(alpha * k + beta) for k in range(past_peak)] if z else [0.0]
    )
    extra = max(0.0, log_peak / math.log(10)) + 2.0 * max(0.0, math.log10(abs(z) or 1.0))

    def series(digits: int):
        with mpmath.workdps(digits):
            a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
            floor = mpmath.mpf(10) ** (-(SERIES_DIGITS + 10))
            total, power, k = mpmath.mpf(0), mpmath.mpf(1), 0
            while True:
                term = power * mpmath.rgamma(a * k + b)
                total += term
                if k >= past_peak and abs(term) <= floor * abs(total):
                    return total
                k += 1
                power *= zz

    return _converged(series, SERIES_DIGITS + int(extra) + 20)


def _converged(sum_at, digits: int) -> float:
    """sum_at(p) at the first p, from digits on and doubling, where it
    agrees with sum_at(p + 30) to SERIES_DIGITS."""
    while True:
        value, finer = sum_at(digits), sum_at(digits + 30)
        if abs(value - finer) <= mpmath.mpf(10) ** -SERIES_DIGITS * abs(finer):
            return float(finer)
        digits *= 2


def ml_asymptotic_oracle(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for z < 0 and 0 < alpha < 1 by its asymptotic
    expansion -sum_{k>=1} z^-k / Gamma(beta - alpha k), in mpmath at
    SERIES_DIGITS correct digits.

    For alpha < 1 the negative axis carries no exponential term (Podlubny,
    Fractional Differential Equations, 1999, Thm 1.4), so what a truncated
    sum leaves out is of the order of its next terms.  The terms fall while
    alpha k - beta < |z|^(1/alpha) and grow past it, the smallest being about
    exp(-|z|^(1/alpha)); so this is the reference for large |z|^(1/alpha),
    where the series oracle is slow.  The sum stops at the first two
    consecutive terms below 10^-(SERIES_DIGITS + 10) of the total, and
    raises OracleError if the terms start to grow before that.  The
    precision doubles as in ml_series_oracle.
    """
    if not (z < 0.0 and 0.0 < alpha < 1.0):
        raise OracleError(f"no asymptotic expansion at {(alpha, beta, z)}")
    last = (beta + abs(z) ** (1.0 / alpha)) / alpha  # the terms grow past it

    def expansion(digits: int):
        with mpmath.workdps(digits):
            a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
            floor = mpmath.mpf(10) ** (-(SERIES_DIGITS + 10))
            total, power, small, k = mpmath.mpf(0), mpmath.mpf(1), 0, 1
            while k < last:
                power /= zz
                term = power * mpmath.rgamma(b - a * k)
                total -= term
                small = small + 1 if abs(term) <= floor * abs(total) else 0
                if small == 2:
                    return total
                k += 1
            raise OracleError(f"the asymptotic terms grow before they are negligible at {(alpha, beta, z)}")

    return _converged(expansion, SERIES_DIGITS + 20)


def ml_alpha_one_oracle(beta: float, z: float) -> float:
    """E_{1,beta}(z) = 1F1(1; beta; z) / Gamma(beta) for beta > 0, at 60 digits."""
    with mpmath.workdps(60):
        return float(mpmath.hyp1f1(1, beta, z) / mpmath.gamma(beta))


def classical_pece_trapezoid(rhs, t0: float, x0, h: float, n_steps: int) -> np.ndarray:
    """Order-1 classical PECE on the integral form: rectangle predict,
    trapezoid correct, running sums only.  rhs(t, x) -> array."""
    x0 = np.asarray(x0, dtype=float)
    out = np.empty((n_steps + 1, x0.size))
    out[0] = x0
    f_prev = np.asarray(rhs(t0, x0), dtype=float)
    rect_sum = np.zeros_like(x0)  # sum of f_j, j = 0..k
    trap_inner = np.zeros_like(x0)  # sum of f_j, j = 1..k
    f0 = f_prev.copy()
    for k in range(n_steps):
        t_next = t0 + (k + 1) * h
        rect_sum += f_prev
        pred = x0 + h * rect_sum
        f_pred = np.asarray(rhs(t_next, pred), dtype=float)
        out[k + 1] = x0 + h * (0.5 * f0 + trap_inner + 0.5 * f_pred)
        f_prev = np.asarray(rhs(t_next, out[k + 1]), dtype=float)
        trap_inner += f_prev
    return out


def rl_power_exact(p: float, mu: float, t: np.ndarray) -> np.ndarray:
    """RL integral of order mu of t^p from 0: Gamma(p+1)/Gamma(p+1+mu) t^(p+mu)."""
    return math.gamma(p + 1.0) / math.gamma(p + 1.0 + mu) * t ** (p + mu)


def caputo_power_exact(p: float, alpha: float, t: np.ndarray) -> np.ndarray:
    """Caputo derivative of t^p from 0 (p >= 1): Gamma(p+1)/Gamma(p+1-alpha) t^(p-alpha)."""
    return math.gamma(p + 1.0) / math.gamma(p + 1.0 - alpha) * t ** (p - alpha)


def fit_order(hs, errs) -> float:
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


class ExpressionFault(ArithmeticError):
    """The expression oracle found a fault: division by zero, a domain error or a non-finite value."""


def expression_oracle(node, t: float, x) -> tuple[float, float]:
    """(value, spread) of an expression tree at one point, by the math module.

    The tree is walked by node class name, so no package evaluation code is
    used.  Faults raise ExpressionFault.  spread bounds, to first order, how
    far the value may move when each library function (exp, sin, cos, pow:
    implementations may round them differently) moves by one ulp; the
    IEEE operations (+ - * / sqrt abs) add an ulp only where an input may
    already have moved.  It is 0 for a tree without library functions.
    """
    kind = type(node).__name__
    if kind == "Num":
        return float(node.value), 0.0
    if kind == "Var":
        return (t if node.name == "t" else x[node.index - 1]), 0.0
    if kind == "Neg":
        v, d = expression_oracle(node.operand, t, x)
        return -v, d
    if kind == "BinOp":
        a, da = expression_oracle(node.left, t, x)
        b, db = expression_oracle(node.right, t, x)
        if node.op == "^":
            return _oracle_power(a, da, b, db)
        if node.op == "+":
            v, d = a + b, da + db
        elif node.op == "-":
            v, d = a - b, da + db
        elif node.op == "*":
            v, d = a * b, abs(b) * da + abs(a) * db
        else:
            if b == 0.0:
                raise ExpressionFault("division by zero")
            v = a / b
            d = (da + abs(v) * db) / abs(b)
        return _finite(v), _moved(d, v)
    if kind == "Call":
        args = [expression_oracle(arg, t, x) for arg in node.args]
        if node.name == "pow":
            return _oracle_power(*args[0], *args[1])
        a, da = args[0]
        if node.name == "abs":
            return abs(a), da
        if node.name == "sqrt":
            if a < 0.0:
                raise ExpressionFault("sqrt of negative value")
            v = math.sqrt(a)
            return v, (_moved(da / (2.0 * v), v) if da else 0.0)
        if node.name == "exp":
            try:
                v = math.exp(a)
            except OverflowError:
                raise ExpressionFault("exp overflow") from None
            return _finite(v), v * da + math.ulp(v)
        v = getattr(math, node.name)(a)  # sin, cos
        slope = abs(math.cos(a) if node.name == "sin" else math.sin(a))
        return v, slope * da + math.ulp(v)
    raise TypeError(f"not an expression node: {node!r}")


def _finite(v: float) -> float:
    if not math.isfinite(v):
        raise ExpressionFault("non-finite value")
    return v


def _moved(d: float, v: float) -> float:
    """An IEEE result moves by its inputs' spread plus one rounding, or not at all."""
    return d + math.ulp(v) if d else 0.0


def _oracle_power(a: float, da: float, b: float, db: float) -> tuple[float, float]:
    if a < 0.0 and not b.is_integer():
        raise ExpressionFault("negative base with non-integer exponent")
    try:
        v = _finite(math.pow(a, b))
        d_base = abs(b * math.pow(a, b - 1.0)) * da if da else 0.0
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ExpressionFault("pow out of range") from None
    d_exp = abs(v * math.log(abs(a))) * db if db and a != 0.0 else 0.0
    return v, d_base + d_exp + math.ulp(v)


def pece_direct(system, grid) -> np.ndarray:
    """States (n + 1, dim) of the fractional PECE scheme with direct history sums.

    A plain transcription of the solver's O(n^2) loop: every step sums its
    whole history with one dot product per sum.  The weights, the Gamma
    scale, the RHS evaluation and the divergence rule are the package's, so
    only the history sums differ from `solve`.  The RHS is the solver's own
    generated function, called on plain floats as the solver calls it.
    """
    from fracstab.errors import DivergenceError
    from fracstab.expressions import _compile_system
    from fracstab.operators import rect_weights, rl_weights
    from fracstab.solver import OVERFLOW_LIMIT
    from fracstab.special import gamma

    f = _compile_system(system.rhs)

    def rhs(t, x):
        return np.array(f(float(t), x.tolist()))

    alpha = system.order.alpha
    h = grid.h
    n = grid.n_steps
    ts = grid.nodes()
    rect = rect_weights(alpha, n)
    a0, body = rl_weights(alpha, n)
    scale_p = h**alpha / gamma(alpha + 1.0)
    scale_c = h**alpha / gamma(alpha + 2.0)

    x0 = system.x0.copy()
    states = np.empty((n + 1, system.dim))
    fhist = np.empty((n + 1, system.dim))
    states[0] = x0
    fhist[0] = rhs(ts[0], states[0])
    for k in range(n):
        hist = fhist[k::-1]
        pred = x0 + scale_p * (rect[1 : k + 2] @ hist)
        if not np.all(np.isfinite(pred)):
            raise DivergenceError(f"predictor left the finite range at step {k + 1}", last_step=k)
        f_pred = rhs(ts[k + 1], pred)
        corr = x0 + scale_c * (f_pred + a0[k + 1] * fhist[0] + body[1 : k + 1] @ hist[:k])
        if not np.all(np.isfinite(corr)) or np.any(np.abs(corr) > OVERFLOW_LIMIT):
            raise DivergenceError(f"state exceeded {OVERFLOW_LIMIT:g} at step {k + 1}", last_step=k)
        states[k + 1] = corr
        fhist[k + 1] = rhs(ts[k + 1], corr)
    return states


def _csv_line(values) -> str:
    fields = []
    for v in values:
        fields.append(format(float(v), ".17g"))
    return ",".join(fields) + "\n"


def rows_csv_oracle(rows) -> str:
    """The bytes of table rows, each a sequence of floats."""
    return "".join(_csv_line(row) for row in rows)


def report_csv_oracle(ts, lhs, rhs, slack, verdict, max_violation, tol, refinement_ratio) -> str:
    """The bytes of an inequality report CSV: node rows, then the verdict row."""
    out = "t,lhs,rhs,slack\n"
    for j in range(len(ts)):
        out += _csv_line((ts[j], lhs[j], rhs[j], slack[j]))
    out += "verdict,max_violation,tol,refinement_ratio\n"
    return out + ("pass," if verdict else "fail,") + _csv_line((max_violation, tol, refinement_ratio))


def residual_csv_oracle(max_residual, scale) -> str:
    """The bytes of an identity-residual CSV."""
    relative = max_residual / scale if scale else 0.0
    return "max_residual,scale,relative\n" + _csv_line((max_residual, scale, relative))


def trajectory_csv_oracle(ts, states) -> str:
    """The bytes of a trajectory CSV; states is (n_nodes, dim)."""
    out = "t," + ",".join("x" + str(i + 1) for i in range(len(states[0]))) + "\n"
    for j in range(len(ts)):
        out += _csv_line([ts[j]] + list(states[j]))
    return out


# --- instance texts ------------------------------------------------------------
#
# The random suite instances as text: the form in which the generators once
# wrote them, to be read back by parse.  Every coefficient has 12 significant
# digits and a negative one is parenthesized.  Each function here draws a
# whole instance, envelope and x texts with every exponent, coefficient and
# order, in the order the suites draw them, so one seed gives the same
# instance here and in `run_suite`.


def _fmt(v: float) -> str:
    return f"({v:.12g})" if v < 0 else f"{v:.12g}"


def decreasing_text(rng, kind: str) -> str:
    if kind == "mono_decreasing":
        base = rng.uniform(-1.0, 1.0)
    elif kind == "positive_decreasing":
        base = rng.uniform(0.05, 1.0)
    else:
        base = rng.uniform(0.0, 1.0)
    if rng.random() < 0.5:
        parts = [_fmt(base)]
        for _ in range(rng.integers(1, 4)):
            c = rng.uniform(0.1, 2.0)
            lam = rng.uniform(0.05, 2.0)
            parts.append(f"{_fmt(c)}*exp(-{_fmt(lam)}*t)")
        return " + ".join(parts)
    c = rng.uniform(0.2, 2.0)
    a = rng.uniform(0.1, 2.0)
    m = int(rng.integers(1, 4))
    return f"{_fmt(base)} + {_fmt(c)}/(1 + {_fmt(a)}*t)^{m}"


def increasing_text(rng) -> str:
    base = rng.uniform(0.0, 1.0)
    if rng.random() < 0.5:
        c = rng.uniform(0.1, 2.0)
        lam = rng.uniform(0.05, 2.0)
        return f"{_fmt(base)} + {_fmt(c)}*(1 - exp(-{_fmt(lam)}*t))"
    s = rng.uniform(0.05, 1.0)
    return f"{_fmt(base)} + {_fmt(s)}*t"


def trig_poly_text(rng) -> str:
    parts = [_fmt(rng.uniform(-1.0, 1.0))]
    degree = int(rng.integers(1, 5))
    for d in range(1, degree + 1):
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-1.0, 1.0)
        parts.append(f"{_fmt(a)}*cos({d}*t)")
        parts.append(f"{_fmt(b)}*sin({d}*t)")
    return " + ".join(parts)


def x_text(rng, x_kind: str) -> str:
    q = trig_poly_text(rng)
    if x_kind == "signed":
        return q
    shift = rng.uniform(0.2, 1.0) if x_kind == "positive" else rng.uniform(0.0, 0.5)
    return f"({q})^2 + {_fmt(shift)}"


def even_fraction(rng) -> Fraction:
    while True:
        u = 2 * int(rng.integers(1, 5))
        v = int(rng.choice([1, 3, 5]))
        if u >= v:
            return Fraction(u, v)


# one-series suite: (envelope kind, x kind)
SUITE_KINDS = {
    "nr1": ("mono_decreasing", "nonneg"),
    "nr1_increasing": ("mono_increasing", "nonneg"),
    "nr2": ("mono_decreasing", "positive"),
    "lemma3": ("nonneg_decreasing", "nonneg"),
    "lemma4": ("nonneg_decreasing", "signed"),
    "nr4_identity": ("nonneg_decreasing", "nonneg"),
    "nr6": ("positive_decreasing", "positive"),
}


def profile_texts(seed: int, name: str) -> tuple[str, str, float | Fraction | None, float]:
    """(envelope, x, beta, alpha) of one-series suite name's instance at seed.

    beta is None for the product rules, which draw none, and a Fraction for
    lemma4; the power-rule suites draw an envelope they do not use.
    """
    rng = np.random.default_rng(seed)
    envelope_kind, x_kind = SUITE_KINDS[name]
    env = increasing_text(rng) if envelope_kind == "mono_increasing" else decreasing_text(rng, envelope_kind)
    x = x_text(rng, x_kind)
    if name in ("nr1", "nr1_increasing"):
        beta = None
    elif name == "nr2":
        beta = float(rng.uniform(0.0, 3.0))
        if beta < 1.0 and rng.random() < 0.3:
            beta = 0.0
    elif name == "lemma4":
        beta = even_fraction(rng)
    else:
        beta = float(rng.uniform(1.0, 3.0 if name == "nr6" else 4.0))
    return env, x, beta, float(rng.uniform(0.1, 1.0))


def composite_texts(seed: int, flavor: str) -> tuple[float, list[tuple[str, str, list[tuple]]]]:
    """alpha, and (envelope, x, terms) of each series of a composite instance (nr7..nr12).

    terms lists the (c, beta, p) of each term on that series; the first term
    is the one the envelope multiplies, and the others have p = 1.
    """
    rng = np.random.default_rng(seed)
    alpha = float(rng.uniform(0.1, 1.0))
    n_vars = 1 if flavor in ("nr7", "nr8") else int(rng.integers(2, 4))
    signed = flavor in ("nr7", "nr10", "nr11", "nr12")

    def exponent():
        return even_fraction(rng) if signed else float(rng.uniform(1.0, 4.0))

    out = []
    for _ in range(n_vars):
        x = x_text(rng, "signed" if signed else "nonneg")
        env = decreasing_text(rng, "nonneg_decreasing")
        beta = exponent()
        p = 1.0 if flavor == "nr7" else float(rng.uniform(1.0, 3.0))
        terms = [(float(rng.uniform(0.1, 2.0)), beta, p)]
        if flavor in ("nr11", "nr12"):
            terms.append((float(rng.uniform(0.1, 2.0)), beta, 1.0))
        if flavor == "nr12":
            gamma_exp = exponent()
            terms.append((float(rng.uniform(0.1, 2.0)), gamma_exp, 1.0))
        out.append((env, x, terms))
    return alpha, out
