"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own evaluation paths:
erfc comes from its Maclaurin series / Legendre continued fraction, the
Mittag-Leffler reference from the spectral integral representation via
scipy quadrature, from its power series in mpmath at a precision sized for
the series' cancellation, and (at alpha = 1) from mpmath's confluent
hypergeometric function; the classical integrator is a plain running-sum
trapezoidal PECE, and closed forms use math.gamma.
"""

from __future__ import annotations

import math
import warnings

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

    The working precision covers the cancellation on the negative axis: the
    decimal size of the largest term, plus 2 log10|z| since the sum can be as
    small as 1/z^2 (when 1/Gamma(beta - alpha) = 0), plus 20 guard digits.
    Terms decrease once alpha k + beta > |z|^(1/alpha); the sum stops past
    that point at the first term below 10^-(SERIES_DIGITS + 10) of the total.  Both
    the term count and the precision grow like |z|^(1/alpha), so this is the
    reference for small |z|^(1/alpha), where the integral oracle can be unsafe.
    """
    r = abs(z) ** (1.0 / alpha)
    past_peak = int((r + 2.0) / alpha) + 2
    log_peak = max(
        [k * math.log(abs(z)) - math.lgamma(alpha * k + beta) for k in range(past_peak)] if z else [0.0]
    )
    extra = max(0.0, log_peak / math.log(10)) + 2.0 * max(0.0, math.log10(abs(z) or 1.0))
    with mpmath.workdps(SERIES_DIGITS + int(extra) + 20):
        a, b, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        floor = mpmath.mpf(10) ** (-(SERIES_DIGITS + 10))
        total, power, k = mpmath.mpf(0), mpmath.mpf(1), 0
        while True:
            term = power * mpmath.rgamma(a * k + b)
            total += term
            if k >= past_peak and abs(term) <= floor * abs(total):
                return float(total)
            k += 1
            power *= zz


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
