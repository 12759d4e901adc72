"""Scalar special functions on the real line: Gamma and Mittag-Leffler.

Evaluation strategies are chosen per argument and validated at runtime:
the power series tracks its own cancellation budget, the large-negative
asymptotic expansion tracks its first-omitted-term bound, and arguments
that neither can certify fall through to a slow high-precision series.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath

from .errors import DomainError, RangeError

__all__ = ["gamma", "reciprocal_gamma", "MLParams", "mittag_leffler", "ML_Z_MAX"]

# Largest positive argument accepted by mittag_leffler.  Negative arguments
# are supported without limit; positive ones beyond this are rejected because
# nothing downstream needs them and small alpha makes them overflow anyway.
ML_Z_MAX = 5.0

# Relative accuracy each fast branch must certify before its result is
# accepted; a factor ~10 below the documented 1e-9 contract.
_BRANCH_TARGET = 1e-10

_SQRT_TWO_PI = 2.5066282746310002

# Lanczos approximation, g = 7, 9 terms.  Gives ~1e-13 relative accuracy for
# real arguments once combined with reflection below 0.5.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _sinpi(x: float) -> float:
    """sin(pi*x) with exact argument reduction on the integer part."""
    n = math.floor(x)
    r = x - n
    if r == 0.0:
        return 0.0
    # sin(pi*(n+r)) = (-1)^n sin(pi*r); fold r into [0, 0.5] for accuracy
    if r > 0.5:
        s = math.sin(math.pi * (1.0 - r))
    else:
        s = math.sin(math.pi * r)
    return -s if n % 2 else s


def _lanczos_positive(z: float) -> float:
    # valid for z >= 0.5
    w = z - 1.0
    series = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        series += _LANCZOS_COEFFS[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    # split the power so intermediates stay finite up to the double limit
    half_pow = t ** (0.5 * (w + 0.5))
    return _SQRT_TWO_PI * series * half_pow * math.exp(-t) * half_pow


_FACTORIALS = tuple(float(math.factorial(k)) for k in range(23))


def gamma(z: float) -> float:
    """Gamma function for real z > 0.

    Fixed-coefficient Lanczos approximation (coefficients above) with
    reflection for z < 0.5 and exact values at small integers; relative
    error below 1e-12 on [1e-3, 170].
    """
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"gamma requires finite z > 0, got {z!r}")
    if z <= 23.0 and z == math.floor(z):
        return _FACTORIALS[int(z) - 1]
    if z < 0.5:
        # reflection: Gamma(z) = pi / (sin(pi z) * Gamma(1-z))
        value = math.pi / (_sinpi(z) * _lanczos_positive(1.0 - z))
    else:
        value = _lanczos_positive(z)
    if math.isinf(value):
        raise RangeError(f"gamma({z}) exceeds the double range")
    return value


def reciprocal_gamma(s: float) -> float:
    """1/Gamma(s) for any finite real s; zero at the poles s = 0, -1, -2, ..."""
    if not math.isfinite(s):
        raise DomainError(f"reciprocal_gamma requires finite s, got {s!r}")
    if s >= 0.5:
        if s <= 23.0 and s == math.floor(s):
            return 1.0 / _FACTORIALS[int(s) - 1]
        if s > 171.0:
            return math.exp(-math.lgamma(s))  # underflows smoothly to 0
        return 1.0 / _lanczos_positive(s)
    if s <= 0.0 and s == math.floor(s):
        return 0.0
    # reflection: 1/Gamma(s) = Gamma(1-s) * sin(pi s) / pi
    sp = _sinpi(s)
    if 1.0 - s > 171.0:
        ln_mag = math.lgamma(1.0 - s) + math.log(abs(sp)) - math.log(math.pi)
        return math.copysign(math.exp(ln_mag), sp)
    return _lanczos_positive(1.0 - s) * sp / math.pi


@dataclass(frozen=True)
class MLParams:
    """Parameters of the two-parameter Mittag-Leffler function E_{alpha,beta}.

    alpha must lie in (0, 1]; beta defaults to the one-parameter case.
    """

    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha <= 1.0):
            raise DomainError(f"MLParams.alpha must be in (0, 1], got {self.alpha!r}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"MLParams.beta must be > 0, got {self.beta!r}")


def _ml_series(alpha: float, beta: float, z: float):
    """Compensated Taylor sum of z^k / Gamma(alpha k + beta).

    Returns (value, estimated_relative_error) or None when the series
    cannot be summed reliably in double precision (cancellation, overflow,
    or Gamma range exhausted before convergence).
    """
    total = 0.0
    comp = 0.0
    abs_sum = 0.0
    zk = 1.0
    tiny_streak = 0
    k = 0
    while True:
        arg = alpha * k + beta
        if arg > 170.0 or abs(zk) > 1e250:
            return None  # series not converged within the double-safe window
        term = zk * reciprocal_gamma(arg)
        abs_sum += abs(term)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if math.isinf(total) or math.isinf(abs_sum):
            raise RangeError(
                f"mittag_leffler(alpha={alpha}, beta={beta}, z={z}) exceeds the double range"
            )
        if abs(term) <= 1e-16 * (abs(total) + 1e-300):
            tiny_streak += 1
            if tiny_streak >= 2 and k >= 4:
                break
        else:
            tiny_streak = 0
        k += 1
        zk *= z
    if total == 0.0:
        return (0.0, 0.0) if abs_sum == 0.0 else None
    est_rel = (0.5 * k + 10.0) * 2.220446049250313e-16 * abs_sum / abs(total)
    return total, est_rel


def _ml_asymptotic(alpha: float, beta: float, z: float):
    """Algebraic expansion -sum_{k>=1} z^{-k}/Gamma(beta - alpha k) for z << 0.

    Terms are accumulated while they keep shrinking; the result is returned
    with the first-omitted-term bound, or None if the bound never reaches
    the branch target before the divergent tail takes over.
    """
    ln_abs_z = math.log(-z)
    total = 0.0
    # A term whose Gamma argument falls near (but not exactly on) a pole is
    # spuriously tiny while its neighbours are not, so neither the divergence
    # test nor the acceptance bound may trust a single term: divergence is a
    # rise above the running two-term envelope, and acceptance needs three
    # consecutive terms under the target.
    recent = [math.inf, math.inf]
    small_streak = 0
    streak_max = 0.0
    k = 1
    while k <= 400:
        s = beta - alpha * k
        # 1/Gamma(s) in sign/log-magnitude form to survive large |s|
        if s <= 0.0 and s == math.floor(s):
            k += 1
            continue
        if s >= 0.5:
            ln_rg = -math.lgamma(s)
            sign_rg = 1.0
        else:
            sp = _sinpi(s)
            ln_rg = math.lgamma(1.0 - s) + math.log(abs(sp)) - 1.1447298858494002
            sign_rg = math.copysign(1.0, sp)
        ln_mag = -k * ln_abs_z + ln_rg
        mag = math.exp(ln_mag)
        if mag >= max(recent):
            return None  # divergent tail reached before certifying the bound
        sign_z_pow = -1.0 if k % 2 else 1.0  # sign of z^{-k} for z < 0
        total -= sign_z_pow * sign_rg * mag
        if mag <= _BRANCH_TARGET * abs(total):
            small_streak += 1
            streak_max = max(streak_max, mag)
            if small_streak >= 3:
                if alpha > 0.94:
                    # near alpha = 1 every term sits near a Gamma pole, so the
                    # streak can be spuriously small; gate on the explicit
                    # exponentially-small remainder floor exp(r cos(pi/alpha))
                    r = (-z) ** (1.0 / alpha)
                    floor = math.exp(r * math.cos(math.pi / alpha))
                    if floor > _BRANCH_TARGET * abs(total):
                        return None
                return total, streak_max / max(abs(total), 1e-300)
        else:
            small_streak = 0
            streak_max = 0.0
        recent = [recent[1], mag]
        k += 1
    return None


@functools.lru_cache(maxsize=200_000)
def _ml_bigfloat(alpha: float, beta: float, z: float) -> float:
    """High-precision series fallback for the band neither fast branch certifies."""
    r = abs(z) ** (1.0 / alpha)  # ~log of the largest series term
    dps = 25 + int(0.55 * r)
    if dps > 300:
        raise RangeError(
            f"mittag_leffler high-precision fallback out of range (alpha={alpha}, z={z})"
        )
    with mpmath.workdps(dps):
        mz = mpmath.mpf(z)
        malpha = mpmath.mpf(alpha)  # keep the Gamma argument in full precision
        total = mpmath.mpf(0)
        term_floor = mpmath.mpf(10) ** (-(dps - 5))
        zk = mpmath.mpf(1)
        k = 0
        while True:
            term = zk / mpmath.gamma(malpha * k + beta)
            total += term
            if k >= 4 and abs(term) < term_floor * (abs(total) + term_floor):
                break
            if k > 100_000:
                raise RangeError("mittag_leffler series failed to converge")
            k += 1
            zk *= mz
        return float(total)


def _ml_alpha_one(beta: float, z: float) -> float | None:
    """Closed forms at alpha = 1 for integer beta; None if not applicable."""
    if beta != math.floor(beta):
        return None
    m = int(beta)
    if m == 1:
        return math.exp(z)
    # E_{1,m}(z) = (e^z - sum_{k<m-1} z^k/k!) / z^{m-1} cancels where the
    # head nearly equals e^z (moderate |z|, large m), so mittag_leffler
    # tries the certified series first and uses this form only past it
    head = 0.0
    zk = 1.0
    for k in range(m - 1):
        head += zk / math.factorial(k)
        zk *= z
    return (math.exp(z) - head) / z ** (m - 1)


def mittag_leffler(params: MLParams, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for real z.

    Supports all z <= ML_Z_MAX (= 5); relative error below 1e-9 on
    [-50, 5].  Raises RangeError for z > ML_Z_MAX or when the value
    exceeds the double range (possible for positive z at small alpha).
    """
    if not math.isfinite(z):
        raise DomainError(f"mittag_leffler requires finite z, got {z!r}")
    if z > ML_Z_MAX:
        raise RangeError(f"mittag_leffler supports z <= {ML_Z_MAX}, got {z}")
    alpha, beta = params.alpha, params.beta

    if abs(z) < 0.25:
        # series converges immediately with negligible cancellation
        out = _ml_series(alpha, beta, z)
        if out is None:  # only reachable for extreme beta
            return _ml_bigfloat(alpha, beta, z)
        return out[0]

    out = _ml_series(alpha, beta, z)
    if out is not None and out[1] <= _BRANCH_TARGET:
        return out[0]

    if alpha == 1.0:
        closed = _ml_alpha_one(beta, z)
        if closed is not None:
            return closed

    if z < 0.0:
        out = _ml_asymptotic(alpha, beta, z)
        if out is not None:
            return out[0]

    return _ml_bigfloat(alpha, beta, z)
