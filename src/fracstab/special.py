"""Scalar special functions on the real line: Gamma and Mittag-Leffler.

Mittag-Leffler evaluation is one chain of branches, tried in order for
every argument until one certifies its result: the power series, which
tracks its own cancellation budget; closed forms at alpha = 1 with integer
beta; on the negative axis an inverse-Laplace quadrature on Garrappa's
optimal parabolic contour that certifies its own error bound; and last a
slow high-precision evaluation (mpmath).  On the negative axis a bound on
the function rejects the series before it is summed where its cancellation
test is sure to fail.  mittag_leffler_many shares the work that depends on
(alpha, beta) only among the points of one call; nothing is cached across
calls, so a cold process pays the same per call as a warm one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError, _float_array, real

__all__ = [
    "gamma",
    "reciprocal_gamma",
    "MLParams",
    "mittag_leffler",
    "mittag_leffler_many",
    "ML_Z_MAX",
]

# Largest positive argument accepted by mittag_leffler.  Negative arguments
# are supported without limit; positive ones beyond this are rejected because
# nothing downstream needs them and small alpha makes them overflow anyway.
ML_Z_MAX = 5.0

# Relative accuracy each fast branch must certify before its result is
# accepted; a factor ~10 below the documented 1e-9 contract.
_BRANCH_TARGET = 1e-10

_EPS = 2.220446049250313e-16
_LOG_EPS = math.log(_EPS)
_LOG_BRANCH_TARGET = math.log(_BRANCH_TARGET)

# _series_doomed rejects the series when its cancellation estimate is sure
# to exceed 4 * _BRANCH_TARGET, and when the Gamma argument at the series'
# peak passes 171 (the series gives up past 170; the margin of 1 keeps
# rounding in the peak's location from mattering).
_LOG_DOOMED = math.log(4.0 * _BRANCH_TARGET)
_LOG_SERIES_ARG_MAX = math.log(171.0)

# Accuracy the double-precision contour quadrature is first balanced for
# (Garrappa's default), and the node count past which the target is relaxed
# instead.  The target is relative to the integrand's size on the contour,
# h/(2 pi) sum |terms|, and the balance behind it is asymptotic, not a
# bound: over ~1000 sampled (alpha, beta, z), z down to -1e5, the
# discretisation error reached 9.3 times target * size (near z = -0.3 with
# beta just above 1 + alpha), so the certificate charges
# _CONTOUR_DISC_FACTOR times that.
_LOG_CONTOUR_TARGET = math.log(1e-15)
_CONTOUR_MAX_NODES = 200
_CONTOUR_DISC_FACTOR = 100.0


def _sinpi(x: float) -> float:
    """sin(pi*x) = (-1)^n sin(pi*(x - n)), n the nearest integer; x - n is exact."""
    n = round(x)
    s = math.sin(math.pi * (x - n))
    return -s if n % 2 else s


def gamma(z: float) -> float:
    """Gamma function for real z > 0: the standard library's math.gamma.

    Exact at the integers 1..23 and, against mpmath at 50 digits, within
    6.2e-16 relative on 6003 sampled points of [1e-3, 170].  RangeError
    where Gamma(z) exceeds the double range (z > 171.62 or z < 5.6e-309).
    """
    z = real(z, "gamma")
    if z <= 0.0:
        raise DomainError(f"gamma requires z > 0, got {z!r}")
    try:
        return math.gamma(z)
    except OverflowError:
        raise RangeError(f"gamma({z}) exceeds the double range") from None


def reciprocal_gamma(s: float) -> float:
    """1/Gamma(s) for any finite real s; zero at the poles s = 0, -1, -2, ...

    1/math.gamma(s) on [-170, 171]; against mpmath at 50 digits, the worst
    relative error away from the poles is 7.7e-16 (6000 sampled points).
    Above 171, exp(-lgamma(s)), which underflows smoothly to 0.  Where
    math.gamma overflows (|s| < 1e-307) or its value is subnormal
    (s < -170), the reflection Gamma(1-s) sin(pi s) / pi in logs, good to
    about 2e-13.  RangeError where |1/Gamma(s)| exceeds the double range
    (s < -171.6 away from the poles) and for an int beyond the double range.
    """
    s = real(s, "reciprocal_gamma")
    if s > 171.0:  # underflows to 0 by s = 180; lgamma overflows past 2.5e305
        return math.exp(-math.lgamma(s)) if s < 200.0 else 0.0
    if s <= 0.0 and s == math.floor(s):
        return 0.0
    if s >= -170.0 and abs(s) >= 1e-307:
        return 1.0 / math.gamma(s)
    sp = _sinpi(s)
    try:
        return math.copysign(math.exp(math.lgamma(1.0 - s) + math.log(abs(sp) / math.pi)), sp)
    except OverflowError:
        raise RangeError(f"1/gamma({s}) exceeds the double range") from None


@dataclass(frozen=True)
class MLParams:
    """Parameters of the two-parameter Mittag-Leffler function E_{alpha,beta}.

    alpha must lie in (0, 1]; beta defaults to the one-parameter case.
    Both are stored as floats.
    """

    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        alpha = real(self.alpha, "MLParams.alpha")
        beta = real(self.beta, "MLParams.beta")
        if not 0.0 < alpha <= 1.0:
            raise DomainError(f"MLParams.alpha must be in (0, 1], got {alpha!r}")
        if not beta > 0.0:
            raise DomainError(f"MLParams.beta must be > 0, got {beta!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


def _series_doomed(alpha: float, beta: float, z: float) -> bool:
    """True when the power series at z is sure to fail its cancellation test.

    Applies to z <= -0.25, 0 < alpha <= 1 and beta >= alpha, where
    E_{alpha,beta}(-x) is completely monotone in x (Schneider, Expo. Math.
    1996), so 0 < E <= B = 1/Gamma(beta); for beta = 1 the sharper
    B = 1/(1 + x/Gamma(1 + alpha)) holds (Simon, Electron. J. Probab. 2014).
    By Wendel's inequality the terms x^k / Gamma(alpha k + beta) do not
    decrease up to k = ceil(k*), k* = (x^(1/alpha) - beta)/alpha, so the
    series cannot stop before it; either it leaves the Gamma window first
    (returns None) or it sums a term T at floor or ceil of k*, and then its
    estimate (0.5 k + 10) eps sum|terms| / |sum| is at least
    (0.5 k* + 10) eps T / B up to the rounding in the sum, which the
    factor 4 on the target covers.  Everything is in logs, so no |z| can
    overflow.
    """
    if not (z <= -0.25 and 0.0 < alpha <= 1.0 and beta >= alpha):
        return False
    x = -z
    log_x = math.log(x)
    log_peak = log_x / alpha  # log(alpha k* + beta)
    if log_peak > _LOG_SERIES_ARG_MAX:
        return True  # the series leaves the Gamma window before its peak
    if beta == 1.0:
        log_bound = -math.log1p(x * math.exp(-math.lgamma(1.0 + alpha)))
    else:
        log_bound = -math.lgamma(beta)
    k_star = max(0.0, (math.exp(log_peak) - beta) / alpha)
    log_term = max(
        k * log_x - math.lgamma(alpha * k + beta)
        for k in (math.floor(k_star), math.ceil(k_star))
    )
    return math.log(0.5 * k_star + 10.0) + _LOG_EPS + log_term - log_bound > _LOG_DOOMED


def _contour_params(alpha: float, beta: float, log_target: float, log_eps: float):
    """Garrappa's optimal parabolic contour for E_{alpha,beta}(z), z < 0.

    For real z < 0 and alpha <= 1 the Laplace transform s^(alpha-beta) /
    (s^alpha - z) has no pole off the negative real axis, so the only
    singularity to steer around is the branch point at the origin, of
    strength p = max(0, 2(beta - alpha - 1)): Garrappa's unbounded region
    (SIAM J. Numer. Anal. 53, 2015, sec. 4) at t = 1, for an arithmetic of
    unit round-off exp(log_eps).  Returns (mu, h, n, log_target): the contour
    s(u) = mu (1 + iu)^2, the step in u, the nodes -n..n, and the log of the
    accuracy they are balanced for (for an integrand of unit size), relaxed
    by decades from the requested one while more than _CONTOUR_MAX_NODES
    nodes would be needed.
    None if no target below _BRANCH_TARGET is reachable.
    """
    p = max(0.0, 2.0 * (beta - alpha - 1.0))
    while log_target < _LOG_BRANCH_TARGET:
        # step/contour balance of Weideman and Trefethen, with the contour
        # pushed away from the origin until the singularity's amplification
        # factor lies in (1, 10)
        sq_phibar = 0.1
        for _ in range(100):
            phibar = sq_phibar * sq_phibar
            lt = log_target / phibar
            n = math.ceil(phibar / math.pi * (1.0 - 1.5 * lt + math.sqrt(1.0 - 2.0 * lt)))
            a = math.pi * n / phibar
            sq_mu = sq_phibar * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
            if p < 1e-14 or 1.0 < (sq_phibar / sq_mu) ** -p < 10.0:
                break
            sq_phibar = 5.0 ** (-1.0 / p) * sq_mu
        else:
            return None
        mu = sq_mu * sq_mu
        h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
        # exp(mu) times the round-off must stay below the target, or
        # round-off at the nodes nearest the origin swamps the quadrature
        threshold = log_target - log_eps
        if mu > threshold:
            q = 0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * sq_mu
            if q * q < threshold:
                w = math.sqrt(log_eps / (log_eps - log_target))
                v = math.sqrt(-q * q / log_eps)
                mu = threshold
                n = math.ceil(w * log_target / (2.0 * math.pi) / (v * w - 1.0))
                h = w / n
            else:
                n = _CONTOUR_MAX_NODES + 1
        if n <= _CONTOUR_MAX_NODES:
            return mu, h, n, log_target
        log_target += math.log(10.0)
    return None


def _contour_nodes(alpha, beta, mu, h, n, exp, log):
    """The z-independent factors of the inverse-Laplace integrand at the
    nodes u_k = k h, k = 0..n, of s(u) = mu (1+iu)^2.

    Works in whatever arithmetic mu, h, exp and log carry (floats with
    cmath, or mpmath).  Returns per node (num, den, dw, weight) with
    num = exp(s + (alpha - beta) log s), den = exp(alpha log s),
    dw = s'(u) = 2 mu (i - u) and weight 1 at u = 0, else 2: the nodes come
    in conjugate pairs, so (1/2 pi i) sum_{k=-n}^{n} term_k =
    (1/2 pi) sum_{k=0}^{n} weight_k Im(term_k).
    """
    nodes = []
    for k in range(n + 1):
        u = h * k
        s = mu * (1.0 + 1j * u) ** 2
        log_s = log(s)
        nodes.append(
            (
                exp(s + (alpha - beta) * log_s),
                exp(alpha * log_s),
                2.0 * mu * (1j - u),
                1.0 if k == 0 else 2.0,
            )
        )
    return nodes


def _contour_sums(nodes, z):
    """Trapezoidal sums over _contour_nodes of term = num / (den - z) * dw.

    Returns sum weight * Im(term) and sum weight * |term|, both still to be
    multiplied by h / (2 pi).
    """
    total = 0.0
    abs_total = 0.0
    for num, den, dw, weight in nodes:
        term = num / (den - z) * dw
        total += weight * term.imag
        abs_total += weight * abs(term)
    return total, abs_total


def _ml_bigfloat(alpha: float, beta: float, z: float) -> float:
    """High-precision fallback for arguments no double-precision branch
    certifies, and a reference for the tests.

    The power series at as many digits as its cancellation needs; on the
    negative axis past the series' reach (small alpha, large |z|), the
    parabolic contour at 40 digits, balanced for an accuracy of 1e-30,
    which leaves relative accuracy to spare near a zero of the function,
    where the double-precision contour cannot certify.
    """
    import mpmath  # only this fallback needs it; keeps it off the import path

    r = abs(z) ** (1.0 / alpha)  # ~log of the largest series term
    dps = 25 + int(0.55 * r)
    if dps > 300:
        contour = _contour_params(alpha, beta, math.log(1e-30), math.log(1e-40))
        if z > 0.0 or contour is None:
            raise RangeError(
                f"mittag_leffler high-precision fallback out of range (alpha={alpha}, z={z})"
            )
        mu, h, n, _ = contour
        with mpmath.workdps(40):
            h = mpmath.mpf(h)
            nodes = _contour_nodes(alpha, beta, mpmath.mpf(mu), h, n, mpmath.exp, mpmath.log)
            total, _ = _contour_sums(nodes, z)
            return float(h / (2 * mpmath.pi) * total)
    with mpmath.workdps(dps):
        mz = mpmath.mpf(z)
        malpha = mpmath.mpf(alpha)  # keep the Gamma argument in full precision
        total = mpmath.mpf(0)
        term_floor = mpmath.mpf(10) ** (-(dps - 5))
        largest = mpmath.mpf(0)
        zk = mpmath.mpf(1)
        k = 0
        while True:
            term = zk / mpmath.gamma(malpha * k + beta)
            total += term
            # |terms| rise to one peak and then fall; past it, stop once a
            # term is negligible next to both the sum and the peak term (an
            # absolute floor would stop early where |E| itself is below it)
            size = abs(term)
            if size >= largest:
                largest = size
            elif k >= 4 and size < term_floor * min(abs(total), largest):
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


class _MLTable:
    """The z-independent work of E_{alpha,beta} for one call.

    Holds 1/Gamma(alpha k + beta) for the series, extended on demand, and
    the double-precision contour's node factors, built on first use.  A
    table lives for one mittag_leffler / mittag_leffler_many call and is
    dropped when it returns: nothing is cached across calls.  Every value
    is computed by the same operations in the same order as for a single
    point, so a batch is bit-identical to point-by-point calls.
    """

    def __init__(self, alpha: float, beta: float):
        self.alpha = alpha
        self.beta = beta
        self.coeffs: list[float] = []
        self.nodes = None  # _contour_nodes, [] when no contour exists
        self.scale = 0.0  # h / (2 pi)
        self.err_scale = 0.0  # certificate's absolute error per sum|terms|

    def series(self, z: float):
        """Compensated Taylor sum of z^k / Gamma(alpha k + beta).

        Returns (value, estimated_relative_error) or None when the series
        cannot be summed reliably in double precision (cancellation,
        overflow, or Gamma range exhausted before convergence).
        """
        alpha, beta, coeffs = self.alpha, self.beta, self.coeffs
        total = 0.0
        comp = 0.0
        abs_sum = 0.0
        zk = 1.0
        tiny_streak = 0
        k = 0
        while True:
            if k == len(coeffs):
                arg = alpha * k + beta
                if arg > 170.0:
                    return None  # series not converged within the double-safe window
                coeffs.append(reciprocal_gamma(arg))
            if abs(zk) > 1e250:
                return None
            term = zk * coeffs[k]
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
        est_rel = (0.5 * k + 10.0) * _EPS * abs_sum / abs(total)
        return total, est_rel

    def contour(self, z: float):
        """E_{alpha,beta}(z) for z < 0 in double precision, with a certificate.

        Returns (value, certified_relative_error) or None if no contour was
        found.  With size = h/(2 pi) * sum |terms|, the absolute error is
        bounded by _CONTOUR_DISC_FACTOR * target * size (discretisation and
        truncation) plus the round-off eps * size; values that are
        exponentially small next to the integrand therefore come back with
        a large relative error.
        """
        if self.nodes is None:
            self.nodes = []
            contour = _contour_params(self.alpha, self.beta, _LOG_CONTOUR_TARGET, _LOG_EPS)
            if contour is not None:
                mu, h, n, log_target = contour
                self.nodes = _contour_nodes(self.alpha, self.beta, mu, h, n, cmath.exp, cmath.log)
                self.scale = h / (2.0 * math.pi)
                self.err_scale = (_CONTOUR_DISC_FACTOR * math.exp(log_target) + _EPS) * self.scale
        if not self.nodes:
            return None
        total, abs_total = _contour_sums(self.nodes, z)
        value = self.scale * total
        if value == 0.0 or not math.isfinite(value):
            return None
        return value, self.err_scale * abs_total / abs(value)

    def value(self, z: float) -> float:
        """E_{alpha,beta}(z): the first branch that certifies serves it."""
        z = real(z, "mittag_leffler")
        if z > ML_Z_MAX:
            raise RangeError(f"mittag_leffler supports z <= {ML_Z_MAX}, got {z}")
        alpha, beta = self.alpha, self.beta

        if not _series_doomed(alpha, beta, z):
            out = self.series(z)
            if out is not None and out[1] <= _BRANCH_TARGET:
                return out[0]

        if alpha == 1.0:
            closed = _ml_alpha_one(beta, z)
            if closed is not None:
                return closed

        if z < 0.0:
            out = self.contour(z)
            if out is not None and out[1] <= _BRANCH_TARGET:
                return out[0]

        return _ml_bigfloat(alpha, beta, z)


def mittag_leffler(params: MLParams, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for real z.

    Supports all z <= ML_Z_MAX (= 5); relative error below 1e-9 on
    [-50, 5].  Raises DomainError for z that is not a finite real number,
    RangeError for z > ML_Z_MAX, for an int beyond the double range, or
    when the value exceeds the double range (possible for positive z at
    small alpha).

    Branches, first certified wins: the power series when its cancellation
    estimate is at most 1e-10 relative (skipped for z <= -0.25 where a bound
    on the function proves that test would fail), the closed forms at
    alpha = 1 with integer beta, for z < 0 the parabolic-contour quadrature
    (Garrappa, SIAM J. Numer. Anal. 2015) when its error bound is at most
    1e-10 relative, and the mpmath fallback.  Every z takes this one chain,
    so near a zero of E_{alpha,beta} (possible for beta < alpha) the
    fallback serves small |z| too.
    """
    return _MLTable(params.alpha, params.beta).value(z)


def mittag_leffler_many(params: MLParams, zs) -> np.ndarray:
    """mittag_leffler(params, z) for every z in zs, as a float array of zs' shape.

    The Gamma reciprocals and contour nodes, which depend on (alpha, beta)
    only, are computed once per call and shared by all points; each value
    is bit-identical to the scalar call.  Raises DomainError unless zs holds
    real numbers only (not strings, bools or None, as in the scalar call),
    RangeError for an int beyond the double range, else what the scalar call
    raises at the first element (in C order) that fails, NaN and +-inf
    included.
    """
    z_arr = _float_array(zs, "mittag_leffler_many")
    table = _MLTable(params.alpha, params.beta)
    values = [table.value(z) for z in z_arr.ravel().tolist()]
    return np.array(values, dtype=float).reshape(z_arr.shape)
