"""Scalar special functions on the real line: Gamma and Mittag-Leffler.

Mittag-Leffler evaluation is one chain of branches, tried in order for
every argument until one certifies its result: the power series, which
tracks its own cancellation budget; on the negative axis the upward
recurrence in beta and an inverse-Laplace quadrature on Garrappa's optimal
parabolic contour, each with its own error bound; and last a slow
high-precision evaluation (mpmath).  On the negative axis the series stops
as soon as a bound on the function proves that its cancellation test will
fail.  mittag_leffler_many shares the work that depends on
(alpha, beta) only among the points of one call; nothing is cached across
calls, so a cold process pays the same per call as a warm one.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, RangeError, Record, _float_array, _set, real

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

# Most steps of the recurrence in beta: b0 > 2 to b ~ 171 for alpha >= 0.0425
_CLIMB_MAX_STEPS = 4000


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


class MLParams(Record):
    """Parameters of the two-parameter Mittag-Leffler function E_{alpha,beta}.

    alpha must lie in (0, 1]; beta defaults to the one-parameter case.
    Both are stored as floats.
    """

    _fields = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float = 1.0):
        alpha = real(alpha, "MLParams.alpha")
        beta = real(beta, "MLParams.beta")
        if not 0.0 < alpha <= 1.0:
            raise DomainError(f"MLParams.alpha must be in (0, 1], got {alpha!r}")
        if not beta > 0.0:
            raise DomainError(f"MLParams.beta must be > 0, got {beta!r}")
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)


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
            try:
                amplification = (sq_phibar / sq_mu) ** -p
            except OverflowError:  # large beta: far outside (1, 10), so move on
                amplification = math.inf
            if p < 1e-14 or 1.0 < amplification < 10.0:
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
    where the double-precision contour cannot certify.  Each bounds its
    error: the contour charges what `_MLTable.contour` charges, with the
    40-digit round-off, and the series the rounding of its largest term,
    retried once at twice the digits.  RangeError where that bound exceeds
    _BRANCH_TARGET relative to the value.
    """
    import mpmath  # only this fallback needs it; keeps it off the import path

    try:
        r = abs(z) ** (1.0 / alpha)  # ~log of the largest series term
    except OverflowError:  # tiny alpha: far past the series' reach
        r = math.inf
    dps = 25 + int(0.55 * min(r, 1e3))
    if dps > 300:
        contour = _contour_params(alpha, beta, math.log(1e-30), math.log(1e-40))
        if z > 0.0 or contour is None:
            raise RangeError(f"mittag_leffler high-precision fallback out of range (alpha={alpha}, z={z})")
        mu, h, n, log_target = contour
        with mpmath.workdps(40):
            scale = mpmath.mpf(h) / (2 * mpmath.pi)
            nodes = _contour_nodes(alpha, beta, mpmath.mpf(mu), mpmath.mpf(h), n, mpmath.exp, mpmath.log)
            total, abs_total = _contour_sums(nodes, z)
            value, err = scale * total, (_CONTOUR_DISC_FACTOR * math.exp(log_target) + mpmath.eps) * scale * abs_total
    else:
        for dps in (dps, 2 * dps):  # one retry at twice the digits, as near a zero of E
            with mpmath.workdps(dps):
                mz = mpmath.mpf(z)
                malpha = mpmath.mpf(alpha)  # keep the Gamma argument in full precision
                value = mpmath.mpf(0)
                term_floor = mpmath.mpf(10) ** (-(dps - 5))
                largest = mpmath.mpf(0)
                zk = mpmath.mpf(1)
                k = 0
                while True:
                    term = zk / mpmath.gamma(malpha * k + beta)
                    value += term
                    # |terms| rise to one peak and then fall; past it, stop once a
                    # term is negligible next to both the sum and the peak term (an
                    # absolute floor would stop early where |E| itself is below it)
                    size = abs(term)
                    if size >= largest:
                        largest = size
                    elif k >= 4 and size < term_floor * min(abs(value), largest):
                        break
                    if k > 100_000:
                        raise RangeError("mittag_leffler series failed to converge")
                    k += 1
                    zk *= mz
                err = mpmath.eps * largest
            if err <= _BRANCH_TARGET * abs(value):
                break
    if not err <= _BRANCH_TARGET * abs(value):
        raise RangeError(f"mittag_leffler high-precision fallback cannot certify (alpha={alpha}, beta={beta}, z={z})")
    return float(value)


class _MLTable:
    """The z-independent work of E_{alpha,beta} for one call.

    Holds 1/Gamma(alpha k + beta) for the series, extended on demand, and
    the recurrence's and the contour's tables, built on first use.  A
    table lives for one mittag_leffler / mittag_leffler_many call and is
    dropped when it returns: nothing is cached across calls.  Every value
    is computed by the same operations in the same order as for a single
    point, so a batch is bit-identical to point-by-point calls.
    """

    def __init__(self, alpha: float, beta: float):
        self.alpha = alpha
        self.beta = beta
        self.coeffs: list[float] = []
        # series(-x) stops past stop_b / (1 + x stop_c), 4 _BRANCH_TARGET / eps
        # times its bound B; beta < alpha has no bound, so no stop
        self.stop_b = math.inf
        self.stop_c = 0.0
        if beta >= alpha:
            self.stop_b = 4.0 * _BRANCH_TARGET / _EPS * reciprocal_gamma(beta)
            if beta == 1.0:
                self.stop_c = reciprocal_gamma(1.0 + alpha)
        self.nodes = None  # _contour_nodes, [] when no contour exists
        self.scale = 0.0  # h / (2 pi)
        self.err_scale = 0.0  # certificate's absolute error per sum|terms|
        self.climb = None  # _climb(), () when there is no recurrence

    def series(self, z: float):
        """Compensated Taylor sum of z^k / Gamma(alpha k + beta).

        Returns (value, estimated_relative_error) or None when the series
        cannot be summed reliably in double precision (cancellation,
        overflow, or Gamma range exhausted before convergence).

        Also None, for z = -x < 0 and beta >= alpha, as soon as
        (0.5 k + 10) eps sum|terms| exceeds 4 _BRANCH_TARGET B.  There
        E_{alpha,beta}(-x) is completely monotone in x (Schneider, Expo.
        Math. 1996), so 0 < E <= B = 1/Gamma(beta), and for beta = 1
        B = 1/(1 + x/Gamma(1 + alpha)) (Simon, Electron. J. Probab. 2014).
        k and sum|terms| only grow, so the final estimate
        (0.5 k + 10) eps sum|terms| / |sum| is then sure to exceed
        _BRANCH_TARGET; the factor 4 covers the rounding in the sum.
        """
        alpha, beta, coeffs = self.alpha, self.beta, self.coeffs
        stop = self.stop_b / (1.0 - z * self.stop_c) if z < 0.0 else math.inf
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
            if (0.5 * k + 10.0) * abs_sum > stop:
                return None
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

    def _climb(self):
        """The recurrence's start z -> (value, error) and (1/Gamma(b), c eps) per step."""
        alpha, beta = self.alpha, self.beta
        from_exp = alpha == 1.0 and beta == math.floor(beta)
        n = beta - 1.0 if from_exp else (beta - 3.0) / alpha
        if not (from_exp or beta > 3.0) or not n <= _CLIMB_MAX_STEPS or (  # 1/Gamma falls on b >= 1,
                n > 0 and reciprocal_gamma(beta - alpha) < np.finfo(float).tiny):  # least at the last step
            return None
        n = math.ceil(n)
        start = (lambda z: (math.exp(z), _EPS)) if from_exp else _MLTable(alpha, beta - n * alpha).certified
        spread = 0.0 if alpha == 1.0 else beta * _EPS
        steps = [(reciprocal_gamma(b), 5.5 * _EPS + spread * (1.0 + math.log(b))) for b in
                 (beta - (n - k) * alpha for k in range(n))]
        return start, steps

    def recurrence(self, z: float):
        """E_{alpha,beta}(z), z < 0, by E_{a,b+a}(z) = (E_{a,b}(z) - 1/Gamma(b))/z
        (Gorenflo, Kilbas, Mainardi and Rogosin 2014) from e^z = E_{1,1}(z) at
        alpha = 1 with integer beta, else for beta > 3 from the certified value
        at b0 = beta - ceil((beta - 3)/alpha) alpha in (3 - alpha, 3].  As
        g = Gamma(b) E_{a,b}(z) lies in [0, 1] for b >= alpha (Schneider 1996),
        so a step turns a relative error err into (err g + c eps)/(1 - g):
        1/Gamma(b) brings 3.5 eps, the subtraction and the division one each,
        and b = beta - j alpha, rounded by up to beta eps (not at alpha = 1),
        |psi(b)| beta eps <= ln(b) beta eps, and the same beta eps it moves
        the start value by.  Returns (value, bound), or None without a start
        value or a normal 1/Gamma(b), or once a computed g leaves [0, 1)
        (g = 0 where e^z underflows).
        """
        if self.climb is None:
            self.climb = self._climb() or ()
        if not self.climb or not (out := self.climb[0](z)):
            return None
        value, err = out
        for r, step_err in self.climb[1]:
            g = value / r
            if not 0.0 <= g < 1.0:
                return None
            value = (value - r) / z
            err = (err * g + step_err) / (1.0 - g)
        return value, err

    def certified(self, z: float):
        """(value, bound) of the first double-precision branch certifying _BRANCH_TARGET, or None."""
        for branch in (self.series, self.recurrence, self.contour) if z < 0.0 else (self.series,):
            out = branch(z)
            if out is not None and out[1] <= _BRANCH_TARGET:
                return out
        return None

    def value(self, z: float) -> float:
        """E_{alpha,beta}(z): the first branch that certifies serves it."""
        z = real(z, "mittag_leffler")
        if z > ML_Z_MAX:
            raise RangeError(f"mittag_leffler supports z <= {ML_Z_MAX}, got {z}")
        out = self.certified(z)
        return out[0] if out is not None else _ml_bigfloat(self.alpha, self.beta, z)


def mittag_leffler(params: MLParams, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for real z.

    Supports all z <= ML_Z_MAX (= 5); a returned value is within 1e-9
    relative on [-50, 5].  Raises DomainError for z that is not a finite
    real number, RangeError for z > ML_Z_MAX, for an int beyond the double
    range, when the value exceeds the double range (possible for positive
    z at small alpha), or where not even the fallback certifies a value.

    Two regions fall short of a value for every valid (alpha, beta) today.
    On the positive axis the series serves only while z^(1/alpha) stays
    below about 64-74; past that the mpmath series serves (up to about 2 s
    a call), and where z^(1/alpha) > 500 it raises RangeError although the
    value is finite, as at (0.2, 1, 3.5), about 6.29e228.  Past beta of
    about 171, where 1/Gamma(beta) leaves the normal doubles, only the
    fallback serves the negative axis, or raises RangeError, as at
    (0.5, 175, -50).

    Branches, first certified to 1e-10 relative wins: the power series by
    its cancellation estimate (stopped early for z < 0 and beta >= alpha
    once a bound on the function proves that test will fail); for z < 0
    the upward recurrence E_{a,b+a}(z) = (E_{a,b}(z) - 1/Gamma(b)) / z from
    e^z at alpha = 1 with integer beta, else from a start value at
    beta <= 3, and the parabolic-contour quadrature (Garrappa, SIAM J.
    Numer. Anal. 2015), each by its error bound; and the mpmath fallback.
    Every z takes this one chain, so near a zero of E_{alpha,beta}
    (possible for beta < alpha) the fallback serves small |z| too.
    """
    return _MLTable(params.alpha, params.beta).value(z)


def mittag_leffler_many(params: MLParams, zs) -> np.ndarray:
    """mittag_leffler(params, z) for every z in zs, as a float array of zs' shape.

    The Gamma reciprocals, recurrence steps and contour nodes, which depend
    on (alpha, beta) only, are computed once per call and shared by all
    points; each value is bit-identical to the scalar call.  Raises
    DomainError unless zs holds real numbers only (not strings, bools or
    None, as in the scalar call), RangeError for an int beyond the double
    range, else what the scalar call raises at the first element (in C
    order) that fails, NaN and +-inf included.
    """
    z_arr = _float_array(zs, "mittag_leffler_many")
    table = _MLTable(params.alpha, params.beta)
    values = [table.value(z) for z in z_arr.ravel().tolist()]
    return np.array(values, dtype=float).reshape(z_arr.shape)
