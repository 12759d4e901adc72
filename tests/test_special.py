import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fracstab.errors import DomainError, FracstabError, RangeError
from fracstab.special import ML_Z_MAX, MLParams, gamma, mittag_leffler, mittag_leffler_many, reciprocal_gamma
from fracstab.special import _BRANCH_TARGET, _MLTable, _ml_bigfloat
from fracstab.special import _CONTOUR_DISC_FACTOR, _EPS, _LOG_CONTOUR_TARGET, _LOG_EPS, _contour_params

from oracles import (
    OracleError,
    erfc_oracle,
    erfcx_oracle,
    ml_alpha_one_oracle,
    ml_asymptotic_oracle,
    ml_gll_oracle,
    ml_series_oracle,
)


def _ml_reference(alpha, beta, z):
    """The series oracle where it is cheap, |z|^(1/alpha) <= 200; past that on
    the negative axis the asymptotic oracle, whose terms there fall to below
    exp(-200) before they grow."""
    if z < 0.0 and alpha < 1.0 and abs(z) ** (1.0 / alpha) > 200.0:
        return ml_asymptotic_oracle(alpha, beta, z)
    return ml_series_oracle(alpha, beta, z)


# --- gamma -------------------------------------------------------------------


def test_gamma_known_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-12


def test_gamma_against_stdlib():
    # gamma is math.gamma behind its domain checks, so the reference is
    # mpmath at 50 digits, not the standard library
    rng = np.random.default_rng(11)
    zs = np.concatenate(
        [
            rng.uniform(1e-3, 0.5, 2000),
            rng.uniform(0.5, 20.0, 2000),
            rng.uniform(20.0, 170.0, 2000),
            [1e-3, 0.5, 170.0],
        ]
    )
    with mpmath.workdps(50):
        for z in zs.tolist():
            ref = mpmath.gamma(z)
            assert abs((gamma(z) - ref) / ref) < 1e-14, z


def test_gamma_recurrence():
    rng = np.random.default_rng(3)
    for z in rng.uniform(0.1, 80.0, 1000):
        assert gamma(z + 1.0) / (z * gamma(z)) == pytest.approx(1.0, rel=1e-12)


def test_gamma_domain_errors():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            gamma(bad)
    with pytest.raises(RangeError):
        gamma(200.0)  # beyond double range


def test_reciprocal_gamma_poles_and_values():
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-3.0) == 0.0
    assert reciprocal_gamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
    # reflection region against stdlib
    for s in (-0.5, -1.7, -12.3, 0.3):
        assert reciprocal_gamma(s) == pytest.approx(1.0 / math.gamma(s), rel=1e-12)


def test_reciprocal_gamma_against_mpmath():
    rng = np.random.default_rng(12)
    ss = np.concatenate([rng.uniform(-170.0, 171.0, 3000), rng.uniform(-3.0, 3.0, 1000)])
    near_poles = [-n + d for n in range(0, 170, 13) for d in (1e-12, -1e-12, 1e-6, -1e-6)]
    with mpmath.workdps(50):
        for s in ss.tolist() + near_poles + [-170.0 + 1e-9, 171.0, 1e-300, -1e-300]:
            if abs(s - round(s)) < 1e-13:
                continue
            ref = mpmath.rgamma(s)
            assert abs((reciprocal_gamma(s) - ref) / ref) < 1e-14, s


def test_reciprocal_gamma_range_errors_and_subnormal_values():
    for s in (-171.5, -200.5, -1e15 - 0.5):
        with pytest.raises(RangeError):
            reciprocal_gamma(s)
    # near 0, where math.gamma overflows, 1/Gamma(s) = s to first order
    for s in (1e-310, -1e-310, 5e-324, -5e-324):
        assert reciprocal_gamma(s) == pytest.approx(s, rel=1e-9)
    # below -170, with Gamma(1 - s) past the double range, values stay finite
    with mpmath.workdps(50):
        for s in (-170.7, -171.9999, -172.0 - 1e-12, -175.0 + 1e-13):
            ref = mpmath.rgamma(s)
            assert abs((reciprocal_gamma(s) - ref) / ref) < 1e-12, s


@settings(max_examples=400, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-1e-310)
@example(5e-324)
@example(171.7)
@example(2.6e305)
@example(-171.5)
@example(-2.0**52 - 0.5)
@example("1.5")
@example(None)
@example(10**400)
@example(-10**400)
def test_gamma_entries_raise_only_package_errors(x):
    for fn in (gamma, reciprocal_gamma):
        try:
            value = fn(x)
        except (DomainError, RangeError):
            continue
        assert isinstance(value, float) and math.isfinite(value), (fn.__name__, x, value)


# --- Mittag-Leffler: parameters and trivial identities -------------------------


def test_mlparams_validation():
    MLParams(0.5)
    MLParams(1.0, 2.0)
    for alpha, beta in ((0.0, 1.0), (1.2, 1.0), (0.5, 0.0), (0.5, -1.0), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            MLParams(alpha, beta)


def test_ml_exponential_value():
    got = mittag_leffler(MLParams(1.0), -2.0)
    assert got == pytest.approx(0.1353352832366127, rel=1e-14)


def test_ml_at_zero():
    assert mittag_leffler(MLParams(0.5), 0.0) == pytest.approx(1.0, rel=1e-15)
    assert mittag_leffler(MLParams(0.3, 2.0), 0.0) == pytest.approx(1.0, rel=1e-12)


def test_ml_half_at_minus_one():
    # closed form E_{1/2}(-x) = exp(x^2) erfc(x); frozen from the erfc oracle
    oracle = math.e * erfc_oracle(1.0)
    got = mittag_leffler(MLParams(0.5), -1.0)
    assert abs(got - oracle) < 1e-8
    assert got == pytest.approx(0.4275835761558070, rel=1e-12)


def test_ml_domain_and_range_errors():
    with pytest.raises(DomainError):
        mittag_leffler(MLParams(0.5), math.nan)
    with pytest.raises(RangeError):
        mittag_leffler(MLParams(0.5), ML_Z_MAX + 1.0)
    # hugely positive value at small alpha exceeds the double range
    with pytest.raises(RangeError):
        mittag_leffler(MLParams(0.15), 5.0)


# --- identities on grids -------------------------------------------------------


def test_ml_exp_identity_grid():
    params = MLParams(1.0)
    for z in np.linspace(-20.0, 2.0, 500):
        ref = math.exp(z)
        assert abs(mittag_leffler(params, float(z)) - ref) / ref < 1e-9


def test_ml_beta2_identity():
    params = MLParams(1.0, 2.0)
    zs = np.concatenate([np.linspace(-10.0, -1e-3, 120), np.linspace(1e-3, 2.0, 120)])
    for z in zs:
        ref = math.expm1(z) / z
        assert abs(mittag_leffler(params, float(z)) - ref) / abs(ref) < 1e-9


def test_ml_monotone_increasing_in_z():
    zs = np.linspace(-30.0, 2.0, 200)
    for alpha in (0.3, 0.5, 0.8, 1.0):
        params = MLParams(alpha)
        vals = [mittag_leffler(params, float(z)) for z in zs]
        assert np.all(np.diff(vals) > 0.0)


def test_ml_bounds_on_negative_axis():
    zs = np.linspace(-50.0, 0.0, 150)
    for alpha in (0.2, 0.5, 0.75, 0.9, 1.0):
        params = MLParams(alpha)
        for z in zs:
            v = mittag_leffler(params, float(z))
            assert 0.0 < v <= 1.0


# --- cross-validation against independent evaluations --------------------------


def test_ml_alpha_half_vs_erfcx_sweep():
    # covers the series, fallback and asymptotic branches in one sweep
    params = MLParams(0.5)
    for x in np.linspace(0.05, 40.0, 160):
        ref = erfcx_oracle(float(x))
        got = mittag_leffler(params, -float(x))
        assert abs(got - ref) / ref < 1e-9


def test_ml_alpha_half_positive_axis():
    # E_{1/2}(x) = 2 exp(x^2) - erfcx(x) for x >= 0
    params = MLParams(0.5)
    for x in np.linspace(0.1, 5.0, 50):
        ref = 2.0 * math.exp(x * x) - erfcx_oracle(float(x))
        assert mittag_leffler(params, float(x)) == pytest.approx(ref, rel=1e-10)


def test_ml_vs_integral_representation():
    for alpha in (0.35, 0.5, 0.65, 0.8, 0.9, 0.97):
        for beta in (0.6, 1.0, 1.7, 2.6):
            for z in (-0.6, -2.0, -5.0, -9.0, -14.0, -21.0, -35.0, -50.0):
                ref = ml_gll_oracle(alpha, beta, z)
                got = mittag_leffler(MLParams(alpha, beta), z)
                assert abs(got - ref) / abs(ref) < 1e-9, (alpha, beta, z)


def test_integral_oracle_self_check():
    # the test oracle itself must agree with erfc closed forms and the series
    assert ml_gll_oracle(0.5, 1.0, -9.0) == pytest.approx(erfcx_oracle(9.0), rel=1e-10)
    params = MLParams(0.8, 1.5)
    assert ml_gll_oracle(0.8, 1.5, -0.5) == pytest.approx(
        mittag_leffler(params, -0.5), rel=1e-10
    )


def test_series_oracle_self_check():
    # the mpmath series oracle against closed forms: erfcx at alpha = 1/2 and
    # the confluent hypergeometric form at alpha = 1
    assert ml_series_oracle(0.5, 1.0, -9.0) == pytest.approx(erfcx_oracle(9.0), rel=1e-14)
    assert ml_series_oracle(1.0, 2.3, -30.0) == pytest.approx(ml_alpha_one_oracle(2.3, -30.0), rel=1e-14)


def test_asymptotic_oracle_self_check():
    # the asymptotic oracle against erfcx at alpha = 1/2 and against the
    # series oracle where both are cheap; it refuses where its terms grow
    # again before they are negligible, and off the negative axis
    assert ml_asymptotic_oracle(0.5, 1.0, -30.0) == pytest.approx(erfcx_oracle(30.0), rel=1e-14)
    for alpha, beta, z in ((0.5, 20.0, -12.0), (0.3, 5.0, -4.5), (0.5, 150.0, -12.25), (0.1, 150.0, -1.65)):
        assert ml_asymptotic_oracle(alpha, beta, z) == pytest.approx(ml_series_oracle(alpha, beta, z), rel=1e-14)
    for alpha, beta, z in ((0.5, 1.0, -3.0), (1.0, 5.0, -30.0), (0.5, 5.0, 2.0)):
        with pytest.raises(OracleError):
            ml_asymptotic_oracle(alpha, beta, z)


_LARGE_BETA_VALUES = {
    (0.5, 100.0, -10.0): 5.3508e-157,
    (0.9, 100.0, -50.0): 5.9672e-157,
    # no branch served these, and the fallback raised RangeError
    (0.5, 100.0, -30.0): 2.6725e-157,
    (0.5, 100.0, -50.0): 1.7809e-157,
    (0.5, 20.0, -30.0): 1.0504e-18,
    (0.2, 20.0, -5.0): 2.1854e-18,
    (0.2, 20.0, -10.0): 1.26e-18,
    (0.05, 30.0, -50.0): 2.617e-33,
    (0.3, 40.0, -50.0): 2.7836e-48,
    (0.5, 120.0, -30.0): 4.7891e-198,
}


@pytest.mark.parametrize("alpha, beta, z", list(_LARGE_BETA_VALUES))
def test_ml_large_beta_fallback_against_series_oracle(alpha, beta, z):
    # |E| is about 1/Gamma(100) ~ 1e-156 at the first two points, below the
    # fallback's old absolute stopping floor, so the series stopped at k = 4
    # and returned 1.0636e-156 and 7.723e-157; the recurrence in beta now
    # serves them all.  Past |z|^(1/alpha) = 200 the asymptotic oracle is the
    # reference (the series oracle did not finish (0.5, 100, -50) in 3 min).
    ref = _ml_reference(alpha, beta, z)
    assert abs(mittag_leffler(MLParams(alpha, beta), z) - ref) <= 1e-9 * abs(ref)
    assert ref == pytest.approx(_LARGE_BETA_VALUES[alpha, beta, z], rel=1e-4)


@pytest.mark.parametrize(
    "alpha, beta, z",
    [
        (1.0, 0.05, -0.05256519518345587),
        (0.9, 0.05, -0.056324786747372756),
        (0.5, 0.02, -0.03673769675467172),
        (0.95, 0.1, -0.11432080202488158),
    ],
)
def test_ml_near_a_zero_at_small_z(alpha, beta, z):
    # E_{alpha,beta} with beta < alpha has a zero near these z: |E| is about
    # 1e-18 against terms of order 1, so the double-precision series keeps
    # no correct digit and its cancellation test must send the point on
    ref = ml_series_oracle(alpha, beta, z)
    assert abs(mittag_leffler(MLParams(alpha, beta), z) - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("alpha, beta, z", [(0.1308, 1.1177, -0.7548), (0.9292, 1.7187, -0.2860)])
def test_integral_oracle_refuses_where_quad_fails(alpha, beta, z):
    # quad warns here and its value is off by 2.8e-5 and 3.9e-7 relative; the
    # oracle must refuse rather than hand a wrong reference to a sweep
    with pytest.raises(OracleError):
        ml_gll_oracle(alpha, beta, z)
    ref = ml_series_oracle(alpha, beta, z)
    assert abs(mittag_leffler(MLParams(alpha, beta), z) - ref) <= 1e-14 * abs(ref)


def test_branch_overlap_consistency():
    # series edge and asymptotic edge both agree with the high-precision sum
    for alpha, zs in (
        (0.6, (-4.0, -6.0, -9.0)),
        (0.8, (-8.0, -12.0, -30.0)),
        (0.95, (-10.0, -20.0, -45.0)),
    ):
        for z in zs:
            ref = _ml_bigfloat(alpha, 1.0, z)
            got = mittag_leffler(MLParams(alpha), z)
            assert got == pytest.approx(ref, rel=1e-9)


# --- properties ----------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    alpha=st.floats(0.3, 1.0),
    beta=st.floats(0.5, 3.0),
    z=st.floats(-30.0, 0.0),
)
def test_ml_deterministic_and_finite(alpha, beta, z):
    params = MLParams(alpha, beta)
    a = mittag_leffler(params, z)
    b = mittag_leffler(params, z)
    assert a == b
    assert math.isfinite(a)


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(0.25, 1.0), z=st.floats(-40.0, 0.0))
def test_ml_one_param_positive_bounded(alpha, z):
    v = mittag_leffler(MLParams(alpha), z)
    assert 0.0 < v <= 1.0


def test_alpha_one_integer_beta_vs_highprec_series():
    # alpha = 1 with integer beta (the recurrence from e^z where the series
    # fails) cross-checked against the high-precision series, so the branch
    # wiring cannot hide an error
    from fracstab.special import _BRANCH_TARGET, _ml_bigfloat

    for beta in (1.0, 2.0, 3.0):
        for z in (-12.0, -3.0, -0.7, 0.9, 1.8):
            got = mittag_leffler(MLParams(1.0, beta), z)
            ref = _ml_bigfloat(1.0, beta, z)
            assert got == pytest.approx(ref, rel=1e-12), (beta, z)


def test_alpha_one_integer_beta_sweep():
    # the closed form (e^z - sum_{k<m-1} z^k/k!) / z^(m-1), which served
    # here before the recurrence, cancels catastrophically for large m and
    # moderate |z|; the 1e-9 contract must hold across [-50, -0.25] and
    # [0.25, 5]
    zs = np.concatenate([np.linspace(-50.0, -0.25, 100), np.linspace(0.25, 5.0, 40)])
    bad = []
    for m in range(2, 16):
        for z in zs:
            ref = ml_alpha_one_oracle(m, float(z))
            got = mittag_leffler(MLParams(1.0, float(m)), float(z))
            if abs(got - ref) > 1e-9 * abs(ref):
                bad.append((m, float(z), abs(got - ref) / abs(ref)))
    assert not bad, f"{len(bad)} of {14 * zs.size} points off by > 1e-9, first: {bad[:3]}"


@pytest.mark.parametrize(
    "beta, z", [(136.0, -50.0), (150.0, -30.0), (171.0, -0.5), (173.0, -1.0), (170.0, 0.0), (40.0, -1e10)]
)
def test_alpha_one_closed_form_at_large_beta_against_mpmath(beta, z):
    # past the series' reach the deleted closed form's head cancelled below
    # its own rounding: it gave -1.98e-225, -9.4e-225 and 1.66e35 at the
    # first three points, factorial(171) overflowed at beta = 173, at z = 0
    # it divided by z^(m-1), and at z = -1e10 nothing served the call
    ref = ml_alpha_one_oracle(beta, z)
    assert abs(mittag_leffler(MLParams(1.0, beta), z) - ref) <= 1e-9 * abs(ref)
    if z == -1e10:  # against the closed form at 80 digits, too
        assert ref == pytest.approx(1.9119631977748218e-55, rel=1e-15)


# --- negative axis: the contour branch and its fallback -------------------------


def _gll_shifts(alpha, beta):
    # how many times ml_gll_oracle applies its beta-lowering recurrence, each
    # of which multiplies the oracle's own error by 1/|z|
    shifts = 0
    while beta >= 1.0 + alpha - 1e-12:
        beta -= alpha
        shifts += 1
    return shifts


def test_ml_small_alpha_noninteger_beta_sweep():
    # the band where neither the series nor (before the contour) any double
    # branch certified: the 1e-9 contract across alpha < 1 and beta off the
    # integers, wherever the oracle's recurrence keeps its own accuracy
    bad = []
    count = 0
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        for beta in (0.3, 0.5, 0.9, 1.2, 1.5, 2.5, 3.0):
            for z in np.linspace(-50.0, -0.25, 10):
                z = float(z)
                if _gll_shifts(alpha, beta) > 3 and abs(z) < 1.0:
                    continue
                count += 1
                ref = ml_gll_oracle(alpha, beta, z)
                got = mittag_leffler(MLParams(alpha, beta), z)
                if abs(got - ref) > 1e-9 * abs(ref):
                    bad.append((alpha, beta, z, abs(got - ref) / abs(ref)))
    assert not bad, f"{len(bad)} of {count} points off by > 1e-9, first: {bad[:3]}"


def test_ml_alpha_one_noninteger_beta_sweep():
    zs = np.linspace(-50.0, -0.25, 60)
    for beta in (0.5, 1.5, 2.3, 3.7):
        for z in zs:
            ref = ml_alpha_one_oracle(beta, float(z))
            got = mittag_leffler(MLParams(1.0, beta), float(z))
            assert abs(got - ref) <= 1e-9 * abs(ref), (beta, float(z))


def test_contour_certificate_bounds_its_error():
    # the certificate is an error bound, not an estimate: check it against
    # the high-precision series wherever that is cheap, certified or not
    for alpha in (0.2, 0.45, 0.7, 0.95, 1.0):
        for beta in (0.3, 1.0, 1.0 + alpha + 0.05, 2.5):
            for z in (-0.25, -0.6, -1.5, -4.0, -9.0):
                value, cert = _MLTable(alpha, beta).contour(z)
                ref = _ml_bigfloat(alpha, beta, z)
                assert abs(value - ref) <= cert * abs(ref), (alpha, beta, z)


def test_contour_keeps_accuracy_at_high_beta_small_z():
    # lowering beta by E_{a,b+a} = (E_{a,b} - 1/Gamma(b)) / z would amplify
    # the error 1/|z| per shift (20 shifts here); the contour must not
    value, cert = _MLTable(0.1, 3.0).contour(-0.25)
    ref = _ml_bigfloat(0.1, 3.0, -0.25)
    assert cert <= _BRANCH_TARGET
    assert abs(value - ref) <= 1e-12 * abs(ref)
    assert mittag_leffler(MLParams(0.1, 3.0), -0.25) == pytest.approx(ref, rel=1e-12)


def test_contour_rejects_exponentially_small_values():
    # E_{1,1}(-50) = e^-50 ~ 2e-22 sits far below the quadrature's absolute
    # accuracy; the certificate must say so, and the recurrence's start e^z
    # serves it (the fallback refuses it: see below)
    for z in (-50.0, -700.0):
        value, cert = _MLTable(1.0, 1.0).contour(z)
        assert cert > _BRANCH_TARGET
        assert mittag_leffler(MLParams(1.0), z) == pytest.approx(math.exp(z), rel=1e-14)


@pytest.mark.parametrize("z", [-100.0, -400.0, -700.0])
def test_fallback_certifies_its_value_or_raises(z):
    # e^z is exponentially small next to the series' largest term (-100,
    # -400) and to the 40-digit contour's integrand (-700); uncertified, the
    # fallback returned 2.9e-39, 7.1e-74 and 2.1e-33 here
    try:
        value = _ml_bigfloat(1.0, 1.0, z)
    except RangeError:
        return
    assert abs(value - math.exp(z)) <= 1e-9 * math.exp(z)


@pytest.mark.parametrize("alpha", [1e-300, 1e-200])
def test_fallback_at_tiny_alpha_ends_in_a_value_or_range_error(alpha):
    # |z|^(1/alpha) overflowed in the fallback; as alpha -> 0 the Laplace
    # transform gives E_{alpha,beta}(z) -> 1 / (Gamma(beta) (1 - z)) = 1/18
    try:
        value = mittag_leffler(MLParams(alpha, 4.0), -2.0)
    except RangeError:
        return
    assert value == pytest.approx(1.0 / 18.0, rel=1e-9)


@pytest.mark.parametrize("z", [-1.0, -10.0, -30.0])
@pytest.mark.parametrize("beta", [117.5, 120.0, 150.0])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_ml_at_large_beta_is_a_value_or_a_package_error(alpha, beta, z):
    # the contour's amplification (sq_phibar / sq_mu)^-p overflowed a double
    # from beta of about 117 on, and the call ended in an OverflowError; at
    # alpha = 0.5, z = -30 the fallback raised RangeError before the
    # recurrence in beta served it
    try:
        got = mittag_leffler(MLParams(alpha, beta), z)
    except FracstabError:
        assert (alpha, z) != (0.5, -30.0)
        return
    ref = _ml_reference(alpha, beta, z)
    assert abs(got - ref) <= 1e-9 * abs(ref)


def test_ml_near_a_zero_beyond_series_reach():
    # E_{0.31,0.3}(-x) changes sign near x = 23, where no double-precision
    # value carries relative accuracy and the high-precision series would
    # need thousands of digits; the fallback evaluates the contour in mpmath
    for z in (-22.5, -23.0, -23.6):
        ref = ml_gll_oracle(0.31, 0.3, z)
        got = mittag_leffler(MLParams(0.31, 0.3), z)
        assert abs(got - ref) <= 1e-9 * abs(ref), z


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.floats(0.1, 1.0),
    beta=st.floats(0.3, 3.0),
    z=st.floats(-50.0, 0.0),
)
@example(alpha=0.1, beta=0.3, z=-10.0)
@example(alpha=0.1, beta=1.0, z=-1.94)
def test_ml_negative_axis_never_raises(alpha, beta, z):
    assert math.isfinite(mittag_leffler(MLParams(alpha, beta), z))


# --- negative axis: the recurrence in beta ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.05, 1.0),
    beta=st.floats(math.log(3.0), math.log(150.0), exclude_min=True).map(math.exp),
    z=st.floats(-50.0, 0.0, exclude_max=True),
)
@example(alpha=0.5, beta=150.0, z=-10.0)  # the bound fails; the fallback serves
@example(alpha=0.05, beta=30.0, z=-50.0)
@example(alpha=0.2, beta=20.0, z=-5.0)
def test_ml_large_beta_negative_axis_against_oracles(alpha, beta, z):
    # Every value within 1e-9, and the recurrence's bound a bound wherever it
    # certifies.  alpha = 1 points are left to the tests at alpha = 1, whose
    # oracle is the confluent hypergeometric form.
    assume(alpha < 1.0 and beta > 3.0)
    ref = _ml_reference(alpha, beta, z)
    assert abs(mittag_leffler(MLParams(alpha, beta), z) - ref) <= 1e-9 * abs(ref)
    out = _MLTable(alpha, beta).recurrence(z)
    if out is not None and out[1] <= _BRANCH_TARGET:
        assert abs(out[0] - ref) <= out[1] * abs(ref)


@pytest.mark.parametrize("alpha, beta, z, why", [(0.9, 150.0, -30.0, "g"), (0.5, 150.0, -10.0, "bound")])
def test_ml_recurrence_falls_through_to_the_parents_value(alpha, beta, z, why):
    # At (0.9, 150, -30) a computed g = Gamma(b) E leaves [0, 1) on the way
    # up (1.012 at b = 110.4); at (0.5, 150, -10) each step above
    # b^alpha = |z| amplifies the rounding, to a bound of 7e-7.  Both fall
    # through to the fallback, which serves them as before.
    out = _MLTable(alpha, beta).recurrence(z)
    if why == "g":
        assert out is None
    else:
        assert out is not None and out[1] > _BRANCH_TARGET
    got = mittag_leffler(MLParams(alpha, beta), z)
    assert got == _ml_bigfloat(alpha, beta, z)
    ref = ml_series_oracle(alpha, beta, z)
    assert abs(got - ref) <= 1e-9 * abs(ref)


def test_large_beta_on_the_negative_axis_loads_no_mpmath():
    # A fresh interpreter: the tests themselves import mpmath.  The fallback
    # took 36-59 ms at these points; the recurrence about 0.1 ms.
    points = ((0.5, 3.5, -50.0), (0.5, 5.0, -30.0), (0.9, 30.0, -50.0))
    code = (
        "import sys\n"
        "from fracstab.special import MLParams, mittag_leffler\n"
        f"for a, b, z in {points!r}:\n"
        "    print(repr(mittag_leffler(MLParams(a, b), z)))\n"
        "print('mpmath' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *values, loaded = proc.stdout.split()
    assert loaded == "False"
    for (alpha, beta, z), value in zip(points, values, strict=True):
        ref = _ml_reference(alpha, beta, z)
        assert abs(float(value) - ref) <= 1e-9 * abs(ref), (alpha, beta, z)


# --- the series' early stop ------------------------------------------------------


@st.composite
def _doom_cases(draw):
    alpha = draw(st.floats(0.05, 1.0, exclude_min=True))
    # beta = 1 has the sharper bound, so the least slack
    beta = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0).map(lambda f: alpha + f * (6.0 - alpha))))
    # half of the z where the series' peak x^(1/alpha) lies in [2, 40],
    # around the edge of what the series can serve
    z = draw(st.one_of(
        st.floats(-80.0, -0.25),
        st.floats(2.0, 40.0).map(lambda peak: -min(80.0, max(0.25, peak**alpha))),
    ))
    return alpha, beta, z


def _series_against_transcription(alpha, beta, z):
    """series(z) and _series_per_point(z), the series without a stop, checked:
    bit-identical wherever series returns a value, and None only where the
    transcription fails the target."""
    out = _MLTable(alpha, beta).series(z)
    ref = _series_per_point(alpha, beta, z)
    if out is None:
        assert ref is None or ref[1] > _BRANCH_TARGET, (alpha, beta, z, ref)
    else:
        assert out == ref, (alpha, beta, z)
    return out, ref


@settings(max_examples=300, deadline=None)
@given(case=_doom_cases())
@example(case=(0.9, 0.9, -0.25))
@example(case=(1.0, 1.0, -5.0))
@example(case=(0.05, 0.05, -1.3))
def test_series_stops_only_where_it_would_fail(case):
    # Sound: the stop fires only where the whole sum would not have served
    # the point either, so no served value can change.
    _series_against_transcription(*case)


def test_series_stop_catches_most_failing_attempts():
    # Effective: on Example 1's order the stop ends at least 90% of the
    # series attempts that fail (z in [-40, -0.25], step 0.01).
    failing = stopped = 0
    for i in range(3976):
        z = -0.25 - 0.01 * i
        out, ref = _series_against_transcription(0.9, 1.0, z)
        if ref is None or ref[1] > _BRANCH_TARGET:
            failing += 1
            stopped += out is None
    assert failing > 3000 and stopped >= 0.9 * failing, (stopped, failing)


def test_series_stops_early_at_example_1s_order():
    # The whole sum at (0.9, 1, -7) fails with an estimate of 2.7e-9, which
    # a prediction from the series' peak term alone does not prove
    assert _MLTable(0.9, 1.0).series(-7.0) is None


# --- batched evaluation -------------------------------------------------------------


_BATCH_Z = st.one_of(
    st.floats(-0.2499, 0.2499),
    st.floats(-20.0, -5.0),
    st.floats(-60.0, 0.0),
    st.floats(0.0, ML_Z_MAX),
)
_BATCH_PARAMS = st.one_of(
    st.tuples(st.floats(0.1, 1.0), st.floats(0.3, 3.0)),
    st.tuples(st.just(1.0), st.integers(1, 6).map(float)),
    st.tuples(st.floats(0.5, 1.0), st.floats(3.0, 40.0, exclude_min=True)),
)


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 -- the outcome compared is the error itself
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(
    ab=_BATCH_PARAMS,
    zs=st.lists(_BATCH_Z, min_size=1, max_size=8),
    bad=st.lists(st.sampled_from([math.nan, math.inf, -math.inf, 5.5, 1e6]), max_size=2),
    at=st.integers(0, 8),
)
def test_ml_many_equals_scalar_bit_for_bit(ab, zs, bad, at):
    # Each value is the scalar call's to the bit; where some scalar call
    # raises (bad z, or a value past the double range at small alpha and
    # z > 0), the batch raises the first such error, type and message.
    params = MLParams(*ab)
    zs = zs[:at] + bad + zs[at:]
    scalar = [_outcome(lambda z=z: mittag_leffler(params, z)) for z in zs]
    got = _outcome(lambda: mittag_leffler_many(params, zs))
    errors = [o for o in scalar if isinstance(o, tuple)]
    if errors:
        assert got == errors[0]
        return
    assert got.shape == (len(zs),) and got.tobytes() == np.array(scalar).tobytes()
    assert mittag_leffler_many(params, zs).tobytes() == got.tobytes()  # no state kept between calls


def test_ml_many_against_series_oracle():
    for (alpha, beta), zs in (
        ((0.9, 1.0), (-0.1, -3.0, -7.5, -12.0, -19.0, 2.0)),
        ((0.5, 1.5), (-0.2, -6.0, -15.0, 4.0)),
        ((1.0, 3.0), (-9.0, -25.0)),
    ):
        got = mittag_leffler_many(MLParams(alpha, beta), np.array(zs))
        for v, z in zip(got, zs):
            ref = ml_series_oracle(alpha, beta, z)
            assert abs(v - ref) <= 1e-9 * abs(ref), (alpha, beta, z)


def test_ml_many_input_shape_and_non_numeric_input():
    zs = np.array([[-1.0, -8.0], [0.1, -30.0]])
    got = mittag_leffler_many(MLParams(0.7, 1.2), zs)
    assert got.shape == (2, 2)
    assert got.tolist() == [[mittag_leffler(MLParams(0.7, 1.2), float(z)) for z in row] for row in zs]
    assert mittag_leffler_many(MLParams(0.7), []).shape == (0,)
    for bad in (["a", -1.0], [[-1.0], [-1.0, -2.0]], [1j], ["1.5"], [None]):
        with pytest.raises(DomainError):
            mittag_leffler_many(MLParams(0.7), bad)


@pytest.mark.parametrize(
    "bad", ["a", "1.5", None, [1.0], 1 + 2j], ids=["str", "numeric_str", "None", "list", "complex"]
)
def test_non_numeric_z_is_a_domain_error_in_both_entries(bad):
    params = MLParams(0.9)
    with pytest.raises(DomainError, match="^mittag_leffler requires a real number: "):
        mittag_leffler(params, bad)
    if isinstance(bad, list):  # a list is a batch of one for the batched entry
        assert mittag_leffler_many(params, bad).tolist() == [mittag_leffler(params, 1.0)]
    else:
        with pytest.raises(DomainError, match="^mittag_leffler_many requires real numbers: "):
            mittag_leffler_many(params, bad)


@pytest.mark.parametrize("z", [10**400, -10**400], ids=["huge_int", "huge_negative_int"])
def test_ints_beyond_the_double_range_are_range_errors_in_both_entries(z):
    params = MLParams(0.9)
    with pytest.raises(RangeError):
        mittag_leffler(params, z)
    with pytest.raises(RangeError):
        mittag_leffler_many(params, [z])


def _series_per_point(alpha, beta, z):
    """The series with 1/Gamma computed at every term, no table and no stop."""
    total = comp = abs_sum = 0.0
    zk, tiny_streak, k = 1.0, 0, 0
    while True:
        arg = alpha * k + beta
        if arg > 170.0 or abs(zk) > 1e250:
            return None
        term = zk * reciprocal_gamma(arg)
        abs_sum += abs(term)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= 1e-16 * (abs(total) + 1e-300):
            tiny_streak += 1
            if tiny_streak >= 2 and k >= 4:
                break
        else:
            tiny_streak = 0
        k += 1
        zk *= z
    return total, (0.5 * k + 10.0) * _EPS * abs_sum / abs(total)


def _contour_per_point(alpha, beta, z):
    """The contour with every node factor computed for this z alone."""
    mu, h, n, log_target = _contour_params(alpha, beta, _LOG_CONTOUR_TARGET, _LOG_EPS)
    total = abs_total = 0.0
    for k in range(n + 1):
        u = h * k
        s = mu * (1.0 + 1j * u) ** 2
        log_s = cmath.log(s)
        term = cmath.exp(s + (alpha - beta) * log_s) / (cmath.exp(alpha * log_s) - z) * (2.0 * mu * (1j - u))
        weight = 1.0 if k == 0 else 2.0
        total += weight * term.imag
        abs_total += weight * abs(term)
    scale = h / (2.0 * math.pi)
    value = scale * total
    return value, (_CONTOUR_DISC_FACTOR * math.exp(log_target) + _EPS) * scale * abs_total / abs(value)


def test_tables_reproduce_the_per_point_arithmetic():
    # The shared 1/Gamma list and contour node factors change no bit of the
    # series or the contour, nor of the certificates that pick the branch;
    # the series' stop returns None only where the whole sum fails.
    served = 0
    for alpha, beta in ((0.9, 1.0), (0.5, 1.5), (0.2, 0.7), (1.0, 2.0), (0.7, 3.0)):
        for z in (-0.3, -1.7, -4.0, -9.5, -17.0, -33.0, 0.2, 2.5):
            out, _ = _series_against_transcription(alpha, beta, z)
            served += out is not None and out[1] <= _BRANCH_TARGET
            if z < 0.0:
                assert _MLTable(alpha, beta).contour(z) == _contour_per_point(alpha, beta, z), (alpha, beta, z)
    assert served == 21, served  # the other 19 points are left to the later branches
