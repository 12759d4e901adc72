import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracstab import inequalities

from fracstab.errors import (
    DomainError,
    EnvelopeError,
    PreconditionError,
    ShapeError,
    SingularityError,
    UnknownCheckError,
)
from fracstab.expressions import parse
from fracstab.inequalities import (
    _COMPOSITE_FLAVORS,
    MAX_INSTANCES,
    PROFILES,
    SUITE_NAMES,
    EnvelopeSpec,
    PowerTerm,
    _composite_instance,
    generate_instance,
    make_report,
    run_suite,
    verify_composite,
    verify_decomposition_nr4,
    verify_decomposition_nr6,
    verify_odd_power_envelope,
    verify_power_rule,
    verify_product_decreasing,
    verify_product_increasing,
)
from fracstab.operators import FracOrder, SampleSeries, TimeGrid

from oracles import composite_texts, profile_texts


GRID = TimeGrid(0.0, 0.01, 500)


def series(fn, grid=GRID):
    return SampleSeries.from_function(grid, fn)


def env(kind, text):
    return EnvelopeSpec(kind, parse(text))


def assert_same_numbers(a, b):
    """Two reports with equal lhs, rhs and slack at every node, and the same tol and verdict."""
    assert np.array_equal(a.lhs, b.lhs)
    assert np.array_equal(a.rhs, b.rhs)
    assert np.array_equal(a.slack.values, b.slack.values)
    assert a.tol == b.tol and a.verdict == b.verdict


# --- envelope binding -----------------------------------------------------------


def test_envelope_kind_checks():
    with pytest.raises(EnvelopeError):
        EnvelopeSpec("wiggly", parse("1"))
    e = env("mono_decreasing", "exp(-t)")
    assert np.all(np.diff(e.sample(GRID)) < 0)
    with pytest.raises(EnvelopeError):
        env("mono_decreasing", "t").sample(GRID)
    with pytest.raises(EnvelopeError):
        env("mono_increasing", "exp(-t)").sample(GRID)
    with pytest.raises(EnvelopeError):
        env("nonneg_decreasing", "1 - 2*t/(1+t)").sample(GRID)  # goes negative
    with pytest.raises(EnvelopeError):
        env("positive_decreasing", "1 - t/5").sample(GRID)  # hits zero at t=5


# --- product inequalities ---------------------------------------------------------


def test_product_decreasing_constant_envelope_equality():
    r = verify_product_decreasing(env("mono_decreasing", "1"), series(lambda t: t**2), FracOrder(0.7))
    scale = np.max(np.abs(r.rhs))
    assert np.max(np.abs(r.slack.values)) <= 1e-12 * scale
    assert r.verdict


def test_product_decreasing_instances():
    r = verify_product_decreasing(
        env("mono_decreasing", "exp(-t)"),
        series(lambda t: t**2, TimeGrid(0.0, 1e-3, 5000)),
        FracOrder(0.7),
    )
    assert r.verdict and r.max_violation <= r.tol
    r2 = verify_product_decreasing(
        env("mono_decreasing", "1/(1+t)"),
        series(lambda t: 1.0 + np.sin(t) ** 2, TimeGrid(0.0, 1e-3, 5000)),
        FracOrder(0.5),
    )
    assert r2.verdict


def test_product_decreasing_rejects_bad_inputs():
    with pytest.raises(PreconditionError) as exc:
        verify_product_decreasing(env("mono_decreasing", "1"), series(lambda t: np.sin(t)), FracOrder(0.5))
    assert "node" in str(exc.value)
    with pytest.raises(EnvelopeError):
        verify_product_decreasing(env("mono_decreasing", "1 + t"), series(lambda t: t + 1.0), FracOrder(0.5))


def test_product_increasing_instances():
    r = verify_product_increasing(env("mono_increasing", "1"), series(lambda t: t**2), FracOrder(0.6))
    assert np.max(np.abs(r.slack.values)) <= 1e-12 * max(np.max(np.abs(r.rhs)), 1e-300)
    r2 = verify_product_increasing(
        env("mono_increasing", "exp(t/2)"), series(lambda t: t**2), FracOrder(0.8)
    )
    assert r2.verdict
    # phi = 1 + t, x = 1: LHS = caputo(1+t) = t^(1-a)/Gamma(2-a) >= 0 = RHS
    r3 = verify_product_increasing(
        env("mono_increasing", "1 + t"), series(lambda t: np.ones_like(t)), FracOrder(0.5)
    )
    assert r3.verdict
    assert np.all(r3.slack.values[1:] > 0.0)


# --- odd-power envelope -------------------------------------------------------------


def test_odd_power_reduces_to_product_at_n0_beta1():
    x = series(lambda t: 1.0 + np.cos(t) ** 2)
    phi = env("mono_decreasing", "exp(-t)")
    a = verify_odd_power_envelope(phi, 0, x, 1.0, FracOrder(0.5))
    b = verify_product_decreasing(phi, x, FracOrder(0.5))
    assert_same_numbers(a, b)


def test_odd_power_exp_envelope():
    phi = env("mono_decreasing", "exp(-t)")
    r = verify_odd_power_envelope(phi, 1, series(lambda t: 1.0 + t**2), 2.0, FracOrder(0.6))
    assert r.verdict


def test_odd_power_sign_changing_envelope():
    # decreasing but sign-changing phi is allowed; odd power keeps monotonicity
    phi = env("mono_decreasing", "1 - 2*t/(1+t)")
    r = verify_odd_power_envelope(phi, 1, series(lambda t: 1.0 + t**2), 2.0, FracOrder(0.6))
    assert r.verdict


def test_odd_power_beta_zero():
    # x^0 = 1: the check collapses to caputo(phi^(2n+1)) <= 0 for decreasing phi
    phi = env("mono_decreasing", "exp(-t)")
    r = verify_odd_power_envelope(phi, 1, series(lambda t: 0.5 + t), 0.0, FracOrder(0.5))
    assert r.verdict
    assert np.max(r.lhs[1:]) <= r.tol


def test_odd_power_singularity_guard():
    with pytest.raises(SingularityError):
        verify_odd_power_envelope(
            env("mono_decreasing", "1"), 0, series(lambda t: t**2), 0.5, FracOrder(0.5)
        )


# --- power rule -----------------------------------------------------------------------


def test_power_rule_identity_at_beta_one():
    r = verify_power_rule(series(lambda t: 1.0 + np.sin(t) ** 2), 1.0, FracOrder(0.5))
    assert np.max(np.abs(r.slack.values)) <= 1e-12 * np.max(np.abs(r.rhs))


def test_power_rule_nonneg_and_signed():
    r = verify_power_rule(series(lambda t: np.sin(t) + 2.0), 3.0, FracOrder(0.5))
    assert r.verdict
    r2 = verify_power_rule(series(lambda t: np.sin(t)), Fraction(2), FracOrder(0.5))
    assert r2.verdict


def test_power_rule_domain_errors():
    x = series(lambda t: np.sin(t))
    with pytest.raises(DomainError):
        verify_power_rule(series(lambda t: t + 1.0), 0.5, FracOrder(0.5))
    with pytest.raises(DomainError):
        verify_power_rule(x, Fraction(3), FracOrder(0.5))  # odd numerator
    with pytest.raises(PreconditionError):
        verify_power_rule(x, 2.0, FracOrder(0.5))  # sign-changing x


def test_power_rule_fraction_with_odd_denominator():
    r = verify_power_rule(series(lambda t: np.sin(2 * t)), Fraction(4, 3), FracOrder(0.7))
    assert r.verdict


# --- composite --------------------------------------------------------------------------


def test_composite_single_term_reduces_to_power_rule():
    cases = [(np.sin, Fraction(2)), (lambda t: 1.0 + np.sin(t) ** 2, 2.5)]
    for fn, beta in cases:
        x = series(fn)
        a = verify_composite([[PowerTerm(c=1.0, beta=beta)]], [x], FracOrder(0.5))
        b = verify_power_rule(x, beta, FracOrder(0.5))
        assert_same_numbers(a, b)


def test_composite_example1_candidate(example1_run):
    traj, _ = example1_run
    order = traj.system.order
    x1, x2 = traj.states
    env_t = EnvelopeSpec("positive_decreasing", parse("1/(1+t)"))
    triples = [
        [PowerTerm(c=1.0, beta=Fraction(2))],
        [PowerTerm(c=1.0, beta=Fraction(2)), PowerTerm(c=1.0, beta=Fraction(2), envelope=env_t)],
    ]
    r = verify_composite(triples, [x1, x2], order)
    assert r.verdict


def test_composite_example2_candidate(example2_run):
    traj, _ = example2_run
    env_t = EnvelopeSpec("positive_decreasing", parse("exp(-t/2)"))
    triples = [[PowerTerm(c=1.0, beta=Fraction(6)), PowerTerm(c=1.0, beta=Fraction(6), envelope=env_t)]]
    r = verify_composite(triples, list(traj.states), traj.system.order)
    assert r.verdict


def test_composite_validation():
    x = series(lambda t: np.sin(t))
    with pytest.raises(ShapeError):
        verify_composite([[PowerTerm(1.0, Fraction(2))]], [], FracOrder(0.5))
    with pytest.raises(ShapeError):
        verify_composite([], [x], FracOrder(0.5))
    with pytest.raises(PreconditionError):
        verify_composite([[PowerTerm(1.0, 2.0)]], [x], FracOrder(0.5))  # float beta, signed x
    with pytest.raises(DomainError):
        PowerTerm(-1.0, Fraction(2))
    with pytest.raises(DomainError):
        PowerTerm(1.0, Fraction(2), p=0.5)
    with pytest.raises(DomainError):
        PowerTerm(1.0, Fraction(1, 2))
    with pytest.raises(DomainError):
        PowerTerm(1.0, Fraction(2), envelope=env("mono_increasing", "t"))


# --- proof identities ----------------------------------------------------------------------


def test_nr4_identity_random_inputs():
    rng = np.random.default_rng(17)
    for _ in range(20):
        profile = PROFILES["nr4_identity"]
        envelope, x, beta, order = generate_instance(int(rng.integers(0, 2**31)), profile)
        res = verify_decomposition_nr4(envelope, x, beta, order)
        assert res.max_residual <= 1e-10 * res.scale


def test_nr4_identity_constant_envelope():
    res = verify_decomposition_nr4(
        env("nonneg_decreasing", "1"), series(lambda t: 1.0 + t**2), 2.0, FracOrder(0.5)
    )
    assert res.max_residual <= 1e-12 * res.scale


def test_nr4_identity_example2_data(example2_run):
    traj, _ = example2_run
    x = traj.states[0]
    res = verify_decomposition_nr4(
        env("nonneg_decreasing", "exp(-t/2)"), x, 6.0, traj.system.order
    )
    assert res.max_residual <= 1e-10 * res.scale


def test_nr6_components():
    phi = env("positive_decreasing", "2/(1+t)")
    r = verify_decomposition_nr6(phi, series(lambda t: 1.0 + t**2), 2.0, FracOrder(0.5))
    assert r.verdict
    # f <= 0 (hypothesis side) and g >= 0 (increasing-product side), to tolerance
    assert np.max(r.lhs) <= r.tol
    assert np.max(r.rhs) <= r.tol


def test_nr6_constant_envelope_collapses():
    phi = env("positive_decreasing", "1")
    x = series(lambda t: 1.0 + np.sin(t) ** 2)
    r = verify_decomposition_nr6(phi, x, 2.0, FracOrder(0.5))
    pr = verify_power_rule(x, 2.0, FracOrder(0.5))
    # f equals the power-rule deficit, g vanishes identically
    assert np.allclose(r.lhs, -pr.slack.values, atol=1e-13)
    assert np.max(np.abs(r.rhs)) <= 1e-13


def test_nr6_beta_zero_consistency():
    phi = env("positive_decreasing", "0.5 + exp(-t)")
    r = verify_decomposition_nr6(phi, series(lambda t: 1.0 + t), 0.0, FracOrder(0.5))
    assert r.verdict


def test_nr6_requires_positive_inputs():
    with pytest.raises(PreconditionError):
        verify_decomposition_nr6(
            env("positive_decreasing", "1"), series(lambda t: t), 2.0, FracOrder(0.5)
        )
    with pytest.raises(EnvelopeError):
        verify_decomposition_nr6(
            env("mono_decreasing", "exp(-t)"), series(lambda t: t + 1.0), 2.0, FracOrder(0.5)
        )


def test_nr6_verdict_goes_through_refinement():
    # beta < 1 breaks the hypothesis behind f <= 0: the violation exceeds the
    # tolerance and does not shrink under halving, so refinement fails it
    phi = env("positive_decreasing", "1/(1+t)")
    x = series(lambda t: (1.0 - t / 6.0) ** 4 + 0.01)
    r = verify_decomposition_nr6(phi, x, 0.3, FracOrder(0.5))
    assert r.max_violation > r.tol > 0.0
    assert 0.9 < r.refinement_ratio < 1.5
    assert not r.verdict
    # without a source function the grid cannot be halved
    r2 = verify_decomposition_nr6(phi, SampleSeries(GRID, x.values), 0.3, FracOrder(0.5))
    assert np.isnan(r2.refinement_ratio) and not r2.verdict
    assert (r2.max_violation, r2.tol) == (r.max_violation, r.tol)


# --- generator and suites ---------------------------------------------------------------------


def test_generate_instance_deterministic():
    profile = PROFILES["nr1"]
    a1 = generate_instance(0, profile)
    a2 = generate_instance(0, profile)
    assert a1[0].expression == a2[0].expression
    assert np.array_equal(a1[1].values, a2[1].values)
    assert a1[2] == a2[2] and a1[3] == a2[3]
    b = generate_instance(1, profile)
    assert b[0].expression != a1[0].expression or not np.array_equal(b[1].values, a1[1].values)


def test_generate_instance_seed0_golden():
    from fracstab.expressions import to_text

    envelope, x, _, order = generate_instance(0, PROFILES["nr1"])
    assert to_text(envelope.expression) == "0.273923374643 + 0.131402507504*exp(-1.63587696644*t)"
    assert order.alpha == pytest.approx(0.9415651814089914, abs=0.0)
    assert x.values[0] == pytest.approx(1.3508820062025857, abs=1e-15)


def test_generated_increasing_envelope_rejected_by_decreasing_verifier():
    profile = PROFILES["nr1_increasing"]
    envelope, x, _, order = generate_instance(3, profile)
    with pytest.raises(EnvelopeError):
        verify_product_decreasing(envelope, x, order)


def test_all_suites_pass_briefly():
    for name in SUITE_NAMES:
        res = run_suite(name, 20, seed=123)
        assert res.all_passed, name


def test_run_suite_deterministic():
    a = run_suite("nr1", 10, seed=5)
    b = run_suite("nr1", 10, seed=5)
    assert a.max_violation == b.max_violation
    assert [r.verdict for r in a.reports] == [r.verdict for r in b.reports]


def test_run_suite_unknown_name():
    with pytest.raises(UnknownCheckError):
        run_suite("bogus", 5, seed=0)


@pytest.mark.parametrize(
    "instances, seed",
    [
        (10**400, 1),
        (0, 1),
        (MAX_INSTANCES + 1, 1),
        (2.5, 1),
        (True, 1),
        ("3", 1),
        (1, -1),
        (1, 2.5),
        (1, math.nan),
        (1, "a"),
        (1, None),
    ],
)
def test_run_suite_rejects_bad_counts_and_seeds(instances, seed):
    with pytest.raises(DomainError):
        run_suite("nr1", instances, seed)


def test_run_suite_accepts_numpy_integers():
    a = run_suite("nr1", np.int64(2), np.uint32(5))
    assert [r.max_violation for r in a.reports] == [r.max_violation for r in run_suite("nr1", 2, 5).reports]


def test_max_instances_is_shared_with_config():
    from fracstab import config

    assert config.MAX_INSTANCES is MAX_INSTANCES


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_instance_trees_match_parsed_oracle_text(name):
    # The generators build the tree that parse gives for the text they once
    # wrote, draw for draw, so the suites' instances did not change.
    for seed in range(200):
        if name in _COMPOSITE_FLAVORS:
            groups, series, _ = _composite_instance(seed, name, GRID)
            built = [(g[0].envelope.expression, s.source.args[0]) for g, s in zip(groups, series)]
            texts = composite_texts(seed, name)
        else:
            profile = PROFILES[name]
            envelope, x, _, _ = generate_instance(seed, profile)
            built = [(envelope.expression, x.source.args[0])]
            texts = [profile_texts(seed, profile.envelope_kind, profile.x_kind)]
        assert built == [(parse(env), parse(xt)) for env, xt in texts], (name, seed)


def test_duality_of_product_verifiers():
    # increasing positive phi passes the increasing check; 1/phi (decreasing)
    # passes the decreasing check on the same data
    x = series(lambda t: 1.0 + np.cos(t) ** 2)
    up = env("mono_increasing", "1 + 0.5*t")
    down = env("mono_decreasing", "1/(1 + 0.5*t)")
    r_up = verify_product_increasing(up, x, FracOrder(0.6))
    r_down = verify_product_decreasing(down, x, FracOrder(0.6))
    assert r_up.verdict == r_down.verdict


def test_constant_envelope_equality_across_verifiers():
    x = series(lambda t: 1.0 + t**2)
    order = FracOrder(0.7)
    checks = [
        verify_product_decreasing(env("mono_decreasing", "1"), x, order),
        verify_product_increasing(env("mono_increasing", "1"), x, order),
        verify_odd_power_envelope(env("mono_decreasing", "1"), 0, x, 1.0, order),
    ]
    for r in checks:
        scale = max(np.max(np.abs(r.rhs)), 1e-300)
        assert np.max(np.abs(r.slack.values)) <= 1e-12 * scale


# --- the tolerance-and-refinement policy ---------------------------------------------


def _synthetic(violation, scale=lambda h: 1.0):
    """compute(grid) -> (lhs, rhs): rhs = scale(h) everywhere, lhs above it by
    violation(h) at the last node; records the steps it was called with."""
    calls = []

    def compute(grid):
        calls.append(grid.h)
        rhs = np.full(grid.n_nodes, scale(grid.h))
        lhs = rhs.copy()
        lhs[-1] += violation(grid.h)
        return lhs, rhs

    return compute, calls


# on GRID (h = 0.01) at alpha = 0.5 the tolerance is 10 * h * scale = 0.1 * scale
@pytest.mark.parametrize(
    "violation, scale, refinable, verdict, ratio, steps",
    [
        # within tolerance: no halving
        (lambda h: 0.05, lambda h: 1.0, True, True, None, [0.01]),
        # above tolerance and not refinable
        (lambda h: 0.2, lambda h: 1.0, False, False, None, [0.01]),
        # shrinks 8x to 0.025 <= tol2 = 0.05
        (lambda h: 0.2 * (h / 0.01) ** 3, lambda h: 1.0, True, True, 8.0, [0.01, 0.005]),
        # vanishes on the halved grid
        (lambda h: 0.2 if h == 0.01 else 0.0, lambda h: 1.0, True, True, math.inf, [0.01, 0.005]),
        # shrinks only 1.2x although 0.1 <= tol2 = 0.2 (scale 4 on the halved grid)
        (lambda h: 0.12 if h == 0.01 else 0.1, lambda h: 1.0 if h == 0.01 else 4.0, True, False, 1.2,
         [0.01, 0.005]),
        # shrinks 2x but stays above tol2 = 0.05
        (lambda h: 0.2 * h / 0.01, lambda h: 1.0, True, False, 2.0, [0.01, 0.005]),
    ],
)
def test_make_report_policy(violation, scale, refinable, verdict, ratio, steps):
    compute, calls = _synthetic(violation, scale)
    r = make_report("synthetic", GRID, compute, refinable=refinable)
    assert r.verdict is verdict
    assert r.max_violation == pytest.approx(violation(0.01), rel=1e-12)
    assert r.tol == pytest.approx(0.1 * scale(0.01), rel=1e-12)
    if ratio is None:
        assert math.isnan(r.refinement_ratio)
    else:
        assert r.refinement_ratio == pytest.approx(ratio, rel=1e-9)
    assert calls == pytest.approx(steps, rel=1e-15)


def test_make_report_skip_nodes_and_direction():
    def compute(grid):
        rhs = np.ones(grid.n_nodes)
        lhs = rhs.copy()
        lhs[0] = 5.0  # a violation at node 0 only
        return lhs, rhs

    assert not make_report("s", GRID, compute, refinable=False).verdict
    r = make_report("s", GRID, compute, refinable=False, skip_nodes=1)
    assert r.verdict and r.max_violation == 0.0
    assert r.slack.values[0] == -4.0  # skipped nodes are still reported
    # direction -1 checks lhs >= rhs: node 0 holds, every other node has slack 0
    r = make_report("s", GRID, compute, refinable=False, direction=-1)
    assert r.verdict and r.slack.values[0] == 4.0


# --- the detection limit of a verdict ----------------------------------------------------

_SMALL = TimeGrid(0.0, 0.01, 100)


def _plain(x):
    """x without its source function, so a verdict on it cannot refine."""
    return SampleSeries(x.grid, x.values)


def _instance_check(suite, seed):
    """The check of one real instance of a suite on _SMALL, on series without a source.

    nr1 and nr2 go through the `_envelope_product` kernel, lemma3, nr8 and
    nr11 through `_power_sum`.
    """
    if suite in _COMPOSITE_FLAVORS:
        groups, xs, order = _composite_instance(seed, suite, _SMALL)
        return lambda: verify_composite(groups, [_plain(x) for x in xs], order)
    envelope, x, beta, order = generate_instance(seed, dataclasses.replace(PROFILES[suite], grid=_SMALL))
    if suite == "nr1":
        return lambda: verify_product_decreasing(envelope, _plain(x), order)
    if suite == "nr2":
        return lambda: verify_odd_power_envelope(envelope, seed % 3, _plain(x), beta, order)
    return lambda: verify_power_rule(_plain(x), beta, order)


def _lowering(node, amount):
    """make_report with the RHS that compute returns lowered by amount at one node."""

    def lowered_report(name, grid, compute, refinable, direction=1, skip_nodes=0):
        def lowered(g):
            lhs, rhs = compute(g)
            rhs = rhs.copy()
            rhs[node] -= amount
            return lhs, rhs

        return make_report(name, grid, lowered, refinable, direction, skip_nodes)

    return lowered_report


@settings(max_examples=60, deadline=None)
@given(
    suite=st.sampled_from(["nr1", "nr2", "lemma3", "nr8", "nr11"]),
    seed=st.integers(0, 2**32 - 1),
    node=st.integers(1, _SMALL.n_steps - 1),
    u=st.floats(0.0, 3.0).filter(lambda u: abs(u - 1.0) > 1e-3),
)
def test_a_verdict_fails_exactly_past_its_tolerance(suite, seed, node, u):
    # Lowering the RHS of a real, exactly holding instance by delta * scale
    # at one interior node j fails a verdict that cannot refine exactly when
    # delta * scale - slack_j > 10 h scale', scale' the new max |RHS|; u puts
    # delta * scale - slack_j at u * 10 h scale.
    check = _instance_check(suite, seed)
    base = check()
    assume(base.max_violation == 0.0)
    h = _SMALL.h
    slack_j = base.slack.values[node]
    amount = slack_j + u * 10.0 * h * float(np.max(np.abs(base.rhs)))
    rhs = base.rhs.copy()
    rhs[node] -= amount
    tol = 10.0 * h * float(np.max(np.abs(rhs)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inequalities, "make_report", _lowering(node, amount))
        report = check()
    assert np.array_equal(report.rhs, rhs) and np.array_equal(report.lhs, base.lhs)
    assert report.tol == tol and math.isnan(report.refinement_ratio)
    assert report.verdict == (amount - slack_j <= tol)
