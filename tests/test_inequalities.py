import functools
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
from fracstab.expressions import parse, sample_on
from fracstab.inequalities import (
    MAX_INSTANCES,
    SUITE_NAMES,
    EnvelopeSpec,
    PowerTerm,
    _instance,
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

from oracles import SUITE_KINDS, composite_texts, profile_texts


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
        res = _instance("nr4_identity", int(rng.integers(0, 2**31)), GRID)()
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


def test_nr6_verdict_fails_past_its_tolerance():
    # beta < 1 breaks the hypothesis behind f <= 0: the violation exceeds the
    # tolerance, and the verdict fails without a refinement
    phi = env("positive_decreasing", "1/(1+t)")
    x = series(lambda t: (1.0 - t / 6.0) ** 4 + 0.01)
    r = verify_decomposition_nr6(phi, x, 0.3, FracOrder(0.5))
    assert r.max_violation > r.tol > 0.0
    assert np.isnan(r.refinement_ratio)
    assert not r.verdict


_POSITIVE = series(lambda t: 1.0 + t)
_COARSE = series(lambda t: 1.0 + t, TimeGrid(0.0, 0.02, 250))
_HALF = FracOrder(0.5)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: verify_product_increasing(env("mono_decreasing", "exp(-t)"), _POSITIVE, _HALF),
         EnvelopeError, "needs an increasing envelope"),
        (lambda: verify_odd_power_envelope(env("mono_decreasing", "1"), 0, _POSITIVE, -0.5, _HALF),
         DomainError, "beta must be >= 0"),
        (lambda: verify_odd_power_envelope(env("mono_increasing", "t"), 0, _POSITIVE, 1.0, _HALF),
         EnvelopeError, "needs a decreasing envelope"),
        (lambda: verify_composite([], [], _HALF), ShapeError, "at least one series"),
        (lambda: verify_composite([[PowerTerm(1.0, 2.0)]] * 2, [_POSITIVE, _COARSE], _HALF),
         ShapeError, "share one grid"),
        (lambda: verify_decomposition_nr4(env("nonneg_decreasing", "1"), _POSITIVE, 0.5, _HALF),
         DomainError, "beta must be >= 1"),
        (lambda: verify_decomposition_nr6(env("positive_decreasing", "1"), _POSITIVE, -1.0, _HALF),
         DomainError, "beta must be >= 0"),
    ],
    ids=["product_increasing_envelope", "odd_power_beta", "odd_power_envelope", "composite_empty",
         "composite_grids", "nr4_beta", "nr6_beta"],
)
def test_verifiers_refuse_inputs_outside_their_hypotheses(call, error, message):
    with pytest.raises(error, match=message):
        call()


# --- generator and suites ---------------------------------------------------------------------


def test_generate_instance_deterministic():
    a1 = _instance("nr1", 0, GRID)
    a2 = _instance("nr1", 0, GRID)
    assert a1.func is a2.func is verify_product_decreasing
    assert a1.args[0].expression == a2.args[0].expression
    assert np.array_equal(a1.args[1].values, a2.args[1].values)
    assert a1.args[2] == a2.args[2]
    b = _instance("nr1", 1, GRID)
    assert (b.args[0].expression != a1.args[0].expression
            or not np.array_equal(b.args[1].values, a1.args[1].values))


def test_generate_instance_seed0_golden():
    from fracstab.expressions import to_text

    envelope, x, order = _instance("nr1", 0, GRID).args
    assert to_text(envelope.expression) == "0.273923374643 + 0.131402507504*exp(-1.63587696644*t)"
    assert order.alpha == pytest.approx(0.9415651814089914, abs=0.0)
    assert x.values[0] == pytest.approx(1.3508820062025857, abs=1e-15)


def test_generated_increasing_envelope_rejected_by_decreasing_verifier():
    envelope, x, order = _instance("nr1_increasing", 3, GRID).args
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


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_instance_trees_match_parsed_oracle_text(name):
    # The generators build the tree that parse gives for the text they once
    # wrote, draw for draw, so the suites' instances did not change.
    draw_x = inequalities._draw_x
    drawn = []  # the x trees the instance draws, in order

    def recording_draw_x(rng, x_kind):
        drawn.append(draw_x(rng, x_kind))
        return drawn[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inequalities, "_draw_x", recording_draw_x)
        for seed in range(200):
            drawn.clear()
            call = _instance(name, seed, GRID)
            if name in SUITE_KINDS:
                built = [a.expression for a in call.args if isinstance(a, EnvelopeSpec)] + drawn
                env, xt, _, _ = profile_texts(seed, name)
                texts = [xt] if name.startswith("lemma") else [env, xt]  # the power rule takes no envelope
            else:
                groups = call.args[0]
                built = [tree for g, x in zip(groups, drawn) for tree in (g[0].envelope.expression, x)]
                texts = [text for env, xt, _ in composite_texts(seed, name)[1] for text in (env, xt)]
            assert built == [parse(text) for text in texts], (name, seed)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suites_are_exact_at_alpha_one(name):
    # At alpha = 1 the L1 scheme is the backward difference, whose kernel is
    # still positive and decreasing: each true claim holds for the discrete
    # sums with no violation at all.
    for child in np.random.SeedSequence(5).generate_state(60):
        call = _instance(name, int(child), inequalities._DEFAULT_GRID)
        report = call.func(*call.args[:-1], FracOrder(1.0))  # the order is the last argument
        assert report.verdict, (name, int(child))
        if name != "nr4_identity":  # an IdentityResidual reports a relative residual
            assert report.max_violation == 0.0, (name, int(child), report.max_violation)


def _oracle_call(name, seed, grid):
    """Suite name's verifier on the instance that the oracle draws at seed."""

    def x_series(text):
        return SampleSeries.from_function(grid, functools.partial(sample_on, parse(text)))

    if name not in SUITE_KINDS:
        alpha, drawn = composite_texts(seed, name)
        groups = [
            [PowerTerm(c, beta, p, EnvelopeSpec("nonneg_decreasing", parse(env)) if i == 0 else None)
             for i, (c, beta, p) in enumerate(terms)]
            for env, _, terms in drawn
        ]
        return verify_composite(groups, [x_series(xt) for _, xt, _ in drawn], FracOrder(alpha))
    env, xt, beta, alpha = profile_texts(seed, name)
    phi, x, order = EnvelopeSpec(SUITE_KINDS[name][0], parse(env)), x_series(xt), FracOrder(alpha)
    if name == "nr1":
        return verify_product_decreasing(phi, x, order)
    if name == "nr1_increasing":
        return verify_product_increasing(phi, x, order)
    if name == "nr2":
        return verify_odd_power_envelope(phi, seed % 3, x, beta, order)
    if name == "nr4_identity":
        return verify_decomposition_nr4(phi, x, beta, order)
    if name == "nr6":
        return verify_decomposition_nr6(phi, x, beta, order)
    return verify_power_rule(x, beta, order)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_report_is_its_verifier_on_the_oracle_instance(name):
    # Instance k of run_suite(name, n, seed) is drawn at the child seed
    # SeedSequence(seed).generate_state(n)[k]: every draw (envelope, x,
    # exponents, coefficients, order) is pinned by the oracle's.
    grid = TimeGrid(0.0, 0.02, 100)
    for seed in (0, 1, 2024):
        result = run_suite(name, 3, seed, grid)
        children = np.random.SeedSequence(seed).generate_state(3)
        for report, child in zip(result.reports, children):
            assert report == _oracle_call(name, int(child), grid), (name, seed, int(child))


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


# --- the tolerance policy ---------------------------------------------------------


# on GRID (h = 0.01) the tolerance is 10 * h * scale = 0.1 * scale
@pytest.mark.parametrize(
    "violation, verdict",
    [
        (0.05, True),  # within tolerance
        (0.2, False),  # above tolerance: no refinement
    ],
)
def test_make_report_policy(violation, verdict):
    # rhs = 1 everywhere, lhs above it by violation at the last node
    rhs = np.ones(GRID.n_nodes)
    lhs = rhs.copy()
    lhs[-1] += violation
    r = make_report("synthetic", GRID, lhs, rhs)
    assert r.verdict is verdict
    assert r.max_violation == pytest.approx(violation, rel=1e-12)
    assert r.tol == pytest.approx(0.1, rel=1e-12)
    assert math.isnan(r.refinement_ratio)


def test_make_report_direction():
    rhs = np.ones(GRID.n_nodes)
    lhs = rhs.copy()
    lhs[0] = 5.0  # a violation at node 0 only

    r = make_report("s", GRID, lhs, rhs)
    assert not r.verdict and r.max_violation == 4.0 and r.slack.values[0] == -4.0
    # direction -1 checks lhs >= rhs: node 0 holds, every other node has slack 0
    r = make_report("s", GRID, lhs, rhs, direction=-1)
    assert r.verdict and r.slack.values[0] == 4.0


# --- the detection limit of a verdict ----------------------------------------------------

_SMALL = TimeGrid(0.0, 0.01, 100)


def _lowering(node, amount):
    """make_report with its RHS lowered by amount at one node."""

    def lowered_report(name, grid, lhs, rhs, direction=1):
        rhs = rhs.copy()
        rhs[node] -= amount
        return make_report(name, grid, lhs, rhs, direction)

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
    # at one interior node j fails its verdict exactly when delta * scale -
    # slack_j > 10 h scale', scale' the new max |RHS|; u puts delta * scale -
    # slack_j at u * 10 h scale.  nr1 and nr2 go through the
    # `_envelope_product` kernel, lemma3, nr8 and nr11 through `_power_sum`.
    check = _instance(suite, seed, _SMALL)
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
