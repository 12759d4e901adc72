import math
import warnings

import numpy as np
import pytest

from fracstab.errors import DomainError, EnvelopeError, EvalError, PreconditionError, RangeError
from fracstab.expressions import evaluate, parse
from fracstab.operators import SampleSeries, TimeGrid, caputo_l1
from fracstab.presets import get_preset, run_preset
from fracstab.reporting import stability_summary_text
from fracstab.solver import SystemDef, Trajectory, solve
from fracstab.stability import (
    LyapunovCandidate,
    StabilityReport,
    check_dissipation,
    check_local_ball,
    check_ml_envelope,
    check_sandwich,
    evaluate_candidate,
)


def zero_trajectory(dim=2, alpha=0.8, n=200):
    system = SystemDef.from_strings(dim, alpha, ["0"] * dim, [0.0] * dim)
    return solve(system, TimeGrid(0.0, 0.01, n))


def hand_trajectory(*columns):
    # a Trajectory with the given state columns on t = 0, 0.1, 0.2, ...
    grid = TimeGrid(0.0, 0.1, len(columns[0]) - 1)
    system = SystemDef.from_strings(len(columns), 0.5, ["0"] * len(columns), [c[0] for c in columns])
    return Trajectory(grid, tuple(SampleSeries(grid, c) for c in columns), system)


def summary_line(report, prefix):
    lines = stability_summary_text(report).splitlines()
    return next(line for line in lines if line.startswith(prefix))


# --- candidate validation ----------------------------------------------------------


def test_candidate_accepts_strings_and_validates():
    c = LyapunovCandidate("x1^2 + x2^2", "r^2", "2*r^2", "r^2")
    assert c.class_k_lower == parse("r^2")
    with pytest.raises(DomainError):
        LyapunovCandidate("x1^2", class_k_lower="r^2 + 1")  # does not vanish at 0
    with pytest.raises(DomainError):
        LyapunovCandidate("x1^2", class_k_lower="0 - r")  # decreasing
    with pytest.raises(DomainError):
        LyapunovCandidate("x1^2", class_k_lower="r + t")  # must be r-only
    with pytest.raises(DomainError):
        LyapunovCandidate("r^2")  # V must not use r


# --- evaluate_candidate ---------------------------------------------------------------


def test_candidate_on_zero_trajectory():
    traj = zero_trajectory()
    v = evaluate_candidate(LyapunovCandidate("x1^2 + x2^2"), traj)
    assert np.all(v.values == 0.0)


def test_candidate_example1_initial_value(example1_run):
    traj, _ = example1_run
    v = evaluate_candidate(LyapunovCandidate("x1^2 + x2^2 + x2^2/(1+t)"), traj)
    assert v.values[0] == pytest.approx(300.0, rel=1e-14)


def test_candidate_time_only():
    traj = zero_trajectory(n=50)
    v = evaluate_candidate(LyapunovCandidate("t"), traj)
    assert np.allclose(v.values, traj.grid.nodes())


def test_candidate_fault_names_its_node():
    traj = zero_trajectory(n=100)  # t = 0, 0.01, ..., 1
    V = LyapunovCandidate("x1^2 + 1/(t - 0.5)")
    with pytest.raises(EvalError) as exc:
        evaluate_candidate(V, traj)
    assert str(exc.value) == "candidate failed at node 50 (t=0.5): division by zero in '1.0/(t - 0.5)'"


def test_candidate_fault_at_the_last_of_10001_nodes_names_it():
    ts = np.linspace(0.0, 1.0, 10001)
    traj = hand_trajectory(ts, 1.0 - ts)  # t = 0, 0.1, ..., 1000
    with pytest.raises(EvalError) as exc:
        evaluate_candidate(LyapunovCandidate("x1^2 + x2^2 + 1/(t - 1000)"), traj)
    assert str(exc.value) == "candidate failed at node 10000 (t=1000): division by zero in '1.0/(t - 1000.0)'"


def test_candidate_fault_is_the_one_evaluate_raises_at_that_node():
    # Python's float pow overflows where numpy's pow of float64 gives inf
    x1 = np.full(11, 2.0)
    x1[-1] = 10.0
    traj = hand_trajectory(x1, np.full(11, 400.0))
    with pytest.raises(EvalError) as want:
        evaluate(parse("x1^x2"), t=1.0, x=(10.0, 400.0))
    with pytest.raises(EvalError) as exc:
        evaluate_candidate(LyapunovCandidate("x1^x2"), traj)
    assert str(exc.value) == f"candidate failed at node 10 (t=1): {want.value}"


# --- sandwich ----------------------------------------------------------------------------


def test_sandwich_example_bounds(example1_run, example2_run):
    traj1, rep1 = example1_run
    assert rep1.sandwich.verdict and np.min(rep1.sandwich.slack.values) >= 0.0
    assert rep1.sandwich.tol == 0.0 and rep1.sandwich.max_violation == 0.0
    traj2, rep2 = example2_run
    assert rep2.sandwich.verdict


def test_sandwich_forced_failure(example1_run):
    traj, _ = example1_run
    v = LyapunovCandidate("x1^2", class_k_lower="2*r^2", class_k_upper="3*r^2")
    out = check_sandwich(v, traj)
    assert not out.verdict
    assert np.min(out.slack.values) < 0.0
    assert out.max_violation == -np.min(out.slack.values)
    # the summary line against the sides computed here from the trajectory
    x1, r = traj.states[0].values, traj.norms()
    slack = np.minimum(x1**2 - 2.0 * r**2, 3.0 * r**2 - x1**2)
    worst = int(np.argmin(slack))
    expected = f"sandwich: FAIL worst_slack={format(np.min(slack), '.17g')} worst_node={worst}"
    assert summary_line(StabilityReport("probe", sandwich=out), "sandwich:") == expected


def test_sandwich_upper_bound_touching_v_passes():
    # V = x1^2 (1 - t) meets its upper bound r^2 = x1^2 at t = 0 only
    traj = hand_trajectory([0.5, -0.25, 0.75, 0.125, -1.0])
    out = check_sandwich(LyapunovCandidate("x1^2*(1 - t)", "0.5*r^2", "r^2"), traj)
    assert out.verdict and out.max_violation == 0.0 and out.tol == 0.0
    assert np.min(out.slack.values) == 0.0 and np.argmin(out.slack.values) == 0
    assert np.all(out.slack.values[1:] > 0.0)
    line = summary_line(StabilityReport("probe", sandwich=out), "sandwich:")
    assert line == "sandwich: pass worst_slack=0 worst_node=0"


def test_sandwich_out_of_double_range_raises_without_warning():
    # V - gamma1(|x|) = -1.7e308 - 2.5e307 overflows first at node 2, where |x| = 5
    traj = hand_trajectory([1.0, 2.0, 5.0, 5.0, 1.0])
    V = LyapunovCandidate("-1.7e308 + 0*x1", "1e306*r^2", "1e306*r^2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=r"sandwich check .* node 2 \(t=0\.2"):
            check_sandwich(V, traj)


def test_sandwich_on_an_overflowing_norm_raises_without_warning():
    # |x| = 1e200 squares past the double range at node 0: the norm, not
    # the bound it feeds, is named, as a RangeError rather than a BindError
    traj = hand_trajectory([1e200, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=r"sandwich check .* node 0 \(t=0\)"):
            check_sandwich(LyapunovCandidate("0*x1", "r^2", "r^2"), traj)


def test_dissipation_on_an_overflowing_norm_raises_without_warning():
    # the dissipation check reads |x| through the same guard as the other
    # three: |x| = 1e200 at node 0 is named there, not as a BindError on t
    traj = hand_trajectory([1e200, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=r"dissipation check leaves the double range at node 0 \(t=0\)"):
            check_dissipation(LyapunovCandidate("0*x1", dissipation_rate="r^2"), traj)


def test_sandwich_needs_bounds(example2_run):
    traj, _ = example2_run
    with pytest.raises(DomainError):
        check_sandwich(LyapunovCandidate("x1^2"), traj)


# --- dissipation ---------------------------------------------------------------------------


def test_dissipation_example1(example1_run):
    _, rep = example1_run
    assert rep.dissipation.verdict
    assert rep.dissipation.max_violation <= rep.dissipation.tol


def test_dissipation_zero_trajectory():
    traj = zero_trajectory(alpha=0.7)
    v = LyapunovCandidate("x1^2 + x2^2", dissipation_rate="r^2")
    rep = check_dissipation(v, traj)
    assert rep.verdict
    assert rep.max_violation == 0.0


def test_dissipation_needs_a_rate(example2_run):
    traj, _ = example2_run
    with pytest.raises(DomainError, match="gamma3"):
        check_dissipation(LyapunovCandidate("x1^6"), traj)


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
def test_dissipation_example2_all_orders(alpha):
    # the certificate claims every order in (0, 1]
    system = SystemDef.from_strings(1, alpha, ["-x1^3 - exp(t/2)*x1^3"], [0.1])
    traj = solve(system, TimeGrid(0.0, 0.01, 2000))
    v = LyapunovCandidate("x1^6 + exp(-t/2)*x1^6", dissipation_rate="12*r^8")
    rep = check_dissipation(v, traj)
    assert rep.verdict, (alpha, rep.max_violation, rep.tol)


# B = sum E beta x_i^(beta-1) f_i worked out by hand from each example's V and
# system, as a function of (t, x1, x2)
HAND_BOUNDS = {
    # V = x1^2 + x2^2 + x2^2/(1+t), f = (-x1 - x2/(1+t), x1 - x2)
    "example1": lambda t, x1, x2: -2 * x1**2 + 2 * x1 * x2 - 2 * x2**2 - 2 * x2**2 / (1 + t),
    # V = x1^6 + exp(-t/2) x1^6, f = -x1^3 - exp(t/2) x1^3
    "example2": lambda t, x1, x2: -6 * x1**8 * (2 + np.exp(t / 2) + np.exp(-t / 2)),
    # V = (1 + exp(-t)) (x1^2 + x2^2)/2: B = (1 + exp(-t)) (x . f)
    "example3": lambda t, x1, x2: (1 + np.exp(-t)) * (
        x1 * (-x1 - x2 + np.sin(t) * (x1**2 + x2**2)) + x2 * (x1 - x2 + np.cos(t) * (x1**2 + x2**2))
    ),
}


# gamma3 = c r^p as each example states it
STATED_RATES = {"example1": (1.0, 2), "example2": (12.0, 8), "example3": (0.5, 2)}


def hand_bound(name, traj):
    x1 = traj.states[0].values
    x2 = traj.states[1].values if len(traj.states) > 1 else None
    return HAND_BOUNDS[name](traj.grid.nodes(), x1, x2)


@pytest.mark.parametrize("name", sorted(HAND_BOUNDS))
def test_dissipation_is_the_hand_derived_bound_at_the_stated_rate(name, request):
    traj, rep = request.getfixturevalue(f"{name}_run")
    d = rep.dissipation
    B = hand_bound(name, traj)
    assert np.allclose(d.lhs, B, rtol=1e-12, atol=1e-12 * np.max(np.abs(B)))
    c, p = STATED_RATES[name]
    assert np.allclose(d.rhs, -c * traj.norms() ** p, rtol=1e-15, atol=0.0)
    assert d.verdict and d.max_violation == 0.0 and d.tol == 0.0 and math.isnan(d.refinement_ratio)
    assert summary_line(rep, "dissipation:") == "dissipation: pass max_violation=0 tol=0"


@pytest.mark.parametrize(
    "name, rate, c, p",
    [("example1", "1.5*r^2", 1.5, 2), ("example2", "25*r^8", 25.0, 8), ("example2", "50*r^8", 50.0, 8),
     ("example3", "2*r^2", 2.0, 2)],
)
def test_dissipation_fails_at_an_overstated_rate(name, rate, c, p, request):
    # the slack against the hand-derived B, -c |x|^p - B, goes negative on
    # the example's own trajectory; the check must fail by that much
    traj, _ = request.getfixturevalue(f"{name}_run")
    V = LyapunovCandidate(get_preset(name).candidate.expression, dissipation_rate=rate)
    rep = check_dissipation(V, traj)
    hand_slack = -c * traj.norms() ** p - hand_bound(name, traj)
    assert np.min(hand_slack) < 0.0
    assert not rep.verdict and rep.tol == 0.0
    assert rep.max_violation == pytest.approx(-np.min(hand_slack), rel=1e-9)


@pytest.mark.parametrize(
    "V", ["x1*x2", "x1^2 - x2^2", "-x1^2", "sin(x1)", "(x1 + x2)^2", "x1^0.5", "x1^t", "t + x1^2", "x1^2*x2",
          "x1^2/x2", "2", "t^2", "x3^2"],
)
def test_dissipation_refuses_a_v_outside_the_power_form(V):
    traj = hand_trajectory([0.5, 0.25, 0.125], [0.5, 0.25, 0.125])
    with pytest.raises(DomainError):
        check_dissipation(LyapunovCandidate(V, dissipation_rate="r^2"), traj)


@pytest.mark.parametrize("V", ["(1 + t)*x1^2", "x1^2/(2 - t)", "(exp(-t) - 0.9)*x1^2"])
def test_dissipation_needs_each_envelope_non_negative_and_decreasing(V):
    traj = hand_trajectory([0.5, 0.25, 0.125])
    with pytest.raises(EnvelopeError):
        check_dissipation(LyapunovCandidate(V, dissipation_rate="r^2"), traj)


def test_dissipation_needs_an_odd_power_on_a_non_negative_state():
    V = LyapunovCandidate("x1^3", dissipation_rate="r^2")
    with pytest.raises(PreconditionError, match="x1 >= 0"):
        check_dissipation(V, hand_trajectory([0.5, -0.25, 0.125]))
    # on x1 >= 0 the same V is checked: f = 0, so B = 0 <= -|x|^2 fails where x1 != 0
    rep = check_dissipation(V, hand_trajectory([0.5, 0.0, 0.125]))
    assert np.array_equal(rep.lhs, np.zeros(3)) and not rep.verdict and rep.max_violation == 0.25


def test_dissipation_reads_factors_and_divisors_in_t_into_the_envelope():
    # f = -x1 on x1 = 1, 0.5, 0.25: B = 2 E x1 (-x1) with E = exp(-t)/2*3, plus
    # 1 * (-x1) from the beta = 1 term
    x1 = np.array([1.0, 0.5, 0.25])
    grid = TimeGrid(0.0, 0.1, 2)
    traj = Trajectory(grid, (SampleSeries(grid, x1),), SystemDef.from_strings(1, 0.5, ["-x1"], [1.0]))
    rep = check_dissipation(LyapunovCandidate("exp(-t)*x1^2/2*3 + x1", dissipation_rate="r^2"), traj)
    assert np.allclose(rep.lhs, -3 * np.exp(-grid.nodes()) * x1**2 - x1, rtol=1e-15, atol=0.0)


def test_composite_derivative_consistency(example1_run):
    # direct caputo of V(t, x(t)) equals the sum over the candidate's terms
    traj, _ = example1_run
    order = traj.system.order
    grid = traj.grid
    direct = caputo_l1(
        evaluate_candidate(LyapunovCandidate("x1^2 + x2^2 + x2^2/(1+t)"), traj), order
    ).values
    x1, x2 = (s.values for s in traj.states)
    ts = grid.nodes()
    parts = (
        caputo_l1(SampleSeries(grid, x1**2), order).values
        + caputo_l1(SampleSeries(grid, x2**2), order).values
        + caputo_l1(SampleSeries(grid, x2**2 / (1.0 + ts)), order).values
    )
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(direct - parts)) <= 1e-12 * scale


# --- Mittag-Leffler envelope ---------------------------------------------------------------


def test_envelope_example1(example1_run):
    _, rep = example1_run
    assert rep.envelope.verdict
    assert rep.envelope.max_violation == 0.0


def test_envelope_sharpness_probe(example1_run):
    traj, _ = example1_run
    tight = check_ml_envelope(traj, rate=0.5, amplification=0.95)
    assert not tight.verdict
    # 0.95 * 1.05 < 1, so the very first node already violates
    assert tight.slack.values[0] < 0.0


def test_envelope_fast_rate_fails(example1_run):
    traj, _ = example1_run
    rep = check_ml_envelope(traj, rate=50.0, amplification=2.0)
    assert not rep.verdict


def test_envelope_zero_trajectory():
    traj = zero_trajectory(alpha=0.9)
    rep = check_ml_envelope(traj, rate=0.5, amplification=2.0)
    assert rep.verdict


def test_envelope_rate_validation(example2_run):
    traj, _ = example2_run
    with pytest.raises(DomainError):
        check_ml_envelope(traj, rate=0.0, amplification=2.0)
    with pytest.raises(DomainError):
        check_ml_envelope(traj, rate=0.5, amplification=0.0)


def test_envelope_out_of_double_range_raises_without_warning(example1_run):
    traj, _ = example1_run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=r"ml_envelope check .* node 0 \(t=0\)"):
            check_ml_envelope(traj, 0.5, 1e307)


# --- local ball -------------------------------------------------------------------------------


def test_ball_example3(example3_run):
    traj, rep = example3_run
    assert rep.ball.verdict and rep.ball.tol == 0.0
    assert np.max(rep.ball.lhs) < 0.5
    assert np.all(rep.ball.rhs == 0.5)


def test_ball_too_small_fails_at_origin(example3_run):
    traj, _ = example3_run
    out = check_local_ball(traj, 0.1)
    assert not out.verdict
    assert np.flatnonzero(out.slack.values < 0.0)[0] == 0  # |x0| ~ 0.36 > 0.1
    expected = f"ball: FAIL radius={format(0.1, '.17g')} max_norm={format(np.max(traj.norms()), '.17g')}"
    assert summary_line(StabilityReport("probe", ball=out), "ball:") == expected


def test_ball_boundary_on_a_hand_built_trajectory():
    x1, x2 = np.array([0.3, 0.5, 0.7, 0.2, 0.1]), np.array([0.1, -0.2, 0.3, 0.0, 0.05])
    traj = hand_trajectory(x1, x2)
    norms = np.sqrt(x1**2 + x2**2)
    top = np.max(norms)
    at_max = check_local_ball(traj, top)
    assert at_max.verdict and at_max.max_violation == 0.0
    assert np.array_equal(at_max.slack.values, top - norms)
    below = check_local_ball(traj, np.nextafter(top, 0.0))
    assert not below.verdict and below.max_violation > 0.0
    assert np.flatnonzero(below.slack.values < 0.0)[0] == np.argmax(norms) == 2


def test_ball_out_of_double_range_raises_without_warning():
    # |x| = sqrt(x1^2) overflows at node 1, where x1 = 1e200
    traj = hand_trajectory([0.25, 1e200, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=r"ball check .* node 1 \(t=0\.1"):
            check_local_ball(traj, 0.5)


def test_ball_zero_trajectory():
    traj = zero_trajectory()
    assert check_local_ball(traj, 0.5).verdict


def test_ball_radius_validation(example3_run):
    traj, _ = example3_run
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(DomainError):
            check_local_ball(traj, bad)


# --- preset plumbing ---------------------------------------------------------------------------


# each example's certificate written out by hand, not read from PRESET_KEYS:
# candidate, ml_rate, ml_amplification, ball_radius
EXAMPLE_CERTIFICATES = {
    "example1": (LyapunovCandidate("x1^2 + x2^2 + x2^2/(1+t)", "r^2", "2*r^2", "r^2"), 0.5, 2.0, None),
    "example2": (LyapunovCandidate("x1^6 + exp(-t/2)*x1^6", "r^6", "2*r^6", "12*r^8"), None, None, None),
    "example3": (LyapunovCandidate("(1 + exp(-t))*(x1^2 + x2^2)/2", dissipation_rate="0.5*r^2"), None, None, 0.5),
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_CERTIFICATES))
def test_each_preset_carries_its_examples_certificate(name):
    preset = get_preset(name)
    assert (preset.candidate, preset.ml_rate, preset.ml_amplification, preset.ball_radius) == EXAMPLE_CERTIFICATES[name]


def test_example3_candidate_takes_the_plug_in_envelope():
    preset = get_preset("example3", phi_text="1/(1+t)")
    assert preset.candidate == LyapunovCandidate("(1 + 1/(1+t))*(x1^2 + x2^2)/2", dissipation_rate="0.5*r^2")
    assert (preset.ml_rate, preset.ml_amplification, preset.ball_radius) == (None, None, 0.5)


def test_example3_custom_phi():
    preset = get_preset("example3", phi_text="1/(1+t)")
    traj, rep = run_preset(preset)
    assert rep.all_passed


def test_example3_bad_phi_rejected():
    from fracstab.errors import EnvelopeError

    with pytest.raises(EnvelopeError):
        get_preset("example3", phi_text="t")  # increasing

    with pytest.raises(EnvelopeError):
        get_preset("example3", phi_text="exp(-t) - 0.5")  # goes negative


def test_unknown_preset():
    with pytest.raises(DomainError):
        get_preset("example9")


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_phi_is_refused_by_the_examples_that_do_not_read_it(name):
    with pytest.raises(DomainError, match="example3 only"):
        get_preset(name, phi_text="exp(-t)")
