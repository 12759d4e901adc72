import math
import warnings

import numpy as np
import pytest

from fracstab import stability

from fracstab.errors import DomainError, EvalError, RangeError
from fracstab.expressions import parse
from fracstab.operators import SampleSeries, TimeGrid, caputo_l1
from fracstab.presets import get_preset, run_preset
from fracstab.reporting import stability_summary_text
from fracstab.solver import SystemDef, Trajectory, solve
from fracstab.verdicts import make_report
from fracstab.stability import (
    LyapunovCandidate,
    StabilityReport,
    _refined,
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
    assert "candidate failed at node 50 (t=0.5" in str(exc.value)
    assert "division by zero" in str(exc.value)


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


@pytest.mark.parametrize(
    "rate, verdict, solves, ratio",
    [
        ("4*r^2", True, [], None),  # within tol: no re-solve
        ("6*r^2", False, [0.005], 0.9611483228714589),  # fails after one re-solve
    ],
)
def test_dissipation_resolves_at_half_the_step(rate, verdict, solves, ratio):
    # example 1's system and candidate on [0, 5] at h = 0.01
    preset = get_preset("example1")
    traj = solve(preset.system, TimeGrid.between(0.0, 5.0, 0.01))
    V = LyapunovCandidate(preset.candidate.expression, dissipation_rate=rate)
    steps = []

    def counted_solve(system, grid):
        steps.append(grid.h)
        return solve(system, grid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stability, "solve", counted_solve)
        rep = check_dissipation(V, traj)
    assert rep.verdict is verdict
    assert steps == solves
    assert rep.slack.grid == traj.grid  # the report holds the own grid's data
    if ratio is None:
        assert rep.max_violation <= rep.tol and math.isnan(rep.refinement_ratio)
    else:
        assert rep.max_violation > rep.tol and rep.refinement_ratio == ratio


def _synthetic(grid, violation, scale):
    """make_report on rhs = scale everywhere and lhs above it by violation at the last node."""
    rhs = np.full(grid.n_nodes, scale)
    lhs = rhs.copy()
    lhs[-1] += violation
    return make_report("synthetic", grid, lhs, rhs)


# on h = 0.01 the tolerance is 10 * h * scale = 0.1 at scale 1, so a
# violation of 0.12 or 0.2 fails there; the halved grid's is 0.05 * scale
@pytest.mark.parametrize(
    "violation, half_violation, half_scale, verdict, ratio",
    [
        (0.2, 0.025, 1.0, True, 8.0),  # shrinks 8x to 0.025 <= tol2 = 0.05
        (0.2, 0.0, 1.0, True, math.inf),  # vanishes on the halved grid
        (0.12, 0.1, 4.0, False, 1.2),  # shrinks only 1.2x although 0.1 <= tol2 = 0.2
        (0.2, 0.1, 1.0, False, 2.0),  # shrinks 2x but stays above tol2 = 0.05
    ],
)
def test_refinement_rule(violation, half_violation, half_scale, verdict, ratio):
    grid = TimeGrid(0.0, 0.01, 500)
    report = _synthetic(grid, violation, 1.0)
    assert not report.verdict
    r = _refined(report, _synthetic(grid.halved(), half_violation, half_scale))
    assert r.verdict is verdict
    assert r.refinement_ratio == pytest.approx(ratio, rel=1e-9)
    assert (r.name, r.slack, r.max_violation, r.tol) == (report.name, report.slack, report.max_violation, report.tol)


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
