import math

import numpy as np
import pytest

from fracstab.errors import DivergenceError, DomainError, EvalError, ShapeError
from fracstab.expressions import evaluate, parse, sample_on
import fracstab.solver
from fracstab.operators import _FFT_MIN_TERMS, SampleSeries, TimeGrid, rl_integral
from fracstab.presets import get_preset
from fracstab.solver import SystemDef, convergence_study, solve
from fracstab.special import MLParams, mittag_leffler

from oracles import classical_pece_trapezoid, fit_order, ml_series_oracle, pece_direct


def linear_decay(alpha):
    return SystemDef.from_strings(1, alpha, ["-x1"], [1.0])


def example1_system(alpha):
    return SystemDef.from_strings(2, alpha, ["-x1 - x2/(1+t)", "x1 - x2"], [-10.0, 10.0])


# --- SystemDef validation ----------------------------------------------------


def test_systemdef_validation():
    with pytest.raises(ShapeError):
        SystemDef.from_strings(2, 0.5, ["-x1"], [1.0, 2.0])
    with pytest.raises(ShapeError):
        SystemDef.from_strings(1, 0.5, ["-x3"], [1.0])
    with pytest.raises(ShapeError):
        SystemDef.from_strings(1, 0.5, ["r + x1"], [1.0])
    with pytest.raises(DomainError):
        SystemDef.from_strings(1, 0.5, ["-x1"], [math.nan])


# --- basic solves --------------------------------------------------------------


def test_zero_field_constant_trajectory():
    system = SystemDef.from_strings(1, 0.7, ["0"], [7.0])
    traj = solve(system, TimeGrid(0.0, 0.05, 100))
    assert np.all(traj.states[0].values == 7.0)


def test_first_node_is_x0_bit_exact():
    system = example1_system(0.9)
    traj = solve(system, TimeGrid(0.0, 0.01, 10))
    assert traj.states[0].values[0] == -10.0
    assert traj.states[1].values[0] == 10.0


def test_solver_matches_mittag_leffler():
    traj = solve(linear_decay(0.9), TimeGrid(0.0, 1e-3, 5000))
    params = MLParams(0.9)
    ts = traj.grid.nodes()
    ref = np.array([mittag_leffler(params, -float(t) ** 0.9) for t in ts])
    assert np.max(np.abs(traj.states[0].values - ref)) < 1e-5


def test_time_only_field_is_rl_integral():
    # with f = f(t) the corrector is the product-trapezoid RL integral of f
    alpha = 0.6
    text = "cos(3*t) + t^2/4"
    grid = TimeGrid(0.0, 0.01, 400)
    traj = solve(SystemDef.from_strings(1, alpha, [text], [0.5]), grid)
    f = SampleSeries(grid, sample_on(parse(text), grid.nodes()))
    expected = 0.5 + rl_integral(f, alpha).values
    assert np.max(np.abs(traj.states[0].values - expected)) <= 1e-13


def test_alpha_one_matches_classical_pece():
    system = example1_system(1.0)
    grid = TimeGrid(0.0, 1e-3, 2000)
    traj = solve(system, grid)

    def rhs(t, x):
        return np.array([evaluate(e, t=t, x=tuple(x)) for e in system.rhs])

    ref = classical_pece_trapezoid(rhs, 0.0, system.x0, grid.h, grid.n_steps)
    assert np.max(np.abs(traj.matrix() - ref)) < 1e-8


def test_scaling_equivariance_for_linear_fields():
    grid = TimeGrid(0.0, 0.01, 500)
    base = solve(example1_system(0.8), grid).matrix()
    c = 3.7
    scaled_sys = SystemDef.from_strings(
        2, 0.8, ["-x1 - x2/(1+t)", "x1 - x2"], [-10.0 * c, 10.0 * c]
    )
    scaled = solve(scaled_sys, grid).matrix()
    denom = np.maximum(np.abs(c * base), 1e-30)
    assert np.max(np.abs(scaled - c * base) / denom) < 1e-10


def test_determinism_bit_identical():
    grid = TimeGrid(0.0, 0.01, 300)
    a = solve(example1_system(0.9), grid).matrix()
    b = solve(example1_system(0.9), grid).matrix()
    assert np.array_equal(a, b)


def test_divergence_error_carries_last_step():
    system = SystemDef.from_strings(1, 0.8, ["x1^3"], [3.0])
    with pytest.raises(DivergenceError) as exc:
        solve(system, TimeGrid(0.0, 0.05, 400))
    assert 0 <= exc.value.last_step < 400


def test_predictor_leaving_the_finite_range_is_a_divergence():
    system = SystemDef.from_strings(1, 1.0, ["1.5e308"], [0.0])
    with pytest.raises(DivergenceError, match="predictor left the finite range at step 1") as exc:
        solve(system, TimeGrid(0.0, 2.0, 1))
    assert exc.value.last_step == 0


@pytest.mark.parametrize("n_steps", [1, 7, 1100])
def test_each_solve_evaluates_the_rhs_through_rhs_at_2n_plus_1_times(monkeypatch, n_steps):
    # the benchmark's tracer counts solver.rhs_evals by rebinding _rhs_at
    calls = []
    rhs_at = fracstab.solver._rhs_at

    def counting_rhs_at(*args):
        calls.append(args)
        return rhs_at(*args)

    monkeypatch.setattr(fracstab.solver, "_rhs_at", counting_rhs_at)
    solve(example1_system(0.9), TimeGrid(0.0, 0.01, n_steps))
    assert len(calls) == 2 * n_steps + 1


def test_rhs_eval_error_carries_context():
    system = SystemDef.from_strings(1, 0.5, ["x1/(t - 0.05)"], [1.0])
    with pytest.raises(EvalError) as exc:
        solve(system, TimeGrid(0.0, 0.05, 10))
    assert "t=" in str(exc.value)


def test_rhs_eval_error_names_the_component_that_faults():
    system = SystemDef.from_strings(2, 0.5, ["-x1", "sqrt(x1 - 0.99) + x2"], [1.0, 1.0])
    with pytest.raises(EvalError) as exc:
        solve(system, TimeGrid(0.0, 0.01, 10))
    assert str(exc.value) == (
        "rhs2 failed at t=0.01: sqrt of negative value in 'sqrt(x1 - 0.99)' in 'sqrt(x1 - 0.99) + x2'"
    )


# --- refinement behaviour --------------------------------------------------------


def test_grid_refinement_order_on_example1():
    alpha = 0.9
    system = example1_system(alpha)
    study = convergence_study(system, 2.0, (2e-2, 1e-2, 5e-3))
    expected = min(2.0, 1.0 + alpha)
    assert study.fitted_order == pytest.approx(expected, abs=0.4)


def test_convergence_study_linear_decay():
    study = convergence_study(linear_decay(0.5), 1.0, (1e-2, 5e-3, 2.5e-3))
    assert 1.2 <= study.fitted_order <= 2.1
    study1 = convergence_study(linear_decay(1.0), 1.0, (1e-2, 5e-3, 2.5e-3))
    assert 1.7 <= study1.fitted_order <= 2.3


def test_convergence_study_zero_field():
    system = SystemDef.from_strings(1, 0.6, ["0"], [2.0])
    study = convergence_study(system, 1.0, (1e-2, 5e-3))
    assert all(err == 0.0 for _, err in study.entries)
    assert math.isnan(study.fitted_order)


def test_convergence_study_order_does_not_depend_on_the_scale_of_a_linear_problem():
    # from x0 = 1e-20 every error is below 1e-25, far under any absolute rounding threshold
    orders = [
        convergence_study(SystemDef.from_strings(1, 0.8, ["-x1"], [x0]), 1.0, (0.01, 0.005, 0.0025)).fitted_order
        for x0 in (1.0, 1e-20)
    ]
    assert 1.7 <= orders[0] <= 1.8
    assert orders[1] == pytest.approx(orders[0], abs=1e-9)


def test_convergence_study_validates_h_list():
    with pytest.raises(DomainError):
        convergence_study(linear_decay(0.5), 1.0, (1e-2,))
    with pytest.raises(DomainError):
        convergence_study(linear_decay(0.5), 1.0, (5e-3, 1e-2))


def _recorded_solves(monkeypatch):
    grids = []

    def recording_solve(system, grid):
        grids.append(grid)
        return solve(system, grid)

    monkeypatch.setattr(fracstab.solver, "solve", recording_solve)
    return grids


def test_convergence_study_runs_on_t0_to_t_end(monkeypatch):
    grids = _recorded_solves(monkeypatch)
    study = convergence_study(example1_system(0.9), 6.0, (0.01, 0.005), t0=5.0)
    assert [(g.t0, g.n_steps) for g in grids] == [(5.0, 100), (5.0, 200), (5.0, 400)]
    assert all(err > 0.0 for _, err in study.entries)


def test_a_halving_list_solves_each_grid_once(monkeypatch):
    # each step is compared with its halving, which is the next entry's grid
    grids = _recorded_solves(monkeypatch)
    system = example1_system(0.9)
    study = convergence_study(system, 1.0, (0.01, 0.005, 0.0025))
    assert [g.n_steps for g in grids] == [100, 200, 400, 800]
    trajs = [solve(system, g).matrix() for g in grids]
    for (_, err), grid, coarse, fine in zip(study.entries, grids, trajs, trajs[1:]):
        keep = grid.nodes() >= 0.1
        assert err == np.max(np.abs(coarse[keep] - fine[::2][keep]))


def test_a_list_that_does_not_halve_solves_each_step_and_its_halving(monkeypatch):
    grids = _recorded_solves(monkeypatch)
    convergence_study(linear_decay(0.5), 1.0, (0.01, 0.004))
    assert [g.n_steps for g in grids] == [100, 200, 250, 500]


@pytest.mark.parametrize("h_list", [(0.01, 0.0031), (0.3, 0.1), (0.01, 0.0)])
def test_convergence_study_refuses_steps_that_do_not_divide_the_span(h_list):
    with pytest.raises(DomainError, match="h_list step"):
        convergence_study(linear_decay(0.5), 1.0, h_list)


def test_convergence_study_refuses_a_span_that_ends_before_it_starts():
    with pytest.raises(DomainError, match=r"^t_end must exceed t0, got t_end=0\.0, t0=1\.0$"):
        convergence_study(linear_decay(0.5), 0.0, [0.1, 0.05], t0=1.0)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_fitted_order_matches_the_order_against_the_mittag_leffler_oracle(alpha):
    # D^alpha x = -x, x(0) = 1 is E_alpha(-t^alpha); the oracle's order is
    # fitted on the errors at every 5th node of the 0.01 grid from t = 0.2
    h_list = (0.01, 0.005, 0.0025)
    study = convergence_study(linear_decay(alpha), 2.0, h_list)
    ts = np.arange(20, 201, 5) * 0.01
    exact = np.array([ml_series_oracle(alpha, 1.0, -(t**alpha)) for t in ts])
    errs = []
    for h in h_list:
        values = solve(linear_decay(alpha), TimeGrid(0.0, h, round(2.0 / h))).states[0].values
        errs.append(np.max(np.abs(values[np.round(ts / h).astype(int)] - exact)))
    assert abs(study.fitted_order - fit_order(h_list, errs)) <= 0.04


def test_convergence_study_reports_diverging_h():
    system = SystemDef.from_strings(1, 0.8, ["x1^3"], [3.0])
    with pytest.raises(DivergenceError) as exc:
        convergence_study(system, 10.0, (0.1, 0.05))
    assert "h=" in str(exc.value)


def test_convergence_study_reports_a_diverging_coarse_grid():
    # the first grid solved, h = 0.05, is unstable for x' = -300 x
    system = SystemDef.from_strings(1, 1.0, ["-300*x1"], [1.0])
    with pytest.raises(DivergenceError, match=r"^divergence at h=0\.05: state exceeded") as exc:
        convergence_study(system, 1.0, (0.05, 0.025))
    assert 0 < exc.value.last_step < 20


def test_autonomous_solve_is_shift_invariant():
    # same autonomous system started at t0 = 0 and t0 = 5 gives the same path
    system = linear_decay(0.8)
    a = solve(system, TimeGrid(0.0, 0.01, 400)).matrix()
    b = solve(system, TimeGrid(5.0, 0.01, 400)).matrix()
    assert np.array_equal(a, b)


# --- history sums against the direct O(n^2) loop -------------------------------------

DIRECT_FIELDS = {
    "example1": (2, ["-x1 - x2/(1+t)", "x1 - x2"], [-10.0, 10.0]),
    "example2": (1, ["-x1^3 - exp(t/2)*x1^3"], [1.5]),
    "sin_cos": (2, ["-x1 - x2 + sin(t)*(x1^2 + x2^2)", "x1 - x2 + cos(t)*(x1^2 + x2^2)"], [0.3, -0.2]),
}


@pytest.mark.parametrize("name", sorted(DIRECT_FIELDS))
@pytest.mark.parametrize("n_steps", [300, _FFT_MIN_TERMS - 1])
def test_below_crossover_matches_direct_loop_bit_for_bit(name, n_steps):
    dim, rhs, x0 = DIRECT_FIELDS[name]
    system = SystemDef.from_strings(dim, 0.8, rhs, x0)
    grid = TimeGrid(0.0, 5.0 / n_steps, n_steps)
    assert np.array_equal(solve(system, grid).matrix(), pece_direct(system, grid))


ZERO_CASES = [
    # -x1 from +0.0 keeps an all -0.0 RHS history; from -0.0 the history is +0.0
    pytest.param(SystemDef.from_strings(1, 0.7, ["-x1"], [x0]), n, id=f"-x1_from_{x0}_{n}")
    for x0 in (-0.0, 0.0)
    for n in (300, 1100, 2100)
] + [
    # from -0.0 the history is all -0.0, so the predictor's direct sum and x0 both are
    pytest.param(SystemDef.from_strings(1, 0.7, [rhs], [-0.0]), n, id=f"{rhs}_from_-0.0_{n}")
    for rhs in ("x1", "sqrt(x1)")
    for n in (300, 1100, 2100)
] + [pytest.param(get_preset("example1").system, 1023, id="example1_1023")]


@pytest.mark.parametrize("system, n_steps", ZERO_CASES)
def test_batched_history_keeps_signed_zeros(system, n_steps):
    # np.array_equal calls -0.0 and 0.0 equal; the signs are compared apart,
    # so a zero-weight term in the batched corrector sum cannot flip a zero
    grid = TimeGrid(0.0, 0.01, n_steps)
    got, want = solve(system, grid).matrix(), pece_direct(system, grid)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


FAST_FIELDS = {
    1: (["cos(3*t) - x1^3"], [1.0]),
    2: (["-x1 - x2/(1+t)", "x1 - x2"], [-10.0, 10.0]),
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_folded_history_matches_direct_loop(alpha, dim):
    # One direct run at 2e4 steps is the reference for both sizes: its rows
    # do not depend on the number of steps that follow.
    rhs, x0 = FAST_FIELDS[dim]
    system = SystemDef.from_strings(dim, alpha, rhs, x0)
    ref = pece_direct(system, TimeGrid(0.0, 1e-3, 20_000))
    for n_steps in (_FFT_MIN_TERMS + 76, 20_000):
        got = solve(system, TimeGrid(0.0, 1e-3, n_steps)).matrix()
        want = ref[: n_steps + 1]
        assert np.array_equal(got[:_FFT_MIN_TERMS], want[:_FFT_MIN_TERMS])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_divergence_after_crossover_keeps_last_step():
    system = SystemDef.from_strings(1, 0.9, ["x1^2"], [0.5])
    grid = TimeGrid(0.0, 1e-3, 3000)
    with pytest.raises(DivergenceError) as want:
        pece_direct(system, grid)
    with pytest.raises(DivergenceError) as got:
        solve(system, grid)
    assert _FFT_MIN_TERMS < got.value.last_step == want.value.last_step


def test_rhs_eval_error_after_crossover_carries_time():
    system = SystemDef.from_strings(1, 0.7, ["x1/(t - 1.5)"], [1.0])
    with pytest.raises(EvalError) as exc:
        solve(system, TimeGrid(0.0, 2.0**-10, 2000))  # t = 1.5 at step 1536
    assert "t=1.5:" in str(exc.value)
