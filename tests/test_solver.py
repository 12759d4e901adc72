import math

import numpy as np
import pytest

from fracstab.errors import DivergenceError, DomainError, EvalError, ShapeError
from fracstab.expressions import evaluate, parse, sample_on
from fracstab.operators import SampleSeries, TimeGrid, rl_integral
from fracstab.solver import SystemDef, convergence_study, solve
from fracstab.special import MLParams, mittag_leffler

from oracles import classical_pece_trapezoid


def linear_decay(alpha):
    return SystemDef.from_strings(1, alpha, ["-x1"], [1.0])


def example1_system(alpha):
    return SystemDef.from_strings(
        2, alpha, ["-x1 - x2/(1+t)", "x1 - x2"], [-10.0, 10.0], label="example1"
    )


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


def test_rhs_eval_error_carries_context():
    system = SystemDef.from_strings(1, 0.5, ["x1/(t - 0.05)"], [1.0])
    with pytest.raises(EvalError) as exc:
        solve(system, TimeGrid(0.0, 0.05, 10))
    assert "t=" in str(exc.value)


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


def test_convergence_study_validates_h_list():
    with pytest.raises(DomainError):
        convergence_study(linear_decay(0.5), 1.0, (1e-2,))
    with pytest.raises(DomainError):
        convergence_study(linear_decay(0.5), 1.0, (5e-3, 1e-2))


def test_convergence_study_reports_diverging_h():
    system = SystemDef.from_strings(1, 0.8, ["x1^3"], [3.0])
    with pytest.raises(DivergenceError) as exc:
        convergence_study(system, 10.0, (0.1, 0.05))
    assert "h=" in str(exc.value)


def test_autonomous_solve_is_shift_invariant():
    # same autonomous system started at t0 = 0 and t0 = 5 gives the same path
    system = linear_decay(0.8)
    a = solve(system, TimeGrid(0.0, 0.01, 400)).matrix()
    b = solve(system, TimeGrid(5.0, 0.01, 400)).matrix()
    assert np.array_equal(a, b)
