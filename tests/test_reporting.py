"""CSV writers against an independent per-value formatting oracle."""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracstab.expressions import parse
from fracstab.inequalities import IdentityResidual, IneqReport
from fracstab.operators import FracOrder, SampleSeries, TimeGrid
from fracstab.reporting import (
    fmt,
    read_trajectory_csv,
    write_report_csv,
    write_residual_csv,
    write_trajectory_csv,
)
from fracstab.solver import SystemDef, Trajectory

from oracles import report_csv_oracle, trajectory_csv_oracle

# Signed zero, subnormals, the normal/subnormal boundary and the top of the range.
EDGES = (-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308)
FINITE = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
ANY = st.one_of(FINITE, st.sampled_from((math.nan, math.inf, -math.inf)))
GRIDS = st.builds(
    TimeGrid,
    st.floats(-1e6, 1e6),
    st.floats(1e-9, 1e3),
    st.integers(1, 40),
)


def written(write, obj) -> str:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "out.csv"
        write(path, obj)
        return path.read_text()


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=150, deadline=None)
@given(GRIDS, st.data(), st.booleans(), ANY, ANY, st.one_of(ANY, st.just(math.nan)))
def test_report_csv_matches_oracle(grid, data, verdict, max_violation, tol, ratio):
    column = hnp.arrays(np.float64, grid.n_nodes, elements=ANY)
    lhs, rhs = data.draw(column), data.draw(column)
    slack = data.draw(hnp.arrays(np.float64, grid.n_nodes, elements=FINITE))
    report = IneqReport("r", SampleSeries(grid, slack), lhs, rhs, max_violation, tol, ratio, verdict)
    expected = report_csv_oracle(grid.nodes(), lhs, rhs, slack, verdict, max_violation, tol, ratio)
    assert written(write_report_csv, report) == expected


def test_report_csv_writes_nan_refinement_ratio_as_nan():
    grid = TimeGrid(0.0, 0.5, 2)
    report = IneqReport("r", SampleSeries(grid, [0.0, -0.0, 1.0]), np.zeros(3), np.ones(3), 0.0, 0.25, math.nan, True)
    assert written(write_report_csv, report).splitlines()[-1] == "pass,0,0.25,nan"


def trajectory(grid: TimeGrid, states: np.ndarray) -> Trajectory:
    dim = states.shape[1]
    system = SystemDef(dim, FracOrder(0.5), tuple(parse("0") for _ in range(dim)), np.zeros(dim))
    return Trajectory(grid, tuple(SampleSeries(grid, states[:, i]) for i in range(dim)), system)


@settings(max_examples=150, deadline=None)
@given(GRIDS, st.integers(1, 3), st.data())
def test_trajectory_csv_matches_oracle_and_round_trips(grid, dim, data):
    states = data.draw(hnp.arrays(np.float64, (grid.n_nodes, dim), elements=FINITE))
    traj = trajectory(grid, states)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trajectory.csv"
        write_trajectory_csv(path, traj)
        assert path.read_text() == trajectory_csv_oracle(grid.nodes(), states)
        ts, back = read_trajectory_csv(path)
    np.testing.assert_array_equal(bits(ts), bits(grid.nodes()))
    np.testing.assert_array_equal(bits(back), bits(states))


def test_residual_csv_layout():
    text = written(write_residual_csv, IdentityResidual(3.3306690738754696e-16, 1.8699658527136189))
    assert text == "max_residual,scale,relative\n3.3306690738754696e-16,1.8699658527136189,1.781138981250453e-16\n"
    assert written(write_residual_csv, IdentityResidual(-0.0, 0.0)) == "max_residual,scale,relative\n-0,0,0\n"


@given(ANY)
def test_fmt_is_seventeen_significant_digits(v):
    assert fmt(v) == format(v, ".17g")
    assert fmt(np.float64(v)) == format(v, ".17g")
