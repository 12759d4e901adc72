"""CSV writers against an independent per-value formatting oracle."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracstab.errors import ShapeError
from fracstab.expressions import parse
from fracstab.inequalities import IdentityResidual, IneqReport, SuiteResult
from fracstab.operators import FracOrder, SampleSeries, TimeGrid
from fracstab.reporting import (
    _rows_text,
    fmt,
    read_trajectory_csv,
    write_report_csv,
    write_residual_csv,
    write_suite_reports,
    write_trajectory_csv,
)
from fracstab.solver import SystemDef, Trajectory

from oracles import report_csv_oracle, residual_csv_oracle, rows_csv_oracle, trajectory_csv_oracle

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


def _report(data, grid: TimeGrid) -> IneqReport:
    lhs, rhs = (data.draw(hnp.arrays(np.float64, grid.n_nodes, elements=ANY)) for _ in range(2))
    slack = data.draw(hnp.arrays(np.float64, grid.n_nodes, elements=FINITE))
    return IneqReport("r", SampleSeries(grid, slack), lhs, rhs, data.draw(ANY), data.draw(ANY), data.draw(ANY), data.draw(st.booleans()))


def instance_oracle(rep) -> str:
    """The bytes of one instance file of a suite."""
    if isinstance(rep, IdentityResidual):
        return residual_csv_oracle(rep.max_residual, rep.scale)
    return report_csv_oracle(
        rep.slack.grid.nodes(), rep.lhs, rep.rhs, rep.slack.values,
        rep.verdict, rep.max_violation, rep.tol, rep.refinement_ratio,
    )


@settings(max_examples=60, deadline=None)
@given(GRIDS, GRIDS, st.lists(st.sampled_from(["a", "b", "residual"]), min_size=1, max_size=8), st.data())
def test_suite_reports_match_oracle_per_file(grid_a, grid_b, kinds, data):
    # Reports on two grids and identity residuals, written in order as
    # instance_NNNN.csv.
    reports = []
    for kind in kinds:
        if kind == "residual":
            reports.append(IdentityResidual(data.draw(FINITE), data.draw(FINITE)))
        else:
            reports.append(_report(data, grid_a if kind == "a" else grid_b))
    result = SuiteResult("s", tuple(reports))
    with tempfile.TemporaryDirectory() as d:
        write_suite_reports(Path(d), result)
        names = sorted(p.name for p in Path(d).iterdir())
        assert names == [f"instance_{i:04d}.csv" for i in range(len(reports))]
        for name, rep in zip(names, reports):
            assert (Path(d) / name).read_text() == instance_oracle(rep), name


def test_suite_reports_of_mixed_suite_runs_match_oracle():
    from fracstab.inequalities import run_suite

    coarse, fine = TimeGrid(0.0, 0.04, 50), TimeGrid(0.0, 0.02, 100)
    runs = [run_suite("nr1", 2, 1, grid=coarse), run_suite("nr4_identity", 2, 1), run_suite("lemma3", 2, 1, grid=fine)]
    reports = tuple(r for run in runs for r in run.reports)
    assert {r.slack.grid for r in reports if isinstance(r, IneqReport)} == {coarse, fine}
    with tempfile.TemporaryDirectory() as d:
        write_suite_reports(Path(d), SuiteResult("mixed", reports))
        for i, rep in enumerate(reports):
            assert (Path(d) / f"instance_{i:04d}.csv").read_text() == instance_oracle(rep)


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


# --- the table formatter against the per-value oracle ----------------------------


def assert_rows_match_oracle(values, k: int = 4) -> None:
    """_rows_text of values laid out in rows of k, against the oracle's bytes."""
    table = np.asarray(values, dtype=float)
    table = table[: table.size // k * k].reshape(-1, k)
    got, expected = _rows_text(list(table.T)), rows_csv_oracle(table)
    if got != expected:  # name the first rows that differ, not the whole table
        bad = [(g, e) for g, e in zip(got.splitlines(), expected.splitlines()) if g != e]
        raise AssertionError(f"{len(got)} != {len(expected)} characters; first differing rows: {bad[:3]}")


def decade_edges() -> list[float]:
    """Each power of ten from 1e-6 to 1e18 and the two doubles beside it."""
    powers = [float(f"1e{i}") for i in range(-6, 19)]
    return [v for p in powers for v in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]


FORMAT_EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, math.inf, -math.inf, math.nan,
    1e-4, math.nextafter(1e-4, 0.0), 9.999999999999999e-05, 0.09999999999999999,
    1e16, 9999999999999998.0, 99999999999999984.0, 1e17,
    1234567890123456.25, 123456789012345.125, 200.0, 1.0, 0.5, 1.7976931348623157e308,
)


@pytest.mark.parametrize("k", [1, 3, 4])
def test_table_formatter_matches_oracle_on_edges(k):
    values = [s * v for v in FORMAT_EDGES + tuple(decade_edges()) for s in (1.0, -1.0)]
    assert_rows_match_oracle(np.repeat(values, k), k)  # each value fills one row


def test_table_formatter_matches_oracle_on_random_bit_patterns():
    bits = np.random.default_rng(21).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    assert_rows_match_oracle(bits.view(np.float64))


def test_table_formatter_matches_oracle_log_uniformly_on_1e_minus_6_to_1e18():
    rng = np.random.default_rng(22)
    values = 10.0 ** rng.uniform(-6.0, 18.0, 10**6) * rng.choice([-1.0, 1.0], 10**6)
    assert_rows_match_oracle(values, k=3)


def test_table_formatter_rounds_exact_ties_half_even():
    # integers below 2**51 plus .25/.75, and below 2**47 plus odd eighths:
    # each value is a double whose 17th significant digit is an exact tie
    rng = np.random.default_rng(23)
    n = 5 * 10**5
    whole = np.concatenate([rng.integers(10**15, 2**51, n), rng.integers(10**14, 2**47, n)]).astype(float)
    part = np.concatenate([rng.choice([0.25, 0.75], n), rng.choice([0.125, 0.375, 0.625, 0.875], n)])
    values = whole + part
    assert np.array_equal(values - whole, part)
    assert_rows_match_oracle(values)


def test_long_trajectory_csv_matches_oracle():
    grid = TimeGrid(0.0, 0.002, 5000)
    states = np.random.default_rng(24).standard_normal((grid.n_nodes, 2)) * np.array([1.0, 1e-7])
    assert written(write_trajectory_csv, trajectory(grid, states)) == trajectory_csv_oracle(grid.nodes(), states)


@pytest.mark.parametrize(
    "text, where",
    [
        ("", "no data rows"),
        ("t,x1\n", "no data rows"),
        ("t,x1\n0,1\n0.5\n", "line 3: 1 fields where the header has 2"),
        ("t,x1\n0,1,2\n", "line 2: 3 fields where the header has 2"),
        ("t,x1\n0,1\n0.5,abc\n", "line 3: a field is not a number"),
        ("t,x1\n0,1\n\n0.5,1\n", "line 3: 1 fields"),
    ],
)
def test_reading_a_malformed_trajectory_csv_is_a_shape_error(text, where):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trajectory.csv"
        path.write_text(text)
        with pytest.raises(ShapeError, match=re.escape(f"{path}") + ".*" + re.escape(where)):
            read_trajectory_csv(path)
