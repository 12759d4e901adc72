"""CSV and text serialization of trajectories, reports and studies.

Every float in every file is printed with FLOAT_FORMAT, 17 significant
digits, so files round-trip bit-exactly; nothing volatile (timestamps,
hostnames) is written, keeping repeated runs byte-identical.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .inequalities import IdentityResidual, IneqReport, SuiteResult
from .solver import ConvergenceStudy, Trajectory
from .stability import StabilityReport

FLOAT_FORMAT = "%.17g"


def fmt(v: float) -> str:
    return FLOAT_FORMAT % float(v)


def _rows_text(columns) -> str:
    """CSV lines of equal-length float columns, each line ended by a newline.

    One `%` over a row template repeated n times formats the whole table:
    the same bytes as fmt per value, at the cost of the formatting alone.
    """
    table = np.column_stack(columns)
    n, k = table.shape
    return ((",".join([FLOAT_FORMAT] * k) + "\n") * n) % tuple(table.ravel().tolist())


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    header = "t," + ",".join(f"x{i + 1}" for i in range(traj.dim))
    rows = _rows_text([traj.grid.nodes()] + [s.values for s in traj.states])
    Path(path).write_text(header + "\n" + rows)


def read_trajectory_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(times, states) as written by write_trajectory_csv."""
    lines = Path(path).read_text().strip().splitlines()
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    data = np.array(rows)
    return data[:, 0], data[:, 1:]


def write_report_csv(path: Path, report: IneqReport) -> None:
    rows = _rows_text([report.slack.grid.nodes(), report.lhs, report.rhs, report.slack.values])
    verdict = "pass" if report.verdict else "fail"
    Path(path).write_text(
        "t,lhs,rhs,slack\n"
        + rows
        + "verdict,max_violation,tol,refinement_ratio\n"
        + f"{verdict},{fmt(report.max_violation)},{fmt(report.tol)},{fmt(report.refinement_ratio)}\n"
    )


def write_residual_csv(path: Path, residual: IdentityResidual) -> None:
    Path(path).write_text(
        "max_residual,scale,relative\n"
        f"{fmt(residual.max_residual)},{fmt(residual.scale)},{fmt(residual.relative)}\n"
    )


def check_summary_row(result: SuiteResult) -> str:
    """One line of check_summary.csv (also what `check` prints per suite)."""
    return f"{result.name},{result.instances},{result.passes},{fmt(result.max_violation)}"


def write_check_summary_csv(path: Path, rows: list[str]) -> None:
    """check_summary.csv from the rows of check_summary_row, one per suite."""
    Path(path).write_text("name,instances,passes,max_violation\n" + "\n".join(rows) + "\n")


def write_convergence_csv(path: Path, study: ConvergenceStudy) -> None:
    lines = ["h,max_error"] + [f"{fmt(h)},{fmt(e)}" for h, e in study.entries]
    lines.append(f"fitted_order,{fmt(study.fitted_order)}")
    Path(path).write_text("\n".join(lines) + "\n")


def stability_summary_text(report: StabilityReport) -> str:
    lines = [f"stability report: {report.label}"]
    if report.sandwich is not None:
        s = report.sandwich
        lines.append(
            f"sandwich: {'pass' if s.ok else 'FAIL'} "
            f"worst_slack={fmt(s.worst_slack)} worst_node={s.worst_node}"
        )
    if report.dissipation is not None:
        d = report.dissipation
        lines.append(
            f"dissipation: {'pass' if d.verdict else 'FAIL'} "
            f"max_violation={fmt(d.max_violation)} tol={fmt(d.tol)}"
        )
    if report.envelope is not None:
        e = report.envelope
        lines.append(
            f"ml_envelope: {'pass' if e.verdict else 'FAIL'} max_violation={fmt(e.max_violation)}"
        )
    if report.ball is not None:
        b = report.ball
        lines.append(
            f"ball: {'pass' if b.ok else 'FAIL'} radius={fmt(b.radius)} max_norm={fmt(b.max_norm)}"
        )
    lines.append(f"all_checks: {'pass' if report.all_passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def write_stability_report(outdir: Path, report: StabilityReport) -> None:
    outdir = Path(outdir)
    if report.dissipation is not None:
        write_report_csv(outdir / "dissipation.csv", report.dissipation)
    if report.envelope is not None:
        write_report_csv(outdir / "ml_envelope.csv", report.envelope)
    (outdir / "stability_summary.txt").write_text(stability_summary_text(report))


def gnuplot_script(csv_name: str, dim: int) -> str:
    """A minimal gnuplot script plotting each component from the CSV."""
    plots = ", ".join(
        f"'{csv_name}' using 1:{i + 2} with lines title 'x{i + 1}'" for i in range(dim)
    )
    return (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 't'\n"
        f"plot {plots}\n"
    )
