"""CSV and text serialization of trajectories, reports and studies.

Every float in every file is printed with FLOAT_FORMAT, 17 significant
digits, so files round-trip bit-exactly; nothing volatile (timestamps,
hostnames) is written, keeping repeated runs byte-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: formatting needs none of these layers
    from .inequalities import IdentityResidual, SuiteResult
    from .operators import TimeGrid
    from .solver import ConvergenceStudy, Trajectory
    from .stability import StabilityReport
    from .verdicts import IneqReport

FLOAT_FORMAT = "%.17g"


def fmt(v: float) -> str:
    return FLOAT_FORMAT % float(v)


def _column_text(values) -> list[str]:
    """fmt of each value: a column formatted once, for _rows_text's lead."""
    return [FLOAT_FORMAT % v for v in np.asarray(values, dtype=float).tolist()]


def _rows_text(columns, lead: list[str] | None = None) -> str:
    """CSV lines of equal-length float columns, each line ended by a newline.

    lead, when given, is a first column already formatted by _column_text.
    One `%` over a row template repeated n times formats the whole table:
    the same bytes as fmt per value, at the cost of the formatting alone.
    """
    texts = [np.asarray(c, dtype=float).tolist() for c in columns]
    row = ",".join([FLOAT_FORMAT] * len(texts))
    if lead is not None:
        texts.insert(0, lead)
        row = "%s," + row
    k, n = len(texts), len(texts[0])
    fields = [None] * (k * n)
    for j, col in enumerate(texts):
        fields[j::k] = col
    return ((row + "\n") * n) % tuple(fields)


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


def write_report_csv(path: Path, report: IneqReport, t_text: list[str] | None = None) -> None:
    """The report's node rows and verdict row; t_text, when given, is
    _column_text of the report grid's nodes, formatted once by the caller."""
    columns = [report.lhs, report.rhs, report.slack.values]
    if t_text is None:
        rows = _rows_text([report.slack.grid.nodes()] + columns)
    else:
        rows = _rows_text(columns, lead=t_text)
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


def write_suite_reports(suite_dir: Path, result: SuiteResult) -> None:
    """instance_NNNN.csv for each report of one suite run, in order.

    Each distinct grid's time column is formatted once per call: the
    reports of a suite usually share one grid.
    """
    from .inequalities import IdentityResidual

    suite_dir = Path(suite_dir)
    t_texts: dict[TimeGrid, list[str]] = {}
    for i, rep in enumerate(result.reports):
        path = suite_dir / f"instance_{i:04d}.csv"
        if isinstance(rep, IdentityResidual):
            write_residual_csv(path, rep)
            continue
        grid = rep.slack.grid
        if grid not in t_texts:
            t_texts[grid] = _column_text(grid.nodes())
        write_report_csv(path, rep, t_texts[grid])


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
