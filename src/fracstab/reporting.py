"""CSV and text serialization of trajectories, reports and studies.

Every float in every file is printed with FLOAT_FORMAT, 17 significant
digits, so files round-trip bit-exactly; nothing volatile (timestamps,
hostnames) is written, keeping repeated runs byte-identical.

Tables (trajectories, inequality reports) are formatted with numpy, to the
same bytes as FLOAT_FORMAT per value.  A value printed in fixed notation
gets its 17 digits by exact scaling; every other value (exponent notation,
inf, nan) goes through FLOAT_FORMAT.  The comment above _words has the
details.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeError

if TYPE_CHECKING:  # annotations only: formatting needs none of these layers
    from .inequalities import IdentityResidual, SuiteResult
    from .solver import ConvergenceStudy, Trajectory
    from .stability import StabilityReport
    from .verdicts import IneqReport

FLOAT_FORMAT = "%.17g"


def fmt(v: float) -> str:
    return FLOAT_FORMAT % float(v)


# --- tables ----------------------------------------------------------------
#
# _words computes the fields of a table with numpy, to the bytes of
# FLOAT_FORMAT per value.  A value whose decimal exponent e is in
# [-4, 16] (or a zero) is printed in fixed notation.  Its 17 significant
# digits are round-half-even(|x| * 10**(16 - e)), the rounding of Python's
# dtoa.  Each 10**(16 - e) is an exact double, and Dekker's two-product
# gives p + err == |x| * 10**(16 - e) exactly.  Since p >= 1e16 > 2**53 is
# an even integer, p + rint(err) is that rounding.  e itself comes from the
# binary exponent: a binade holds at most one power of ten, so one exact
# comparison settles it.
#
# Each field is laid out in 40 bytes, five words: the sign, a "0.000"
# prefix, then each digit followed by a point slot; the slot after the
# last digit holds the separator.  A mask per (e, significant digits, sign)
# zeroes what the field does not show, and dropping every zero byte joins
# the fields.  Every other value (exponent notation, inf, nan, and a
# rounding that reaches the next power of ten) is printed by FLOAT_FORMAT
# into its 40 bytes.

_VELTKAMP = 134217729.0  # 2**27 + 1
_COMMA, _LEAD = 10000, 20000  # rows of _CHUNKS
_ROW_END = np.frombuffer(b"\0" * 7 + bytes([ord(",") ^ ord("\n")]), np.uint64)[0]  # last comma to newline
_BLOCK_FIELDS = 1 << 14  # fields per block; keeps the temporaries small


def _halves(a):
    """(hi, lo) with hi + lo == a exactly, each of at most 26 significant bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


def _tables():
    # powers[i] is 10**(i - 4) rounded by float(): exact from 1e0 on, and
    # rounded up below, so decades[i] is the least double >= 10**(i - 4).
    # A normal binade [2**(b - 1023), 2**(b - 1022)) starts in decade[b]
    # (-5 below 1e-4, 17 from 1e17) and reaches decade[b] + 1 at next_decade[b].
    powers = np.array([float(f"1e{i}") for i in range(-4, 21)])
    decades = powers[:22]
    decade = np.full(2048, -99)  # zero, subnormals, inf and nan are never fixed
    decade[1:2047] = np.searchsorted(decades, np.ldexp(1.0, np.arange(-1022, 1024)), side="right") - 5
    near = (decade >= -5) & (decade <= 16)
    next_decade = np.full(2048, np.inf)
    next_decade[near] = decades[decade[near] + 5]
    scale = powers[4:]  # 10**(16 - e) for e = 16..-4

    # _CHUNKS: four digits each followed by a point, then by a comma, then
    # the lead word "-0.000", d0, point for each first digit d0
    d = np.arange(48, 58, dtype=np.uint8)
    quad = np.full((10, 10, 10, 10, 8), 46, np.uint8)
    quad[..., 0], quad[..., 2], quad[..., 4], quad[..., 6] = d[:, None, None, None], d[:, None, None], d[:, None], d
    chunks = np.empty((_LEAD + 10, 8), np.uint8)
    chunks[:_LEAD].reshape(2, 10000, 8)[:] = quad.reshape(10000, 8)
    chunks[_COMMA:_LEAD, 7] = 44
    chunks[_LEAD:] = np.frombuffer(b"-0.000\0.", np.uint8)
    chunks[_LEAD:, 6] = d

    # _LAST[i][c]: 1 + the place among the 17 digits of the last nonzero
    # digit of c as the i-th four-digit chunk after the first digit; 0 for
    # c = 0, but 1 in the first chunk, so that their maximum counts d0
    nonzero = (d != 48).astype(np.uint8)
    kept = np.maximum(np.maximum(nonzero[:, None, None, None], nonzero[:, None, None] * 2), np.maximum(nonzero[:, None] * 3, nonzero * 4))
    last = kept.ravel() + np.arange(1, 17, 4, dtype=np.uint8)[:, None]
    last[:, 0] = 1, 0, 0, 0

    # masks[((e + 4) * 18 + sig) * 2 + negative] for sig significant digits
    e = np.arange(-4, 17)[:, None, None]
    sig = np.arange(18)[None, :, None]
    place = np.arange(17)
    shown = place < np.where(e < 0, sig, np.maximum(sig, e + 1))
    point = (place == e) & (sig > e + 1)
    point[..., 16] = True  # the separator
    keep = np.zeros((21, 18, 2, 40), bool)
    keep[:, :, 1, 0] = True
    keep[..., 1:6] = (np.arange(5) < np.where(e < 0, 1 - e, 0))[:, :, None, :]
    keep[..., 6::2] = shown[:, :, None, :]
    keep[..., 7::2] = point[:, :, None, :]
    masks = (keep.view(np.uint8) * np.uint8(255)).reshape(-1, 40).view(np.uint64)
    return decade, next_decade, scale, *_halves(scale), chunks.view(np.uint64).ravel(), last, masks


_DECADE, _NEXT_DECADE, _SCALE, _SCALE_HI, _SCALE_LO, _CHUNKS, _LAST, _MASKS = _tables()


def _words(x: np.ndarray) -> np.ndarray:
    """The fields of x as rows of five words, each field ended by a comma."""
    a = np.abs(x)
    binade = a.view(np.int64) >> 52
    e = _DECADE[binade]
    e += a >= _NEXT_DECADE[binade]
    other = e < -4  # the values that FLOAT_FORMAT prints
    other |= e > 16
    a[other] = 0.0  # with e = 0 below, a zero prints "0"
    e[other] = 0
    j = 16 - e
    b, bh, bl = _SCALE[j], _SCALE_HI[j], _SCALE_LO[j]
    p = a * b
    ah, al = _halves(a)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    n = p.astype(np.int64) + np.rint(err).astype(np.int64)
    other |= n >= 10**17
    n[other] = 0  # keeps every chunk index in range
    hi = n // 10**8
    lo = n - hi * 10**8
    d0 = hi // 10**8
    hi -= d0 * 10**8
    c1 = hi // 10**4
    c2 = hi - c1 * 10**4
    c3 = lo // 10**4
    c4 = lo - c3 * 10**4
    sig = np.maximum(np.maximum(_LAST[0][c1], _LAST[1][c2]), np.maximum(_LAST[2][c3], _LAST[3][c4]))
    idx = np.empty((x.size, 5), np.intp)
    idx[:, 0] = d0 + _LEAD
    idx[:, 1] = c1
    idx[:, 2] = c2
    idx[:, 3] = c3
    idx[:, 4] = c4 + _COMMA
    words = _CHUNKS.take(idx)
    pattern = (e + 4) * 18 + sig
    pattern *= 2
    pattern += np.signbit(x)
    words &= _MASKS.take(pattern, axis=0)
    other &= x != 0
    at = np.flatnonzero(other)
    if at.size:
        texts = [(FLOAT_FORMAT % v).ljust(39, "\0") + "," for v in x[at].tolist()]
        words[at] = np.array(texts, dtype="S40").view(np.uint64).reshape(-1, 5)
    return words


def _rows_text(columns) -> str:
    """CSV lines of equal-length float columns, each line ended by a newline:
    the bytes of FLOAT_FORMAT per value, formatted a block of rows at a time."""
    table = np.stack([np.asarray(c, dtype=float) for c in columns], axis=1)
    n, k = table.shape
    rows = max(1, _BLOCK_FIELDS // k)
    blocks = []
    for i in range(0, n, rows):
        words = _words(table[i : i + rows].ravel()).reshape(-1, k, 5)
        words[:, -1, 4] ^= _ROW_END
        blocks.append(words.tobytes().translate(None, b"\0"))
    return b"".join(blocks).decode("ascii")


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    header = "t," + ",".join(f"x{i + 1}" for i in range(traj.dim))
    rows = _rows_text([traj.grid.nodes()] + [s.values for s in traj.states])
    Path(path).write_text(header + "\n" + rows)


def read_trajectory_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(times, states) as written by write_trajectory_csv.

    ShapeError, naming the path and line, for a file without data rows or
    with a row that is not as many numbers as the header has columns.
    """
    lines = Path(path).read_text().strip().splitlines()
    if len(lines) < 2:
        raise ShapeError(f"{path}: no data rows below the header")
    width = len(lines[0].split(","))
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != width:
            raise ShapeError(f"{path} line {number}: {len(fields)} fields where the header has {width}")
        try:
            rows.append([float(c) for c in fields])
        except ValueError:
            raise ShapeError(f"{path} line {number}: a field is not a number") from None
    data = np.array(rows)
    return data[:, 0], data[:, 1:]


def write_report_csv(path: Path, report: IneqReport) -> None:
    """The report's node rows and verdict row."""
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
        f"{fmt(residual.max_residual)},{fmt(residual.scale)},{fmt(residual.max_violation)}\n"
    )


def write_suite_reports(suite_dir: Path, result: SuiteResult) -> None:
    """instance_NNNN.csv for each report of one suite run, in order."""
    from .inequalities import IdentityResidual

    for i, rep in enumerate(result.reports):
        write = write_residual_csv if isinstance(rep, IdentityResidual) else write_report_csv
        write(Path(suite_dir) / f"instance_{i:04d}.csv", rep)


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
        worst = int(np.argmin(s.slack.values))
        lines.append(
            f"sandwich: {'pass' if s.verdict else 'FAIL'} "
            f"worst_slack={fmt(s.slack.values[worst])} worst_node={worst}"
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
            f"ball: {'pass' if b.verdict else 'FAIL'} radius={fmt(b.rhs[0])} max_norm={fmt(np.max(b.lhs))}"
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
