"""The four workloads: their inputs, commands, predicted zeros and output checks.

Every check compares against an independent reference (mpmath at 50
digits, closed forms, or the paper's stated convergence order), never
against the program's own earlier output.  A check returns None for a good
output and a one-line reason otherwise; it must not raise on bad files,
because a corrupted output is a failed operation, not a crashed run.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np

SUITE_NAMES = ("nr1", "nr1_increasing", "nr2", "lemma3", "lemma4", "nr4_identity", "nr6",
               "nr7", "nr8", "nr9", "nr10", "nr11", "nr12")
OPERATOR_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)

# reproduce: each preset keeps its horizon and takes a step this many times
# coarser, so one iteration of the three examples fits a run several times
# while example 1 keeps its |z| range (74% of its envelope nodes in [5, 20)).
# Short commands give many samples; see run.py on why that keeps runs steady.
REPRODUCE_STEP_FACTOR = 10
CHECK_INSTANCES = 50
OPERATOR_STEPS = 50_000
# t_end 10 (not 25): solves of 1000, 2000, 4000 and 16000 steps keep one
# iteration near 4 s; solve's own time, mostly the O(n^2) history sum, is
# about 40% of the 16000-step solve.
CONVERGENCE_CONFIG = "preset = example1\nt_end = 10\nh_list = [0.01, 0.005, 0.0025]\n"

# Example 1 of the paper: order 0.9, x0 = (-10, 10), envelope
# 2 * E_0.9(-0.5 t^0.9) * |x0|^2 with the 5% slack allowance.
EX1_ALPHA, EX1_RATE, EX1_AMP, EX1_NORM0_SQ, EX1_SLACK = 0.9, 0.5, 2.0, 200.0, 1.05
ML_REL_TOL = 1e-9  # the documented mittag_leffler contract
OPERATOR_REL_TOL = 1e-2  # acceptance criterion 2's bound for the L1 operator
# Criterion 2 also fixes the orders: h^(2 - alpha) for caputo_l1 and h^2 for
# rl_integral.  The largest absolute error at t >= 0.1 over h^order seen for
# t^p, p in [1, 3), alpha in {0.1, 0.5, 0.9}, at 5e4 steps is 2.6 (caputo_l1)
# and 0.42 (rl_integral); these constants leave about 4x, so an operator that
# loses one digit fails, which the 1e-2 relative bound alone would let pass.
OPERATOR_ERR_CONST = {"caputo_l1": 10.0, "rl_integral": 2.0}
ORDER_TOL = 0.3


@dataclass
class Command:
    """One fresh process: child.py arguments and the operations it serves.

    `ops` maps an operation key to the output paths (files or directories,
    relative to the iteration directory) that it must leave behind.
    """

    argv: list[str]
    ops: dict[str, list[str]]


@dataclass
class Workload:
    """A workload; why it was chosen is in BENCHMARK.json."""

    name: str
    size: str
    predicted_zero: tuple[str, ...]  # per-layer metrics that must read 0 on this workload
    prepare: Callable[[int, Path], dict]  # (seed, input dir) -> context
    commands: Callable[[dict], list[Command]]
    setup_argv: Callable[[dict], list[str]]
    check: Callable[[dict, Path], dict[str, str | None]]  # (context, iteration dir) -> op -> reason


def ml_reference(alpha: float, z: float, digits: int = 50) -> mpmath.mpf:
    """E_alpha(z) for real z <= 0 by its power series at `digits` correct digits.

    Working precision covers the series' cancellation: the largest term is
    about exp(|z|^(1/alpha)) while the sum is about 1/|z|.
    """
    r = abs(z) ** (1.0 / alpha)
    with mpmath.workdps(digits + int(r / math.log(10)) + 20):
        a, zz = mpmath.mpf(alpha), mpmath.mpf(z)
        total, term_z, k = mpmath.mpf(0), mpmath.mpf(1), 0
        floor = mpmath.mpf(10) ** (-(digits + 10))
        while True:
            term = term_z / mpmath.gamma(a * k + 1)
            total += term
            if k >= 4 and abs(term) <= floor * abs(total):
                return +total
            k += 1
            term_z *= zz


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _guarded(fn: Callable[[], str | None]) -> str | None:
    try:
        return fn()
    except (OSError, ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


# --- reproduce --------------------------------------------------------------

_VERDICT_LINES = {
    1: ("sandwich", "dissipation", "ml_envelope", "all_checks"),
    2: ("sandwich", "dissipation", "all_checks"),
    3: ("dissipation", "ball", "all_checks"),
}


def _reproduce_commands(ctx: dict) -> list[Command]:
    commands = []
    for n in (1, 2, 3):
        files = ["trajectory.csv", "dissipation.csv", "stability_summary.txt"]
        files += ["ml_envelope.csv"] if n == 1 else []
        argv = ["--step-factor", str(REPRODUCE_STEP_FACTOR), "cli", "reproduce", str(n), "--out", f"ex{n}"]
        commands.append(Command(argv, {f"reproduce_{n}": [f"ex{n}/{f}" for f in files]}))
    return commands


def _check_verdicts(summary: Path, example: int) -> str | None:
    lines = summary.read_text().splitlines()
    verdicts = dict(line.split(": ", 1) for line in lines[1:])
    for name in _VERDICT_LINES[example]:
        if name not in verdicts:
            return f"{summary.name} has no {name} line"
        if not verdicts[name].startswith("pass"):
            return f"{name}: {verdicts[name]}"
    return None


def check_envelope(path: Path, seed: int, samples: int = 16) -> str | None:
    """The rhs column of ml_envelope.csv at sampled nodes against mpmath.

    Half the sample is drawn from nodes with |z| in [5, 20), the band the
    fast branches leave to the high-precision fallback.
    """
    rows = _read_rows(path)
    body = rows[1:rows.index(["verdict", "max_violation", "tol", "refinement_ratio"])]
    ts = [float(r[0]) for r in body]
    in_band = [5.0 <= EX1_RATE * t**EX1_ALPHA < 20.0 for t in ts]
    band = [j for j, b in enumerate(in_band) if b]
    rest = [j for j, b in enumerate(in_band) if not b]
    if not band:
        return "no envelope node has |z| in [5, 20)"
    rng = random.Random(seed)
    picks = rng.sample(band, min(samples, len(band))) + rng.sample(rest, min(samples, len(rest)))
    for j in sorted(picks):
        z = -EX1_RATE * mpmath.mpf(ts[j]) ** EX1_ALPHA
        ref = EX1_AMP * ml_reference(EX1_ALPHA, float(z)) * EX1_NORM0_SQ * EX1_SLACK
        got = float(body[j][2])
        if abs(got - ref) > ML_REL_TOL * abs(ref):
            return f"envelope rhs at t={ts[j]!r}: {got!r} vs mpmath {float(ref)!r}"
    return None


def _reproduce_check(ctx: dict, it_dir: Path) -> dict[str, str | None]:
    out = {}
    for n in (1, 2, 3):
        d = it_dir / f"ex{n}"

        def one(n=n, d=d):
            return _check_verdicts(d / "stability_summary.txt", n) or (
                check_envelope(d / "ml_envelope.csv", ctx["seed"]) if n == 1 else None
            )

        out[f"reproduce_{n}"] = _guarded(one)
    return out


# --- convergence ------------------------------------------------------------


def _convergence_prepare(seed: int, inputs: Path) -> dict:
    cfg = inputs / "convergence.cfg"
    cfg.write_text(CONVERGENCE_CONFIG)
    return {"config": str(cfg)}


def _convergence_check(ctx: dict, it_dir: Path) -> dict[str, str | None]:
    def one():
        rows = _read_rows(it_dir / "conv" / "convergence.csv")
        errors = [float(r[1]) for r in rows[1:-1]]
        if rows[-1][0] != "fitted_order" or len(errors) != 3:
            return "convergence.csv does not hold three errors and a fitted order"
        if not all(math.isfinite(e) and e > 0.0 for e in errors):
            return f"errors not finite and positive: {errors}"
        order, expected = float(rows[-1][1]), min(2.0, 1.0 + EX1_ALPHA)
        if not abs(order - expected) <= ORDER_TOL:
            return f"fitted order {order!r} not within {ORDER_TOL} of {expected}"
        return None

    return {"convergence": _guarded(one)}


# --- check_suites -----------------------------------------------------------


def _check_prepare(seed: int, inputs: Path) -> dict:
    cfg = inputs / "check.cfg"
    checks = ", ".join(f"{name}:{CHECK_INSTANCES}" for name in SUITE_NAMES)
    cfg.write_text(f"preset = example1\nseed = {seed}\nchecks = [{checks}]\n")
    return {"config": str(cfg)}


def _check_check(ctx: dict, it_dir: Path) -> dict[str, str | None]:
    out: dict[str, str | None] = {}
    summary_path = it_dir / "cs" / "check_summary.csv"

    def summary():
        rows = _read_rows(summary_path)
        if rows[0] != ["name", "instances", "passes", "max_violation"]:
            return f"bad header {rows[0]}"
        return {r[0]: r for r in rows[1:]}

    table = _guarded(summary)
    out["check_summary"] = table if isinstance(table, str) else None
    for name in SUITE_NAMES:
        def one(name=name):
            if not isinstance(table, dict):
                return "check_summary.csv unreadable"
            row = table.get(name)
            if row is None:
                return "no summary row"
            instances, passes = int(row[1]), int(row[2])
            if instances != CHECK_INSTANCES or passes != instances:
                return f"{passes} of {instances} instances passed (expected {CHECK_INSTANCES})"
            files = len(list((it_dir / "cs" / name).glob("instance_*.csv")))
            if files != CHECK_INSTANCES:
                return f"{files} instance files"
            return None

        out[name] = _guarded(one)
    return out


# --- operators_api -----------------------------------------------------------


def _operators_prepare(seed: int, inputs: Path) -> dict:
    # p in [1, 3): the power rule's oracle needs p >= 1 for the L1 scheme
    return {"p": round(1.0 + 2.0 * random.Random(seed).random(), 6)}


def _operators_commands(ctx: dict) -> list[Command]:
    # one process per order: samples of about 1.5 s instead of one of 7 s
    return [Command(["operators", repr(ctx["p"]), str(OPERATOR_STEPS), "ops", repr(a)],
                    {f"{fn}_{a}": [f"ops/{fn}_{a}.npy"] for fn in ("caputo_l1", "rl_integral")})
            for a in OPERATOR_ALPHAS]


def power_rule(p: float, shift: float, ts: np.ndarray) -> np.ndarray:
    """Gamma(p+1)/Gamma(p+1+shift) * t^(p+shift): RL integral (shift = mu) or Caputo (shift = -alpha)."""
    coeff = float(mpmath.gamma(p + 1) / mpmath.gamma(p + 1 + shift))
    return coeff * ts ** (p + shift)


def _operators_check(ctx: dict, it_dir: Path) -> dict[str, str | None]:
    p = ctx["p"]
    ts = np.arange(OPERATOR_STEPS + 1) / OPERATOR_STEPS
    mask = ts >= 0.1
    out = {}
    for a in OPERATOR_ALPHAS:
        for fn, shift in (("caputo_l1", -a), ("rl_integral", a)):
            def one(fn=fn, a=a, shift=shift):
                got = np.load(it_dir / "ops" / f"{fn}_{a}.npy")
                if got.shape != ts.shape:
                    return f"shape {got.shape}"
                exact = power_rule(p, shift, ts[mask])
                err = np.abs(got[mask] - exact)
                rel = float(np.max(err / exact))
                if not rel <= OPERATOR_REL_TOL:
                    return f"relative error {rel:.3e} at t >= 0.1"
                order = 2.0 - a if fn == "caputo_l1" else 2.0
                bound = OPERATOR_ERR_CONST[fn] * (1.0 / OPERATOR_STEPS) ** order
                abs_err = float(np.max(err))
                return None if abs_err <= bound else f"error {abs_err:.3e} at t >= 0.1 over {bound:.3e} = C h^{order:g}"

            out[f"{fn}_{a}"] = _guarded(one)
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reproduce",
            size=f"reproduce 1, 2, 3 at {REPRODUCE_STEP_FACTOR}x the preset steps (500, 200, 400 steps)",
            predicted_zero=("inequalities.instances", "operators.rl_integral.calls"),
            prepare=lambda seed, inputs: {},
            commands=_reproduce_commands,
            setup_argv=lambda ctx: ["--step-factor", str(REPRODUCE_STEP_FACTOR), "setup", "reproduce"],
            check=_reproduce_check,
        ),
        Workload(
            name="convergence",
            size="example1, t_end 10, h_list [0.01, 0.005, 0.0025]: solves of 1000, 2000, 4000, 16000 steps",
            predicted_zero=("special.ml.calls", "reporting.write_report_csv.calls", "inequalities.instances"),
            prepare=_convergence_prepare,
            commands=lambda ctx: [Command(["cli", "convergence", ctx["config"], "--out", "conv"],
                                          {"convergence": ["conv/convergence.csv"]})],
            setup_argv=lambda ctx: ["setup", "convergence", ctx["config"]],
            check=_convergence_check,
        ),
        Workload(
            name="check_suites",
            size=f"all {len(SUITE_NAMES)} suites x {CHECK_INSTANCES} instances on 501 nodes, seed = --seed",
            predicted_zero=("special.ml.calls", "solver.solve.calls"),
            prepare=_check_prepare,
            commands=lambda ctx: [Command(
                ["cli", "check", ctx["config"], "--out", "cs"],
                {"check_summary": ["cs/check_summary.csv"], **{n: [f"cs/{n}"] for n in SUITE_NAMES}},
            )],
            setup_argv=lambda ctx: ["setup", "check_suites", ctx["config"]],
            check=_check_check,
        ),
        Workload(
            name="operators_api",
            size=f"caputo_l1 and rl_integral on t^p, {OPERATOR_STEPS} steps, one process per alpha in {OPERATOR_ALPHAS}",
            predicted_zero=("special.ml.calls", "solver.solve.calls"),
            prepare=_operators_prepare,
            commands=_operators_commands,
            setup_argv=lambda ctx: ["setup", "operators_api", f"{ctx['p']!r},{OPERATOR_STEPS}"],
            check=_operators_check,
        ),
    )
}
