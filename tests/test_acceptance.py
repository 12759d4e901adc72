"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the module (and the suite) is expected to finish well inside five
minutes on a laptop.
"""

import math
import time

import numpy as np

from fracstab.cli import main
from fracstab.expressions import evaluate
from fracstab.inequalities import run_suite
from fracstab.operators import FracOrder, SampleSeries, TimeGrid, caputo_l1, rl_integral
from fracstab.reporting import read_trajectory_csv
from fracstab.solver import SystemDef, convergence_study, solve
from fracstab.special import MLParams, gamma, mittag_leffler

from oracles import (
    caputo_power_exact,
    classical_pece_trapezoid,
    erfc_oracle,
    fit_order,
    rl_power_exact,
)

_MODULE_T0 = time.perf_counter()


def _verdict(n: int, ok: bool, detail: str):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_special_functions():
    t0 = time.perf_counter()
    gamma_err = abs(gamma(0.5) - math.sqrt(math.pi))
    params = MLParams(1.0)
    exp_rel = max(
        abs(mittag_leffler(params, float(z)) - math.exp(z)) / math.exp(z)
        for z in np.linspace(-20.0, 2.0, 500)
    )
    half_err = abs(mittag_leffler(MLParams(0.5), -1.0) - math.e * erfc_oracle(1.0))
    elapsed = time.perf_counter() - t0
    ok = gamma_err < 1e-12 and exp_rel < 1e-9 and half_err < 1e-8 and elapsed < 1.0
    _verdict(
        1,
        ok,
        f"|G(0.5)-sqrt(pi)|={gamma_err:.2e}, exp-identity rel={exp_rel:.2e}, "
        f"|E_half(-1)-e*erfc(1)|={half_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_operator_accuracy():
    # L1 Caputo of t^2 at alpha = 0.5
    g = TimeGrid(0.0, 1e-3, 1000)
    t = g.nodes()
    out = caputo_l1(SampleSeries(g, t**2), FracOrder(0.5)).values
    exact = caputo_power_exact(2.0, 0.5, t)
    m = t >= 0.1
    rel = float(np.max(np.abs(out[m] - exact[m]) / exact[m]))

    hs = (1e-2, 5e-3, 2.5e-3)
    cap_errs, rl_errs = [], []
    for h in hs:
        gh = TimeGrid(0.0, h, round(1.0 / h))
        th = gh.nodes()
        mh = th >= 0.1
        cap = caputo_l1(SampleSeries(gh, th**2), FracOrder(0.5)).values
        cap_errs.append(np.max(np.abs(cap[mh] - caputo_power_exact(2.0, 0.5, th)[mh])))
        rl = rl_integral(SampleSeries(gh, th**2), 0.5).values
        rl_errs.append(np.max(np.abs(rl[mh] - rl_power_exact(2.0, 0.5, th)[mh])))
    cap_order = fit_order(hs, cap_errs)
    rl_order = fit_order(hs, rl_errs)
    ok = rel < 1e-2 and abs(cap_order - 1.5) <= 0.3 and abs(rl_order - 2.0) <= 0.3
    _verdict(
        2,
        ok,
        f"L1 rel err={rel:.2e} (<1e-2), L1 order={cap_order:.2f} (1.5 +/- 0.3), "
        f"RL order={rl_order:.2f} (2.0 +/- 0.3)",
    )


def test_criterion_3_solver_vs_mittag_leffler():
    t0 = time.perf_counter()
    system = SystemDef.from_strings(1, 0.9, ["-x1"], [1.0])
    traj = solve(system, TimeGrid(0.0, 1e-3, 5000))
    params = MLParams(0.9)
    ts = traj.grid.nodes()
    ref = np.array([mittag_leffler(params, -float(x) ** 0.9) for x in ts])
    err = float(np.max(np.abs(traj.states[0].values - ref)))
    study = convergence_study(system, 1.0, (1e-2, 5e-3, 2.5e-3))
    elapsed = time.perf_counter() - t0
    ok = err < 1e-4 and study.fitted_order >= 1.5 and elapsed < 10.0
    _verdict(
        3,
        ok,
        f"max |x - E_0.9| = {err:.2e} (<1e-4), order={study.fitted_order:.2f} (>=1.5), "
        f"{elapsed:.2f}s (<10s)",
    )


def test_criterion_4_alpha_one_reduction():
    system = SystemDef.from_strings(
        2, 1.0, ["-x1 - x2/(1+t)", "x1 - x2"], [-10.0, 10.0]
    )
    grid = TimeGrid(0.0, 1e-3, 10000)
    traj = solve(system, grid)

    def rhs(t, x):
        return np.array([evaluate(e, t=t, x=tuple(x)) for e in system.rhs])

    ref = classical_pece_trapezoid(rhs, 0.0, system.x0, grid.h, grid.n_steps)
    err = float(np.max(np.abs(traj.matrix() - ref)))
    ok = err < 1e-8
    _verdict(4, ok, f"max |fractional(a=1) - classical PECE| = {err:.2e} (<1e-8) on [0,10]")


def test_criterion_5_inequality_suites():
    t0 = time.perf_counter()
    lines = []
    ok = True
    for name in ("nr1", "nr1_increasing", "nr2", "lemma3", "lemma4", "nr12"):
        res = run_suite(name, 200, seed=7)
        ok &= res.all_passed
        lines.append(f"{name}={res.passes}/200")
    res4 = run_suite("nr4_identity", 50, seed=7)
    ok &= res4.all_passed
    lines.append(f"nr4_identity={res4.passes}/50 (max rel residual {res4.max_violation:.1e})")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _verdict(5, ok, ", ".join(lines) + f", {elapsed:.1f}s (<120s)")


def test_criterion_6_example1_reproduction(example1_run):
    traj, report = example1_run
    sandwich_ok = report.sandwich.verdict
    diss_ok = report.dissipation.verdict
    env_ok = report.envelope.verdict
    # the envelope inequality asserted directly from its definition
    params = MLParams(0.9)
    ts = traj.grid.nodes()
    bound = np.array(
        [2.0 * mittag_leffler(params, -0.5 * float(t) ** 0.9) * 200.0 * 1.05 for t in ts]
    )
    direct_ok = bool(np.all(traj.norms() ** 2 <= bound))
    final_norm = float(traj.norms()[-1])
    ok = sandwich_ok and diss_ok and env_ok and direct_ok and final_norm < 0.5
    _verdict(
        6,
        ok,
        f"sandwich={sandwich_ok}, dissipation={diss_ok}, envelope={env_ok and direct_ok}, "
        f"|x(50)|={final_norm:.3f} (<0.5)",
    )


def test_criterion_7_example2_reproduction(example2_run):
    traj, report = example2_run
    diss_ok = report.dissipation.verdict
    final = abs(float(traj.states[0].values[-1]))
    ok = diss_ok and final < 0.05
    _verdict(7, ok, f"dissipation(12 r^8)={diss_ok}, |x(20)|={final:.4f} (<0.05)")


def test_criterion_8_example3_reproduction(example3_run):
    traj, report = example3_run
    ball_ok = report.ball.verdict
    diss_ok = report.dissipation.verdict
    final_norm = float(traj.norms()[-1])
    ok = ball_ok and diss_ok and final_norm < 1e-2
    _verdict(
        8,
        ok,
        f"ball(0.5)={ball_ok} (max norm {max(report.ball.lhs):.3f}), "
        f"dissipation={diss_ok}, |x(40)|={final_norm:.2e} (<1e-2)",
    )


def test_criterion_9_determinism_and_format(tmp_path):
    identical = True
    roundtrip = True
    expected_rows = {"1": 5001, "2": 2001, "3": 4001}
    for example in ("1", "2", "3"):
        out_a = tmp_path / f"a{example}"
        out_b = tmp_path / f"b{example}"
        assert main(["reproduce", example, "--out", str(out_a)]) == 0
        assert main(["reproduce", example, "--out", str(out_b)]) == 0
        for path_a in sorted(out_a.iterdir()):
            path_b = out_b / path_a.name
            if path_a.read_bytes() != path_b.read_bytes():
                identical = False
        ts, states = read_trajectory_csv(out_a / "trajectory.csv")
        assert ts.shape == (expected_rows[example],)
        from fracstab.presets import get_preset

        preset = get_preset(f"example{example}")
        traj = solve(preset.system, preset.grid)
        if not (np.array_equal(states, traj.matrix()) and np.array_equal(ts, traj.grid.nodes())):
            roundtrip = False
    elapsed = time.perf_counter() - _MODULE_T0
    ok = identical and roundtrip and elapsed < 300.0
    _verdict(
        9,
        ok,
        f"byte-identical={identical}, csv bit-exact round-trip={roundtrip}, "
        f"acceptance module time {elapsed:.0f}s (<300s)",
    )
