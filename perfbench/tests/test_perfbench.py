"""Tests of the benchmark's own logic: span arithmetic, metric names, output accounting.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spread  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, layer_metrics, metric_names, metric_unit, read_trace, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    spans = [
        Span(3, 2, "special.ml", 2.0, 3.0, 7.0),
        Span(2, 1, "stability.check_ml_envelope", 1.0, 4.0, 0.0),
        Span(4, 1, "solver.solve", 5.0, 9.0, 1000.0),
        Span(1, 0, "cli.main", 0.0, 10.0, 0.0),
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    assert sum(own.values()) == pytest.approx(10.0)

    m = layer_metrics(spans, {"solver.rhs_evals": 5001})
    assert m["cli.self_s"] == 3.0
    assert m["stability.check_ml_envelope.self_s"] == 2.0
    assert m["special.ml.z_band.calls"] == 1 and m["special.ml.z_band.self_s"] == 1.0
    assert m["special.ml.z_small.calls"] == 0
    assert m["solver.solve.n1000.self_s"] == 4.0
    assert m["solver.solve.us_per_step"] == pytest.approx(1e6 * 4.0 / 1000)
    assert m["solver.rhs_evals"] == 5001


def test_tracer_records_parents_and_values():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap(inner, "expressions.evaluate")
    traced_outer = tracer.wrap(lambda x: traced_inner(x) * 2, "solver.solve", lambda a, k, r: float(r))
    assert traced_outer(1) == 4
    with pytest.raises(TypeError):
        traced_inner(None)
    by_name = {s.name: s for s in tracer.spans}
    outer = by_name["solver.solve"]
    assert outer.parent == 0 and outer.value == 4.0
    assert tracer.spans[0].parent == outer.sid  # the inner call finished first
    assert tracer.spans[-1].parent == 0  # the failed call is still recorded, at top level
    assert tracer._stack == [0]


def test_trace_of_a_real_command(tmp_path):
    trace = tmp_path / "trace.bin"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--trace", str(trace), "--step-factor", "10",
         "cli", "reproduce", "2", "--out", str(tmp_path / "out")],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans, counts = read_trace(str(trace))
    by_id = {s.sid: s for s in spans}
    roots = [s for s in spans if s.parent == 0]
    assert [s.name for s in roots] == ["cli.main"]
    solves = [s for s in spans if s.name == "solver.solve"]
    assert solves and all(by_id[s.parent].name in ("presets.run_preset", "inequalities.make_report") for s in solves)
    # one RHS evaluation at x0, then a prediction and a correction per step
    assert counts["solver.rhs_evals"] == sum(2 * s.value + 1 for s in solves)
    m = layer_metrics(spans, counts)
    assert m["expressions.evaluate.calls"] >= counts["solver.rhs_evals"]
    assert sum(m[f"{layer}.self_s"] for layer in ("cli", "presets", "solver", "expressions", "special",
                                                  "operators", "inequalities", "stability", "reporting")) \
        == pytest.approx(roots[0].end - roots[0].start)


def test_metric_names_and_units_are_valid():
    spec = _spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in spec[key])
    assert [m["name"] for m in spec["per_layer"]] == metric_names()
    assert all(m["unit"] == metric_unit(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25


def test_workloads_match_spec_and_name_their_predicted_zeros():
    spec = {w["name"]: w["why"] for w in _spec()["workloads"]}
    assert list(spec) == list(workloads.WORKLOADS)
    for name, w in workloads.WORKLOADS.items():
        assert "\n" not in spec[name] and len(spec[name]) <= 200
        for metric in w.predicted_zero:
            assert metric in metric_names()
            assert metric in spec[name]


def _fake_run(name: str, tmp_path: Path, seed: int = 3) -> run.Run:
    r = run.Run(workloads.WORKLOADS[name], seed=seed, seconds=1.0, trace=False)
    r.ctx = dict(r.w.prepare(seed, tmp_path), seed=seed)
    r.commands = r.w.commands(r.ctx)
    return r


def _iteration(r: run.Run, directory: Path, code: int = 0) -> run.Iteration:
    it = run.Iteration(directory, traced=False)
    it.procs = [run.Proc(0.0, 1.0, code, 1.0, 30.0) for _ in r.commands]
    return it


def test_corrupted_outputs_fail_operations_without_crashing(tmp_path):
    r = _fake_run("check_suites", tmp_path)
    first = tmp_path / "it0"
    (first / "cs").mkdir(parents=True)
    (first / "cs" / "check_summary.csv").write_text("\x00garbage,\n1,2\n")
    for suite in workloads.SUITE_NAMES:
        (first / "cs" / suite).mkdir()
    its = [_iteration(r, first)]
    r.account(its[0], its[0])
    r.check_outputs(its)
    assert r.attempted == 1 + len(workloads.SUITE_NAMES)
    assert sum(r.failures.values()) == r.attempted  # the summary and every suite fail


def test_rerun_difference_and_exit_code_are_failures(tmp_path):
    r = _fake_run("convergence", tmp_path)
    dirs = [tmp_path / f"it{k}" / "conv" for k in range(3)]
    for d, order in zip(dirs, ("1.95", "1.96", "1.95")):
        d.mkdir(parents=True)
        d.joinpath("convergence.csv").write_text(f"h,max_error\n0.01,1e-4\n0.005,3e-5\n0.0025,8e-6\nfitted_order,{order}\n")
    its = [_iteration(r, d.parent, code=0 if k < 2 else 2) for k, d in enumerate(dirs)]
    for it in its:
        r.account(it, its[0])
    r.check_outputs(its)
    assert r.attempted == 3
    assert sorted(r.failures) == ["convergence: exit code 2", "convergence: output differs from the first iteration"]


@pytest.mark.parametrize("name", ["reproduce", "convergence", "operators_api"])
def test_checks_report_garbage_instead_of_raising(tmp_path, name):
    r = _fake_run(name, tmp_path)
    for command in r.commands:
        for paths in command.ops.values():
            for p in paths:
                target = tmp_path / "it0" / p
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(b"not,what\nwas:expected\n")
    reasons = r.w.check(r.ctx, tmp_path / "it0")
    assert reasons and all(isinstance(v, str) for v in reasons.values())


def test_ml_reference_matches_closed_forms():
    e_one = workloads.ml_reference(1.0, -10.0)
    e_half = workloads.ml_reference(0.5, -1.0)
    with mpmath.workdps(60):
        assert abs(e_one / mpmath.exp(-10) - 1) < mpmath.mpf(10) ** -48  # E_1(z) = e^z
        assert abs(e_half / (mpmath.e * mpmath.erfc(1)) - 1) < mpmath.mpf(10) ** -48  # E_1/2(-1) = e erfc(1)


def test_power_rule_reference():
    ts = np.array([0.5, 1.0])
    # Caputo derivative of t^2 at order 1 is 2t; RL integral of t at order 1 is t^2 / 2
    assert np.allclose(workloads.power_rule(2.0, -1.0, ts), 2 * ts)
    assert np.allclose(workloads.power_rule(1.0, 1.0, ts), ts**2 / 2)


def test_tail_percentile_and_spread():
    assert run.tail_percentile([1.0] * 10) is None
    pct, value = run.tail_percentile([float(k) for k in range(20)])
    assert pct == 50.0 and value == 9.0  # ten samples (10..19) lie beyond it
    assert spread.summarize([1.0, 1.0, 1.0, 1.0])["spread"] == 0.0
    s = spread.summarize([1.0, 2.0, 3.0, 4.0, 5.0])  # exclusive quartiles 1.5 and 4.5
    assert (s["q1"], s["median"], s["q3"]) == (1.5, 3.0, 4.5) and math.isclose(s["spread"], 1.0)


def test_operator_check_catches_lost_digits_within_relative_tolerance(tmp_path):
    r = _fake_run("operators_api", tmp_path)
    ts = np.arange(workloads.OPERATOR_STEPS + 1) / workloads.OPERATOR_STEPS
    ops = tmp_path / "it0" / "ops"
    ops.mkdir(parents=True)
    for a in workloads.OPERATOR_ALPHAS:
        for fn, shift in (("caputo_l1", -a), ("rl_integral", a)):
            exact = workloads.power_rule(r.ctx["p"], shift, np.maximum(ts, 1e-300))
            # 1e-3 relative error: inside criterion 2's 1e-2, far outside C h^order
            np.save(ops / f"{fn}_{a}.npy", exact * (1.0 + 1e-3) if a == 0.5 else exact)
    reasons = r.w.check(r.ctx, tmp_path / "it0")
    assert {k for k, v in reasons.items() if v is not None} == {"caputo_l1_0.5", "rl_integral_0.5"}
    assert "C h^" in reasons["caputo_l1_0.5"]
