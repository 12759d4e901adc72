"""Spans around the calls into each fracstab layer, recorded from outside.

The package is not changed: `Tracer.install` rebinds every module-level name
through which one fracstab module reaches another layer's public function
(and the defining module's own name, for calls inside a module such as
`convergence_study` -> `solve`) to a wrapper that records a span.  Spans are
kept in memory and written out once, when the traced process ends.

`layer_metrics` turns the spans of one workload iteration into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import marshal
import math
import os
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int  # 0: no parent inside this process
    name: str
    start: float
    end: float
    value: float  # one number per span; its meaning depends on the name (see TARGETS)


def _ml_abs_z(args, kwargs, result):
    return abs(float(args[1] if len(args) > 1 else kwargs["z"]))


def _grid_steps(args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return float(grid.n_steps)


def _series_nodes(args, kwargs, result):
    return float(result.grid.n_nodes)


def _file_bytes(args, kwargs, result):
    return float(os.path.getsize(args[0]))


def _refined(args, kwargs, result):
    return 0.0 if math.isnan(result.refinement_ratio) else 1.0


def _instances(args, kwargs, result):
    return float(result.instances)


# (module, function, span name, value of the span).  Span names are
# "<layer>.<function>"; the layer is the fracstab module that defines it.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("fracstab.cli", "main", "cli.main", None),
    ("fracstab.config", "load_config", "config.load_config", None),
    ("fracstab.presets", "get_preset", "presets.get_preset", None),
    ("fracstab.presets", "run_preset", "presets.run_preset", None),
    ("fracstab.special", "mittag_leffler", "special.ml", _ml_abs_z),
    ("fracstab.special", "gamma", "special.gamma", None),
    ("fracstab.solver", "solve", "solver.solve", _grid_steps),
    ("fracstab.solver", "convergence_study", "solver.convergence_study", None),
    ("fracstab.expressions", "evaluate", "expressions.evaluate", None),
    ("fracstab.expressions", "parse", "expressions.parse", None),
    ("fracstab.expressions", "sample_on", "expressions.sample_on", None),
    ("fracstab.operators", "caputo_l1", "operators.caputo_l1", _series_nodes),
    ("fracstab.operators", "rl_integral", "operators.rl_integral", _series_nodes),
    ("fracstab.inequalities", "run_suite", "inequalities.run_suite", _instances),
    ("fracstab.inequalities", "make_report", "inequalities.make_report", _refined),
    ("fracstab.inequalities", "verify_decomposition_nr6", "inequalities.nr6", _refined),
    ("fracstab.stability", "check_sandwich", "stability.check_sandwich", None),
    ("fracstab.stability", "check_dissipation", "stability.check_dissipation", None),
    ("fracstab.stability", "check_ml_envelope", "stability.check_ml_envelope", None),
    ("fracstab.stability", "check_local_ball", "stability.check_local_ball", None),
    ("fracstab.reporting", "write_report_csv", "reporting.write_report_csv", _file_bytes),
    ("fracstab.reporting", "write_trajectory_csv", "reporting.write_trajectory_csv", _file_bytes),
    ("fracstab.reporting", "write_stability_report", "reporting.write_stability_report", None),
)

# Counted, not timed: one call of the solver's private RHS helper is one RHS
# evaluation (all components at one state).
COUNTED = (("fracstab.solver", "_rhs_at", "solver.rhs_evals"),)


class Tracer:
    """Records spans in memory; single-threaded, like the traced program."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, fn: Callable, name: str, value_of: Callable | None = None) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                value = value_of(args, kwargs, result) if value_of is not None and done else 0.0
                spans.append(Span(sid, parent, name, start, end, value))

        return traced

    def count(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, 0.0))

    def install(self) -> None:
        """Wrap every fracstab module-level binding of each target."""
        plan = [(m, f, self.wrap(getattr(importlib.import_module(m), f), n, v)) for m, f, n, v in TARGETS]
        plan += [(m, f, self.count(getattr(importlib.import_module(m), f), n)) for m, f, n in COUNTED]
        modules = [mod for name, mod in sys.modules.items() if name == "fracstab" or name.startswith("fracstab.")]
        for module_name, fn_name, wrapper in plan:
            original = getattr(sys.modules[module_name], fn_name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def write(self, path: str) -> None:
        # marshal: the fastest writer of plain tuples, so the traced process ends soon after main
        with open(path, "wb") as fh:
            marshal.dump((dict(self.counts), [tuple(s) for s in self.spans]), fh)


def read_trace(path: str) -> tuple[list[Span], dict[str, int]]:
    """Spans and counts as written by Tracer.write (a file this benchmark made)."""
    with open(path, "rb") as fh:
        counts, spans = marshal.load(fh)
    return [Span(*s) for s in spans], counts


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Children of one span never overlap (the program is single-threaded), so
    the self times of a tree add up to its root's duration.
    """
    child_total: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent:
            child_total[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - child_total[s.sid] for s in spans}


# "harness" is the benchmark's own code in a workload that calls the library
# directly instead of through the CLI.
LAYERS = ("cli", "harness", "config", "presets", "solver", "expressions", "special",
          "operators", "inequalities", "stability", "reporting")

# |z| bands of the Mittag-Leffler argument: [0, 0.25) is the short series,
# [5, 20) is where the fast branches fail on the presets and mpmath serves.
ML_BANDS = (("z_small", 0.0, 0.25), ("z_mid", 0.25, 5.0), ("z_band", 5.0, 20.0), ("z_far", 20.0, math.inf))

# Step counts of the convergence workload's solves: the solve-cost scaling curve.
SOLVE_SIZES = (1000, 2000, 4000, 16000)

# Filled per iteration by the benchmark run, not from the spans alone.
TRACE_METRICS = ("trace.spans", "trace.wall_s", "trace.startup_s", "trace.accounted_frac",
                 "trace.overhead_s", "trace.predicted_zero_misses")


def metric_names() -> list[str]:
    """Every per-layer metric, in report order (the per_layer list of BENCHMARK.json)."""
    return list(layer_metrics([], {})) + list(TRACE_METRICS)


def metric_unit(name: str) -> str:
    if name.endswith(("us_per_step", "us_per_call")):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one iteration's spans (all but TRACE_METRICS)."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    value: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[s.sid]
        incl_s[s.name] += s.end - s.start
        value[s.name] += s.value
        layer_self[s.name.split(".")[0]] += own[s.sid]

    def under(s: Span, ancestor: str) -> bool:
        p = s.parent
        while p:
            if by_id[p].name == ancestor:
                return True
            p = by_id[p].parent
        return False

    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m["special.ml.calls"] = calls["special.ml"]
    m["special.ml.self_s"] = self_s["special.ml"]
    for band, lo, hi in ML_BANDS:
        in_band = [s for s in spans if s.name == "special.ml" and lo <= s.value < hi]
        m[f"special.ml.{band}.calls"] = len(in_band)
        m[f"special.ml.{band}.self_s"] = sum(own[s.sid] for s in in_band)
    m["special.gamma.calls"] = calls["special.gamma"]

    steps = value["solver.solve"]
    m["solver.solve.calls"] = calls["solver.solve"]
    m["solver.solve.steps"] = steps
    m["solver.solve.self_s"] = self_s["solver.solve"]
    m["solver.solve.us_per_step"] = 1e6 * self_s["solver.solve"] / steps if steps else 0.0
    m["solver.rhs_evals"] = counts.get("solver.rhs_evals", 0)
    for n in SOLVE_SIZES:
        m[f"solver.solve.n{n}.self_s"] = sum(
            own[s.sid] for s in spans if s.name == "solver.solve" and s.value == n
        )
    m["solver.convergence_study.self_s"] = self_s["solver.convergence_study"]

    for fn in ("evaluate", "parse", "sample_on"):
        m[f"expressions.{fn}.calls"] = calls[f"expressions.{fn}"]
        m[f"expressions.{fn}.self_s"] = self_s[f"expressions.{fn}"]
        if fn == "evaluate":
            n_eval = calls["expressions.evaluate"]
            m["expressions.evaluate.us_per_call"] = 1e6 * self_s["expressions.evaluate"] / n_eval if n_eval else 0.0

    for fn in ("caputo_l1", "rl_integral"):
        m[f"operators.{fn}.calls"] = calls[f"operators.{fn}"]
        m[f"operators.{fn}.self_s"] = self_s[f"operators.{fn}"]
        m[f"operators.{fn}.nodes"] = value[f"operators.{fn}"]
        if fn == "caputo_l1":
            m["operators.caputo_l1.max_nodes"] = max(
                (s.value for s in spans if s.name == "operators.caputo_l1"), default=0.0
            )

    reports = calls["inequalities.make_report"] + calls["inequalities.nr6"]
    refined = value["inequalities.make_report"] + value["inequalities.nr6"]
    m["inequalities.run_suite.self_s"] = self_s["inequalities.run_suite"]
    m["inequalities.instances"] = value["inequalities.run_suite"]
    m["inequalities.make_report.calls"] = calls["inequalities.make_report"]
    m["inequalities.reports"] = reports  # the base of refine_ratio
    m["inequalities.refine.calls"] = refined
    m["inequalities.refine_ratio"] = refined / reports if reports else 0.0

    for fn in ("check_ml_envelope", "check_dissipation", "check_sandwich", "check_local_ball"):
        m[f"stability.{fn}.self_s"] = self_s[f"stability.{fn}"]
        if fn == "check_dissipation":
            m["stability.check_dissipation.resolves"] = sum(
                1 for s in spans if s.name == "solver.solve" and under(s, "stability.check_dissipation")
            )

    for fn in ("write_report_csv", "write_trajectory_csv"):
        m[f"reporting.{fn}.calls"] = calls[f"reporting.{fn}"]
        m[f"reporting.{fn}.self_s"] = self_s[f"reporting.{fn}"]
        m[f"reporting.{fn}.bytes"] = value[f"reporting.{fn}"]
    m["reporting.write_stability_report.self_s"] = self_s["reporting.write_stability_report"]

    m["config.load_config.s"] = incl_s["config.load_config"]
    m["presets.get_preset.s"] = incl_s["presets.get_preset"]
    return m
