"""fracstab benchmark: cold-process workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one after another

Run from a checkout of the repository; the program is imported from its
`src/`.  Each operation runs in a fresh Python process, one after another
(a closed loop with one client), because every CLI user pays the cold
import and mpmath cost on every run.  One iteration runs all commands of
the workload; iterations repeat for about S seconds.

--trace 0 reports the end-to-end metrics: wall_s and cpu_s (user+sys of
the children, from wait4) of one iteration, each the sum over its commands
of the command's median over iterations; setup_s, the median of fresh-
process set-ups (import plus input resolution) run between iterations; and
peak_rss_mb.  The times are speed-normalized (see PROBE_REF_S); the raw
times are printed beside them.
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of tracer.py, with the tracing overhead.

Every operation is checked: exit code, expected outputs present, outputs
correct against independent references (workloads.py), and every later
iteration's files byte-identical to the first's.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import mpmath
import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, layer_metrics, metric_names, metric_unit, read_trace  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

CHILD = HERE / "child.py"
SETUPS_PER_ITERATION = 2
MIN_ITERATIONS = 2  # the second is the byte-identical rerun
RUN_DEADLINE_S = 170.0  # every run must end within 180 s
# numpy's OpenBLAS otherwise runs the large convolutions on every core; on
# a small shared machine its spinning threads made one 5e4-node caputo_l1
# call take 110 s of wall (117 s CPU) instead of 0.7 s.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The 2-vCPU machine this benchmark was built on is shared, and its speed
# drifts with other tenants' load (no steal time shows): raw medians of one
# workload moved by up to 28% between runs an hour apart.  A fixed speed
# probe runs in this process after every child, and every time of a run is
# scaled by PROBE_REF_S over the median of the run's probes: reported times
# are seconds at the machine speed where the probe takes PROBE_REF_S.  One probe is too short to scale one sample by (single
# probes spread by 20% while the children did not), so the scale is per run.
# Two sets of ten seeds (results/baseline.json holds the first) gave wall_s
# spreads, normalized vs raw: reproduce 0.04/0.06 vs 0.07/0.09, check_suites
# 0.08/0.09 vs 0.09/0.11, convergence 0.11/0.13 vs 0.08/0.10, operators_api
# 0.09/0.05 vs 0.07/0.02: it helps the first two and widens the numpy-heavy
# last two.  It is kept because between the sets raw medians moved by up to
# 16% (check_suites) and normalized ones by at most 10%.
PROBE_REF_S = 0.03
_PROBE_SMALL = np.linspace(0.0, 5.0, 501)
UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program to measure, or set-up fails)."""


@dataclass
class Proc:
    start: float
    end: float
    code: int
    cpu_s: float
    rss_mb: float


def speed_probe() -> float:
    """Seconds for a fixed mix of bytecode, mpmath, float formatting and small-array numpy calls."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    x = mpmath.mpf(1)
    with mpmath.workdps(30):
        for k in range(600):
            x = x * mpmath.mpf(1.0001) + mpmath.gamma(k * 0.01 + 1.5)
    for _ in range(30):
        total += len(",".join(f"{v:.17g}" for v in _PROBE_SMALL.tolist()))
    for _ in range(600):
        total += float(np.max(np.sin(_PROBE_SMALL) * _PROBE_SMALL))
    return time.perf_counter() - start


@dataclass
class Iteration:
    directory: Path
    traced: bool
    procs: list[Proc] = field(default_factory=list)  # one per command
    traces: list[Path] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)  # seconds

    @property
    def wall_s(self) -> float:
        return sum(p.end - p.start for p in self.procs)


def run_child(argv: list[str], cwd: Path, env: dict, log: Path, timeout: float) -> Proc:
    """Run child.py to completion; kill it after `timeout` seconds."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), *argv], cwd=cwd, env=env,
                                stdout=out, stderr=subprocess.STDOUT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(start, end, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def digest(path: Path) -> str | None:
    """sha256 of a file, or of every file under a directory with its relative name; None if missing."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    if not path.is_dir():
        return None
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


class Run:
    """One benchmark run of one workload, in its own work directory."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t_start = time.perf_counter()
        self.work = ROOT / ".bench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, **SINGLE_THREADED, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self.failures: Counter[str] = Counter()
        self.attempted = 0
        self.probes: list[float] = []  # speed_probe() seconds, one after every child

    @property
    def scale(self) -> float:
        """Speed normalization of every time of this run."""
        return PROBE_REF_S / statistics.median(self.probes)

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.t_start)

    def prepare(self) -> None:
        if not (ROOT / "src" / "fracstab" / "__init__.py").is_file():
            raise BenchmarkError(f"no fracstab sources under {ROOT / 'src'}")
        shutil.rmtree(self.work, ignore_errors=True)
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True)
        self.ctx = dict(self.w.prepare(self.seed, inputs), seed=self.seed)
        self.commands = self.w.commands(self.ctx)
        # untimed warm-up: byte-compiles the sources and fills the file cache,
        # and proves the children import the checkout's fracstab
        where = subprocess.run([sys.executable, "-c", "import fracstab.cli; print(fracstab.cli.__file__)"],
                               env=self.env, cwd=inputs, capture_output=True, text=True, timeout=120)
        if where.returncode != 0 or not where.stdout.strip().startswith(str(ROOT / "src")):
            raise BenchmarkError(f"fracstab does not import from {ROOT / 'src'}: {where.stderr.strip()[-300:]}")

    def setup_time(self) -> float:
        log = self.work / "inputs" / "setup.log"
        proc = run_child(self.w.setup_argv(self.ctx), self.work / "inputs", self.env, log, self.remaining())
        self.probes.append(speed_probe())
        if proc.code != 0:
            raise BenchmarkError(f"set-up failed (exit {proc.code}): {log.read_text()[-300:]}")
        return float(log.read_text().split()[-1])

    def iteration(self, index: int, traced: bool) -> Iteration:
        it = Iteration(self.work / f"it{index}", traced)
        it.directory.mkdir()
        if not self.trace:
            it.setups = [self.setup_time() for _ in range(SETUPS_PER_ITERATION)]
        for c, command in enumerate(self.commands):
            argv = command.argv
            if traced:
                it.traces.append(it.directory / f"trace{c}.bin")
                argv = ["--trace", str(it.traces[-1]), *argv]
            it.procs.append(run_child(argv, it.directory, self.env, it.directory / f"log{c}.txt",
                                      self.remaining()))
            self.probes.append(speed_probe())
        return it

    def loop(self) -> list[Iteration]:
        """Iterations for about `seconds`; in a trace run, untraced/traced pairs."""
        its: list[Iteration] = []
        t0 = time.perf_counter()
        while True:
            for traced in ((False, True) if self.trace else (False,)):
                its.append(self.iteration(len(its), traced))
                self.account(its[-1], its[0])
            elapsed = time.perf_counter() - t0
            step = elapsed / (len(its) // (2 if self.trace else 1))
            done = len(its) >= MIN_ITERATIONS and elapsed + step > self.seconds
            if done or step > self.remaining() - 5.0:
                return its

    def account(self, it: Iteration, first: Iteration) -> None:
        """Count this iteration's operations; keep only the first iteration's files."""
        digests = {}
        for command, proc in zip(self.commands, it.procs):
            for op, paths in command.ops.items():
                self.attempted += 1
                digests[op] = [digest(it.directory / p) for p in paths]
                if proc.code != 0:
                    self.failures[f"{op}: exit code {proc.code}"] += 1
                elif None in digests[op]:
                    self.failures[f"{op}: missing {paths[digests[op].index(None)]}"] += 1
                elif it is not first and digests[op] != self.first_digests[op]:
                    self.failures[f"{op}: output differs from the first iteration"] += 1
        if it is first:
            self.first_digests = digests
        else:
            for p in it.directory.iterdir():
                if not p.name.startswith("trace"):
                    shutil.rmtree(p) if p.is_dir() else p.unlink()

    def check_outputs(self, its: list[Iteration]) -> None:
        """Check the first iteration's outputs; a wrong output fails that operation in every iteration."""
        for op, reason in self.w.check(self.ctx, its[0].directory).items():
            if reason is not None:
                self.failures[f"{op}: {reason}"] += len(its)

    def end_to_end(self, its: list[Iteration], normalized: bool = True) -> dict[str, float]:
        per_command = list(zip(*(it.procs for it in its)))
        k = self.scale if normalized else 1.0
        return {
            "wall_s": k * sum(statistics.median(p.end - p.start for p in c) for c in per_command),
            "cpu_s": k * sum(statistics.median(p.cpu_s for p in c) for c in per_command),
            "setup_s": k * statistics.median(t for it in its for t in it.setups),
            "peak_rss_mb": max(statistics.median(p.rss_mb for p in c) for c in per_command),
        }

    def per_layer(self, its: list[Iteration]) -> dict[str, float]:
        per_it = []
        # loop() runs untraced/traced pairs: its[i - 1] is the untraced twin of a traced its[i]
        for untraced, it in zip(its[::2], its[1::2]):
            spans, counts, offset, startup = [], Counter(), 0, 0.0
            for path, proc in zip(it.traces, it.procs):
                s, c = read_trace(str(path))
                roots = [x for x in s if x.parent == 0]
                startup += min((x.start for x in roots), default=proc.end) - proc.start
                spans += [x._replace(sid=x.sid + offset, parent=x.parent + offset if x.parent else 0) for x in s]
                offset += max((x.sid for x in s), default=0)
                counts.update(c)
            m = layer_metrics(spans, counts)
            accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS)
            m["trace.spans"] = len(spans)
            m["trace.wall_s"] = it.wall_s
            m["trace.startup_s"] = startup
            m["trace.accounted_frac"] = accounted / (it.wall_s - startup)
            m["trace.overhead_s"] = self.scale * (it.wall_s - untraced.wall_s)
            m["trace.predicted_zero_misses"] = sum(1 for k in self.w.predicted_zero if m[k] != 0)
            per_it.append(m)
        return {k: statistics.median(m[k] for m in per_it) for k in metric_names()}


def provenance(w: Workload, seed: int, seconds: float, ctx: dict) -> dict:
    import mpmath
    import numpy

    why = {x["name"]: x["why"] for x in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "fracstab").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "workload": w.name, "why": why.get(w.name, ""), "size": w.size,
        "inputs": {k: v for k, v in ctx.items() if k != "config"}, "seed": seed, "run_seconds": seconds,
        "commit": commit, "src_sha256": src.hexdigest()[:16], "python": platform.python_version(),
        "numpy": numpy.__version__, "mpmath": mpmath.__version__, "nproc": os.cpu_count(), "blas": blas,
        "closed_loop": "1 client, operations one after another, each in a fresh process",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    run = Run(w, seed, seconds, trace)
    try:
        run.prepare()
        its = run.loop()
        run.check_outputs(its)
        metrics = run.per_layer(its) if trace else run.end_to_end(its)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    failed = sum(run.failures.values())
    prov = provenance(w, seed, seconds, run.ctx)
    if not trace:
        raw = run.end_to_end(its, normalized=False)
        prov["speed"] = 1.0 / run.scale
        prov["raw"] = raw
    print("provenance " + json.dumps(prov))
    walls = [run.scale * it.wall_s for it in its if not it.traced]
    print(f"{name}: {w.size}; seed {seed}; {len(its)} iterations"
          f"{' (untraced/traced pairs)' if trace else ''} of {len(run.commands)} processes")
    if trace:
        for k, v in metrics.items():
            if v:
                print(f"  {k:42s} {v:.6g}")
        zeros = {k: metrics[k] for k in w.predicted_zero}
        print(f"  predicted zero: {', '.join(f'{k} = {v:g}' for k, v in zeros.items())}")
    else:
        tail = tail_percentile(walls)
        tail_text = f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no tail percentile (needs 11+ samples)"
        print(f"  (speed-normalized; raw = as measured, with the probe at {prov['speed']:.3f}x its reference time)")
        print(f"  wall_s       {metrics['wall_s']:.4f} s   raw {raw['wall_s']:.4f} s   per-command medians of"
              f" {len(walls)} iterations; tail {tail_text}")
        print(f"  cpu_s        {metrics['cpu_s']:.4f} s   raw {raw['cpu_s']:.4f} s")
        print(f"  setup_s      {metrics['setup_s']:.4f} s   raw {raw['setup_s']:.4f} s   median of"
              f" {len(its) * SETUPS_PER_ITERATION} fresh set-ups")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB  largest per-command median")
    print(f"  fail_frac    {failed / run.attempted:g}   ({failed} of {run.attempted} operations failed)")
    for reason, n in run.failures.most_common(5):
        print(f"    {n} x {reason}")
    unit = metric_unit if trace else UNITS.get
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
