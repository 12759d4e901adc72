"""Repeat benchmark runs over seeds and report each metric's median and quartile spread.

    python3 perfbench/spread.py --workload reproduce --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --traced --out perfbench/results/baseline.json

Each run is a fresh `run.py` process with the same arguments as any other run.  The spread
of an end-to-end metric is (Q3 - Q1) / median over the runs, with the
quartiles of statistics.quantiles(n=4); it is compared against a third of
the metric's bound in BENCHMARK.json.  With --traced, one traced run per
workload (on the first seed) adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result, provenance) of one run.py process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.splitlines()
    prov = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance "))
    return json.loads(lines[-1]), prov


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seeds", default="1-10", help="inclusive range A-B")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report: dict = {"run_seconds": args.seconds, "seeds": [lo, hi], "workloads": {}}
    for name in names:
        runs, raws = [], []
        for seed in range(lo, hi + 1):
            result, prov = bench_run(name, seed, args.seconds, 0)
            runs.append(result)
            raws.append(prov["raw"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()) + f", failed {result['failed']}",
                flush=True)
        entry = {
            "size": prov["size"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {k: summarize([r["metrics"][k]["value"] for r in runs]) for k in bounds},
            "raw": {k: summarize([r[k] for r in raws]) for k in bounds},
        }
        report.setdefault("provenance", {k: v for k, v in prov.items()
                                         if k not in ("workload", "why", "size", "inputs", "seed", "raw", "speed")})
        for k, s in entry["end_to_end"].items():
            verdict = "ok" if s["spread"] < bounds[k] / 3 else ("WIDE" if s["spread"] <= bounds[k] else "OVER BOUND")
            print(f"  {name} {k:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
                  f"spread {s['spread']:.4f} (bound {bounds[k]}) {verdict};  "
                  f"raw median {entry['raw'][k]['median']:.4f} spread {entry['raw'][k]['spread']:.4f}")
        if args.traced:
            result, _ = bench_run(name, lo, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["per_layer_seed"] = lo
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
