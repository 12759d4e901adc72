"""One fresh-process operation of a benchmark workload.

    python3 perfbench/child.py [--trace FILE] [--step-factor K] cli ARGS...
    python3 perfbench/child.py [--trace FILE] operators P N OUTDIR ALPHA...
    python3 perfbench/child.py [--step-factor K] setup WORKLOAD [INPUT]

`cli` runs `fracstab.cli.main(ARGS)`, as the `fracstab` command does.
`--step-factor K` makes every preset K times coarser in step over the same
horizon (the reproduce workload's rescale).  `operators` calls the public
Caputo and RL operators of each order ALPHA on t^P at N steps and saves
the results.  `setup` times import plus input resolution and prints the
seconds.  With `--trace`, calls into each layer are recorded and written
to FILE at exit.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _rescale_presets(cli, factor: int) -> None:
    from fracstab.operators import TimeGrid

    get_preset = cli.get_preset

    def coarser(name, phi_text=None):
        preset = get_preset(name, phi_text=phi_text)
        g = preset.grid
        return dataclasses.replace(preset, grid=TimeGrid(g.t0, g.h * factor, g.n_steps // factor))

    cli.get_preset = coarser


def _operators(p: float, n: int, out: str, alphas: list[float]) -> int:
    import numpy as np
    from fracstab import operators

    grid = operators.TimeGrid(0.0, 1.0 / n, n)
    series = operators.SampleSeries(grid, grid.nodes() ** p)
    Path(out).mkdir(exist_ok=True)
    for alpha in alphas:
        np.save(Path(out) / f"caputo_l1_{alpha}.npy", operators.caputo_l1(series, operators.FracOrder(alpha)).values)
        np.save(Path(out) / f"rl_integral_{alpha}.npy", operators.rl_integral(series, alpha).values)
    return 0


def _setup(workload: str, arg: str | None, factor: int) -> float:
    import fracstab.cli as cli

    if workload == "reproduce":
        _rescale_presets(cli, factor)
        for name in ("example1", "example2", "example3"):
            cli.get_preset(name)
    elif workload == "operators_api":
        from fracstab.operators import SampleSeries, TimeGrid

        p, n = (float(v) for v in arg.split(","))
        grid = TimeGrid(0.0, 1.0 / n, int(n))
        SampleSeries(grid, grid.nodes() ** p)
    else:
        cli.load_config(Path(arg))
    return time.perf_counter() - _T0


def main(argv: list[str]) -> int:
    trace_path = None
    factor = 1
    while argv and argv[0].startswith("--"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--trace":
            trace_path = value
        elif flag == "--step-factor":
            factor = int(value)
        else:
            raise SystemExit(f"unknown flag {flag}")
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        print(repr(_setup(args[0], args[1] if len(args) > 1 else None, factor)))
        return 0

    import fracstab.cli as cli

    tracer = None
    if trace_path:
        from tracer import Tracer  # this file's directory is on sys.path

        tracer = Tracer()
        tracer.install()
    if factor != 1:
        _rescale_presets(cli, factor)
    try:
        if mode == "cli":
            return cli.main(args)
        if mode == "operators":
            with tracer.span("harness.operators") if tracer else contextlib.nullcontext():
                return _operators(float(args[0]), int(args[1]), args[2], [float(a) for a in args[3:]])
        raise SystemExit(f"unknown mode {mode}")
    finally:
        if tracer is not None:
            tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
