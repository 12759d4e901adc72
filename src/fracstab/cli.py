"""Command-line front end.

Subcommands: `simulate <config>`, `check <config>`, `reproduce <1|2|3>`,
`convergence <config>`, `plotscript <trajectory.csv>`.  Exit codes are a
stable contract: 0 success, 1 usage/config error, 2 divergence, 3 I/O
error, 4 unknown check name.  FRACSTAB_OUT sets the default output
directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, DivergenceError, FracstabError

if TYPE_CHECKING:
    from .config import RunConfig
    from .presets import ExamplePreset

# Each subcommand imports the modules it needs when it runs, and calls
# through the module (`solver.solve`), so a name rebound there is the one
# called here.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGENCE = 2
EXIT_IO = 3
EXIT_UNKNOWN_CHECK = 4


def _outdir(config_output: str | None, flag_output: str | None = None) -> Path:
    path = flag_output or config_output or os.environ.get("FRACSTAB_OUT") or "."
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def load_config(path: Path) -> RunConfig:
    """`config.load_config`: the validated RunConfig of a config file."""
    from . import config

    return config.load_config(path)


def get_preset(name: str, phi_text: str | None = None) -> ExamplePreset:
    """`presets.get_preset`: the built-in example `name`; `cmd_reproduce`
    calls whatever this name is bound to when it runs."""
    from . import presets

    return presets.get_preset(name, phi_text=phi_text)


def cmd_simulate(config: RunConfig, out_flag: str | None = None) -> int:
    from . import reporting, solver

    traj = solver.solve(config.system, config.grid)
    out = _outdir(config.output, out_flag)
    reporting.write_trajectory_csv(out / "trajectory.csv", traj)
    print(f"wrote {out / 'trajectory.csv'} ({traj.grid.n_nodes} rows)")
    return EXIT_OK


def cmd_check(config: RunConfig, out_flag: str | None = None) -> int:
    from . import inequalities, reporting

    if not config.checks:
        print("config lists no checks", file=sys.stderr)
        return EXIT_USAGE
    for name, _ in config.checks:
        if name not in inequalities.SUITE_NAMES:
            print(f"unknown check {name!r}; known: {', '.join(inequalities.SUITE_NAMES)}", file=sys.stderr)
            return EXIT_UNKNOWN_CHECK
    out = _outdir(config.output, out_flag)
    summary_lines = []
    all_ok = True
    for name, count in config.checks:
        result = inequalities.run_suite(name, count, seed=config.seed)
        suite_dir = out / name
        suite_dir.mkdir(parents=True, exist_ok=True)
        reporting.write_suite_reports(suite_dir, result)
        line = reporting.check_summary_row(result)
        summary_lines.append(line)
        print(line)
        all_ok &= result.all_passed
    reporting.write_check_summary_csv(out / "check_summary.csv", summary_lines)
    return EXIT_OK if all_ok else EXIT_USAGE


def cmd_reproduce(example_id: str, out_flag: str | None, phi: str | None) -> int:
    from . import presets, reporting

    preset = get_preset(f"example{example_id}", phi_text=phi)
    out = _outdir(None, out_flag)
    traj, report = presets.run_preset(preset)
    reporting.write_trajectory_csv(out / "trajectory.csv", traj)
    reporting.write_stability_report(out, report)
    print((out / "stability_summary.txt").read_text(), end="")
    return EXIT_OK if report.all_passed else EXIT_USAGE


def cmd_convergence(config: RunConfig, out_flag: str | None = None) -> int:
    from . import reporting, solver

    study = solver.convergence_study(config.system, config.grid.t_end, config.h_list, t0=config.grid.t0)
    out = _outdir(config.output, out_flag)
    reporting.write_convergence_csv(out / "convergence.csv", study)
    print(f"fitted order: {study.fitted_order:.3f}")
    return EXIT_OK


def cmd_plotscript(csv_path: str, out_flag: str | None = None) -> int:
    from . import reporting

    csv = Path(csv_path)
    lines = csv.read_text().splitlines()
    if not lines:
        raise FracstabError(f"{csv} has no header line")
    dim = max(1, len(lines[0].split(",")) - 1)
    script = reporting.gnuplot_script(csv.name, dim)
    target = Path(out_flag) if out_flag else csv.with_suffix(".gp")
    target.write_text(script)
    print(f"wrote {target}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracstab",
        description="Fractional-order solver and inequality/stability certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="solve the configured system, write trajectory.csv")
    p.add_argument("config")
    p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="run configured inequality suites")
    p.add_argument("config")
    p.add_argument("--out", default=None)

    p = sub.add_parser("reproduce", help="run a built-in example with its certificates")
    p.add_argument("example", choices=["1", "2", "3"])
    p.add_argument("--out", default=None)
    p.add_argument("--phi", default=None, help="plug-in envelope for example 3")

    p = sub.add_parser("convergence", help="self-convergence study for the configured system")
    p.add_argument("config")
    p.add_argument("--out", default=None)

    p = sub.add_parser("plotscript", help="emit a gnuplot script for a trajectory CSV")
    p.add_argument("csv")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place where exceptions become exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        if args.command == "reproduce":
            return cmd_reproduce(args.example, args.out, args.phi)
        if args.command == "plotscript":
            return cmd_plotscript(args.csv, args.out)
        config = load_config(Path(args.config))
        if args.command == "check":
            return cmd_check(config, args.out)
        if config.system is None:  # only `check` runs a config that names no system key
            raise ConfigError("missing key 'dim'")
        if args.command == "simulate":
            return cmd_simulate(config, args.out)
        if args.command == "convergence":
            return cmd_convergence(config, args.out)
    except (OSError, UnicodeDecodeError) as exc:  # the latter: an input file that is not text
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergenceError as exc:  # before FracstabError, its base class
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FracstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser.error(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
