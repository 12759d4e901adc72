"""Each subcommand, run in a fresh interpreter, loads exactly the fracstab
modules it runs, and only `check` loads the standard modules the suites
need; the only class it loads that `@dataclass` built is `ExamplePreset`,
which `dataclasses.replace` is applied to; and a preset's system and the
instance limit are each defined once, whichever path reads them.

In-process tests cannot see a missing deferred import: by the time they
run, other tests have loaded every module.  Hence the fresh processes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracstab import config, inequalities, presets
from fracstab.config import parse_config
from fracstab.solver import SystemDef

SRC = str(Path(__file__).resolve().parents[1] / "src")

SOLVE_CONFIG = "preset = example1\nt_end = 1\nh_list = [0.01, 0.005]\n"
CHECK_CONFIG = SOLVE_CONFIG + "checks = [nr1:2, nr6:2]\n"

CLI = {"fracstab", "fracstab.cli", "fracstab.errors"}
SOLVING = CLI | {f"fracstab.{m}" for m in
                 ("config", "presets", "expressions", "operators", "special", "solver", "reporting")}
REPRODUCE = SOLVING - {"fracstab.config"} | {"fracstab.stability", "fracstab.verdicts"}
SUITES = {"fracstab.inequalities", "fracstab.verdicts"}
# loaded by `inequalities` alone (its even-numerator exponents are Fractions)
SUITE_STDLIB = ("fractions", "decimal")
# module: the one class that @dataclass builds, ExamplePreset, kept a dataclass
# because callers apply dataclasses.replace to it; every other record is an
# errors.Record, which generates no code per class
DATACLASSES = {"fracstab.presets": "ExamplePreset"}

# argv (with {cfg}, {check_cfg}, {csv}, {out} filled in), exit code, modules loaded
COMMANDS = {
    "simulate": (["simulate", "{cfg}", "--out", "{out}"], 0, SOLVING),
    "convergence": (["convergence", "{cfg}", "--out", "{out}"], 0, SOLVING),
    "check": (["check", "{check_cfg}", "--out", "{out}"], 0, SOLVING | SUITES),
    "plotscript": (["plotscript", "{csv}", "--out", "{out}/t.gp"], 0, CLI | {"fracstab.reporting"}),
    # example 2; example 1 judges its Mittag-Leffler envelope and example 3
    # checks its plug-in envelope, both through `verdicts`
    "reproduce": (["reproduce", "2", "--out", "{out}"], 0, REPRODUCE),
    "reproduce 1": (["reproduce", "1", "--out", "{out}"], 0, REPRODUCE),
    "reproduce 3": (["reproduce", "3", "--out", "{out}"], 0, REPRODUCE),
}

_LOADED = f"""\
loaded = [m for m in sys.modules if m.split(".")[0] == "fracstab"]
print(" ".join(loaded))
print(" ".join(m for m in {SUITE_STDLIB!r} if m in sys.modules))
print(" ".join({{c.__qualname__ for m in loaded for c in vars(sys.modules[m]).values()
                if isinstance(c, type) and c.__module__ in loaded and hasattr(c, "__dataclass_fields__")}}))
"""

_RUN = """\
import sys
from fracstab import cli
code = cli.main(sys.argv[1:])
""" + _LOADED + "sys.exit(code)\n"

# the set-up of a benchmark that runs the presets through the CLI
_SETUP = """\
import sys
from fracstab import cli
for name in ("example1", "example2", "example3"):
    cli.get_preset(name)
""" + _LOADED


def _fresh(code: str, argv: list[str], cwd: Path) -> tuple[int, str, set[str], set[str], set[str]]:
    """Exit code, stderr, the fracstab and SUITE_STDLIB modules loaded by code in a fresh
    process, and the names of the fracstab classes loaded that @dataclass built."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)
    *_, fracstab_line, stdlib_line, dataclass_line = ["", "", "", *proc.stdout.splitlines()]
    return (proc.returncode, proc.stderr, set(fracstab_line.split()), set(stdlib_line.split()),
            set(dataclass_line.split()))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    template, exit_code, modules = COMMANDS[command]
    paths = {
        "cfg": tmp_path / "solve.cfg",
        "check_cfg": tmp_path / "check.cfg",
        "csv": tmp_path / "trajectory.csv",
        "out": tmp_path / "out",
    }
    paths["cfg"].write_text(SOLVE_CONFIG)
    paths["check_cfg"].write_text(CHECK_CONFIG)
    paths["csv"].write_text("t,x1,x2\n0,1,2\n0.5,0.5,1\n")
    paths["out"].mkdir()
    argv = [arg.format(**paths) for arg in template]
    code, stderr, loaded, stdlib, dataclasses = _fresh(_RUN, argv, tmp_path)
    assert code == exit_code, stderr
    assert loaded == modules
    if "fracstab.inequalities" not in modules:
        assert stdlib == set()
    assert dataclasses == {cls for module, cls in DATACLASSES.items() if module in modules}


def test_preset_setup_loads_neither_the_suites_nor_fractions(tmp_path):
    code, stderr, loaded, stdlib, dataclasses = _fresh(_SETUP, [], tmp_path)
    assert code == 0, stderr
    assert "fracstab.inequalities" not in loaded
    assert "fracstab.verdicts" in loaded
    assert stdlib == set()
    assert dataclasses == {"ExamplePreset"}


def test_max_instances_is_defined_once():
    assert hasattr(inequalities, "MAX_INSTANCES") and not hasattr(config, "MAX_INSTANCES")
    with pytest.raises(AttributeError, match="no attribute 'MAX_NODE'"):
        config.MAX_NODE


@pytest.mark.parametrize("name", presets.PRESET_NAMES)
def test_a_preset_config_is_the_presets_system(name):
    preset = presets.get_preset(name)
    resolved = parse_config(f"preset = {name}\n")
    assert resolved.system == preset.system
    assert resolved.grid == preset.grid


@pytest.mark.parametrize("name", presets.PRESET_NAMES)
def test_preset_overrides_replace_only_their_keys(name):
    keys = presets.PRESET_KEYS[name]
    grid = presets.get_preset(name).grid
    # a smaller dim with its own rhs1 takes no preset rhs
    smaller = parse_config(f'preset = {name}\ndim = 1\nx0 = [0.5]\nrhs1 = "-x1 + sin(t)"\n')
    assert smaller.system == SystemDef.from_strings(1, keys["order"], ["-x1 + sin(t)"], [0.5])
    assert smaller.grid == grid
    if keys["dim"] < 2:
        return
    # a replaced rhs2 keeps the preset's rhs1, order and x0
    replaced = parse_config(f'preset = {name}\nrhs2 = "x1 - 2*x2"\n')
    assert replaced.system == SystemDef.from_strings(2, keys["order"], [keys["rhs"][0], "x1 - 2*x2"], keys["x0"])
    assert replaced.system != presets.get_preset(name).system
    assert replaced.grid == grid
