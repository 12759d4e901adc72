"""The package's lazy exports: `import fracstab` and `import fracstab.cli`
load only what the names used need, and every public name is still the
object its defining module holds."""

import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracstab
import fracstab.cli as cli
from fracstab.operators import TimeGrid

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _loaded_after(*statements: str) -> list[set[str]]:
    """The fracstab modules loaded after each statement, in one fresh process."""
    report = "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'fracstab'))"
    code = "import sys\n" + "".join(f"{s}\n{report}\n" for s in statements)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [set(line.split()) for line in proc.stdout.splitlines()]


def test_imports_load_only_the_modules_their_names_need():
    cli_only, with_caputo = _loaded_after("import fracstab.cli", "from fracstab import caputo_l1")
    assert cli_only == {"fracstab", "fracstab.cli", "fracstab.errors"}
    assert with_caputo - cli_only == {"fracstab.operators", "fracstab.special"}


def test_every_export_is_its_defining_modules_object():
    assert len(set(fracstab.__all__)) == len(fracstab.__all__) == 56
    for name in fracstab.__all__:
        module = importlib.import_module(f"fracstab.{fracstab._EXPORTS[name]}")
        obj = getattr(fracstab, name)
        assert obj is getattr(module, name), name
        if hasattr(obj, "__module__"):
            assert obj.__module__ == module.__name__, name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from fracstab import *", namespace)
    assert set(fracstab.__all__) <= set(namespace)
    assert set(fracstab.__all__) <= set(dir(fracstab))
    assert "__version__" in dir(fracstab)


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fracstab.no_such_name
    with pytest.raises(ImportError):
        exec("from fracstab import no_such_name", {})


def test_an_export_rebound_in_its_module_is_seen_through_the_package(monkeypatch):
    from fracstab import operators

    def stand_in(*args):
        return None

    monkeypatch.setattr(operators, "caputo_l1", stand_in)
    assert fracstab.caputo_l1 is stand_in


def test_reproduce_calls_get_preset_as_bound_when_it_runs(tmp_path, monkeypatch):
    # a 10x-coarser stand-in, as a benchmark that rescales the presets binds it
    real_get_preset = cli.get_preset

    def coarser(name, phi_text=None):
        preset = real_get_preset(name, phi_text=phi_text)
        g = preset.grid
        return dataclasses.replace(preset, grid=TimeGrid(g.t0, g.h * 10, g.n_steps // 10))

    monkeypatch.setattr(cli, "get_preset", coarser)
    cli.main(["reproduce", "1", "--out", str(tmp_path)])
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 501
