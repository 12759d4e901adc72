"""Line-oriented run configuration: `key = value`, strict about unknown keys.

Lists are bracketed and comma-separated, expressions are quoted strings,
`#` starts a comment.  A `preset` line pulls in one of the built-in
examples; explicit keys then override its fields.  Sizes are bounded before
anything is allocated by them: see MAX_NODES and MAX_INSTANCES.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DomainError, FracstabError, count, real
from .expressions import parse
from .inequalities import MAX_INSTANCES
from .operators import FracOrder, TimeGrid
from .presets import PRESET_NAMES, get_preset
from .solver import SystemDef, reference_grid

__all__ = ["RunConfig", "parse_config", "load_config", "MAX_NODES", "MAX_INSTANCES"]

_SCALAR_KEYS = {"preset", "order", "dim", "t0", "t_end", "h", "output", "seed", "label", "phi"}
_LIST_KEYS = {"x0", "checks", "h_list"}
_DEFAULT_CHECK_COUNT = 100
# Largest time grid a config may ask for, counted in nodes: the run grid and
# the convergence study's reference grid (`solver.reference_grid`).  It bounds
# allocation (a few arrays of n floats per state component), not work: a
# two-component solve at the limit takes about half a minute.
MAX_NODES = 1_000_000


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run request."""

    system: SystemDef
    grid: TimeGrid
    checks: tuple[tuple[str, int], ...] = ()
    output: str | None = None
    seed: int = 0
    h_list: tuple[float, ...] = ()


def _strip_comment(line: str) -> str:
    # a '#' inside a quoted expression does not start a comment
    out = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        if ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def _parse_value(raw: str, lineno: int):
    raw = raw.strip()
    if not raw:
        raise ConfigError("missing value", lineno)
    if raw.startswith("[") :
        if not raw.endswith("]"):
            raise ConfigError("unterminated list", lineno)
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(part, lineno) for part in inner.split(",")]
    if raw.startswith('"'):
        if len(raw) < 2 or not raw.endswith('"'):
            raise ConfigError("unterminated string", lineno)
        return raw[1:-1]
    try:
        f = float(raw)
    except ValueError:
        return raw  # bare word (preset names, check names)
    try:
        f = real(f, f"number {raw!r}")
    except DomainError as exc:
        raise ConfigError(str(exc), lineno) from None
    return int(f) if f == int(f) and ("e" not in raw.lower() and "." not in raw) else f


@contextmanager
def _at_line(lines: dict[str, int], key: str | None = None):
    """Re-raise a package error from the block as a ConfigError at the line
    of key or, without one, of the key its message begins with."""
    try:
        yield
    except FracstabError as exc:
        raise ConfigError(str(exc), lines.get(key or str(exc).split()[0])) from exc


def _real(settings: dict, key: str, lines: dict[str, int]) -> float:
    with _at_line(lines, key):
        return real(settings[key], key)


def parse_config(text: str) -> RunConfig:
    """Parse config text into a resolved RunConfig; raises only ConfigError.

    An error that one key causes carries that key's line number, also when
    it comes from the value's own parsing or validation (an expression that
    does not parse, an order outside (0, 1], a bad example-3 envelope).
    """
    values: dict[str, object] = {}
    rhs_lines: dict[int, str] = {}
    lines: dict[str, int] = {}  # key -> line number; rhs keys as rhs<i>
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(line).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        value = _parse_value(raw, lineno)
        if key.startswith("rhs") and key[3:].isdigit():
            idx = int(key[3:])
            if idx < 1:
                raise ConfigError(f"rhs components start at rhs1, got {key!r}", lineno)
            if not isinstance(value, str):
                raise ConfigError(f"{key} must be a quoted expression", lineno)
            if idx in rhs_lines:
                raise ConfigError(f"duplicate key {key!r}", lineno)
            rhs_lines[idx] = value
            lines[f"rhs{idx}"] = lineno
            continue
        if key not in _SCALAR_KEYS and key not in _LIST_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        values[key] = value
        lines[key] = lineno

    preset_name = values.get("preset")
    phi = values.get("phi")
    if preset_name is not None:
        if preset_name not in PRESET_NAMES:
            raise ConfigError(f"unknown preset {preset_name!r}")
        with _at_line(lines, "phi"):
            preset = get_preset(str(preset_name), phi_text=str(phi) if phi else None)
        system, grid = preset.system, preset.grid
        settings = {
            "dim": system.dim,
            "order": system.order.alpha,
            "x0": list(system.x0),
            "t0": grid.t0,
            "t_end": grid.t_end,
            "h": grid.h,
            "label": preset.name,
        }
        preset_rhs = system.rhs
    else:
        for key in ("dim", "order", "x0", "t_end", "h"):
            if key not in values:
                raise ConfigError(f"missing key {key!r}")
        settings = {"t0": 0.0, "label": "custom"}
        preset_rhs = ()
    settings.update(values)

    with _at_line(lines, "dim"):
        dim = count(settings["dim"], "dim", 1)
    with _at_line(lines, "order"):
        order = FracOrder(settings["order"])
    t0, t_end, h = (_real(settings, key, lines) for key in ("t0", "t_end", "h"))
    x0 = settings["x0"]
    label = str(settings["label"])

    if not isinstance(x0, list):
        raise ConfigError("x0 must be a bracketed list")
    if len(x0) != dim:
        raise ConfigError(f"dimension mismatch: dim = {dim} but x0 has {len(x0)} entries")
    for idx in rhs_lines:
        if idx > dim:
            raise ConfigError(f"dimension mismatch: rhs{idx} present with dim = {dim}")
    rhs = []
    for i in range(1, dim + 1):
        if i in rhs_lines:
            with _at_line(lines, f"rhs{i}"):
                rhs.append(parse(rhs_lines[i]))
        elif i <= len(preset_rhs):
            rhs.append(preset_rhs[i - 1])
        else:
            raise ConfigError(f"missing key 'rhs{i}'")

    if h <= 0:
        raise ConfigError(f"h must be > 0, got {h}")
    if t_end <= t0:
        raise ConfigError(f"t_end must exceed t0, got t_end={t_end}, t0={t0}")
    steps = (t_end - t0) / h
    if not math.isfinite(steps):
        raise ConfigError(f"(t_end - t0) / h is not finite: {t_end - t0} / {h}")
    n_steps = round(steps)
    if n_steps + 1 > MAX_NODES:
        raise ConfigError(f"grid has {n_steps + 1} nodes; the limit is {MAX_NODES}")
    if n_steps < 1 or abs(t0 + n_steps * h - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ConfigError(f"(t_end - t0) must be a multiple of h, got {t_end - t0} / {h}")

    with _at_line(lines):  # SystemDef's messages begin with x0 or rhs<i>
        system = SystemDef(dim, order, tuple(rhs), x0, label)
    grid = TimeGrid(t0, h, n_steps)

    checks_raw = values.get("checks", [])
    if not isinstance(checks_raw, list):
        checks_raw = [checks_raw]
    checks = []
    for item in checks_raw:
        if not isinstance(item, str):
            raise ConfigError(f"bad check entry {item!r}")
        name, _, n_text = item.partition(":")
        try:
            n = int(n_text) if n_text else _DEFAULT_CHECK_COUNT
        except ValueError:
            raise ConfigError(f"bad instance count in check entry {item!r}") from None
        with _at_line(lines, "checks"):  # run_suite's own bounds, checked before any run
            checks.append((name.strip(), count(n, "instance count", 1, MAX_INSTANCES)))

    with _at_line(lines, "seed"):
        seed = count(values.get("seed", 0), "seed", 0)
    output = values.get("output")
    h_list = values.get("h_list", [])
    if not isinstance(h_list, list):
        raise ConfigError("h_list must be a bracketed list")
    with _at_line(lines, "h_list"):
        h_list = tuple(real(v, "h_list") for v in h_list)
    if h_list:
        if not all(h > 0 for h in h_list):
            raise ConfigError(f"h_list steps must be > 0, got {list(h_list)}")
        ref_nodes = reference_grid(grid.t_end - grid.t0, h_list)[1] + 1
        if ref_nodes > MAX_NODES:
            raise ConfigError(
                f"convergence reference grid has {ref_nodes} nodes; the limit is {MAX_NODES}"
            )

    return RunConfig(
        system=system,
        grid=grid,
        checks=tuple(checks),
        output=str(output) if output is not None else None,
        seed=seed,
        h_list=h_list,
    )


def load_config(path: Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
