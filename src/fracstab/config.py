"""Line-oriented run configuration: `key = value`, strict about unknown keys.

Lists are bracketed and comma-separated, expressions are quoted strings,
`#` starts a comment.  A `preset` line starts from the keys of one of the
built-in examples (`presets.PRESET_KEYS`); explicit keys then override
them.  A config that names no system key (preset, order, dim, x0, rhs<i>,
t0, t_end, h) resolves to no system and no grid: `check` runs it,
`simulate` and `convergence` refuse it.  Sizes are bounded before anything is allocated
by them: see MAX_NODES and `inequalities.MAX_INSTANCES`.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError, DomainError, FracstabError, Record, _set, count, real
from .expressions import parse
from .operators import FracOrder, TimeGrid
from .presets import PRESET_KEYS, PRESET_NAMES
from .solver import SystemDef, finest_steps

__all__ = ["RunConfig", "parse_config", "load_config", "MAX_NODES"]

_SYSTEM_KEYS = {"preset", "order", "dim", "x0", "t0", "t_end", "h"}
_SCALAR_KEYS = {"preset", "order", "dim", "t0", "t_end", "h", "output", "seed"}
_LIST_KEYS = {"x0", "checks", "h_list"}
_DEFAULT_CHECK_COUNT = 100
# Largest time grid a config may ask for, counted in nodes: the run grid and
# the finest grid of the convergence study, the halving of the grid at
# min(h_list) (`solver.finest_steps`).  It bounds
# allocation (a few arrays of n floats per state component), not work: a
# two-component solve at the limit takes about half a minute.
MAX_NODES = 1_000_000


class RunConfig(Record):
    """Fully resolved run request; system and grid are None if it names no system key."""

    _fields = ("system", "grid", "checks", "output", "seed", "h_list")

    def __init__(
        self,
        system: SystemDef | None,
        grid: TimeGrid | None,
        checks: tuple[tuple[str, int], ...] = (),
        output: str | None = None,
        seed: int = 0,
        h_list: tuple[float, ...] = (),
    ):
        _set(self, "system", system)
        _set(self, "grid", grid)
        _set(self, "checks", checks)
        _set(self, "output", output)
        _set(self, "seed", seed)
        _set(self, "h_list", h_list)


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


def _system_and_grid(values: dict, rhs_lines: dict[int, str], lines: dict[str, int]):
    """The SystemDef and run TimeGrid of a config that names a system key."""
    preset_name = values.get("preset")
    if preset_name is not None:
        if preset_name not in PRESET_NAMES:
            raise ConfigError(f"unknown preset {preset_name!r}", lines["preset"])
        settings = dict(PRESET_KEYS[preset_name])
    else:
        for key in ("dim", "order", "x0", "t_end", "h"):
            if key not in values:
                raise ConfigError(f"missing key {key!r}")
        settings = {"t0": 0.0, "rhs": ()}
    settings.update(values)

    with _at_line(lines, "dim"):
        dim = count(settings["dim"], "dim", 1)
    with _at_line(lines, "order"):
        order = FracOrder(settings["order"])
    with _at_line(lines):  # real's messages begin with the key
        t0, t_end, h = (real(settings[key], key) for key in ("t0", "t_end", "h"))
    x0 = settings["x0"]

    if not isinstance(x0, list) or any(isinstance(v, list) for v in x0):
        raise ConfigError("x0 must be a bracketed list of numbers", lines.get("x0"))
    if len(x0) != dim:
        raise ConfigError(f"dimension mismatch: dim = {dim} but x0 has {len(x0)} entries")
    for idx in rhs_lines:
        if idx > dim:
            raise ConfigError(f"dimension mismatch: rhs{idx} present with dim = {dim}")
    rhs_texts = dict(enumerate(settings["rhs"], start=1)) | rhs_lines
    rhs = []
    for i in range(1, dim + 1):
        if i not in rhs_texts:
            raise ConfigError(f"missing key 'rhs{i}'")
        with _at_line(lines, f"rhs{i}"):
            rhs.append(parse(rhs_texts[i]))

    try:
        grid = TimeGrid.between(t0, t_end, h)
    except DomainError as exc:  # h's own bound names h's line; t_end against t0 and h names none
        raise ConfigError(str(exc), lines.get("h") if h <= 0 else None) from None
    if grid.n_nodes > MAX_NODES:
        raise ConfigError(f"grid has {grid.n_nodes} nodes; the limit is {MAX_NODES}")

    with _at_line(lines):  # SystemDef's messages begin with x0 or rhs<i>
        return SystemDef(dim, order, tuple(rhs), x0), grid


def parse_config(text: str) -> RunConfig:
    """Parse config text into a resolved RunConfig; raises only ConfigError.

    An error that one key causes carries that key's line number, also when
    it comes from the value's own parsing or validation (an expression that
    does not parse, an order outside (0, 1]).
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

    names_system = rhs_lines or values.keys() & _SYSTEM_KEYS
    system, grid = _system_and_grid(values, rhs_lines, lines) if names_system else (None, None)

    checks_raw = values.get("checks", [])
    if not isinstance(checks_raw, list):
        checks_raw = [checks_raw]
    checks = []
    if checks_raw:
        from . import inequalities
    for item in checks_raw:
        if not isinstance(item, str):
            raise ConfigError(f"bad check entry {item!r}", lines["checks"])
        name, _, n_text = item.partition(":")
        try:
            n = int(n_text) if n_text else _DEFAULT_CHECK_COUNT
        except ValueError:
            raise ConfigError(f"bad instance count in check entry {item!r}", lines["checks"]) from None
        with _at_line(lines, "checks"):  # run_suite's own bounds, checked before any run
            checks.append((name.strip(), count(n, "instance count", 1, inequalities.MAX_INSTANCES)))

    with _at_line(lines, "seed"):
        seed = count(values.get("seed", 0), "seed", 0)
    output = values.get("output")
    if isinstance(output, list):
        raise ConfigError("output must be a directory name, not a list", lines["output"])
    h_list = values.get("h_list", [])
    if not isinstance(h_list, list):
        raise ConfigError("h_list must be a bracketed list", lines["h_list"])
    with _at_line(lines, "h_list"):
        h_list = tuple(real(v, "h_list") for v in h_list)
    if h_list and not all(h > 0 for h in h_list):
        raise ConfigError(f"h_list steps must be > 0, got {list(h_list)}", lines["h_list"])
    if h_list and grid is not None:  # without a grid the study has no span; `convergence` refuses it
        nodes = finest_steps(grid.t_end - grid.t0, h_list) + 1
        if nodes > MAX_NODES:
            raise ConfigError(
                f"the convergence study's finest grid, at min(h_list) / 2, has {nodes} nodes; "
                f"the limit is {MAX_NODES}",
                lines["h_list"],
            )
        with _at_line(lines, "h_list"):
            for step in h_list:
                TimeGrid.between(grid.t0, grid.t_end, step, "h_list step")

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
