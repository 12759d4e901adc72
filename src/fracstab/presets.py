"""Built-in example systems with their Lyapunov candidates and run defaults.

Three nonautonomous systems are bundled: a linear 2-D system with a 1/(1+t)
coupling (order 0.9, started at (-10, 10)), a scalar cubic equation with an
exponentially growing damping term (order 0.8, started at 0.1), and a 2-D
system with trigonometric quadratic terms analysed locally inside the unit
ball (order 0.85, started at (-0.2, 0.3)).  Horizons and steps are frozen
here; they are chosen so the decay is visible and a run stays under a
second.

Each example's system and grid are written once, as config keys in
`PRESET_KEYS`; both a `preset = NAME` config line and `get_preset` start
from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError
from .expressions import parse
from .operators import TimeGrid
from .solver import SystemDef, Trajectory, solve

if TYPE_CHECKING:
    from .stability import LyapunovCandidate, StabilityReport

# The certificate layers (`stability`, `verdicts`) are imported by the code
# that builds candidates and runs checks, so a config that only names a
# preset (`PRESET_KEYS`) does not load them.

__all__ = ["ExamplePreset", "get_preset", "run_preset", "PRESET_KEYS", "PRESET_NAMES", "DEFAULT_EX3_PHI"]

DEFAULT_EX3_PHI = "exp(-t)"

# name -> the config keys of its system and run grid; rhs holds rhs1, rhs2, ...
PRESET_KEYS = {
    "example1": {
        "order": 0.9, "dim": 2, "x0": [-10.0, 10.0], "t0": 0.0, "t_end": 50.0, "h": 0.01,
        "rhs": ("-x1 - x2/(1+t)", "x1 - x2"),
    },
    "example2": {
        "order": 0.8, "dim": 1, "x0": [0.1], "t0": 0.0, "t_end": 20.0, "h": 0.01,
        "rhs": ("-x1^3 - exp(t/2)*x1^3",),
    },
    "example3": {
        "order": 0.85, "dim": 2, "x0": [-0.2, 0.3], "t0": 0.0, "t_end": 40.0, "h": 0.01,
        "rhs": ("-x1 - x2 + sin(t)*(x1^2 + x2^2)", "x1 - x2 + cos(t)*(x1^2 + x2^2)"),
    },
}
PRESET_NAMES = tuple(PRESET_KEYS)


@dataclass(frozen=True)
class ExamplePreset:
    name: str
    system: SystemDef
    grid: TimeGrid
    candidate: LyapunovCandidate
    ml_rate: float | None = None
    ml_amplification: float | None = None
    ball_radius: float | None = None


def get_preset(name: str, phi_text: str | None = None) -> ExamplePreset:
    """Look up a preset; example3 accepts a plug-in envelope expression.

    A phi_text given to any other example is a DomainError: only example3's
    candidate reads it.
    """
    from . import stability

    if name not in PRESET_NAMES:
        raise DomainError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    keys = PRESET_KEYS[name]
    system = SystemDef.from_strings(keys["dim"], keys["order"], keys["rhs"], keys["x0"])
    grid = TimeGrid.between(keys["t0"], keys["t_end"], keys["h"])
    if phi_text is not None and name != "example3":
        raise DomainError(f"phi is a plug-in envelope of example3 only, not of {name}")
    if name == "example1":
        candidate = stability.LyapunovCandidate(
            expression=parse("x1^2 + x2^2 + x2^2/(1+t)"),
            class_k_lower=parse("r^2"),
            class_k_upper=parse("2*r^2"),
            dissipation_rate=parse("r^2"),
        )
        return ExamplePreset(name, system, grid, candidate, ml_rate=0.5, ml_amplification=2.0)
    if name == "example2":
        candidate = stability.LyapunovCandidate(
            expression=parse("x1^6 + exp(-t/2)*x1^6"),
            class_k_lower=parse("r^6"),
            class_k_upper=parse("2*r^6"),
            dissipation_rate=parse("12*r^8"),
        )
        return ExamplePreset(name, system, grid, candidate)
    from . import verdicts

    phi_text = phi_text or DEFAULT_EX3_PHI
    # the candidate works for any non-negative decreasing bounded phi; the
    # envelope check below rejects a bad plug-in early
    verdicts.EnvelopeSpec("nonneg_decreasing", parse(phi_text)).sample(grid)
    ball_radius = 0.5
    candidate = stability.LyapunovCandidate(
        expression=parse(f"(1 + ({phi_text}))*(x1^2 + x2^2)/2"),
        dissipation_rate=parse(f"{1.0 - ball_radius}*r^2"),
    )
    return ExamplePreset(name, system, grid, candidate, ball_radius=ball_radius)


def run_preset(preset: ExamplePreset) -> tuple[Trajectory, StabilityReport]:
    """Solve the preset system and run the checks its declarations call for.

    The sandwich runs when the candidate has both class-K bounds, the
    dissipation check when it has a rate, the Mittag-Leffler envelope when
    the preset sets ml_rate, and the ball check when it sets ball_radius.
    """
    from . import stability

    traj = solve(preset.system, preset.grid)
    V = preset.candidate
    has_bounds = V.class_k_lower is not None and V.class_k_upper is not None
    sandwich = stability.check_sandwich(V, traj) if has_bounds else None
    dissipation = stability.check_dissipation(V, traj) if V.dissipation_rate is not None else None
    envelope = (
        stability.check_ml_envelope(traj, preset.ml_rate, preset.ml_amplification)
        if preset.ml_rate is not None
        else None
    )
    ball = stability.check_local_ball(traj, preset.ball_radius) if preset.ball_radius is not None else None
    return traj, stability.StabilityReport(
        label=preset.name,
        sandwich=sandwich,
        dissipation=dissipation,
        envelope=envelope,
        ball=ball,
    )
