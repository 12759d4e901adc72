"""Built-in example systems with their Lyapunov candidates and run defaults.

Three nonautonomous systems are bundled: a linear 2-D system with a 1/(1+t)
coupling, a scalar cubic equation with an exponentially growing damping
term, and a 2-D system with trigonometric quadratic terms analysed locally
inside the unit ball.  Horizons and steps are chosen so the decay is
visible and a run stays under a second.

Each example is written once, as data in `PRESET_KEYS`: its system and grid
as config keys, which a `preset = NAME` config line and `get_preset` both
start from, and its certificate, which `get_preset` builds.
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

__all__ = ["ExamplePreset", "get_preset", "run_preset", "PRESET_KEYS", "PRESET_NAMES"]

# name -> the config keys of its system and run grid (rhs holds rhs1, rhs2,
# ...), then its certificate: V (a template over {phi} where it takes a
# plug-in envelope, whose default is phi), any class-K bounds gamma1 <= V <=
# gamma2, rate gamma3, and the numbers of its Mittag-Leffler envelope or ball check
PRESET_KEYS = {
    "example1": {
        "order": 0.9, "dim": 2, "x0": [-10.0, 10.0], "t0": 0.0, "t_end": 50.0, "h": 0.01,
        "rhs": ("-x1 - x2/(1+t)", "x1 - x2"),
        "V": "x1^2 + x2^2 + x2^2/(1+t)", "gamma1": "r^2", "gamma2": "2*r^2", "gamma3": "r^2",
        "ml_rate": 0.5, "ml_amplification": 2.0,
    },
    "example2": {
        "order": 0.8, "dim": 1, "x0": [0.1], "t0": 0.0, "t_end": 20.0, "h": 0.01,
        "rhs": ("-x1^3 - exp(t/2)*x1^3",),
        "V": "x1^6 + exp(-t/2)*x1^6", "gamma1": "r^6", "gamma2": "2*r^6", "gamma3": "12*r^8",
    },
    "example3": {
        "order": 0.85, "dim": 2, "x0": [-0.2, 0.3], "t0": 0.0, "t_end": 40.0, "h": 0.01,
        "rhs": ("-x1 - x2 + sin(t)*(x1^2 + x2^2)", "x1 - x2 + cos(t)*(x1^2 + x2^2)"),
        # V works for any non-negative decreasing bounded phi, at rate (1 - ball_radius) r^2
        "V": "(1 + ({phi}))*(x1^2 + x2^2)/2", "phi": "exp(-t)", "gamma3": "0.5*r^2", "ball_radius": 0.5,
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
    """The example `name` built from its `PRESET_KEYS`.

    phi_text replaces the default plug-in envelope of an example whose V
    takes one (example3), after a check that it is non-negative and
    decreasing on the grid; given to any other example it is a
    DomainError.
    """
    from . import stability, verdicts

    if name not in PRESET_NAMES:
        raise DomainError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    keys = PRESET_KEYS[name]
    system = SystemDef.from_strings(keys["dim"], keys["order"], keys["rhs"], keys["x0"])
    grid = TimeGrid.between(keys["t0"], keys["t_end"], keys["h"])
    if "phi" in keys:
        phi_text = phi_text or keys["phi"]
        verdicts.EnvelopeSpec("nonneg_decreasing", parse(phi_text)).sample(grid)
    elif phi_text is not None:
        takers = ", ".join(n for n in PRESET_NAMES if "phi" in PRESET_KEYS[n])
        raise DomainError(f"phi is a plug-in envelope of {takers} only, not of {name}")
    V = stability.LyapunovCandidate(keys["V"].format(phi=phi_text), *map(keys.get, ("gamma1", "gamma2", "gamma3")))
    return ExamplePreset(name, system, grid, V, *map(keys.get, ("ml_rate", "ml_amplification", "ball_radius")))


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
