"""Built-in example systems with their Lyapunov candidates and run defaults.

Three nonautonomous systems are bundled: a linear 2-D system with a 1/(1+t)
coupling (order 0.9, started at (-10, 10)), a scalar cubic equation with an
exponentially growing damping term (order 0.8, started at 0.1), and a 2-D
system with trigonometric quadratic terms analysed locally inside the unit
ball (order 0.85, started at (-0.2, 0.3)).  Horizons and steps are frozen
here; they are chosen so the decay is visible and a run stays under a
second.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .expressions import parse
from .inequalities import EnvelopeSpec
from .operators import TimeGrid
from .solver import SystemDef, Trajectory, solve
from .stability import (
    LyapunovCandidate,
    StabilityReport,
    check_dissipation,
    check_local_ball,
    check_ml_envelope,
    check_sandwich,
)

__all__ = ["ExamplePreset", "get_preset", "run_preset", "PRESET_NAMES", "DEFAULT_EX3_PHI"]

DEFAULT_EX3_PHI = "exp(-t)"


@dataclass(frozen=True)
class ExamplePreset:
    name: str
    system: SystemDef
    grid: TimeGrid
    candidate: LyapunovCandidate
    ml_rate: float | None = None
    ml_amplification: float | None = None
    ball_radius: float | None = None


def _example1() -> ExamplePreset:
    system = SystemDef.from_strings(
        dim=2,
        alpha=0.9,
        rhs_texts=("-x1 - x2/(1+t)", "x1 - x2"),
        x0=(-10.0, 10.0),
        label="example1",
    )
    candidate = LyapunovCandidate(
        expression=parse("x1^2 + x2^2 + x2^2/(1+t)"),
        class_k_lower=parse("r^2"),
        class_k_upper=parse("2*r^2"),
        dissipation_rate=parse("r^2"),
    )
    return ExamplePreset(
        name="example1",
        system=system,
        grid=TimeGrid(0.0, 0.01, 5000),
        candidate=candidate,
        ml_rate=0.5,
        ml_amplification=2.0,
    )


def _example2() -> ExamplePreset:
    system = SystemDef.from_strings(
        dim=1,
        alpha=0.8,
        rhs_texts=("-x1^3 - exp(t/2)*x1^3",),
        x0=(0.1,),
        label="example2",
    )
    candidate = LyapunovCandidate(
        expression=parse("x1^6 + exp(-t/2)*x1^6"),
        class_k_lower=parse("r^6"),
        class_k_upper=parse("2*r^6"),
        dissipation_rate=parse("12*r^8"),
    )
    return ExamplePreset(
        name="example2",
        system=system,
        grid=TimeGrid(0.0, 0.01, 2000),
        candidate=candidate,
    )


def _example3(phi_text: str = DEFAULT_EX3_PHI) -> ExamplePreset:
    system = SystemDef.from_strings(
        dim=2,
        alpha=0.85,
        rhs_texts=(
            "-x1 - x2 + sin(t)*(x1^2 + x2^2)",
            "x1 - x2 + cos(t)*(x1^2 + x2^2)",
        ),
        x0=(-0.2, 0.3),
        label="example3",
    )
    grid = TimeGrid(0.0, 0.01, 4000)
    # the candidate works for any non-negative decreasing bounded phi; the
    # envelope check below rejects a bad plug-in early
    EnvelopeSpec("nonneg_decreasing", parse(phi_text)).sample(grid)
    ball_radius = 0.5
    candidate = LyapunovCandidate(
        expression=parse(f"(1 + ({phi_text}))*(x1^2 + x2^2)/2"),
        dissipation_rate=parse(f"{1.0 - ball_radius}*r^2"),
    )
    return ExamplePreset(
        name="example3",
        system=system,
        grid=grid,
        candidate=candidate,
        ball_radius=ball_radius,
    )


PRESET_NAMES = ("example1", "example2", "example3")


def get_preset(name: str, phi_text: str | None = None) -> ExamplePreset:
    """Look up a preset; example3 accepts a plug-in envelope expression."""
    if name == "example1":
        return _example1()
    if name == "example2":
        return _example2()
    if name == "example3":
        return _example3(phi_text or DEFAULT_EX3_PHI)
    raise DomainError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")


def run_preset(preset: ExamplePreset) -> tuple[Trajectory, StabilityReport]:
    """Solve the preset system and run the checks its declarations call for.

    The sandwich runs when the candidate has both class-K bounds, the
    dissipation check when it has a rate, the Mittag-Leffler envelope when
    the preset sets ml_rate, and the ball check when it sets ball_radius.
    """
    traj = solve(preset.system, preset.grid)
    order = preset.system.order
    V = preset.candidate
    has_bounds = V.class_k_lower is not None and V.class_k_upper is not None
    sandwich = check_sandwich(V, traj) if has_bounds else None
    dissipation = check_dissipation(V, traj, order) if V.dissipation_rate is not None else None
    envelope = (
        check_ml_envelope(traj, order, preset.ml_rate, preset.ml_amplification)
        if preset.ml_rate is not None
        else None
    )
    ball = check_local_ball(traj, preset.ball_radius) if preset.ball_radius is not None else None
    return traj, StabilityReport(
        label=preset.name,
        sandwich=sandwich,
        dissipation=dissipation,
        envelope=envelope,
        ball=ball,
    )
