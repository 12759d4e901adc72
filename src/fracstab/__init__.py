"""Fractional-calculus operators, a fractional ODE solver, and numerical
certificates for fractional differential inequalities and Lyapunov
stability along trajectories.

Each public name below is looked up in its defining module on first use
(PEP 562), so `import fracstab` loads no submodule and a process runs only
the modules the names it uses need.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": (
            "BindError",
            "ConfigError",
            "DivergenceError",
            "DomainError",
            "EnvelopeError",
            "EvalError",
            "FracstabError",
            "ParseError",
            "PreconditionError",
            "RangeError",
            "ShapeError",
            "SingularityError",
            "UnknownCheckError",
        ),
        "expressions": ("evaluate", "parse", "to_text"),
        "inequalities": (
            "IdentityResidual",
            "PowerTerm",
            "SuiteResult",
            "run_suite",
            "verify_composite",
            "verify_decomposition_nr4",
            "verify_decomposition_nr6",
            "verify_odd_power_envelope",
            "verify_power_rule",
            "verify_product_decreasing",
            "verify_product_increasing",
        ),
        "operators": (
            "FracOrder",
            "SampleSeries",
            "TimeGrid",
            "caputo_l1",
            "caputo_power_oracle",
            "rl_integral",
        ),
        "presets": ("ExamplePreset", "get_preset", "run_preset"),
        "solver": ("ConvergenceStudy", "SystemDef", "Trajectory", "convergence_study", "solve"),
        "special": (
            "ML_Z_MAX",
            "MLParams",
            "gamma",
            "mittag_leffler",
            "mittag_leffler_many",
            "reciprocal_gamma",
        ),
        "stability": (
            "LyapunovCandidate",
            "StabilityReport",
            "check_dissipation",
            "check_local_ball",
            "check_ml_envelope",
            "check_sandwich",
            "evaluate_candidate",
        ),
        "verdicts": ("EnvelopeSpec", "IneqReport"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # read from the defining module on every lookup, never cached here, so a
    # name rebound there is the name seen here
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
