"""Fractional-calculus operators, a fractional ODE solver, and numerical
certificates for fractional differential inequalities and Lyapunov
stability along trajectories."""

from .errors import (
    BindError,
    ConfigError,
    DivergenceError,
    DomainError,
    EnvelopeError,
    EvalError,
    FracstabError,
    ParseError,
    PreconditionError,
    RangeError,
    ShapeError,
    SingularityError,
    UnknownCheckError,
)
from .expressions import evaluate, parse, to_text
from .inequalities import (
    EnvelopeSpec,
    IdentityResidual,
    IneqReport,
    InstanceProfile,
    PowerTerm,
    SuiteResult,
    generate_instance,
    run_suite,
    verify_composite,
    verify_decomposition_nr4,
    verify_decomposition_nr6,
    verify_odd_power_envelope,
    verify_power_rule,
    verify_product_decreasing,
    verify_product_increasing,
)
from .operators import (
    FracOrder,
    SampleSeries,
    TimeGrid,
    caputo_l1,
    caputo_power_oracle,
    rl_integral,
)
from .presets import ExamplePreset, get_preset, run_preset
from .solver import ConvergenceStudy, SystemDef, Trajectory, convergence_study, solve
from .special import (
    ML_Z_MAX,
    MLParams,
    gamma,
    mittag_leffler,
    mittag_leffler_many,
    reciprocal_gamma,
)
from .stability import (
    BallResult,
    LyapunovCandidate,
    SandwichResult,
    StabilityReport,
    check_dissipation,
    check_local_ball,
    check_ml_envelope,
    check_sandwich,
    evaluate_candidate,
)

__version__ = "0.1.0"
