"""The argument policy of the public API (`errors.real`, `errors.reals`,
`errors.count`) and the bad-input property over every public slot."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstab.config import MAX_INSTANCES, parse_config
from fracstab.errors import BindError, ConfigError, DomainError, FracstabError, RangeError, count, real, reals
from fracstab.expressions import evaluate, parse, sample_on
from fracstab.inequalities import (
    EnvelopeSpec,
    PROFILES,
    PowerTerm,
    generate_instance,
    run_suite,
    verify_decomposition_nr4,
    verify_decomposition_nr6,
    verify_odd_power_envelope,
    verify_power_rule,
)
from fracstab.operators import FracOrder, SampleSeries, TimeGrid, caputo_power_oracle, rl_integral
from fracstab.solver import SystemDef, convergence_study, solve
from fracstab.special import MLParams, gamma, mittag_leffler, mittag_leffler_many, reciprocal_gamma
from fracstab.stability import check_local_ball, check_ml_envelope

# --- the helpers --------------------------------------------------------------


@pytest.mark.parametrize("value", [0, -3, 2.5, np.float32(0.25), np.int64(7), np.uint8(3), Fraction(1, 3), 1e308])
def test_real_returns_the_float(value):
    out = real(value, "v")
    assert type(out) is float and out == float(value)


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, "1.5", None, True, np.bool_(False), 1 + 2j, [1.0], np.array(1.0)]
)
def test_real_rejects_what_is_no_finite_real_number(value):
    with pytest.raises(DomainError, match="^slot "):
        real(value, "slot")


def test_real_range_error_past_the_double_range():
    for value in (10**400, -(10**400), 2**1024):
        with pytest.raises(RangeError, match="^slot requires a number within the double range"):
            real(value, "slot")


def test_count_rule():
    assert count(3, "n", 1, 5) == 3 and type(count(np.int64(5), "n", 1, 5)) is int
    assert count(np.uint32(0), "n", 0) == 0 and count(10**400, "n", 0) == 10**400
    for bad in (0, 6, 4.5, 3.0, math.nan, math.inf, 10**400, True, "3", None, np.bool_(True)):
        with pytest.raises(DomainError, match=r"^n must be an integer in 1\.\.5, got "):
            count(bad, "n", 1, 5)
    with pytest.raises(DomainError, match="^seed must be an integer >= 0, got -1$"):
        count(-1, "seed", 0)


def test_reals_rule():
    got = reals([[1, 2], [3, 4]], "v")
    assert got.dtype == float and got.shape == (2, 2)
    assert reals(np.arange(3, dtype=np.int32), "v").dtype == float
    assert reals([1.0, 10**18, Fraction(1, 2)], "v").tolist() == [1.0, 1e18, 0.5]  # an object array
    assert reals(2.5, "v").shape == ()
    arr = np.linspace(0.0, 1.0, 5)
    assert reals(arr, "v") is arr  # a float array is checked, not copied
    for bad in (["a", 1.0], [None, 1.0], [1j], "1.5", [[1.0], [1.0, 2.0]], np.array([True, False])):
        with pytest.raises(DomainError, match="^v requires real numbers: "):
            reals(bad, "v")
    for bad in ([1.0, math.nan], np.array([[0.0, math.inf]]), math.nan):
        with pytest.raises(DomainError, match="^v must all be finite$"):
            reals(bad, "v")
    with pytest.raises(RangeError):
        reals([1.0, 10**400], "v")


# --- one rule for every public slot -------------------------------------------

GRID = TimeGrid(0.0, 0.1, 10)
TS = GRID.nodes()
X = SampleSeries(GRID, 1.0 + TS)
PHI = EnvelopeSpec("positive_decreasing", "1/(1+t)")
ORDER = FracOrder(0.5)
SYSTEM = SystemDef.from_strings(1, 0.5, ["-x1"], [1.0])
TRAJ = solve(SYSTEM, GRID)
EXPR = parse("t + x1 + r")

# (entry point, slot) -> (call with the value in that slot, the error class it must raise)
SLOTS = {
    "TimeGrid.t0": (lambda v: TimeGrid(v, 0.1, 10), FracstabError),
    "TimeGrid.h": (lambda v: TimeGrid(0.0, v, 10), FracstabError),
    "TimeGrid.n_steps": (lambda v: TimeGrid(0.0, 0.1, v), FracstabError),
    "FracOrder.alpha": (lambda v: FracOrder(v), FracstabError),
    "SampleSeries.values": (lambda v: SampleSeries(GRID, v), FracstabError),
    "SampleSeries.values[10]": (lambda v: SampleSeries(GRID, [1.0] * 10 + [v]), FracstabError),
    "rl_integral.mu": (lambda v: rl_integral(X, v), FracstabError),
    "caputo_power_oracle.p": (lambda v: caputo_power_oracle(v, ORDER, 1.0, 0.0), FracstabError),
    "caputo_power_oracle.t": (lambda v: caputo_power_oracle(2.0, ORDER, v, 0.0), FracstabError),
    "caputo_power_oracle.t0": (lambda v: caputo_power_oracle(2.0, ORDER, 1.0, v), FracstabError),
    "gamma.z": (lambda v: gamma(v), FracstabError),
    "reciprocal_gamma.s": (lambda v: reciprocal_gamma(v), FracstabError),
    "MLParams.alpha": (lambda v: MLParams(v), FracstabError),
    "MLParams.beta": (lambda v: MLParams(0.5, v), FracstabError),
    "mittag_leffler.z": (lambda v: mittag_leffler(MLParams(0.5), v), FracstabError),
    "mittag_leffler_many.zs": (lambda v: mittag_leffler_many(MLParams(0.5), v), FracstabError),
    "mittag_leffler_many.zs[1]": (lambda v: mittag_leffler_many(MLParams(0.5), [-1.0, v]), FracstabError),
    "PowerTerm.c": (lambda v: PowerTerm(v, 2.0), FracstabError),
    "PowerTerm.beta": (lambda v: PowerTerm(1.0, v), FracstabError),
    "PowerTerm.p": (lambda v: PowerTerm(1.0, 2.0, v), FracstabError),
    "verify_odd_power_envelope.n": (lambda v: verify_odd_power_envelope(PHI, v, X, 1.0, ORDER), FracstabError),
    "verify_odd_power_envelope.beta": (lambda v: verify_odd_power_envelope(PHI, 0, X, v, ORDER), FracstabError),
    "verify_power_rule.beta": (lambda v: verify_power_rule(X, v, ORDER), FracstabError),
    "verify_decomposition_nr4.beta": (lambda v: verify_decomposition_nr4(PHI, X, v, ORDER), FracstabError),
    "verify_decomposition_nr6.beta": (lambda v: verify_decomposition_nr6(PHI, X, v, ORDER), FracstabError),
    "run_suite.instances": (lambda v: run_suite("nr1", v, 0, GRID), FracstabError),
    "run_suite.seed": (lambda v: run_suite("nr1", 1, v, GRID), FracstabError),
    "generate_instance.seed": (lambda v: generate_instance(v, PROFILES["nr1"]), FracstabError),
    "SystemDef.dim": (lambda v: SystemDef(v, ORDER, SYSTEM.rhs, [1.0]), FracstabError),
    "SystemDef.x0": (lambda v: SystemDef(1, ORDER, SYSTEM.rhs, v), FracstabError),
    "SystemDef.x0[0]": (lambda v: SystemDef(1, ORDER, SYSTEM.rhs, [v]), FracstabError),
    "convergence_study.t_end": (lambda v: convergence_study(SYSTEM, v, [0.1, 0.05]), FracstabError),
    "convergence_study.t0": (lambda v: convergence_study(SYSTEM, 1.0, [0.1, 0.05], t0=v), FracstabError),
    "convergence_study.h_list": (lambda v: convergence_study(SYSTEM, 1.0, v), FracstabError),
    "convergence_study.h_list[1]": (lambda v: convergence_study(SYSTEM, 1.0, [0.1, v]), FracstabError),
    "check_ml_envelope.rate": (lambda v: check_ml_envelope(TRAJ, ORDER, v, 1.0), FracstabError),
    "check_ml_envelope.amplification": (lambda v: check_ml_envelope(TRAJ, ORDER, 0.5, v), FracstabError),
    "check_local_ball.radius": (lambda v: check_local_ball(TRAJ, v), FracstabError),
    "evaluate.t": (lambda v: evaluate(EXPR, t=v, x=[1.0], r=0.0), BindError),
    "evaluate.x[0]": (lambda v: evaluate(EXPR, t=0.5, x=[v], r=0.0), BindError),
    "evaluate.r": (lambda v: evaluate(EXPR, t=0.5, x=[1.0], r=v), BindError),
    "sample_on.ts": (lambda v: sample_on(EXPR, v, x=[1.0], r=0.0), BindError),
    "sample_on.x[0]": (lambda v: sample_on(EXPR, TS, x=[v], r=0.0), BindError),
    "sample_on.r": (lambda v: sample_on(EXPR, TS, x=[1.0], r=v), BindError),
}

# one value of each kind a probe of the public API fed every slot
PROBE = [math.nan, math.inf, "1.5", 10**400, None, 1 + 2j, [1.0, "a"], True]

_BAD = st.one_of(
    st.sampled_from([-math.inf, -(10**400), np.bool_(True), np.nan, object(), b"1", ""]),
    st.text(max_size=4),
    st.complex_numbers(allow_nan=False, allow_infinity=False, min_magnitude=1e-3).filter(lambda c: c.imag != 0),
    st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024)),
    st.lists(st.one_of(st.floats(0.1, 1.0), st.text(max_size=2)), min_size=1, max_size=3).filter(
        lambda v: any(isinstance(e, str) for e in v)
    ),
)


@pytest.mark.parametrize("slot", sorted(SLOTS))
@settings(max_examples=20, deadline=None)
@given(extra=_BAD)
def test_bad_arguments_end_in_a_result_or_a_fracstab_error(slot, extra):
    # Every probe value, and each drawn one, gives a result (an int seed
    # past the double range is still a seed) or the slot's FracstabError;
    # evaluate and sample_on keep their documented BindError.
    call, error = SLOTS[slot]
    for value in PROBE + [extra]:
        try:
            call(value)
        except error:
            pass


def test_generate_instance_seed_follows_the_count_rule():
    for bad in (-1, 1.5):
        with pytest.raises(DomainError, match="^seed must be an integer >= 0, got "):
            generate_instance(bad, PROFILES["nr1"])


# --- the config applies the same rule at the key's line -------------------------


@pytest.mark.parametrize("entry", ["nr1:0", f"nr1:{MAX_INSTANCES + 1}", "nr1:100000000000"])
def test_config_and_run_suite_reject_a_count_alike(entry):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"preset = example1\nseed = 3\nchecks = [{entry}]\n")
    assert exc.value.line == 3
    with pytest.raises(DomainError) as direct:
        run_suite("nr1", int(entry.split(":")[1]), 3)
    assert str(exc.value) == f"line 3: {direct.value}"


@pytest.mark.parametrize(
    "text, line",
    [
        ("preset = example1\ndim = 1.5\n", 2),
        ('preset = example1\nt0 = "0"\n', 2),
        ("preset = example1\nh = [0.01]\n", 2),
        ('preset = example1\norder = "0.5"\n', 2),
        ('preset = example1\nx0 = ["1.5", 1]\n', 2),
        ('preset = example1\nh_list = [0.1, "a"]\n', 2),
        ("preset = example1\n\nseed = 2.0\n", 3),
    ],
)
def test_config_values_that_are_no_numbers_fail_at_their_line(text, line):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.line == line
