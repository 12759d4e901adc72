"""The contract of the package's immutable record types (`errors.Record`).

Each record keeps the constructor of the frozen dataclass it replaced: the
same parameters, defaults and validation, immutable instances, `==` and
`hash` over its compared fields in order, and a Name(field=value, ...) repr.
"""

import copy
import inspect
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from fracstab.config import RunConfig, parse_config
from fracstab.expressions import BinOp, Call, Neg, Num, Var, parse
from fracstab.inequalities import IdentityResidual, PowerTerm, SuiteResult, run_suite
from fracstab.operators import FracOrder, SampleSeries, TimeGrid
from fracstab.presets import get_preset
from fracstab.solver import ConvergenceStudy, SystemDef, Trajectory, solve
from fracstab.special import MLParams
from fracstab.stability import LyapunovCandidate, StabilityReport
from fracstab.verdicts import EnvelopeSpec, IneqReport

_NO_DEFAULT = inspect.Parameter.empty
_GRID = TimeGrid(0.0, 0.25, 4)
_SERIES = SampleSeries(_GRID, [0.0, 1.0, 2.0, 3.0, 4.0])
_SYSTEM = SystemDef.from_strings(2, 0.5, ("-x1", "x1 - x2"), (1.0, 2.0))
_REPORT = IneqReport("nr1", _SERIES, np.zeros(5), np.ones(5), 0.0, 0.1, 2.0, True)
_RESIDUAL = IdentityResidual(1e-14, 2.0)

# class: (an instance, [(constructor parameter, default)], compared fields in order)
RECORDS = {
    Num: (Num(1.5), [("value", _NO_DEFAULT)], ("value",)),
    Var: (Var("x2", 2), [("name", _NO_DEFAULT), ("index", 0)], ("name", "index")),
    Neg: (Neg(Num(2.0)), [("operand", _NO_DEFAULT)], ("operand",)),
    BinOp: (
        BinOp("+", Var("t"), Num(1.0)),
        [("op", _NO_DEFAULT), ("left", _NO_DEFAULT), ("right", _NO_DEFAULT)],
        ("op", "left", "right"),
    ),
    Call: (Call("sin", (Var("t"),)), [("name", _NO_DEFAULT), ("args", _NO_DEFAULT)], ("name", "args")),
    TimeGrid: (_GRID, [("t0", _NO_DEFAULT), ("h", _NO_DEFAULT), ("n_steps", _NO_DEFAULT)], ("t0", "h", "n_steps")),
    SampleSeries: (
        SampleSeries(_GRID, [4.0, 3.0, 2.0, 1.0, 0.0]),
        [("grid", _NO_DEFAULT), ("values", _NO_DEFAULT)],
        ("grid", "values"),
    ),
    FracOrder: (FracOrder(0.5), [("alpha", _NO_DEFAULT)], ("alpha",)),
    MLParams: (MLParams(0.5, 1.25), [("alpha", _NO_DEFAULT), ("beta", 1.0)], ("alpha", "beta")),
    SystemDef: (
        _SYSTEM,
        [("dim", _NO_DEFAULT), ("order", _NO_DEFAULT), ("rhs", _NO_DEFAULT), ("x0", _NO_DEFAULT)],
        ("dim", "order", "rhs", "x0"),
    ),
    Trajectory: (
        Trajectory(_GRID, (_SERIES, _SERIES), _SYSTEM),
        [("grid", _NO_DEFAULT), ("states", _NO_DEFAULT), ("system", _NO_DEFAULT)],
        ("grid", "states", "system"),
    ),
    ConvergenceStudy: (
        ConvergenceStudy(((0.1, 1e-3), (0.05, 2.5e-4)), 2.0),
        [("entries", _NO_DEFAULT), ("fitted_order", _NO_DEFAULT)],
        ("entries", "fitted_order"),
    ),
    LyapunovCandidate: (
        LyapunovCandidate("x1^2", "r^2", "2*r^2"),
        [("expression", _NO_DEFAULT), ("class_k_lower", None), ("class_k_upper", None), ("dissipation_rate", None)],
        ("expression", "class_k_lower", "class_k_upper", "dissipation_rate"),
    ),
    StabilityReport: (
        StabilityReport("example", sandwich=_REPORT),
        [("label", _NO_DEFAULT), ("sandwich", None), ("dissipation", None), ("envelope", None), ("ball", None)],
        ("label", "sandwich", "dissipation", "envelope", "ball"),
    ),
    EnvelopeSpec: (
        EnvelopeSpec("nonneg_decreasing", "exp(-t)"),
        [("kind", _NO_DEFAULT), ("expression", _NO_DEFAULT)],
        ("kind", "expression"),
    ),
    IneqReport: (
        _REPORT,
        [(name, _NO_DEFAULT) for name in
         ("name", "slack", "lhs", "rhs", "max_violation", "tol", "refinement_ratio", "verdict")],
        ("name", "slack", "lhs", "rhs", "max_violation", "tol", "refinement_ratio", "verdict"),
    ),
    RunConfig: (
        RunConfig(_SYSTEM, _GRID, checks=(("nr1", 2),), h_list=(0.1, 0.05)),
        [("system", _NO_DEFAULT), ("grid", _NO_DEFAULT), ("checks", ()), ("output", None), ("seed", 0), ("h_list", ())],
        ("system", "grid", "checks", "output", "seed", "h_list"),
    ),
    PowerTerm: (
        PowerTerm(1.5, Fraction(4, 3), 2.0),
        [("c", _NO_DEFAULT), ("beta", _NO_DEFAULT), ("p", 1.0), ("envelope", None)],
        ("c", "beta", "p", "envelope"),
    ),
    IdentityResidual: (_RESIDUAL, [("max_residual", _NO_DEFAULT), ("scale", _NO_DEFAULT)], ("max_residual", "scale")),
    SuiteResult: (
        SuiteResult("nr4_identity", (_RESIDUAL,)),
        [("name", _NO_DEFAULT), ("reports", _NO_DEFAULT)],
        ("name", "reports"),
    ),
}


def _replaced(record, name, value):
    out = copy.copy(record)
    object.__setattr__(out, name, value)
    return out


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    record, params, fields = RECORDS[cls]
    assert type(record) is cls
    assert [(p.name, p.default) for p in inspect.signature(cls).parameters.values()] == params

    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)

    values = tuple(getattr(record, name) for name in fields)
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(fields, values))})"
    try:
        expected_hash = hash(values)
    except TypeError:  # a numpy array among the fields
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected_hash

    for other in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(other) is cls and other == record and not other != record
        assert vars(other).keys() == vars(record).keys()
    for name in fields:
        assert _replaced(record, name, object()) != record
    for name in vars(record).keys() - set(fields):
        assert _replaced(record, name, object()) == record
    assert record != values and record != object()


def _config(x0: str) -> str:
    return f"preset = example1\nx0 = [{x0}]\nt_end = 0.5\nh = 0.01\nchecks = [nr1:1]\nh_list = [0.1, 0.05]\n"


def test_records_holding_arrays_compare_them_by_value():
    assert parse_config(_config("1, 2")) == parse_config(_config("1, 2"))
    assert parse_config(_config("1, 2")) != parse_config(_config("1, 3"))
    assert get_preset("example1") == get_preset("example1")
    assert get_preset("example1") != get_preset("example3")

    system = SystemDef.from_strings(1, 0.5, ("-x1",), (1.0,))
    other_x0 = SystemDef.from_strings(1, 0.5, ("-x1",), (2.0,))
    assert solve(system, _GRID) == solve(system, _GRID)
    assert solve(system, _GRID) != solve(other_x0, _GRID)
    assert solve(system, _GRID) != solve(system, TimeGrid(0.0, 0.25, 3))

    twin = IneqReport("nr1", _SERIES, np.zeros(5), np.ones(5), 0.0, 0.1, _REPORT.refinement_ratio, True)
    assert twin == _REPORT
    assert IneqReport("nr1", _SERIES, np.zeros(5), np.full(5, 2.0), 0.0, 0.1, _REPORT.refinement_ratio, True) != _REPORT
    assert IneqReport("nr1", _SERIES, np.zeros(4), np.ones(5), 0.0, 0.1, _REPORT.refinement_ratio, True) != _REPORT
    for record in (system, _SERIES, _REPORT, parse_config(_config("1, 2"))):
        with pytest.raises(TypeError):
            hash(record)
    assert parse("x1^2 + sin(t)") == parse("x1^2 + sin(t)")


def test_copies_keep_the_writeable_flag_of_each_array():
    read_only = np.ones(5)
    read_only.flags.writeable = False
    report = IneqReport("nr1", _SERIES, np.arange(5.0), read_only, 0.0, 0.1, 2.0, True)
    for record, names in ((_SERIES, ("values",)), (_SYSTEM, ("x0",)), (report, ("lhs", "rhs"))):
        for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert other == record
            for name in names:
                assert getattr(other, name).flags.writeable == getattr(record, name).flags.writeable, name
    assert report.lhs.flags.writeable and not report.rhs.flags.writeable
    assert not _SERIES.values.flags.writeable and not _SYSTEM.x0.flags.writeable


def test_nan_fields_compare_equal_in_copies_and_pickles():
    suite = run_suite("nr1", 3, 5)
    assert any(math.isnan(r.refinement_ratio) for r in suite.reports)
    assert pickle.loads(pickle.dumps(suite)) == suite
    assert copy.deepcopy(suite) == suite

    residual = IdentityResidual(math.nan, 2.0)
    twin = IdentityResidual(float("nan"), 2.0)
    assert residual == twin and hash(residual) == hash(twin)
    assert residual != IdentityResidual(0.0, 2.0)
    assert SuiteResult("s", (residual,)) == SuiteResult("s", (twin,))

    def report(lhs):
        return IneqReport("nr1", _SERIES, np.array(lhs), np.ones(2), 0.0, 0.1, 2.0, True)

    assert report([1.0, math.nan]) == report([1.0, float("nan")])
    assert report([1.0, math.nan]) != report([math.nan, 1.0])
    assert report([1.0, math.nan]) != report([1.0, 2.0])
    assert report(["a", "b"]) == report(["a", "b"]) and report(["a", "b"]) != report(["a", "c"])


def test_suite_result_tallies_its_reports():
    def report(violation, verdict):
        return IneqReport("nr1", _SERIES, np.zeros(5), np.ones(5), violation, 0.1, 2.0, verdict)

    suite = SuiteResult("nr1", (report(math.nan, False), report(0.5, True), _RESIDUAL, report(math.nan, True)))
    assert (suite.instances, suite.passes, suite.all_passed) == (4, 3, False)
    # the left fold max(0.0, v1, v2, ...): a NaN never replaces the running maximum
    assert suite.max_violation == 0.5
    assert SuiteResult("nr1", (report(math.nan, True),)).max_violation == 0.0
    assert SuiteResult("nr1", ()).max_violation == 0.0
