import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstab.errors import BindError, EvalError, ExpressionError, ParseError
from fracstab.expressions import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    evaluate,
    max_state_index,
    parse,
    sample_on,
    to_text,
    variables,
)

from oracles import ExpressionFault, expression_oracle


# --- parsing and precedence -----------------------------------------------------


def test_arithmetic_examples():
    e = parse("-x1 - x2/(1+t)")
    assert evaluate(e, t=0.0, x=(1.0, 1.0)) == pytest.approx(-2.0)
    e = parse("sin(t)*(x1^2 + x2^2)")
    assert evaluate(e, t=0.0, x=(3.0, 4.0)) == 0.0
    e = parse("exp(t/2)*x1^3")
    assert evaluate(e, t=0.0, x=(2.0,)) == pytest.approx(8.0)
    e = parse("x1 - x2 + cos(t)*(x1^2+x2^2)")
    assert evaluate(e, t=0.0, x=(-0.2, 0.3)) == pytest.approx(-0.37)


def test_whitespace_insensitive():
    assert parse("x1 - x2") == parse("x1-x2")
    assert parse(" sin( t ) * 2 ") == parse("sin(t)*2")


def test_precedence_contract():
    assert evaluate(parse("2+3*4")) == 14.0
    assert evaluate(parse("2^3^2")) == 512.0
    assert evaluate(parse("-2^2")) == -4.0
    assert evaluate(parse("(-2)^2")) == 4.0
    assert evaluate(parse("-x1^2"), x=(3.0,)) == -9.0
    assert evaluate(parse("2^-2")) == 0.25
    assert evaluate(parse("6/3/2")) == 1.0
    assert evaluate(parse("6-3-2")) == 1.0


def test_numbers():
    assert evaluate(parse("1.5e2")) == 150.0
    assert evaluate(parse("2.5E-1")) == 0.25
    assert evaluate(parse(".5")) == 0.5
    assert evaluate(parse("3.")) == 3.0


def test_calls_and_pow():
    assert evaluate(parse("pow(x1, 3)"), x=(2.0,)) == 8.0
    assert evaluate(parse("abs(-3)")) == 3.0
    assert evaluate(parse("sqrt(9)")) == 3.0


def test_parse_errors_carry_offsets():
    cases = [
        ("", 0),
        ("   ", 0),
        ("x1 + foo", 5),
        ("x1 + (x2", 8),
        ("x1 x2", 3),
        ("1 + bar(2)", 4),
        ("pow(1)", 0),
        ("sin(1, 2)", 0),
        ("x0 + 1", 0),
        ("2 + @", 4),
        ("1e999", 0),  # literals that overflow to inf
        ("x1 + 2e400*t", 5),
    ]
    for text, offset in cases:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.offset == offset, text


def test_depth_limit():
    deep = "(" * 300 + "1" + ")" * 300
    with pytest.raises(ParseError):
        parse(deep)


# --- evaluation faults ------------------------------------------------------------


def test_division_by_zero():
    with pytest.raises(EvalError):
        evaluate(parse("x1/(t-1)"), t=1.0, x=(1.0,))


def test_negative_base_fractional_exponent():
    with pytest.raises(EvalError):
        evaluate(parse("x1^0.5"), x=(-2.0,))
    assert evaluate(parse("x1^2"), x=(-2.0,)) == 4.0


def test_negative_base_is_judged_per_point_over_arrays():
    # the negative base meets an integer exponent; the fractional exponent
    # meets a positive base
    e = parse("x1^(t + 0.5*x1)")
    ts, x1 = np.array([0.0, 1.0]), np.array([-2.0, 3.0])
    arr = evaluate(e, t=ts, x=(x1,))
    assert list(arr) == [evaluate(e, t=float(t), x=(float(v),)) for t, v in zip(ts, x1)]
    with pytest.raises(EvalError, match="negative base"):
        evaluate(e, t=ts + 0.25, x=(x1,))


@pytest.mark.parametrize(
    "text, exponent", [("x1^2", 2.0), ("x1^3", 3.0), ("x1^-2", -2.0), ("x1^(-3)", -3.0), ("x1^0", 0.0), ("pow(x1, 5)", 5.0)]
)
def test_integer_constant_exponent_is_the_modes_own_pow(text, exponent):
    # the negative-base test is settled when the closure is built; each value
    # is still the scalar mode's Python pow and the array mode's numpy pow
    bases = np.concatenate([np.random.default_rng(7).standard_normal(200) * 3.0, [-2.0, -0.5, 0.5, 2.0]])
    node = parse(text)
    scalar = np.array([evaluate(node, x=(b,)) for b in bases.tolist()])
    expected = np.array([b**exponent for b in bases.tolist()])
    assert np.array_equal(scalar.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(evaluate(node, x=(bases,)).view(np.uint64), (bases**exponent).view(np.uint64))


@pytest.mark.parametrize("text", ["x1^2.5", "x1^-2.5", "x1^(0.5)", "x1^(1+0.5)", "x1^x2"])
def test_negative_base_with_a_fractional_exponent_is_an_eval_error_in_both_modes(text):
    node = parse(text)
    with pytest.raises(EvalError, match="negative base"):
        evaluate(node, x=(-2.0, 0.5))
    with pytest.raises(EvalError, match="negative base"):
        evaluate(node, x=(np.array([1.0, -2.0]), 0.5))
    assert evaluate(node, x=(2.0, 2.5)) > 0.0


def test_sqrt_negative():
    with pytest.raises(EvalError):
        evaluate(parse("sqrt(t-2)"), t=0.0)


def test_overflow_is_an_error():
    with pytest.raises(EvalError):
        evaluate(parse("exp(t)*exp(t)"), t=500.0)


@pytest.mark.parametrize("text, node", [("10^400", "10.0^400.0"), ("0^-1", "0.0^-1.0")])
def test_power_of_two_constants_over_arrays_is_an_eval_error(text, node):
    # two 0-d operands take Python's float pow, whose OverflowError and
    # ZeroDivisionError become the EvalError scalar evaluation raises
    for call in (lambda: sample_on(parse(text), np.linspace(0.0, 1.0, 3)), lambda: evaluate(parse(text))):
        with pytest.raises(EvalError, match=re.escape(f"in '{node}'")):
            call()


def test_bind_errors():
    with pytest.raises(BindError):
        evaluate(parse("x3"), x=(1.0, 2.0))
    with pytest.raises(BindError):
        evaluate(parse("r + 1"))
    assert evaluate(parse("r^2"), r=3.0) == 9.0


@pytest.mark.parametrize(
    "text, want", [("2*{v}", [0.0, 2.0, 6.0]), ("{v} + 1", [1.0, 2.0, 4.0]), ("{v}^2", [0.0, 1.0, 9.0])]
)
@pytest.mark.parametrize(
    "v, kwargs",
    [
        ("t", {"t": [0, 1, 3]}),
        ("x1", {"x": [[0, 1, 3]]}),
        ("x2", {"x": [0.5, [0, 1, 3]]}),
        ("r", {"r": [0, 1, 3]}),
    ],
)
def test_list_arguments_evaluate_like_arrays(text, want, v, kwargs):
    # A list for t, for an x entry or for r is the float array it holds
    # (2*t and t + 1 raised TypeError from inside the closures, t^2 did not).
    got = evaluate(parse(text.format(v=v)), **kwargs)
    assert isinstance(got, np.ndarray) and got.dtype == float
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "kwargs",
    [{"t": ["a", 1.0]}, {"t": [0.0, 1.0], "x": [["x", 1.0]]}, {"t": [[0.0], [1.0, 2.0]]},
     {"t": "abc"}, {"t": [0.0, 1.0], "r": [1j, 2.0]}],
)
def test_non_numeric_arguments_are_bind_errors(kwargs):
    with pytest.raises(BindError):
        evaluate(parse("t + x1 + r"), **{"x": [1.0], "r": 0.0, **kwargs})


@pytest.mark.parametrize(
    "text, kwargs, want",
    [
        ("7", {"t": [1, 2]}, [7.0, 7.0]),
        ("2*r", {"t": [1, 2], "r": [[1], [2], [3]]}, [[2.0, 2.0], [4.0, 4.0], [6.0, 6.0]]),
        ("x1", {"t": [[0], [1]], "x": ([1, 2, 3],)}, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]),
    ],
)
def test_array_evaluation_has_the_broadcast_shape_of_all_arguments(text, kwargs, want):
    # also where the expression does not read every argument (7 was the
    # float 7.0, and the other two had the shape of the arguments they read)
    got = evaluate(parse(text), **kwargs)
    assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == np.shape(want)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "call",
    [
        lambda: evaluate(parse("t + x1"), t=[1, 2], x=([1, 2, 3],)),
        lambda: evaluate(parse("x1"), t=[1, 2], x=([1, 2, 3],)),
        lambda: sample_on(parse("x1"), np.array([0.0, 1.0]), x=(np.array([1.0, 2.0, 3.0]),)),
        lambda: sample_on(parse("r"), np.array([0.0, 1.0]), r=np.array([[1.0], [2.0]])),
    ],
    ids=["evaluate_read", "evaluate_unread", "sample_on_x", "sample_on_r_beyond_ts"],
)
def test_arguments_that_do_not_broadcast_are_bind_errors(call):
    # numpy's ValueError escaped, or the result took the arguments' shape;
    # sample_on's arguments must broadcast to the shape of ts
    with pytest.raises(BindError, match="broadcast"):
        call()


def test_variables_and_bounds():
    e = parse("x2 + sin(t)*x1 - r")
    assert variables(e) == {"t", "x1", "x2", "r"}
    assert max_state_index(e) == 2
    assert max_state_index(parse("t + 1")) == 0


def test_sample_on_broadcasts_constants():
    ts = np.linspace(0.0, 1.0, 5)
    out = sample_on(parse("2 + 0*t"), ts)
    assert out.shape == ts.shape
    out2 = sample_on(parse("7"), ts)
    assert np.all(out2 == 7.0)


def test_array_evaluation_matches_scalar():
    e = parse("exp(-t)*x1 + x2^2 - sin(2*t)")
    ts = np.linspace(0.0, 3.0, 64)
    x1 = np.cos(ts)
    x2 = 0.5 * ts
    arr = evaluate(e, t=ts, x=(x1, x2))
    for j in (0, 17, 63):
        scalar = evaluate(e, t=float(ts[j]), x=(float(x1[j]), float(x2[j])))
        assert arr[j] == pytest.approx(scalar, rel=1e-15)


# --- round-trip ---------------------------------------------------------------------


def _random_expr(rng, depth):
    choice = rng.integers(0, 7 if depth > 0 else 3)
    if choice == 0:
        return Num(float(f"{rng.uniform(0.0, 10.0):.6g}"))
    if choice == 1:
        return Var("t")
    if choice == 2:
        i = int(rng.integers(1, 4))
        return Var(f"x{i}", i)
    if choice == 3:
        return Neg(_random_expr(rng, depth - 1))
    if choice == 4:
        op = str(rng.choice(["+", "-", "*", "/", "^"]))
        return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if choice == 5:
        name = str(rng.choice(["sin", "cos", "exp", "sqrt", "abs"]))
        return Call(name, (_random_expr(rng, depth - 1),))
    return Call("pow", (_random_expr(rng, depth - 1), _random_expr(rng, depth - 1)))


def test_round_trip_500_random_expressions():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        e = _random_expr(rng, depth=4)
        text = to_text(e)
        assert parse(text) == e, text


def _literal(v: float):
    # The parser has no negative literal: "-2.5" reads as Neg(Num(2.5)).
    return Neg(Num(-v)) if math.copysign(1.0, v) < 0 else Num(v)


_LEAVES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(_literal),  # subnormals to 1e308, both signs
    st.sampled_from([Var("t"), Var("r")]),
    st.integers(1, 12).map(lambda i: Var(f"x{i}", i)),
)


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(lambda name, a: Call(name, (a,)), st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]), children),
        st.builds(lambda a, b: Call("pow", (a, b)), children, children),
    )


@settings(max_examples=400, deadline=None)
@given(st.recursive(_LEAVES, _extend, max_leaves=24))
def test_round_trip_property(e):
    assert parse(to_text(e)) == e


# --- evaluation properties ------------------------------------------------------------


def _has_power(node) -> bool:
    if isinstance(node, BinOp):
        return node.op == "^" or _has_power(node.left) or _has_power(node.right)
    if isinstance(node, Call):
        return node.name == "pow" or any(_has_power(a) for a in node.args)
    if isinstance(node, Neg):
        return _has_power(node.operand)
    return False


def _unbound_variants(node):
    """(tree, state components to bind) pairs that leave one variable unbound."""
    yield BinOp("+", node, Var("r")), 3
    if max_state_index(node):
        yield node, max_state_index(node) - 1


def test_evaluation_matches_oracle_on_500_random_expressions():
    # Scalar evaluate agrees with the math-module transcription to 4 ulps,
    # counting the library functions' ulps carried to the result (the
    # oracle's spread), or both fault.  Array evaluation at the same points
    # equals scalar evaluation exactly; with a power node within 4 ulps the
    # same way, since numpy's pow and the C library's may round apart.  The
    # array evaluation faults exactly when some point does.  With a variable
    # unbound (one state component too few, or r) a point that evaluates
    # raises BindError, at a scalar point and over the array.  Only
    # ExpressionError subclasses escape.
    rng = np.random.default_rng(77)
    faults = compared = 0
    for _ in range(500):
        e = _random_expr(rng, depth=4)
        ts = rng.uniform(0.0, 5.0, 8)
        xs = rng.uniform(-3.0, 3.0, (3, 8))
        scalar = []
        for j in range(8):
            t, x = float(ts[j]), tuple(float(v) for v in xs[:, j])
            try:
                want, spread = expression_oracle(e, t, x)
            except ExpressionFault:
                want = None
            try:
                got = evaluate(e, t=t, x=x)
            except ExpressionError:
                got = None
            assert (got is None) == (want is None), (to_text(e), t, x, got, want)
            if got is not None:
                assert type(got) is float
                assert abs(got - want) <= 4.0 * max(spread, math.ulp(want)), (to_text(e), t, x, got, want)
                compared += 1
            else:
                faults += 1
            scalar.append((got, spread if want is not None else 0.0))
        bound = [j for j, (got, _) in enumerate(scalar) if got is not None]
        for unbound, x_dim in _unbound_variants(e):
            for j in bound:
                with pytest.raises(BindError):
                    evaluate(unbound, t=float(ts[j]), x=tuple(float(v) for v in xs[:x_dim, j]))
            if len(bound) == len(scalar):
                with pytest.raises(BindError):
                    evaluate(unbound, t=ts, x=tuple(xs[:x_dim]))
        try:
            arr = evaluate(e, t=ts, x=tuple(xs))
        except ExpressionError:
            assert len(bound) < len(scalar), to_text(e)
            continue
        assert len(bound) == len(scalar), to_text(e)
        arr = np.broadcast_to(arr, ts.shape)
        for j, (got, spread) in enumerate(scalar):
            if _has_power(e):
                assert abs(arr[j] - got) <= 4.0 * max(spread, math.ulp(got)), (to_text(e), j)
            else:
                assert arr[j] == got, (to_text(e), j, arr[j], got)
    assert faults > 0 and compared > 1000
