import io
import math
import re
import struct
import sys
import tokenize

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
    _compile_system,
    _system_source,
    evaluate,
    max_state_index,
    parse,
    sample_on,
    to_text,
    variables,
)
from fracstab.operators import FracOrder, TimeGrid
from fracstab.solver import SystemDef, solve

from oracles import ExpressionFault, expression_oracle, pece_direct


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


def test_a_3000_term_sum_is_too_deeply_nested_at_the_plus_that_adds_term_257():
    text = " + ".join(["x1"] * 3000)
    with pytest.raises(ParseError, match="expression too deeply nested") as exc:
        parse(text)
    assert exc.value.offset == [i for i, c in enumerate(text) if c == "+"][255]


def test_nested_short_chains_are_too_deeply_nested():
    # each level adds 100 levels to the tree but only a few to the parser's depth
    text = "x1"
    for _ in range(40):
        text = f"({text})" + " + x1" * 100
    with pytest.raises(ParseError, match="expression too deeply nested"):
        parse(text)


def test_sums_of_up_to_256_terms_still_parse():
    assert evaluate(parse("+".join(["1"] * 200))) == 200.0
    assert evaluate(parse("+".join(["1"] * 256))) == 256.0
    with pytest.raises(ParseError, match="expression too deeply nested"):
        parse("+".join(["1"] * 257))


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
    # a constant integer exponent skips the negative-base test; each value
    # is still Python's pow at a point and numpy's pow over an array
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
    # ZeroDivisionError become the EvalError evaluation at a point raises
    for call in (lambda: sample_on(parse(text), np.linspace(0.0, 1.0, 3)), lambda: evaluate(parse(text))):
        with pytest.raises(EvalError, match=re.escape(f"in '{node}'")):
            call()


def test_bind_errors():
    with pytest.raises(BindError):
        evaluate(parse("x3"), x=(1.0, 2.0))
    with pytest.raises(BindError):
        evaluate(parse("r + 1"))
    assert evaluate(parse("r^2"), r=3.0) == 9.0


@pytest.mark.parametrize("v", [math.nan, "a", True, 10**400], ids=["nan", "str", "bool", "big_int"])
def test_points_and_arrays_bind_alike(v):
    # a point is bound as the 0-d array it is, with the same message
    e = parse("t + x1")
    with pytest.raises(BindError) as point:
        evaluate(e, t=v, x=(1.0,))
    with pytest.raises(BindError) as array:
        evaluate(e, t=[v], x=([1.0],))
    assert str(point.value) == str(array.value)


def test_numpy_scalars_evaluate_to_a_float():
    got = evaluate(parse("t*x1 + r"), t=np.float64(2.0), x=(np.int64(3),), r=np.float32(0.5))
    assert type(got) is float and got == 6.5


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
    # (2*t and t + 1 once raised TypeError from inside the evaluator, t^2 did not).
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


def _random_cases():
    """500 (tree, ts, xs): a random tree and 8 points (t, x1..x3) to evaluate it at."""
    rng = np.random.default_rng(77)
    for _ in range(500):
        yield _random_expr(rng, depth=4), rng.uniform(0.0, 5.0, 8), rng.uniform(-3.0, 3.0, (3, 8))


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
    faults = compared = 0
    for e, ts, xs in _random_cases():
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


# --- generated system code ------------------------------------------------------
#
# `_compile_system` must reproduce `evaluate` at a point exactly: the same bits
# for every value, and for every fault the same class and message (which names
# the faulting node).


def _outcome(evaluate_all):
    try:
        values = evaluate_all()
    except Exception as exc:  # numpy's RuntimeWarning counts, raised as an error under pytest
        return type(exc), str(exc)
    return [struct.pack("<d", v) for v in values]


def _matches_evaluate(trees, t, x):
    want = _outcome(lambda: [evaluate(e, t=t, x=x) for e in trees])
    got = _outcome(lambda: _compile_system(trees)(t, x))
    assert got == want, ([to_text(e) for e in trees], t, x)


def test_generated_system_matches_the_closures_on_500_random_expressions():
    cases = list(_random_cases())
    for e, ts, xs in cases:
        for j in range(8):
            t, x = float(ts[j]), xs[:, j].tolist()
            _matches_evaluate((e,), t, x)
            for unbound, x_dim in _unbound_variants(e):
                _matches_evaluate((unbound,), t, x[:x_dim])
    # one function for several trees returns each value, or the first fault in tree order
    for i in range(0, len(cases), 5):
        _, ts, xs = cases[i]
        _matches_evaluate(tuple(e for e, _, _ in cases[i : i + 5]), float(ts[0]), xs[:, 0].tolist())


def _flat_sum(terms):
    e = terms[0]
    for term in terms[1:]:
        e = BinOp("+", e, term)
    return e


def _neg_chain(e, depth):
    for _ in range(depth):
        e = Neg(e)
    return e


_X1, _X2 = Var("x1", 1), Var("x2", 2)
_SUM_TERMS = [_X1, Var("t"), Num(0.125), Neg(_X2)] * 1250  # 5000 terms

_UNPARSEABLE = {
    "inf": Num(math.inf),
    "nan": Num(math.nan),
    "minus_zero": Num(-0.0),
    "inf_plus_x1": BinOp("+", _X1, Num(math.inf)),
    "nan_times_zero": BinOp("*", Num(math.nan), Num(0.0)),
    "x1_over_minus_zero": BinOp("/", _X1, Num(-0.0)),
    "neg_minus_zero": Neg(Num(-0.0)),
    "minus_zero_to_minus_one": BinOp("^", Num(-0.0), Num(-1.0)),
    "negative_base_nan_exponent": Call("pow", (Num(-8.0), Num(math.nan))),
    "inf_to_zero": BinOp("^", Num(math.inf), Num(0.0)),
    "sqrt_nan": Call("sqrt", (Num(math.nan),)),
    "sqrt_minus_zero": Call("sqrt", (Num(-0.0),)),
    "abs_minus_zero": Call("abs", (Num(-0.0),)),
    "exp_inf": Call("exp", (Num(math.inf),)),
    "cos_minus_inf": Call("cos", (Num(-math.inf),)),
    "neg_chain_256_minus_zero": _neg_chain(Num(-0.0), 256),
    "neg_chain_255_x1": _neg_chain(_X1, 255),
    "sum_5000": _flat_sum(_SUM_TERMS),
    "sum_5000_dividing_by_zero_last": _flat_sum(_SUM_TERMS[:-1] + [BinOp("/", _X2, Num(0.0))]),
    "sum_5000_overflowing_midway": _flat_sum(_SUM_TERMS[:2500] + [Num(1e308), Num(1e308)] + _SUM_TERMS[2502:]),
}


@pytest.fixture
def deep_recursion():
    # the tree walk, the code generator and to_text of a faulting node
    # recurse once per level of a 5000-term sum
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 30_000))
    yield
    sys.setrecursionlimit(limit)


@pytest.mark.parametrize("name", list(_UNPARSEABLE))
def test_generated_system_matches_the_closures_on_trees_the_parser_cannot_produce(name, deep_recursion):
    e = _UNPARSEABLE[name]
    _matches_evaluate((e,), 0.5, [1.5, -2.0])
    _matches_evaluate((_X2, e, Var("t")), 0.5, [1.5, -2.0])


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # Python's default
    yield
    sys.setrecursionlimit(limit)


def test_the_deepest_parsed_trees_compile_and_solve_within_the_default_recursion_limit(default_recursion_limit):
    # trees reach the code generator through SystemDef, whose checks walk them
    # recursively too; parse caps them at 256 levels
    for text in (" - ".join(["t"] * 255 + ["x1"]), "-" * 250 + "x1"):
        e = parse(text)
        for t, x in ((0.5, [1.5]), (-2.0, [-0.0]), (3.0, [1e300])):
            _matches_evaluate((e,), t, x)
        system = SystemDef(1, FracOrder(0.9), (e,), [0.5])
        grid = TimeGrid(0.0, 0.01, 50)
        states = solve(system, grid).matrix()
        assert np.all(np.isfinite(states)) and np.array_equal(states, pece_direct(system, grid))
    with pytest.raises(ParseError, match="expression too deeply nested"):
        parse(" - ".join(["t"] * 256 + ["x1"]))


_RELABELED_CALLS = {"sin": "cos", "cos": "exp", "exp": "sin"}


def _relabel(node):
    """A tree of node's shape with other literals, state indices and ufuncs."""
    if isinstance(node, Num):
        return Num(node.value + 1024.0)  # keeps an integer exponent integral
    if isinstance(node, Var):
        return Var(f"x{node.index % 3 + 1}", node.index % 3 + 1) if node.index else node
    if isinstance(node, Neg):
        return Neg(_relabel(node.operand))
    if isinstance(node, BinOp):
        return BinOp(node.op, _relabel(node.left), _relabel(node.right))
    return Call(_RELABELED_CALLS.get(node.name, node.name), tuple(_relabel(a) for a in node.args))


def _literals(node):
    if isinstance(node, Num):
        return {repr(node.value)}
    if isinstance(node, Var):
        return set()
    children = (node.operand,) if isinstance(node, Neg) else (node.left, node.right) if isinstance(node, BinOp) else node.args
    return set().union(*map(_literals, children))


def test_generated_source_holds_no_text_from_the_tree():
    trees = [e for e, _, _ in _random_cases()]
    trees += [e for name, e in _UNPARSEABLE.items() if not name.startswith("sum_5000")]
    for e in trees:
        source, relabeled = _system_source((e,))[0], _relabel(e)
        assert source == _system_source((relabeled,))[0], to_text(e)
        # relabeled literals are 1024 and up, numbers the generator never writes itself
        tokens = {tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)}
        assert not tokens & _literals(relabeled), to_text(e)
        assert not any(re.fullmatch(r"x\d+", tok) for tok in tokens), to_text(e)
