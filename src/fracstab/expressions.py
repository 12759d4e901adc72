"""Recursive-descent parser and evaluator for right-hand-side expressions.

Grammar (whitespace insignificant, `#`-free single expressions):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

`^` is right-associative and binds tighter than unary minus applied to its
base, so `-x1^2` is -(x1^2) while `(-x1)^2` squares.  Known identifiers are
the time variable `t`, state variables `x1`, `x2`, ..., the radius variable
`r` (for class-K bounds), and the calls sin, cos, exp, sqrt, abs and the
two-argument pow.  A NUMBER must be finite as a double: `1e999` is a
ParseError at its offset, not inf.  Faults (division by zero, domain
errors, non-finite results) raise EvalError naming the offending
subexpression.
"""

from __future__ import annotations

import math
import operator
from types import SimpleNamespace

import numpy as np

from .errors import BindError, EvalError, ParseError, Record, _set, real, reals

__all__ = ["Expr", "Num", "Var", "Neg", "BinOp", "Call", "parse", "evaluate", "variables", "to_text"]

_FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "sqrt": 1, "abs": 1, "pow": 2}
_MAX_DEPTH = 256


class Expr(Record):
    """Base class for AST nodes; instances are immutable and shareable."""


class Num(Expr):
    _fields = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)


class Var(Expr):
    _fields = ("name", "index")

    def __init__(self, name: str, index: int = 0):
        _set(self, "name", name)  # "t", "r", or "x<i>"
        _set(self, "index", index)  # 1-based state index for x-variables, else 0


class Neg(Expr):
    _fields = ("operand",)

    def __init__(self, operand: Expr):
        _set(self, "operand", operand)


class BinOp(Expr):
    _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Call(Expr):
    _fields = ("name", "args")

    def __init__(self, name: str, args: tuple[Expr, ...]):
        _set(self, "name", name)
        _set(self, "args", args)


# --- lexer -----------------------------------------------------------------

_TOK_OPS = set("+-*/^(),")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOK_OPS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ParseError(f"bad number literal '{lit}'", i) from None
            if not math.isfinite(value):
                raise ParseError(f"number literal '{lit}' is not finite", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", None, n))
    return tokens


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.expr(0)
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input starting at {tok[1]!r}", tok[2])
        return e

    def expr(self, depth: int) -> Expr:
        if depth > _MAX_DEPTH:
            raise ParseError("expression too deeply nested", self.peek()[2])
        e = self.term(depth + 1)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            e = BinOp(op, e, self.term(depth + 1))
        return e

    def term(self, depth: int) -> Expr:
        e = self.factor(depth + 1)
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            e = BinOp(op, e, self.factor(depth + 1))
        return e

    def factor(self, depth: int) -> Expr:
        if depth > _MAX_DEPTH:
            raise ParseError("expression too deeply nested", self.peek()[2])
        if self.peek()[0] == "-":
            self.take()
            return Neg(self.factor(depth + 1))
        return self.power(depth + 1)

    def power(self, depth: int) -> Expr:
        base = self.atom(depth + 1)
        if self.peek()[0] == "^":
            self.take()
            return BinOp("^", base, self.factor(depth + 1))
        return base

    def atom(self, depth: int) -> Expr:
        kind, value, offset = self.take()
        if kind == "num":
            return Num(value)
        if kind == "(":
            e = self.expr(depth + 1)
            self.expect(")")
            return e
        if kind == "ident":
            if self.peek()[0] == "(":
                return self.call(value, offset, depth + 1)
            return self.variable(value, offset)
        raise ParseError(f"expected a value, found {value!r}", offset)

    def call(self, name: str, offset: int, depth: int) -> Expr:
        if name not in _FUNCTIONS:
            raise ParseError(f"unknown function '{name}'", offset)
        self.expect("(")
        args = [self.expr(depth + 1)]
        while self.peek()[0] == ",":
            self.take()
            args.append(self.expr(depth + 1))
        self.expect(")")
        if len(args) != _FUNCTIONS[name]:
            raise ParseError(
                f"'{name}' takes {_FUNCTIONS[name]} argument(s), got {len(args)}", offset
            )
        return Call(name, tuple(args))

    def variable(self, name: str, offset: int) -> Expr:
        if name == "t" or name == "r":
            return Var(name)
        if name.startswith("x") and name[1:].isdigit():
            index = int(name[1:])
            if index < 1:
                raise ParseError(f"state variables start at x1, got '{name}'", offset)
            return Var(name, index)
        raise ParseError(f"unknown identifier '{name}'", offset)


def parse(text: str) -> Expr:
    """Parse expression text into an AST; ParseError carries the byte offset."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


# --- evaluation ------------------------------------------------------------
#
# `_compile` turns a tree into nested closures f(t, x, r), built once per
# expression and called once per point (or once per array of points).  There
# is one closure per operator; it binds its mode's primitives when it is
# built, `math` functions and builtins on plain Python floats (`_SCALAR`) or
# numpy's on arrays (`_ARRAY`, whose caller `_on_arrays` turns numpy's
# floating-point warnings off around the whole call, since every node checks
# its own result).  Both modes raise the same exception class at the same
# node, named by to_text of that node (built only when it is raised).  exp,
# sin and cos are numpy ufuncs in both modes, so their values agree; pow is
# the one primitive whose value can differ between the modes, since numpy's
# vectorized pow and the C library's behind Python's `**` may round apart.

# np.exp cannot overflow at or below this argument, so a scalar call skips
# np.errstate there (about 1.4 us per use, ten times the call itself); above
# it the call runs with overflow warnings off and finiteness is checked.
_EXP_NO_OVERFLOW = 709.0

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _non_finite(node: Expr) -> EvalError:
    return EvalError("non-finite result", to_text(node))


def _float_ufunc(ufunc, a: float) -> float:
    if a > _EXP_NO_OVERFLOW:
        with np.errstate(over="ignore"):
            return float(ufunc(a))
    return float(ufunc(a))


def _array_pow(a, b):
    # two 0-d operands take Python's float pow, as in scalar mode
    if np.ndim(a) or np.ndim(b):
        return np.asarray(a, dtype=float) ** b
    return float(a) ** float(b)


# A negative base needs an integer exponent, b == floor(b) (inf counts, nan
# does not); over arrays it is judged point by point.
_SCALAR = SimpleNamespace(
    finite=math.isfinite, any_true=bool, pow=operator.pow, sqrt=math.sqrt, abs=abs, call=_float_ufunc,
    negative_base=lambda a, b: a < 0.0 and not (b.is_integer() or math.isinf(b)),
)
_ARRAY = SimpleNamespace(
    finite=lambda v: np.isfinite(v).all(), any_true=np.any, pow=_array_pow, sqrt=np.sqrt, abs=np.abs,
    call=lambda ufunc, a: ufunc(a),
    negative_base=lambda a, b: np.any((np.asarray(a) < 0) & (np.asarray(b) != np.floor(b))),
)


def _compile(node: Expr, scalar: bool):
    """Closure f(t, x, r) evaluating the tree; see the comment above."""
    if isinstance(node, Num):
        value = float(node.value) if scalar else node.value
        return lambda t, x, r: value
    if isinstance(node, Var):
        return _compile_var(node)
    if isinstance(node, Neg):
        operand = _compile(node.operand, scalar)
        return lambda t, x, r: -operand(t, x, r)
    mode = _SCALAR if scalar else _ARRAY
    if isinstance(node, BinOp):
        left, right = _compile(node.left, scalar), _compile(node.right, scalar)
        if node.op in "+-*/":
            return _compile_arith(node, left, right, mode)
        return _compile_power(node, left, right, mode)
    if isinstance(node, Call):
        if node.name == "pow":
            return _compile(BinOp("^", node.args[0], node.args[1]), scalar)
        return _compile_call(node, _compile(node.args[0], scalar), mode)
    raise TypeError(f"not an Expr node: {node!r}")


def _compile_var(node: Var):
    if node.name == "t":
        return lambda t, x, r: t
    if node.name == "r":

        def var_r(t, x, r):
            if r is None:
                raise BindError("variable 'r' is not bound in this context")
            return r

        return var_r
    i = node.index - 1

    def var_x(t, x, r):
        try:
            return x[i]
        except IndexError:
            raise BindError(f"variable x{i + 1} exceeds the bound dimension {len(x)}") from None

    return var_x


def _compile_arith(node: BinOp, left, right, mode: SimpleNamespace):
    op = _ARITH[node.op]
    divide = node.op == "/"
    finite, any_true = mode.finite, mode.any_true

    def arith(t, x, r):
        a = left(t, x, r)
        b = right(t, x, r)
        if divide and any_true(b == 0):
            raise EvalError("division by zero", to_text(node))
        out = op(a, b)
        if finite(out):
            return out
        raise _non_finite(node)

    return arith


def _integer_constant(node: Expr) -> bool:
    """Whether node is a Num, or Neg of one, whose value is an integer."""
    if isinstance(node, Neg):
        node = node.operand
    return isinstance(node, Num) and isinstance(node.value, float) and node.value.is_integer()


def _compile_power(node: BinOp, left, right, mode: SimpleNamespace):
    finite, negative_base, pow_ = mode.finite, mode.negative_base, mode.pow
    # any base may meet an integer exponent: a constant one is judged here, once
    checked = not _integer_constant(node.right)

    def power(t, x, r):
        a = left(t, x, r)
        b = right(t, x, r)
        if checked and negative_base(a, b):
            raise EvalError("negative base with non-integer exponent", to_text(node))
        try:
            out = pow_(a, b)
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalError(str(exc), to_text(node)) from None
        if finite(out):
            return out
        raise _non_finite(node)

    return power


def _compile_call(node: Call, arg, mode: SimpleNamespace):
    if node.name == "sqrt":
        any_true, root = mode.any_true, mode.sqrt

        def sqrt(t, x, r):
            a = arg(t, x, r)
            if any_true(a < 0):
                raise EvalError("sqrt of negative value", to_text(node))
            return root(a)

        return sqrt
    if node.name == "abs":
        absolute = mode.abs
        return lambda t, x, r: absolute(arg(t, x, r))
    finite, apply, ufunc = mode.finite, mode.call, getattr(np, node.name)

    def call(t, x, r):
        out = apply(ufunc, arg(t, x, r))
        if finite(out):
            return out
        raise _non_finite(node)

    return call


def _inputs(caller: str, t, x, r, scalar: bool):
    """t, each x and r (unless None) as floats (scalar) or float arrays.

    BindError unless each is a finite real number, or an array of them.
    """
    as_real = real if scalar else reals
    try:
        xs = [as_real(v, f"x{i}") for i, v in enumerate(x, start=1)]
        return as_real(t, "t"), xs, None if r is None else as_real(r, "r")
    except (TypeError, ValueError) as exc:  # x not iterable; DomainError and RangeError are ValueErrors
        raise BindError(f"{caller} needs finite real t, x and r: {exc}") from None


def _on_arrays(caller: str, node: Expr, t, x, r, within_t: bool = False) -> np.ndarray:
    """The tree at t, x and r as float arrays, as a new float array of their
    broadcast shape (with within_t, t's own); BindError unless they hold
    finite real numbers only and broadcast."""
    t, x, r = _inputs(caller, t, x, r, scalar=False)
    shapes = [v.shape for v in (t, *x, *(() if r is None else (r,)))]
    try:
        shape = np.broadcast_shapes(*shapes)
    except ValueError:
        shape = None
    if shape is None or (within_t and shape != t.shape):
        target = "to the shape of ts" if within_t else "together"
        raise BindError(f"{caller} needs t, x and r that broadcast {target}, got shapes {shapes}")
    f = _compile(node, scalar=False)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = f(t, x, r)
    return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()


def evaluate(node: Expr, t=0.0, x=(), r=None) -> float:
    """Evaluate at scalar or numpy-array arguments.

    Scalar inputs return float; array inputs (numpy arrays or nested
    sequences of numbers) return a new ndarray over their broadcast shape.
    Faults raise EvalError/BindError, never silent NaN; so does input that
    is not a finite real number, and arrays that do not broadcast.
    """
    try:
        scalar = np.ndim(t) == 0 and np.ndim(r) == 0 and all(np.ndim(v) == 0 for v in x)
    except (TypeError, ValueError) as exc:  # x not iterable, or ragged nesting
        raise BindError(f"evaluate needs finite real t, x and r: {exc}") from None
    if not scalar:
        return _on_arrays("evaluate", node, t, x, r)
    t, x, r = _inputs("evaluate", t, x, r, scalar=True)
    return _compile(node, scalar=True)(t, x, r)


def sample_on(node: Expr, ts: np.ndarray, x=(), r=None) -> np.ndarray:
    """Evaluate over an array of times, broadcasting constants to ts.shape.

    BindError unless ts, each x and r hold finite real numbers only and x
    and r broadcast to ts.shape.
    """
    return _on_arrays("sample_on", node, ts, x, r, within_t=True)


def variables(node: Expr) -> set[str]:
    """Names of all variables referenced by the expression."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables(node.operand)
    if isinstance(node, BinOp):
        return variables(node.left) | variables(node.right)
    if isinstance(node, Call):
        out: set[str] = set()
        for arg in node.args:
            out |= variables(arg)
        return out
    return set()


def max_state_index(node: Expr) -> int:
    """Largest x-variable index used (0 when none)."""
    return max((int(name[1:]) for name in variables(node) if name.startswith("x")), default=0)


# --- printing --------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node: Expr) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _LEVEL_ADD
        if node.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def _wrap(node: Expr, minimum: int) -> str:
    text = to_text(node)
    return f"({text})" if _level(node) < minimum else text


def to_text(node: Expr) -> str:
    """Render the AST back to text that parses to the same tree.

    That holds for the trees `parse` produces.  Their literals are finite
    and non-negative (a negative one is Neg(Num)); a negative or non-finite
    Num prints as text that reads back as Neg(Num) or does not parse.
    """
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"-{_wrap(node.operand, _LEVEL_UNARY)}"
    if isinstance(node, BinOp):
        if node.op in "+-":
            return f"{_wrap(node.left, _LEVEL_ADD)} {node.op} {_wrap(node.right, _LEVEL_MUL)}"
        if node.op in "*/":
            return f"{_wrap(node.left, _LEVEL_MUL)}{node.op}{_wrap(node.right, _LEVEL_UNARY)}"
        # '^': the base must be an atom, the exponent re-enters factor
        return f"{_wrap(node.left, _LEVEL_ATOM)}^{_wrap(node.right, _LEVEL_UNARY)}"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_text(a) for a in node.args)})"
    raise TypeError(f"not an Expr node: {node!r}")
