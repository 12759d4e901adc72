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
two-argument pow.  Faults (division by zero, domain errors, non-finite
results) raise EvalError naming the offending subexpression.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BindError, EvalError, ParseError, real, reals

__all__ = ["Expr", "Num", "Var", "Neg", "BinOp", "Call", "parse", "evaluate", "variables", "to_text"]

_FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "sqrt": 1, "abs": 1, "pow": 2}
_MAX_DEPTH = 256


class Expr:
    """Base class for AST nodes; instances are immutable and shareable."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str  # "t", "r", or "x<i>"
    index: int = 0  # 1-based state index for x-variables, else 0


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple[Expr, ...]


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
# expression and called once per point (or once per array of points).  With
# scalar=True every value is a plain Python float and finiteness is checked
# with math.isfinite; with scalar=False the values are numpy arrays or
# scalars and the numpy operations below are used, and the caller (evaluate,
# sample_on) turns numpy's floating-point warnings off once around the whole
# call, since every node checks its own result.  Both modes raise the same
# exception class at the same node, named by to_text of that node (built only
# when it is raised).  exp, sin and cos stay numpy ufuncs in both modes, so a
# scalar call gives the value the same ufunc gives on an array.

# np.exp cannot overflow at or below this argument, so a scalar call skips
# np.errstate there (about 1.4 us per use, ten times the call itself); above
# it the call runs with overflow warnings off and finiteness is checked.
_EXP_NO_OVERFLOW = 709.0

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _non_finite(node: Expr) -> EvalError:
    return EvalError("non-finite result", to_text(node))


def _check_finite(value, node: Expr):
    if not np.isfinite(value).all():
        raise _non_finite(node)
    return value


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
    if isinstance(node, BinOp):
        left, right = _compile(node.left, scalar), _compile(node.right, scalar)
        if node.op in "+-*/":
            return _compile_arith(node, left, right, scalar)
        return _compile_power(node, left, right, scalar)
    if isinstance(node, Call):
        if node.name == "pow":
            return _compile(BinOp("^", node.args[0], node.args[1]), scalar)
        return _compile_call(node, _compile(node.args[0], scalar), scalar)
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


def _compile_arith(node: BinOp, left, right, scalar: bool):
    op = _ARITH[node.op]
    divide = node.op == "/"
    if scalar:
        isfinite = math.isfinite

        def arith(t, x, r):
            a = left(t, x, r)
            b = right(t, x, r)
            if divide and b == 0.0:
                raise EvalError("division by zero", to_text(node))
            out = op(a, b)
            if isfinite(out):
                return out
            raise _non_finite(node)

        return arith

    def arith(t, x, r):
        a = left(t, x, r)
        b = right(t, x, r)
        if divide and np.any(b == 0):
            raise EvalError("division by zero", to_text(node))
        return _check_finite(op(a, b), node)

    return arith


def _compile_power(node: BinOp, left, right, scalar: bool):
    # A negative base requires an integer exponent (b == floor(b): inf
    # counts, nan does not), judged point by point.
    if scalar:
        isfinite, isinf = math.isfinite, math.isinf

        def power(t, x, r):
            a = left(t, x, r)
            b = right(t, x, r)
            if a < 0.0 and not (b.is_integer() or isinf(b)):
                raise EvalError("negative base with non-integer exponent", to_text(node))
            try:
                out = a**b
            except (OverflowError, ZeroDivisionError) as exc:
                raise EvalError(str(exc), to_text(node)) from None
            if isfinite(out):
                return out
            raise _non_finite(node)

        return power

    def power(t, x, r):
        a = left(t, x, r)
        b = right(t, x, r)
        if np.any((np.asarray(a) < 0) & (np.asarray(b) != np.floor(b))):
            raise EvalError("negative base with non-integer exponent", to_text(node))
        try:
            out = np.asarray(a, dtype=float) ** b if np.ndim(a) or np.ndim(b) else float(a) ** float(b)
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalError(str(exc), to_text(node)) from None
        return _check_finite(out, node)

    return power


def _compile_call(node: Call, arg, scalar: bool):
    if node.name == "sqrt":

        def sqrt(t, x, r):
            a = arg(t, x, r)
            if (a < 0.0) if scalar else np.any(np.asarray(a) < 0):
                raise EvalError("sqrt of negative value", to_text(node))
            return math.sqrt(a) if scalar else np.sqrt(a)

        return sqrt
    if node.name == "abs":
        return (lambda t, x, r: abs(arg(t, x, r))) if scalar else (lambda t, x, r: np.abs(arg(t, x, r)))
    ufunc = getattr(np, node.name)
    if scalar:
        isfinite = math.isfinite

        def call(t, x, r):
            a = arg(t, x, r)
            if a > _EXP_NO_OVERFLOW:
                with np.errstate(over="ignore"):
                    out = float(ufunc(a))
            else:
                out = float(ufunc(a))
            if isfinite(out):
                return out
            raise _non_finite(node)

        return call

    def call(t, x, r):
        return _check_finite(ufunc(arg(t, x, r)), node)

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


def evaluate(node: Expr, t=0.0, x=(), r=None) -> float:
    """Evaluate at scalar or numpy-array arguments.

    Scalar inputs return float; array inputs (numpy arrays or nested
    sequences of numbers) return an ndarray over the broadcast shape.
    Faults raise EvalError/BindError, never silent NaN; so does input that
    is not a finite real number.
    """
    try:
        scalar = np.ndim(t) == 0 and np.ndim(r) == 0 and all(np.ndim(v) == 0 for v in x)
    except (TypeError, ValueError) as exc:  # x not iterable, or ragged nesting
        raise BindError(f"evaluate needs finite real t, x and r: {exc}") from None
    t, x, r = _inputs("evaluate", t, x, r, scalar)
    if scalar:
        return _compile(node, scalar=True)(t, x, r)
    f = _compile(node, scalar=False)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = f(t, x, r)
    if np.ndim(out) == 0 and not isinstance(out, float):
        return float(out)
    return out


def sample_on(node: Expr, ts: np.ndarray, x=(), r=None) -> np.ndarray:
    """Evaluate over an array of times, broadcasting constants to ts.shape.

    BindError unless ts, each x and r hold finite real numbers only.
    """
    ts, x, r = _inputs("sample_on", ts, x, r, scalar=False)
    f = _compile(node, scalar=False)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.asarray(f(ts, x, r), dtype=float)
    return np.broadcast_to(out, np.shape(ts)).copy()


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
