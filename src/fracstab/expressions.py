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
ParseError at its offset, not inf.  A tree is at most _MAX_DEPTH (256)
levels tall: deeper input, such as a sum of more than 256 terms, is a
ParseError, so every recursive walk of a parsed tree stays well within
Python's recursion limit.  Faults (division by zero, domain
errors, non-finite results) raise EvalError naming the offending
subexpression.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .errors import BindError, EvalError, ParseError, Record, _set, reals

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
    # Each rule returns its tree and the tree's height (a leaf is 1 level).
    # `depth` bounds the parser's own recursion, and `grow` the height of the
    # trees it builds, which a `+ - * /` chain raises by one level per operator.

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

    def grow(self, node: Expr, offset: int, *heights: int) -> tuple[Expr, int]:
        """node over operands of these heights; ParseError at offset if the
        tree would be more than _MAX_DEPTH levels tall."""
        height = max(heights) + 1
        if height > _MAX_DEPTH:
            raise ParseError("expression too deeply nested", offset)
        return node, height

    def parse(self) -> Expr:
        e, _ = self.expr(0)
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input starting at {tok[1]!r}", tok[2])
        return e

    def expr(self, depth: int) -> tuple[Expr, int]:
        if depth > _MAX_DEPTH:
            raise ParseError("expression too deeply nested", self.peek()[2])
        e, height = self.term(depth + 1)
        while self.peek()[0] in ("+", "-"):
            op, _, offset = self.take()
            right, right_height = self.term(depth + 1)
            e, height = self.grow(BinOp(op, e, right), offset, height, right_height)
        return e, height

    def term(self, depth: int) -> tuple[Expr, int]:
        e, height = self.factor(depth + 1)
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.take()
            right, right_height = self.factor(depth + 1)
            e, height = self.grow(BinOp(op, e, right), offset, height, right_height)
        return e, height

    def factor(self, depth: int) -> tuple[Expr, int]:
        if depth > _MAX_DEPTH:
            raise ParseError("expression too deeply nested", self.peek()[2])
        if self.peek()[0] == "-":
            offset = self.take()[2]
            operand, height = self.factor(depth + 1)
            return self.grow(Neg(operand), offset, height)
        return self.power(depth + 1)

    def power(self, depth: int) -> tuple[Expr, int]:
        base, height = self.atom(depth + 1)
        if self.peek()[0] == "^":
            offset = self.take()[2]
            exponent, exponent_height = self.factor(depth + 1)
            return self.grow(BinOp("^", base, exponent), offset, height, exponent_height)
        return base, height

    def atom(self, depth: int) -> tuple[Expr, int]:
        kind, value, offset = self.take()
        if kind == "num":
            return Num(value), 1
        if kind == "(":
            e = self.expr(depth + 1)
            self.expect(")")
            return e
        if kind == "ident":
            if self.peek()[0] == "(":
                return self.call(value, offset, depth + 1)
            return self.variable(value, offset), 1
        raise ParseError(f"expected a value, found {value!r}", offset)

    def call(self, name: str, offset: int, depth: int) -> tuple[Expr, int]:
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
        return self.grow(Call(name, tuple(e for e, _ in args)), offset, *(h for _, h in args))

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
# `_eval` computes a tree's value at t, x and r in one walk: each node
# evaluates its left operand, then its right, then runs its own checks, and
# `_on_arrays` turns numpy's floating-point warnings off around the whole
# walk, since every node checks its own result.  Each operator calls numpy's
# primitives, which take 0-d arrays (a point) and float arrays alike.  A
# fault raises EvalError at its node, named by to_text of that node (built
# only when it is raised).  `^` is the one primitive whose value depends on
# the arguments' shape: at a point it is Python's `**`, as in the generated
# code below, and over arrays numpy's vectorized pow, and the two may round
# apart in the last bit.
#
# A caller that evaluates the same trees at many points (the solver) compiles
# them once with `_compile_system` below into generated code, which is checked
# against `evaluate` at a point bit for bit; a compile() costs about 80-200 us
# per tree, more than a sampled tree is ever evaluated.


def _pow(a, b):
    # two 0-d operands (a point) take Python's float pow, as the generated code does
    if np.ndim(a) or np.ndim(b):
        return np.asarray(a, dtype=float) ** b
    return float(a) ** float(b)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": _pow}


def _non_finite(node: Expr) -> EvalError:
    return EvalError("non-finite result", to_text(node))


def _r_unbound() -> BindError:
    return BindError("variable 'r' is not bound in this context")


def _x_unbound(i: int, x) -> BindError:
    return BindError(f"variable x{i + 1} exceeds the bound dimension {len(x)}")


def _integer_constant(node: Expr) -> bool:
    """Whether node is a Num, or Neg of one, whose value is an integer."""
    if isinstance(node, Neg):
        node = node.operand
    return isinstance(node, Num) and isinstance(node.value, float) and node.value.is_integer()


def _eval(node: Expr, t, x, r):
    """The tree's value at t, x and r; see the comment above."""
    if isinstance(node, BinOp):
        a = _eval(node.left, t, x, r)
        b = _eval(node.right, t, x, r)
        if node.op == "/" and np.any(b == 0):
            raise EvalError("division by zero", to_text(node))
        # A negative base needs an integer exponent, b == floor(b) (inf counts,
        # nan does not), judged point by point over arrays.  Any base may meet
        # an integer exponent: a constant one needs no test.
        if (node.op == "^" and not _integer_constant(node.right)
                and np.any((np.asarray(a) < 0) & (np.asarray(b) != np.floor(b)))):
            raise EvalError("negative base with non-integer exponent", to_text(node))
        try:
            out = _BINARY[node.op](a, b)
        except (OverflowError, ZeroDivisionError) as exc:  # Python's float pow
            raise EvalError(str(exc), to_text(node)) from None
    elif isinstance(node, Num):
        return float(node.value)
    elif isinstance(node, Var):
        if node.name == "t":
            return t
        if node.name == "r":
            if r is None:
                raise _r_unbound()
            return r
        try:
            return x[node.index - 1]
        except IndexError:
            raise _x_unbound(node.index - 1, x) from None
    elif isinstance(node, Neg):
        return -_eval(node.operand, t, x, r)
    elif isinstance(node, Call) and node.name == "pow":
        return _eval(BinOp("^", node.args[0], node.args[1]), t, x, r)
    elif isinstance(node, Call):
        a = _eval(node.args[0], t, x, r)
        if node.name == "abs":
            return np.abs(a)
        if node.name == "sqrt":
            if np.any(a < 0):
                raise EvalError("sqrt of negative value", to_text(node))
            return np.sqrt(a)
        out = getattr(np, node.name)(a)
    else:
        raise TypeError(f"not an Expr node: {node!r}")
    # a BinOp, or a call of exp, sin or cos
    if np.isfinite(out).all():
        return out
    raise _non_finite(node)


# --- generated point code -----------------------------------------------------
#
# `_compile_system` writes a tuple of trees as one straight-line function
# f(t, x) -> list[float], for a caller that evaluates the same trees at many
# points (the solver, twice per step).  Each operator node is one statement,
# emitted in `_eval`'s order (children left to right, then the node) with
# its checks written out on plain floats, so every value and every fault
# (class, message, node) is `evaluate`'s at that point, with r unbound.
# Constants, state indices, ufuncs and the nodes a fault names are bound in
# the function's namespace, so the source holds generated names only and no
# text from a tree reaches compile().  Like `_eval`, the walk recurses once
# per level, at most 256 in a parsed tree.

# np.exp cannot overflow for an argument of at most this magnitude, so the
# generated code calls exp, sin and cos there without np.errstate (about
# 1.4 us per use, ten times the call itself); any other argument, inf and nan
# included, goes through `_float_ufunc`, and finiteness is checked after.
_EXP_NO_OVERFLOW = 709.0


def _float_ufunc(ufunc, a: float) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        return float(ufunc(a))


# an operator is written by lookup, not copied from its node
_SOURCE_ARITH = {"+": "+", "-": "-", "*": "*", "/": "/"}


def _system_source(trees) -> tuple[str, dict]:
    """Source of `_compile_system`'s function f, and the namespace it runs in."""
    namespace = {
        "isfinite": math.isfinite, "isinf": math.isinf, "sqrt": math.sqrt, "EvalError": EvalError,
        "to_text": to_text, "_non_finite": _non_finite, "_r_unbound": _r_unbound, "_x_unbound": _x_unbound,
        "_float_ufunc": _float_ufunc, "_EXP_NO_OVERFLOW": _EXP_NO_OVERFLOW,
    }
    lines = ["def f(t, x):"]
    ids = itertools.count()

    def bind(prefix: str, value) -> str:
        name = f"{prefix}{len(namespace)}"
        namespace[name] = value
        return name

    def emit(node: Expr) -> str:
        """The name of node's value, after appending the statements of its
        children, left to right, and then its own to lines."""
        if isinstance(node, Call) and node.name == "pow":
            node = BinOp("^", node.args[0], node.args[1])  # as `_eval` evaluates it
        if isinstance(node, Num):
            return bind("c", float(node.value))
        if isinstance(node, Var) and node.name == "t":
            return "t"
        if isinstance(node, Neg):
            args = [emit(node.operand)]
        elif isinstance(node, BinOp):
            args = [emit(node.left), emit(node.right)]
        elif isinstance(node, Call):
            args = [emit(node.args[0])]
        elif not isinstance(node, Var):
            raise TypeError(f"not an Expr node: {node!r}")
        v = f"v{next(ids)}"
        if isinstance(node, Var) and node.name == "r":
            lines.append("    raise _r_unbound()")
        elif isinstance(node, Var):
            i = bind("c", node.index - 1)
            lines.append(f"    try:\n        {v} = x[{i}]\n"
                         f"    except IndexError:\n        raise _x_unbound({i}, x) from None")
        elif isinstance(node, Neg):
            lines.append(f"    {v} = -{args[0]}")
        elif isinstance(node, Call) and node.name == "abs":
            lines.append(f"    {v} = abs({args[0]})")
        else:
            emit_checked(node, args, v, bind("n", node))
        return v

    def emit_checked(node: Expr, args: list[str], v: str, n: str) -> None:
        def fault(message: str) -> str:
            return f"raise EvalError({message!r}, to_text({n}))"

        a = args[0]
        if isinstance(node, Call) and node.name == "sqrt":
            lines.append(f"    if {a} < 0: {fault('sqrt of negative value')}\n    {v} = sqrt({a})")
            return
        if isinstance(node, BinOp) and node.op in "+-*/":
            b = args[1]
            if node.op == "/":
                lines.append(f"    if {b} == 0: {fault('division by zero')}")
            lines.append(f"    {v} = {a} {_SOURCE_ARITH[node.op]} {b}")
        elif isinstance(node, BinOp):
            b = args[1]
            if not _integer_constant(node.right):
                check = f"{a} < 0.0 and not ({b}.is_integer() or isinf({b}))"
                lines.append(f"    if {check}: {fault('negative base with non-integer exponent')}")
            lines.append(f"    try:\n        {v} = {a} ** {b}\n    except (OverflowError, ZeroDivisionError) as exc:\n"
                         f"        raise EvalError(str(exc), to_text({n})) from None")
        else:
            u = bind("c", getattr(np, node.name))
            lines.append(f"    {v} = float({u}({a})) if abs({a}) <= _EXP_NO_OVERFLOW else _float_ufunc({u}, {a})")
        lines.append(f"    if not isfinite({v}): raise _non_finite({n})")

    results = [emit(tree) for tree in trees]
    lines.append(f"    return [{', '.join(results)}]")
    return "\n".join(lines) + "\n", namespace


def _compile_system(trees):
    """f(t, x) -> [each tree's value at t, x], as `evaluate` computes it with
    r unbound; see the comment above."""
    source, namespace = _system_source(trees)
    exec(compile(source, "<fracstab system>", "exec"), namespace)
    return namespace["f"]


def _on_arrays(caller: str, node: Expr, t, x, r, within_t: bool = False) -> np.ndarray:
    """The tree at t, each x and r (unless None), bound as float arrays
    (`reals`), as a new float array of their broadcast shape (with within_t,
    t's own).  BindError unless they hold finite real numbers only and
    broadcast.  One walk (`_eval`) computes it, with numpy's floating-point
    warnings off: every node checks its own result.
    """
    try:
        xs = [reals(v, f"x{i}") for i, v in enumerate(x, start=1)]
        t, r = reals(t, "t"), None if r is None else reals(r, "r")
    except (TypeError, ValueError) as exc:  # x not iterable; DomainError and RangeError are ValueErrors
        raise BindError(f"{caller} needs finite real t, x and r: {exc}") from None
    shapes = [v.shape for v in (t, *xs, *(() if r is None else (r,)))]
    try:
        shape = np.broadcast_shapes(*shapes)
    except ValueError:
        shape = None
    if shape is None or (within_t and shape != t.shape):
        target = "to the shape of ts" if within_t else "together"
        raise BindError(f"{caller} needs t, x and r that broadcast {target}, got shapes {shapes}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _eval(node, t, xs, r)
    return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()


def evaluate(node: Expr, t=0.0, x=(), r=None) -> float | np.ndarray:
    """Evaluate at numbers or numpy arrays, each bound as a float array.

    When t, each x and r are numbers (0-d), the value is a float; otherwise
    (numpy arrays or nested sequences of numbers) it is a new ndarray over
    their broadcast shape.  Faults raise EvalError/BindError, never silent
    NaN; so does input that is not a finite real number, and arrays that do
    not broadcast.
    """
    out = _on_arrays("evaluate", node, t, x, r)
    return float(out) if out.ndim == 0 else out


def sample_on(node: Expr, ts: np.ndarray, x=(), r=None) -> np.ndarray:
    """`evaluate` over an array of times ts, as an array of ts.shape (a
    constant tree's too).

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
