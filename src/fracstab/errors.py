"""Exception hierarchy shared across the package, and the argument policy
of its public API.

Every public argument that must be a real number or a count goes through
`real`, `reals` or `count`: a value that is not a real number (str, None,
bool, complex, a sequence where a number is due) or not finite raises
DomainError, an int beyond the double range raises RangeError, so bad
input ends in a FracstabError and never in a Python TypeError,
OverflowError or ValueError.  An argument of the wrong object type (a float
where a SystemDef is due) is outside this policy.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class FracstabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FracstabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeError(FracstabError, ValueError):
    """A request is outside the supported evaluation range."""


class ShapeError(FracstabError, ValueError):
    """Inconsistent grid/series shapes or too few nodes."""


class ExpressionError(FracstabError, ValueError):
    """Base for expression parsing/evaluation failures."""


class ParseError(ExpressionError):
    """Syntax error in an expression, carrying the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class BindError(ExpressionError):
    """An expression references a variable outside the bound dimension."""


class EvalError(ExpressionError):
    """Evaluation produced a fault (division by zero, domain error, non-finite)."""

    def __init__(self, message: str, subexpr: str = ""):
        self.subexpr = subexpr
        if subexpr:
            message = f"{message} in '{subexpr}'"
        super().__init__(message)


class EnvelopeError(FracstabError, ValueError):
    """An envelope fails its declared monotonicity/sign property on the grid."""


class PreconditionError(FracstabError, ValueError):
    """A verifier's hypothesis fails on the supplied data."""


class SingularityError(PreconditionError):
    """A power with exponent < 1 meets data touching zero."""


class DivergenceError(FracstabError, RuntimeError):
    """The solver state left the finite range; carries the last valid step."""

    def __init__(self, message: str, last_step: int):
        super().__init__(message)
        self.last_step = last_step


class ConfigError(FracstabError, ValueError):
    """Run configuration is syntactically or semantically invalid."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownCheckError(FracstabError, ValueError):
    """A check suite name does not resolve to a registered verifier."""


def _float(value) -> float:
    """float(value) for a real number; TypeError for anything else, bools
    included, and OverflowError for an int beyond the double range."""
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"got {value!r}")


def real(value, name: str) -> float:
    """value as a finite float: an int, float or numpy real scalar.

    DomainError for anything that is not a real number (str, None, bool,
    complex, a sequence) and for NaN and +-inf; RangeError for an int
    beyond the double range.  name starts each message.
    """
    try:
        out = _float(value)
    except TypeError as exc:
        raise DomainError(f"{name} requires a real number: {exc}") from None
    except OverflowError as exc:
        raise RangeError(f"{name} requires a number within the double range: {exc}") from None
    if not math.isfinite(out):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return out


def _float_array(values, name: str) -> np.ndarray:
    """values as a float array of their shape, each element held to `real`'s
    type rule but not yet to finiteness.

    An int or float array is converted as a whole.  Only an object array
    (an int beyond int64, None, a Fraction, ...) is judged element by
    element.  A list that mixes bools with numbers reaches this as numpy's
    float array, so only an all-bool array is refused as bool.
    """
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "O":
            arr = np.array([_float(v) for v in arr.ravel().tolist()], dtype=float).reshape(arr.shape)
        elif arr.dtype.kind not in "iuf":
            raise TypeError(f"got {arr.dtype} data")
    except (TypeError, ValueError) as exc:  # ValueError: ragged nesting
        raise DomainError(f"{name} requires real numbers: {exc}") from None
    except OverflowError as exc:
        raise RangeError(f"{name} requires numbers within the double range: {exc}") from None
    return arr.astype(float, copy=False)


def reals(values, name: str) -> np.ndarray:
    """values as a float array of their shape, each element held to `real`'s
    rule; finiteness is one vectorized check over the whole array."""
    out = _float_array(values, name)
    if not np.isfinite(out).all():
        raise DomainError(f"{name} must all be finite")
    return out


def count(value, name: str, lo: int, hi: int | None = None) -> int:
    """value as an int in [lo, hi], or in [lo, inf) when hi is None.

    An integral value, numpy integers included and bools excluded; anything
    else (nan, inf, 4.5, "3") and an int outside the bounds raise
    DomainError.
    """
    if (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and lo <= value
        and (hi is None or value <= hi)
    ):
        return int(value)
    bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    raise DomainError(f"{name} must be an integer {bounds}, got {value!r}")
