"""Run-time values of ``little`` (paper Figure 2).

``v ::= nᵗ | s | b | [] | [v1|v2] | (λ p e)``

Numbers carry traces; every other value is traceless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .ast import Expr, Pattern
from .errors import SvgError
from ..trace.trace import Trace


class VNum:
    """A number with its trace.  Hand-written (not a dataclass): VNum is
    constructed on the innermost evaluation path, and a plain ``__init__``
    beats the frozen-dataclass ``object.__setattr__`` protocol.  Treated
    as immutable by convention; equality/hash match the dataclass form."""

    __slots__ = ("value", "trace")

    def __init__(self, value: float, trace: Trace):
        self.value = value
        self.trace = trace

    def __eq__(self, other):
        if type(other) is not VNum:
            return NotImplemented
        return self.value == other.value and self.trace == other.trace

    def __hash__(self):
        return hash((self.value, self.trace))

    def __repr__(self):
        return f"VNum(value={self.value!r}, trace={self.trace!r})"


@dataclass(frozen=True, slots=True)
class VStr:
    value: str


@dataclass(frozen=True, slots=True)
class VBool:
    value: bool


@dataclass(frozen=True, slots=True)
class VNil:
    pass


class VCons:
    """A cons cell, hand-written for the same reason as :class:`VNum`."""

    __slots__ = ("head", "tail")

    def __init__(self, head: "Value", tail: "Value"):
        self.head = head
        self.tail = tail

    def __eq__(self, other):
        if type(other) is not VCons:
            return NotImplemented
        return self.head == other.head and self.tail == other.tail

    def __hash__(self):
        return hash((self.head, self.tail))

    def __repr__(self):
        return f"VCons(head={self.head!r}, tail={self.tail!r})"


class VClosure:
    """Function value.  Not a dataclass: closures are compared by identity
    and the captured environment may be back-patched for ``letrec``."""

    __slots__ = ("pattern", "body", "env")

    def __init__(self, pattern: Pattern, body: Expr, env):
        self.pattern = pattern
        self.body = body
        self.env = env

    def __repr__(self) -> str:
        return "<closure>"


Value = Union[VNum, VStr, VBool, VNil, VCons, VClosure]


def from_pylist(values) -> Value:
    """Build a little list value from a Python iterable of values."""
    result: Value = VNil()
    for value in reversed(list(values)):
        result = VCons(value, result)
    return result


def to_pylist(value: Value) -> list:
    """Flatten a little list value into a Python list (must be nil-terminated).

    Every caller reads program output as SVG, so an improper list is
    reported as the :class:`~repro.lang.errors.SvgError` it causes there."""
    items = []
    while isinstance(value, VCons):
        items.append(value.head)
        value = value.tail
    if not isinstance(value, VNil):
        raise SvgError(f"improper list (tail is {type(value).__name__})")
    return items


def is_list(value: Value) -> bool:
    while isinstance(value, VCons):
        value = value.tail
    return isinstance(value, VNil)


def value_equal(left: Value, right: Value) -> bool:
    """Structural equality *including* numeric values but ignoring traces."""
    if isinstance(left, VNum) and isinstance(right, VNum):
        return left.value == right.value
    if isinstance(left, VStr) and isinstance(right, VStr):
        return left.value == right.value
    if isinstance(left, VBool) and isinstance(right, VBool):
        return left.value == right.value
    if isinstance(left, VNil) and isinstance(right, VNil):
        return True
    if isinstance(left, VCons) and isinstance(right, VCons):
        return (value_equal(left.head, right.head)
                and value_equal(left.tail, right.tail))
    if isinstance(left, VClosure) and isinstance(right, VClosure):
        return left is right
    return False


def format_number(n: float) -> str:
    """Render a little number the way the SVG backend and toString do:
    integral floats print without a decimal point, and inf and nan as
    ``repr`` does.  Program text uses
    :func:`repro.lang.unparser.format_literal` instead."""
    # The magnitude test goes first: it is false for inf and nan, which
    # int() cannot convert.
    if abs(n) < 1e15 and n == int(n):
        return str(int(n))
    return repr(float(n))
