"""Guarded trace-driven re-evaluation — the drag-loop fast path (§4.1).

During live synchronization the program *structure* is fixed; a mouse-move
only changes the substitution ρ.  Every number in the output carries a
trace, and its value is exactly ``ρt`` (the property tested by
``test_rho0_reproduces_output_values``).  So instead of re-running the
whole program per mouse-move, we can:

1. run the program **once**, recording every place where a *value*
   influenced *control flow* — numeric comparisons, ``toString`` on
   numbers, and numeric-literal pattern matches — together with the
   operand traces and observed outcomes (the *guards*), plus the trace of
   every numeric operation that can raise (the *partials*);
2. on each subsequent ρ, check that every guard evaluates to the same
   outcome and every partial still evaluates.  If so, the re-run is
   guaranteed to take the same path without error, and the new output is
   the old output with each numeric leaf replaced by ``ρt`` of its
   (unchanged) trace;
3. if any guard flips (a clamp saturates, a branch changes, a list length
   would differ) or a partial raises, fall back to a full evaluation,
   which re-records — or raises the error a from-scratch run would.

The rebuilt values are bit-identical to a from-scratch evaluation: the
trace records the exact float-operation tree the evaluator would execute.

Limitations: a number that is computed but feeds neither the output, a
guard, nor a partial operation is not re-evaluated.  That is safe because
``+``, ``-``, ``*``, ``neg``, ``abs`` and ``pi`` never raise on floats;
every operator that can is a partial, recorded even when its value is
dead, so no replay commits a state its own source cannot run.  Guards are
conservative everywhere control flow can observe a number.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from .ast import Loc
from .errors import LittleRuntimeError
from .eval import get_budget, get_recorder, set_recorder
from .ops import apply_numeric_op
from .values import VCons, VNum, Value, float_bits, format_number
from ..trace.trace import postorder

_MISSING = object()

__all__ = ["EvalCache", "record_evaluation", "reevaluate"]


class Recorder:
    """Collects guards and partial operations during one full
    evaluation."""

    __slots__ = ("comparisons", "tostrings", "num_matches", "partials")

    def __init__(self):
        # (op, left trace, right trace, outcome)
        self.comparisons: List[Tuple[str, object, object, bool]] = []
        # (trace, rendered string)
        self.tostrings: List[Tuple[object, str]] = []
        # (trace, pattern value, matched?)
        self.num_matches: List[Tuple[object, float, bool]] = []
        # traces of the numeric operations that can raise
        self.partials: List[object] = []


class EvalCache:
    """A recorded run: the output value plus the guards that pin down its
    control flow.  Valid for any ρ under which every guard holds and every
    partial operation evaluates."""

    __slots__ = ("output", "comparisons", "tostrings", "num_matches",
                 "partials", "rho", "plan", "compile_failed", "_nodes",
                 "_locations")

    def __init__(self, output: Value, recorder: Recorder,
                 rho: Dict[Loc, float]):
        self.output = output
        self.comparisons = recorder.comparisons
        self.tostrings = recorder.tostrings
        self.num_matches = recorder.num_matches
        self.partials = recorder.partials
        #: The ρ the recording was made under (its program's ρ0): a trace
        #: whose locations all hold these values, bit for bit, evaluates
        #: to its recorded value.
        self.rho = rho
        #: The compiled plan (:func:`~repro.lang.compile.ensure_compiled`):
        #: specialized for one moved set (:meth:`moved`), or for the whole
        #: recording.  It lives and dies with this recording: a guard flip
        #: or structural change replaces the whole cache, plan included.
        #: ``compile_failed`` marks a recording whose specialization
        #: failed: it is never specialized again, and the interpreted
        #: replay below answers every step the plan does not cover.
        self.plan = None
        self.compile_failed = False
        self._nodes: Optional[List[object]] = None
        self._locations: Optional[Tuple[Tuple[Loc, object], ...]] = None

    def trace_nodes(self) -> List[object]:
        """The distinct nodes of every guard's, partial's and output
        number's trace, each after its arguments (built once)."""
        nodes = self._nodes
        if nodes is None:
            roots = [trace for _op, left, right, _expected in self.comparisons
                     for trace in (left, right)]
            roots += [trace for trace, _rendered in self.tostrings]
            roots += [trace for trace, _value, _expected in self.num_matches]
            roots += self.partials
            seen = set()
            stack = [self.output]
            while stack:
                value = stack.pop()
                kind = type(value)
                if kind is VNum:
                    roots.append(value.trace)
                elif kind is VCons and id(value) not in seen:
                    seen.add(id(value))
                    stack.append(value.tail)
                    stack.append(value.head)
            nodes = self._nodes = postorder(roots)
        return nodes

    def moved(self, rho: Dict[Loc, float]) -> FrozenSet[Loc]:
        """The moved set D of ``rho``: the recording's trace locations
        whose value differs, bit for bit, from :attr:`rho` (a
        location ``rho`` lacks counts as moved).  Bits, not ``==``: a zero
        whose sign flips can change what a trace computes from it."""
        locations = self._locations
        if locations is None:
            recorded = self.rho
            locations = self._locations = tuple(
                (node, recorded.get(node, _MISSING))
                for node in self.trace_nodes() if type(node) is Loc)
        get = rho.get
        moved = []
        for loc, old in locations:
            new = get(loc)
            # ρ0 copies keep the float objects of the values they keep.
            if new is not old and not (
                    type(new) is float and type(old) is float
                    and float_bits(new) == float_bits(old)):
                moved.append(loc)
        return frozenset(moved)

    def plan_for(self, rho: Dict[Loc, float]):
        """The compiled plan if it answers ``rho`` (its moved set covers
        ``rho``'s), else ``None``."""
        plan = self.plan
        if plan is not None and plan.moved is not None \
                and not plan.covers(self.moved(rho)):
            return None
        return plan


def record_evaluation(program) -> Tuple[Value, EvalCache]:
    """Fully evaluate ``program`` while recording control-flow guards."""
    recorder = Recorder()
    previous = get_recorder()
    set_recorder(recorder)
    try:
        output = program.evaluate()
    finally:
        set_recorder(previous)
    return output, EvalCache(output, recorder, program.rho0)


def _trace_value(trace, rho: Dict[int, float], memo: Dict[int, float]
                 ) -> float:
    """``ρt`` with sharing: identical trace nodes evaluate once per step.

    ``rho`` is keyed by ``loc.ident`` (plain ints hash at C speed; ``Loc``
    hashing is a Python-level call on this innermost path).  The binary
    arithmetic cases are inlined for the same reason.
    """
    if type(trace) is Loc:
        return rho[trace.ident]
    key = id(trace)
    value = memo.get(key)
    if value is not None:
        return value
    args = trace.args
    if len(args) == 2:
        left = _trace_value(args[0], rho, memo)
        right = _trace_value(args[1], rho, memo)
        op = trace.op
        if op == "+":
            value = left + right
        elif op == "-":
            value = left - right
        elif op == "*":
            value = left * right
        else:
            value = apply_numeric_op(op, (left, right))
    elif len(args) == 1:
        value = apply_numeric_op(trace.op,
                                 (_trace_value(args[0], rho, memo),))
    else:
        value = apply_numeric_op(
            trace.op, [_trace_value(arg, rho, memo) for arg in args])
    memo[key] = value
    return value


def _compare(op: str, left: float, right: float) -> bool:
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    if op == ">=":
        return left >= right
    return left == right        # "="


def _rebuild(value: Value, rho: Dict[Loc, float],
             memo: Dict[int, float]) -> Value:
    """The old output with numeric leaves recomputed under ρ; unchanged
    subtrees are returned as-is (identity-shared)."""
    kind = type(value)
    if kind is VNum:
        new_value = _trace_value(value.trace, rho, memo)
        if new_value == value.value:
            return value
        return VNum(new_value, value.trace)
    if kind is VCons:
        head = _rebuild(value.head, rho, memo)
        tail = _rebuild(value.tail, rho, memo)
        if head is value.head and tail is value.tail:
            return value
        return VCons(head, tail)
    return value


def reevaluate(cache: EvalCache, rho: Dict[Loc, float]) -> Optional[Value]:
    """Re-run the recorded evaluation under a new ρ.

    Returns the new output value — bit-identical to a from-scratch
    evaluation — or ``None`` when some guard no longer holds or some
    partial operation raises (the caller must fall back to a full
    evaluation).
    """
    rho = {loc.ident: value for loc, value in rho.items()}
    memo: Dict[int, float] = {}
    # Coarse budget accounting for the fast path: one fuel step per guard
    # and per partial, charged up front.  Deliberately *before* the try —
    # an exhausted budget must propagate as ResourceExhausted (a
    # LittleRuntimeError subtype), not be swallowed as a guard flip, which
    # would send the caller into an even more expensive full
    # re-evaluation.
    budget = get_budget()
    if budget is not None:
        budget.consume(len(cache.comparisons) + len(cache.tostrings)
                       + len(cache.num_matches) + len(cache.partials))
    try:
        for op, left, right, expected in cache.comparisons:
            if _compare(op, _trace_value(left, rho, memo),
                        _trace_value(right, rho, memo)) != expected:
                return None
        for trace, rendered in cache.tostrings:
            if format_number(_trace_value(trace, rho, memo)) != rendered:
                return None
        for trace, pattern_value, expected in cache.num_matches:
            if (_trace_value(trace, rho, memo) == pattern_value) != expected:
                return None
        for trace in cache.partials:    # raises where the program would
            _trace_value(trace, rho, memo)
        return _rebuild(cache.output, rho, memo)
    except (KeyError, LittleRuntimeError, RecursionError):
        return None
