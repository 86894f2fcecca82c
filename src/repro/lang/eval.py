"""Big-step evaluator for ``little`` with trace instrumentation.

The distinguishing rule is E-OP-NUM (paper Figure 2): applying a primitive
operator to numbers ``n1^t1 … nm^tm`` yields ``n^t`` where
``t = (op t1 … tm)`` — traces are built *in parallel with* evaluation and
record data flow only.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, Optional

from .ast import (ECase, ECons, ELambda, ELet, ENil, ENum, EOp, EStr, EVar,
                  EApp, EBool, Expr, NUMERIC_OPS, PBool, PCons, PNil, PNum,
                  PStr, PVar, Pattern)
from .errors import LittleRuntimeError, MatchFailure, ResourceExhausted
from .ops import apply_numeric_op
from .values import (VBool, VClosure, VCons, VNil, VNum, VStr, Value,
                     format_number)
from ..trace.trace import OpTrace

_MIN_RECURSION_LIMIT = 20000

#: Numeric operators that can raise: ``/``, ``mod``, ``pow``, ``sqrt``,
#: ``arccos``, ``arcsin``, and ``cos``/``sin``/``floor``/``ceiling``/
#: ``round`` of a non-finite value.  The guard recorder keeps the trace of
#: every application, so a replay re-checks it even where its value is
#: dead (feeds neither the output nor a guard).
_PARTIAL_OPS = NUMERIC_OPS - {"+", "-", "*", "neg", "abs", "pi"}

#: Active guard recorder (see :mod:`repro.lang.incremental`), per thread.
#: When set, every value-dependent control-flow decision on this thread is
#: recorded.  A process-global here would let two sessions recording
#: concurrently pollute each other's guard lists — ``reevaluate`` would
#: then silently validate stale outputs (found by the serve concurrency
#: harness, ``tests/test_serve_concurrency.py``).
#: The recording checkpoints below read ``getattr(_RECORDERS, "value",
#: None)`` inline rather than calling :func:`get_recorder` — a
#: deliberate hot-path optimization (comparisons run in the evaluator's
#: inner loop); keep the helper and the inline reads in sync.
_RECORDERS = threading.local()


def get_recorder():
    """This thread's active guard recorder, or ``None``."""
    return getattr(_RECORDERS, "value", None)


def set_recorder(recorder) -> None:
    """Install (or clear, with ``None``) this thread's guard recorder."""
    _RECORDERS.value = recorder


#: Active evaluation budget, per thread (same discipline as the guard
#: recorder above): installed around one evaluation via
#: :func:`budget_scope`, read inline in the interpreter loop.
_BUDGETS = threading.local()


class EvalBudget:
    """Cooperative resource budget for one evaluation run.

    Three independent caps, each ``None`` for unlimited:

    * ``max_fuel`` — evaluation *steps* (interpreter loop iterations, plus
      a coarse per-guard charge on the incremental replay path), the
      wall-clock proxy that stops an infinite tail-recursive loop;
    * ``max_depth`` — non-tail little-level recursion depth, which fires
      long before Python's own recursion limit would produce an opaque
      ``RecursionError`` traceback;
    * ``max_size`` — allocated value cells (cons cells, produced string
      characters), which stops an exponential list build before it stops
      the machine.

    The counters are mutable and reset per run (:func:`budget_scope`), so
    one instance serves a session's lifetime but must not be shared
    across threads — clone per concurrent consumer (:meth:`clone`).

    >>> from repro.lang.program import parse_program
    >>> looping = parse_program(
    ...     "(defrec spin (\\\\n (spin (+ n 1)))) "
    ...     "(svg [(rect 'red' (spin 0) 0 5 5)])")
    >>> with budget_scope(EvalBudget(max_fuel=10000)):
    ...     looping.evaluate()
    Traceback (most recent call last):
        ...
    repro.lang.errors.ResourceExhausted: program exceeded its evaluation \
budget: 10000 steps (fuel)
    """

    __slots__ = ("max_fuel", "max_depth", "max_size", "fuel", "depth",
                 "size")

    #: Defaults sized for interactive serving: two orders of magnitude
    #: above the hungriest corpus program (us50_flag evaluates in ~5e4
    #: steps), small enough that a runaway program fails within a second.
    DEFAULT_FUEL = 5_000_000
    #: Non-tail recursion depth; must stay comfortably below the Python
    #: recursion limit the evaluator configures (each little-level frame
    #: costs a couple of Python frames), so the budget fires first.
    DEFAULT_DEPTH = 4_000
    DEFAULT_SIZE = 5_000_000

    def __init__(self, max_fuel: Optional[int] = DEFAULT_FUEL,
                 max_depth: Optional[int] = DEFAULT_DEPTH,
                 max_size: Optional[int] = DEFAULT_SIZE):
        self.max_fuel = float("inf") if max_fuel is None else max_fuel
        self.max_depth = float("inf") if max_depth is None else max_depth
        self.max_size = float("inf") if max_size is None else max_size
        self.fuel = 0
        self.depth = 0
        self.size = 0

    def clone(self) -> "EvalBudget":
        """A fresh budget with the same limits and zeroed counters."""
        clone = EvalBudget.__new__(EvalBudget)
        clone.max_fuel = self.max_fuel
        clone.max_depth = self.max_depth
        clone.max_size = self.max_size
        clone.fuel = clone.depth = clone.size = 0
        return clone

    def reset(self) -> None:
        self.fuel = 0
        self.depth = 0
        self.size = 0

    def _exhausted(self, kind: str, limit: float, unit: str):
        limit_text = int(limit) if limit != float("inf") else limit
        raise ResourceExhausted(
            kind, limit, f"program exceeded its evaluation budget: "
                         f"{limit_text} {unit} ({kind})")

    def consume(self, amount: int) -> None:
        """Charge ``amount`` steps at once (the replay path's coarse
        per-guard accounting)."""
        self.fuel += amount
        if self.fuel > self.max_fuel:
            self._exhausted("fuel", self.max_fuel, "steps")

    def enter(self) -> None:
        """One non-tail little-level call frame (paired with a direct
        ``depth -= 1`` in the evaluator's ``finally``)."""
        self.depth += 1
        if self.depth > self.max_depth:
            self._exhausted("depth", self.max_depth, "frames")

    def allocate(self, cells: int) -> None:
        """Charge ``cells`` allocated value cells."""
        self.size += cells
        if self.size > self.max_size:
            self._exhausted("size", self.max_size, "cells")


def get_budget() -> Optional[EvalBudget]:
    """This thread's active evaluation budget, or ``None``."""
    return getattr(_BUDGETS, "value", None)


class _BudgetScope:
    """Install ``budget`` (reset) for the dynamic extent of one
    evaluation, restoring the previous budget on exit.  ``budget=None``
    is a cheap no-op, so the unbudgeted paths stay unchanged."""

    __slots__ = ("budget", "previous")

    def __init__(self, budget: Optional[EvalBudget]):
        self.budget = budget
        self.previous = None

    def __enter__(self) -> Optional[EvalBudget]:
        budget = self.budget
        if budget is not None:
            budget.reset()
            self.previous = getattr(_BUDGETS, "value", None)
            _BUDGETS.value = budget
        return budget

    def __exit__(self, *exc_info) -> bool:
        if self.budget is not None:
            _BUDGETS.value = self.previous
        return False


def budget_scope(budget: Optional[EvalBudget]) -> _BudgetScope:
    """Context manager installing ``budget`` for one evaluation run."""
    return _BudgetScope(budget)


_MISSING = object()


class Env:
    """Environment as a parent-linked chain of small binding dicts."""

    __slots__ = ("bindings", "parent")

    def __init__(self, bindings: Optional[Dict[str, Value]] = None,
                 parent: Optional["Env"] = None):
        self.bindings = bindings if bindings is not None else {}
        self.parent = parent

    def lookup(self, name: str) -> Value:
        env: Optional[Env] = self
        while env is not None:
            value = env.bindings.get(name, _MISSING)
            if value is not _MISSING:
                return value
            env = env.parent
        raise LittleRuntimeError(f"unbound variable {name!r}")

    def child(self, bindings: Dict[str, Value]) -> "Env":
        return Env(bindings, self)


def match(pattern: Pattern, value: Value) -> Optional[Dict[str, Value]]:
    """Match ``value`` against ``pattern``; return bindings or ``None``."""
    if isinstance(pattern, PVar):
        return {pattern.name: value}
    if isinstance(pattern, PNum):
        matched = isinstance(value, VNum) and value.value == pattern.value
        recorder = getattr(_RECORDERS, "value", None)
        if recorder is not None and isinstance(value, VNum):
            recorder.num_matches.append(
                (value.trace, pattern.value, matched))
        return {} if matched else None
    if isinstance(pattern, PStr):
        if isinstance(value, VStr) and value.value == pattern.value:
            return {}
        return None
    if isinstance(pattern, PBool):
        if isinstance(value, VBool) and value.value == pattern.value:
            return {}
        return None
    if isinstance(pattern, PNil):
        return {} if isinstance(value, VNil) else None
    if isinstance(pattern, PCons):
        if not isinstance(value, VCons):
            return None
        head_bindings = match(pattern.head, value.head)
        if head_bindings is None:
            return None
        tail_bindings = match(pattern.tail, value.tail)
        if tail_bindings is None:
            return None
        head_bindings.update(tail_bindings)
        return head_bindings
    raise LittleRuntimeError(f"unknown pattern {pattern!r}")


def evaluate(expr: Expr, env: Optional[Env] = None) -> Value:
    """Evaluate ``expr`` in ``env`` (empty by default)."""
    if sys.getrecursionlimit() < _MIN_RECURSION_LIMIT:
        sys.setrecursionlimit(_MIN_RECURSION_LIMIT)
    return _eval(expr, env if env is not None else Env())


# Interned leaf values: little's nil and booleans are immutable and
# traceless, so one instance of each serves every evaluation.
_NIL = VNil()
_TRUE = VBool(True)
_FALSE = VBool(False)


def _eval_str(expr: EStr, env: Env) -> Value:
    cached = getattr(expr, "_vcache", None)
    if cached is None:
        cached = VStr(expr.value)
        expr._vcache = cached
    return cached


def _eval_bool(expr: EBool, env: Env) -> Value:
    return _TRUE if expr.value else _FALSE


def _eval_nil(expr: ENil, env: Env) -> Value:
    return _NIL


def _eval_cons(expr: ECons, env: Env) -> Value:
    # Evaluate the cons spine iteratively: list literals are long, and one
    # Python frame per element costs more than the loop.
    heads = []
    node = expr
    while type(node) is ECons:
        heads.append(_eval(node.head, env))
        node = node.tail
    value = _eval(node, env)
    budget = getattr(_BUDGETS, "value", None)
    if budget is not None:
        # The only VCons allocation site: every little list cell — literal
        # or built one cons at a time by recursive prelude functions —
        # passes through here, so charging the spine length meters total
        # list allocation.
        budget.allocate(len(heads))
    for head in reversed(heads):
        value = VCons(head, value)
    return value


def _eval_lambda(expr: ELambda, env: Env) -> Value:
    return VClosure(expr.pattern, expr.body, env)


#: Dispatch table for expression kinds that produce a value directly; the
#: tail-callable kinds (let/app/case) and the hottest leaves (variables,
#: numbers) are handled inline in the ``_eval`` loop instead.
_LEAF_HANDLERS = {
    EStr: _eval_str,
    EBool: _eval_bool,
    ENil: _eval_nil,
    ECons: _eval_cons,
    ELambda: _eval_lambda,
}


def _eval(expr: Expr, env: Env) -> Value:
    # A while-loop on `expr`/`env` implements tail calls for let bodies and
    # case branches, which keeps Python stack depth proportional to true
    # (non-tail) recursion depth only.  The hottest kinds (variable lookup,
    # application, literals) are inlined ahead of the dispatch table.
    #
    # Budget accounting mirrors that structure: one depth frame per _eval
    # entry (non-tail recursion only, by construction), one fuel step per
    # loop iteration (so tail-recursive spins still burn fuel).  The fuel
    # increment is inlined — like the recorder reads — because it runs
    # once per evaluated node; try/finally is zero-cost on the
    # no-exception path in CPython 3.11+.
    budget = getattr(_BUDGETS, "value", None)
    if budget is not None:
        budget.enter()
    try:
        while True:
            if budget is not None:
                budget.fuel += 1
                if budget.fuel > budget.max_fuel:
                    budget._exhausted("fuel", budget.max_fuel, "steps")
            kind = type(expr)
            if kind is EVar:
                name = expr.name
                scope: Optional[Env] = env
                while scope is not None:
                    value = scope.bindings.get(name, _MISSING)
                    if value is not _MISSING:
                        return value
                    scope = scope.parent
                raise LittleRuntimeError(f"unbound variable {name!r}")
            if kind is EApp:
                fn = _eval(expr.fn, env)
                arg = _eval(expr.arg, env)
                if type(fn) is not VClosure:
                    raise LittleRuntimeError(
                        f"attempt to apply a non-function: {fn!r}")
                pattern = fn.pattern
                if type(pattern) is PVar:
                    env = Env({pattern.name: arg}, fn.env)
                else:
                    bindings = match(pattern, arg)
                    if bindings is None:
                        raise MatchFailure("function argument did not match "
                                           "parameter pattern")
                    env = Env(bindings, fn.env)
                expr = fn.body
                continue
            if kind is ENum:
                # A literal's value/loc never change, so its VNum is interned
                # on the node (substitution replaces the node, invalidating
                # the cache naturally).
                cached = getattr(expr, "_vcache", None)
                if cached is None:
                    cached = VNum(expr.value, expr.loc)
                    expr._vcache = cached
                return cached
            if kind is EOp:
                return _eval_op(expr, env)
            if kind is ELet:
                if expr.rec:
                    rec_env = env.child({})
                    bound = _eval(expr.bound, rec_env)
                    bindings = match(expr.pattern, bound)
                    if bindings is None:
                        raise MatchFailure("letrec pattern did not match")
                    rec_env.bindings.update(bindings)
                    env = rec_env
                else:
                    bound = _eval(expr.bound, env)
                    bindings = match(expr.pattern, bound)
                    if bindings is None:
                        raise MatchFailure("let pattern did not match")
                    env = env.child(bindings)
                expr = expr.body
                continue
            if kind is ECase:
                scrutinee = _eval(expr.scrutinee, env)
                for pattern, branch in expr.branches:
                    bindings = match(pattern, scrutinee)
                    if bindings is not None:
                        env = env.child(bindings) if bindings else env
                        expr = branch
                        break
                else:
                    raise MatchFailure("no case branch matched")
                continue
            handler = _LEAF_HANDLERS.get(kind)
            if handler is not None:
                return handler(expr, env)
            raise LittleRuntimeError(f"cannot evaluate {expr!r}")
    finally:
        if budget is not None:
            budget.depth -= 1


def _bool(flag: bool) -> VBool:
    return _TRUE if flag else _FALSE


def _eval_op(expr: EOp, env: Env) -> Value:
    op = expr.op
    operands = expr.args
    # Arity-specialized operand evaluation: no intermediate list building
    # or re-scanning on the binary/unary hot paths (E-OP-NUM fires once per
    # arithmetic node per re-evaluation, so this is the innermost loop).
    if len(operands) == 2:
        a = _eval(operands[0], env)
        b = _eval(operands[1], env)
        if type(a) is VNum and type(b) is VNum:
            av = a.value
            bv = b.value
            if op == "+":
                return VNum(av + bv, OpTrace("+", (a.trace, b.trace)))
            if op == "-":
                return VNum(av - bv, OpTrace("-", (a.trace, b.trace)))
            if op == "*":
                return VNum(av * bv, OpTrace("*", (a.trace, b.trace)))
            if op == "<":
                outcome = av < bv
                recorder = getattr(_RECORDERS, "value", None)
                if recorder is not None:
                    recorder.comparisons.append(
                        ("<", a.trace, b.trace, outcome))
                return _TRUE if outcome else _FALSE
            if op in NUMERIC_OPS:         # "/", "mod", "pow": all partial
                result = apply_numeric_op(op, (av, bv))
                trace = OpTrace(op, (a.trace, b.trace))
                recorder = getattr(_RECORDERS, "value", None)
                if recorder is not None:
                    recorder.partials.append(trace)
                return VNum(result, trace)
        args = (a, b)
    elif len(operands) == 1:
        a = _eval(operands[0], env)
        if type(a) is VNum and op in NUMERIC_OPS:
            result = apply_numeric_op(op, (a.value,))
            trace = OpTrace(op, (a.trace,))
            if op in _PARTIAL_OPS:
                recorder = getattr(_RECORDERS, "value", None)
                if recorder is not None:
                    recorder.partials.append(trace)
            return VNum(result, trace)
        args = (a,)
    else:
        args = tuple(_eval(arg, env) for arg in operands)

    all_nums = True
    for arg in args:
        if type(arg) is not VNum:
            all_nums = False
            break

    if all_nums:
        if op in NUMERIC_OPS:
            # E-OP-NUM: compute the number and build the expression trace.
            result = apply_numeric_op(op, [arg.value for arg in args])
            return VNum(result, OpTrace(op, tuple(arg.trace for arg in args)))
        if op in ("=", "<", ">", "<=", ">="):
            left = args[0]
            right = args[1]
            if op == "=":
                outcome = left.value == right.value
            elif op == "<":
                outcome = left.value < right.value
            elif op == ">":
                outcome = left.value > right.value
            elif op == "<=":
                outcome = left.value <= right.value
            else:
                outcome = left.value >= right.value
            recorder = getattr(_RECORDERS, "value", None)
            if recorder is not None:
                recorder.comparisons.append(
                    (op, left.trace, right.trace, outcome))
            return _bool(outcome)
        if op == "toString":
            rendered = format_number(args[0].value)
            recorder = getattr(_RECORDERS, "value", None)
            if recorder is not None:
                recorder.tostrings.append((args[0].trace, rendered))
            return VStr(rendered)

    if op == "not" and isinstance(args[0], VBool):
        return _bool(not args[0].value)
    if op == "+" and isinstance(args[0], VStr) and isinstance(args[1], VStr):
        result = args[0].value + args[1].value
        budget = getattr(_BUDGETS, "value", None)
        if budget is not None:
            # Quadratic string building (repeated concat) is the string
            # analogue of an exponential list: charge produced characters.
            budget.allocate(len(result))
        return VStr(result)
    if op == "=" and isinstance(args[0], VStr) and isinstance(args[1], VStr):
        return _bool(args[0].value == args[1].value)
    if op == "=" and isinstance(args[0], VBool) and isinstance(args[1], VBool):
        return _bool(args[0].value == args[1].value)
    if op == "toString":
        if isinstance(args[0], VStr):
            return args[0]
        if isinstance(args[0], VBool):
            return VStr("true" if args[0].value else "false")

    shapes = ", ".join(type(arg).__name__ for arg in args)
    raise LittleRuntimeError(f"operator {op!r} not defined on ({shapes})")
