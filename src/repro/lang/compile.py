"""Trace compiler: recorded evaluations lowered to specialized bytecode.

The guarded replay of :mod:`repro.lang.incremental` already avoids
re-running the program per mouse-move, but it still *interprets* trace
structures every step: ``_trace_value`` walks ``OpTrace`` trees node by
node, and ``_rebuild`` re-walks the whole output value tree.  This module
specializes one recorded evaluation (:class:`~repro.lang.incremental
.EvalCache`) into a single flat Python function — compiled once with
:func:`compile` — so a drag step becomes "evaluate a few hundred local
float expressions and check a predicate vector":

* every distinct trace node becomes one assignment of an inlined float
  expression (shared nodes are computed once, exactly like the
  interpreter's per-step memo);
* every recorded guard (comparison, ``toString``, numeric-literal match)
  becomes one ``if ...: return None`` — the predicate vector — and every
  recorded partial operation is computed, so one that raises escalates;
* the output rebuild becomes a flat sequence of ``old-if-unchanged-else
  -fresh`` node constructions mirroring ``_rebuild`` statement for
  statement, sharing every untouched subtree by identity.

**Equivalence discipline.**  The artifact is an optimization of the
interpreted replay, never a semantic layer: the generated code replicates
:func:`~repro.lang.ops.apply_numeric_op` float-for-float (including the
``arccos``/``arcsin`` domain checks that reject NaN, which bare
``math.acos`` would let through), charges the same evaluation-budget
amount, and answers the same verdict — the new output, or ``None`` for
"fall back to a full re-evaluation".  Any failure to compile or replay
escalates to the interpreter; nothing is ever reused wrongly
(``tests/test_compiled_equivalence.py`` locks this corpus-wide).

**Lifecycle.**  Artifacts attach lazily to the :class:`EvalCache` they
specialize (:func:`ensure_compiled`), so they ride along wherever the
cache is shared — the serve layer's compile cache, ``seed_run``,
snapshot restore — and die with it when a structural change forces a
re-record.  A cache whose compilation failed is marked and never
retried.  The pipeline specializes a recording only once an interpreted
replay of it has held (:meth:`~repro.core.pipeline.SyncPipeline
.eval_stage`), so a recording whose guards flip at once is never
compiled.

>>> from repro.lang.incremental import record_evaluation
>>> from repro.lang.program import parse_program
>>> program = parse_program("(def x 10) (svg [(rect 'red' x 20 30 x)])")
>>> output, cache = record_evaluation(program)
>>> artifact = ensure_compiled(cache)
>>> loc = program.user_locs()[0]
>>> moved = program.substitute({loc: 75.0})
>>> replayed = artifact.replay(moved.rho0)
>>> replayed is not None and replayed is not output
True
>>> cache.compiled is artifact        # attached: compiled exactly once
True
"""

from __future__ import annotations

import math
import operator
from typing import Dict, List, Optional

from .ast import Loc
from .errors import LittleRuntimeError, ResourceExhausted
from .eval import get_budget
from .values import VCons, VNum, format_number

__all__ = ["CompileUnsupported", "CompiledEvaluation", "ensure_compiled",
           "specialize"]

#: Statement budget for one specialized function.  Far above the corpus
#: (the heaviest example compiles to a few thousand statements); a
#: pathological program falls back to the interpreter instead of paying
#: an unbounded ``compile()``.
MAX_STATEMENTS = 60_000


class CompileUnsupported(Exception):
    """The recorded evaluation cannot be specialized (unknown operator,
    oversized artifact); the caller keeps using the interpreter."""


def _guarded_acos(x: float) -> float:
    # Replicates apply_numeric_op exactly: the explicit range check also
    # rejects NaN, where math.acos(nan) would *return* nan and silently
    # diverge from the interpreter.
    if not -1.0 <= x <= 1.0:
        raise LittleRuntimeError("arccos argument outside [-1, 1]")
    return math.acos(x)


def _guarded_asin(x: float) -> float:
    if not -1.0 <= x <= 1.0:
        raise LittleRuntimeError("arcsin argument outside [-1, 1]")
    return math.asin(x)


#: Binary operators inlined as native float expressions.  ``/`` needs no
#: zero check: ``ZeroDivisionError`` and the interpreter's domain error
#: both resolve to the same ``None`` verdict in :meth:`replay`.
_BINARY_INLINE = {"+", "-", "*", "/"}

#: Unary operators lowered to one call of an exact-semantics callable
#: (bound as function default arguments, so every lookup is ``LOAD_FAST``).
_UNARY_CALLS = {"cos": "_cos", "sin": "_sin", "sqrt": "_sqrt",
                "floor": "_floor", "ceiling": "_ceil", "abs": "_abs",
                "neg": "_neg", "arccos": "_acos", "arcsin": "_asin"}

_HEADER = ("def _specialized(r, L=L, K=K, O=O, _VNum=_VNum, _VCons=_VCons, "
           "_fmt=_fmt, _acos=_acos, _asin=_asin, _fmod=_fmod, _pow=_pow, "
           "_cos=_cos, _sin=_sin, _sqrt=_sqrt, _floor=_floor, _ceil=_ceil, "
           "_abs=_abs, _neg=_neg):")


class _Codegen:
    """Accumulates the flat statement list for one specialization."""

    def __init__(self):
        self.lines: List[str] = []
        self.locs: List[Loc] = []
        self.consts: List[object] = []
        self.objs: List[object] = []
        self._loc_index: Dict[object, int] = {}
        self._const_index: Dict[object, int] = {}
        self._obj_index: Dict[int, int] = {}
        self._trace_var: Dict[int, str] = {}
        self._vars = 0

    def emit(self, line: str) -> None:
        if len(self.lines) >= MAX_STATEMENTS:
            raise CompileUnsupported(
                f"artifact exceeds {MAX_STATEMENTS} statements")
        self.lines.append(line)

    def new_var(self) -> str:
        self._vars += 1
        return f"t{self._vars}"

    def const_ref(self, value) -> str:
        """Pool a float/str constant.  Pooling (instead of source
        literals) keeps ``repr`` round-tripping — NaN, signed zeros,
        arbitrary strings — out of the generated source entirely."""
        key = (type(value).__name__, value)
        try:
            index = self._const_index.get(key)
        except TypeError:       # unhashable: pool without deduplication
            index = None
            key = None
        if index is None:
            index = len(self.consts)
            self.consts.append(value)
            if key is not None:
                self._const_index[key] = index
        return f"K[{index}]"

    def obj_ref(self, value) -> str:
        """Pool a recorded output object (by identity)."""
        index = self._obj_index.get(id(value))
        if index is None:
            index = len(self.objs)
            self.objs.append(value)
            self._obj_index[id(value)] = index
        return f"O[{index}]"

    # -- traces -> float expressions ------------------------------------------

    def trace_expr(self, trace) -> str:
        """The variable holding ``ρt`` for this trace node, emitting its
        (deduplicated) computation.  Mirrors ``_trace_value``: one
        evaluation per distinct node per step."""
        if type(trace) is Loc:
            index = self._loc_index.get(trace.ident)
            if index is None:
                index = len(self.locs)
                self.locs.append(trace)
                self._loc_index[trace.ident] = index
                var = f"v{index}"
                self.emit(f"{var} = r[L[{index}]]")
            return f"v{index}"
        var = self._trace_var.get(id(trace))
        if var is not None:
            return var
        op = trace.op
        args = [self.trace_expr(arg) for arg in trace.args]
        if op in _BINARY_INLINE and len(args) == 2:
            expr = f"({args[0]} {op} {args[1]})"
        elif op == "mod" and len(args) == 2:
            expr = f"_fmod({args[0]}, {args[1]})"
        elif op == "pow" and len(args) == 2:
            expr = f"_pow({args[0]}, {args[1]})"
        elif op == "round" and len(args) == 1:
            expr = f"_floor({args[0]} + 0.5)"
        elif op in _UNARY_CALLS and len(args) == 1:
            expr = f"{_UNARY_CALLS[op]}({args[0]})"
        elif op == "pi" and not args:
            return self.const_ref(math.pi)
        else:
            raise CompileUnsupported(
                f"operator {op!r}/{len(args)} has no specialized form")
        var = self.new_var()
        self.emit(f"{var} = {expr}")
        self._trace_var[id(trace)] = var
        return var

    # -- guards -> the predicate vector ---------------------------------------

    def emit_guards(self, cache) -> None:
        for op, left, right, expected in cache.comparisons:
            a = self.trace_expr(left)
            b = self.trace_expr(right)
            cond = f"({a} {'==' if op == '=' else op} {b})"
            self.emit(f"if not {cond}: return None" if expected
                      else f"if {cond}: return None")
        for trace, rendered in cache.tostrings:
            t = self.trace_expr(trace)
            self.emit(f"if _fmt({t}) != {self.const_ref(rendered)}: "
                      f"return None")
        for trace, pattern_value, expected in cache.num_matches:
            t = self.trace_expr(trace)
            pattern = self.const_ref(pattern_value)
            self.emit(f"if {t} != {pattern}: return None" if expected
                      else f"if {t} == {pattern}: return None")
        # A partial raises where the program would; one that also feeds
        # the output or a guard is already emitted, so it adds nothing.
        for trace in cache.partials:
            self.trace_expr(trace)

    # -- output rebuild, flattened --------------------------------------------

    def visit_value(self, value) -> Optional[str]:
        """Emit the rebuild of one recorded output node, returning the
        variable holding the rebuilt value — or ``None`` for a subtree
        with no numeric leaf, which ``_rebuild`` provably returns as-is
        (zero statements, shared by identity)."""
        kind = type(value)
        if kind is VNum:
            t = self.trace_expr(value.trace)
            o = self.obj_ref(value)
            var = self.new_var()
            # Exactly _rebuild's check (== on floats, so a recomputed
            # -0.0 still shares the recorded 0.0 node, and vice versa).
            self.emit(f"{var} = {o} if {t} == {o}.value "
                      f"else _VNum({t}, {o}.trace)")
            return var
        if kind is VCons:
            head = self.visit_value(value.head)
            tail = self.visit_value(value.tail)
            if head is None and tail is None:
                return None
            o = self.obj_ref(value)
            conditions = []
            if head is None:
                head = f"{o}.head"
            else:
                conditions.append(f"{head} is {o}.head")
            if tail is None:
                tail = f"{o}.tail"
            else:
                conditions.append(f"{tail} is {o}.tail")
            var = self.new_var()
            self.emit(f"{var} = {o} if {' and '.join(conditions)} "
                      f"else _VCons({head}, {tail})")
            return var
        return None

    # -- assembly ----------------------------------------------------------------

    def build(self, cache) -> "CompiledEvaluation":
        self.emit_guards(cache)
        root = self.visit_value(cache.output)
        self.emit(f"return {root}" if root is not None
                  else f"return {self.obj_ref(cache.output)}")
        source = _HEADER + "\n" + "\n".join(
            "    " + line for line in self.lines)
        namespace = {
            "L": tuple(self.locs), "K": tuple(self.consts),
            "O": tuple(self.objs), "_VNum": VNum, "_VCons": VCons,
            "_fmt": format_number, "_acos": _guarded_acos,
            "_asin": _guarded_asin, "_fmod": math.fmod, "_pow": math.pow,
            "_cos": math.cos, "_sin": math.sin, "_sqrt": math.sqrt,
            "_floor": math.floor, "_ceil": math.ceil, "_abs": abs,
            "_neg": operator.neg,
        }
        exec(compile(source, "<repro.lang.compile>", "exec"), namespace)
        guard_charge = (len(cache.comparisons) + len(cache.tostrings)
                        + len(cache.num_matches) + len(cache.partials))
        return CompiledEvaluation(namespace["_specialized"], guard_charge,
                                  len(self.lines))


class CompiledEvaluation:
    """One specialized drag-step artifact: ``replay(ρ)`` answers exactly
    what :func:`~repro.lang.incremental.reevaluate` would — the rebuilt
    output, or ``None`` to escalate — only flat and compiled."""

    __slots__ = ("_fn", "guard_charge", "statements")

    def __init__(self, fn, guard_charge: int, statements: int):
        self._fn = fn
        #: Fuel charged per replay: one step per recorded guard and
        #: partial, the same coarse accounting as the interpreted fast path.
        self.guard_charge = guard_charge
        #: Size of the generated function, for introspection and tests.
        self.statements = statements

    def replay(self, rho) -> Optional[object]:
        """Re-run the recorded evaluation under ``rho`` (the program's
        location-keyed ρ0).  Returns the new output value — bit-identical
        to the interpreted replay — or ``None`` when a guard flipped or
        any evaluation error occurred (the caller escalates to a full
        re-evaluation, which reproduces the interpreter's exact error
        behavior).  An exhausted budget propagates, never masked."""
        budget = get_budget()
        if budget is not None:
            # Charged before the try, like reevaluate: ResourceExhausted
            # must propagate, not read as a guard flip.
            budget.consume(self.guard_charge)
        try:
            return self._fn(rho)
        except ResourceExhausted:
            raise
        except Exception:
            # KeyError (loc missing from ρ), LittleRuntimeError /
            # ZeroDivisionError / ValueError / OverflowError (domain
            # errors the interpreter maps to LittleRuntimeError),
            # RecursionError — and anything unforeseen: the artifact is
            # an optimization, so every failure escalates to the ground
            # truth instead of crashing or answering wrongly.
            return None


def specialize(cache) -> CompiledEvaluation:
    """Lower one recorded evaluation into a :class:`CompiledEvaluation`.

    Raises :class:`CompileUnsupported` (or any codegen error) when the
    recording cannot be specialized; use :func:`ensure_compiled` for the
    attach-once, fail-once lifecycle.
    """
    return _Codegen().build(cache)


def ensure_compiled(cache, probe=None) -> Optional[CompiledEvaluation]:
    """The artifact for ``cache``, compiling (and attaching) it on first
    use; ``None`` when this cache cannot be specialized.

    ``probe(event)``, if given, observes the lifecycle — ``"attempt"``
    before compiling (the serve layer's ``compile.specialize`` fault
    point fires here), then ``"compiled"`` or ``"failed"``.  A failed
    specialization is remembered on the cache and never retried; the
    caller keeps the interpreted replay.  Caches are shared read-mostly
    across sessions (the serve compile cache): concurrent first calls
    may both compile, and either identical artifact winning the write is
    fine.
    """
    compiled = cache.compiled
    if compiled is not None:
        return compiled
    if cache.compile_failed:
        return None
    try:
        if probe is not None:
            probe("attempt")
        compiled = specialize(cache)
    except Exception:
        cache.compile_failed = True
        if probe is not None:
            probe("failed")
        return None
    cache.compiled = compiled
    if probe is not None:
        probe("compiled")
    return compiled
