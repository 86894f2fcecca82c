"""Trace compiler: recorded evaluations lowered to specialized bytecode.

The guarded replay of :mod:`repro.lang.incremental` already avoids
re-running the program per mouse-move, but it still *interprets* trace
structures every step: ``_trace_value`` walks ``OpTrace`` trees node by
node, and ``_rebuild`` re-walks the whole output value tree.  This module
specializes one recorded evaluation (:class:`~repro.lang.incremental
.EvalCache`) into generated Python — compiled once with :func:`compile`
— so a drag step becomes "evaluate a few hundred local float expressions
and check a predicate vector":

* every distinct computation becomes one assignment of an inlined float
  expression: a shared trace node is computed once, as the interpreter's
  per-step memo computes it, and so is an operation the program
  recomputed (the evaluator records a new node each time; us50_flag
  recomputes each row's offset for every star), since the same operator
  over the same operand variables or pooled constants answers the same
  bits;
* every distinct recorded guard (comparison, ``toString``,
  numeric-literal match) becomes one ``if ...: return None`` — the
  predicate vector — and every recorded partial operation is computed, so
  one that raises escalates;
* the output rebuild becomes a sequence of ``old-if-unchanged-else
  -fresh`` node constructions mirroring ``_rebuild`` statement for
  statement, sharing every untouched subtree by identity.

**Plans.**  A drag moves the locations of one shape assignment, so most
of a recording cannot change on a given step.  A *plan* specializes the
recording for one moved set D — the recording's trace locations whose
value differs, bit for bit, from the ρ it was recorded under
(:meth:`~repro.lang.incremental.EvalCache.moved`; bits, because a zero
whose sign flips can change what a trace computes).  Only the trace nodes
that read a location in D (the *cone*) are computed; every other operand
is the constant it was when recorded.  Only the guards and partials in the
cone are checked; the rest hold as recorded.  The output rebuild visits
only the spine above the numbers the cone feeds, and every other node is
returned by identity, as ``_rebuild`` returns it.  A recorded NaN number
is the exception: ``_rebuild``'s ``==`` never matches it, so both tiers
build it afresh on every replay, and so does every plan.  A plan answers
every ρ whose moved set its own covers.  Without a moved set,
:func:`specialize` compiles the whole recording, the plan that covers
every ρ.

The trace, guard and partial statements form one flat main function.
The output rebuild is flat too, except for output structure that repeats
(tessellation's 80 polygons share one shape): a subtree whose structure
occurs at least twice in the plan's spine and takes at least
:data:`SHARED_MIN_STATEMENTS` rebuild statements is rebuilt by one call
of a generated function per distinct structure, so :func:`compile`
translates that structure once instead of once per occurrence.  The
function body is exactly the statements the inline rebuild would be,
over the occurrence's recorded nodes and its numbers' trace variables.

**Equivalence discipline.**  A plan is an optimization of the
interpreted replay, never a semantic layer: the generated code replicates
:func:`~repro.lang.ops.apply_numeric_op` float-for-float (including the
``arccos``/``arcsin`` domain checks that reject NaN, which bare
``math.acos`` would let through), charges the same evaluation-budget
amount — every guard and partial of the recording, checked or not — and
answers the same verdict: the new output, or ``None`` for "fall back to a
full re-evaluation".  Any failure to compile or replay escalates to the
interpreter; nothing is ever reused wrongly
(``tests/test_compiled_equivalence.py`` locks this corpus-wide).

**Lifecycle.**  A recording keeps one plan, attached lazily to the
:class:`EvalCache` it specializes (:func:`ensure_compiled`), so it rides
along wherever the cache is shared — the serve layer's compile cache,
``seed_run``, snapshot restore — and dies with it when a structural
change forces a re-record.  The pipeline specializes only once an
interpreted replay has held (:meth:`~repro.core.pipeline.SyncPipeline
.eval_stage`), so a recording whose guards flip at once is never
compiled.  It asks for a plan only on a drag step, for the dragged zone's
locations, which every step of that gesture stays within; any other step
(a value edit, a slider move, an undo) and any step the plan does not
cover compile the whole recording, which replaces the plan.  A recording
whose specialization failed is marked and never specialized again.

>>> from repro.lang.incremental import record_evaluation
>>> from repro.lang.program import parse_program
>>> program = parse_program("(def x 10) (def y 50) (svg ["
...                         "(rect 'red' x 20 30 x) (circle 'blue' y y 5)])")
>>> output, cache = record_evaluation(program)
>>> x, y = program.user_locs()[:2]
>>> dragged = program.substitute({x: 75.0})
>>> plan = ensure_compiled(cache, moved=cache.moved(dragged.rho0))
>>> plan.moved == {x}               # only x moved: no circle statement
True
>>> circle = plan.replay(dragged.rho0).tail.tail.head.tail.head
>>> circle is output.tail.tail.head.tail.head      # shared by identity
True
>>> further = dragged.substitute({x: 80.0})
>>> cache.plan_for(further.rho0) is plan            # covered: reused
True
>>> other = dragged.substitute({y: 60.0})
>>> cache.plan_for(other.rho0) is None              # y is not covered
True
>>> whole = ensure_compiled(cache, moved=cache.moved(other.rho0))
>>> whole.moved is None and cache.plan is whole     # replaces the plan
True
"""

from __future__ import annotations

import math
import operator
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .ast import Loc
from .errors import LittleRuntimeError, ResourceExhausted
from .eval import get_budget
from .ops import apply_numeric_op
from .values import VCons, VNum, float_bits, format_number

__all__ = ["CompileUnsupported", "CompiledEvaluation", "ensure_compiled",
           "specialize"]

#: Statement budget for each generated function: the main function and
#: each shared rebuild function separately.  Far above the corpus (the
#: heaviest example compiles to a few thousand statements); a
#: pathological program falls back to the interpreter instead of paying
#: an unbounded ``compile()``.
MAX_STATEMENTS = 60_000

#: A repeated output subtree is rebuilt by a shared function only from
#: this many rebuild statements up; smaller ones stay inline, where they
#: cost no call.
SHARED_MIN_STATEMENTS = 8

#: Structural keys of output subtrees (:meth:`_Codegen.shape_key`): a
#: subtree with no number, and a number leaf.  Every other key is a cons
#: of two keys.
_NO_NUMBER, _NUMBER = 0, 1


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

_HEADER = ("def _specialized(r, L=L, K=K, O=O, R=R, _VNum=_VNum, "
           "_VCons=_VCons, _fmt=_fmt, _acos=_acos, _asin=_asin, "
           "_fmod=_fmod, _pow=_pow, _cos=_cos, _sin=_sin, _sqrt=_sqrt, "
           "_floor=_floor, _ceil=_ceil, _abs=_abs, _neg=_neg):")


class _Statements:
    """The statement list of one generated function."""

    def __init__(self):
        self.lines: List[str] = []
        self._vars = 0

    def emit(self, line: str) -> None:
        if len(self.lines) >= MAX_STATEMENTS:
            raise CompileUnsupported(
                f"artifact exceeds {MAX_STATEMENTS} statements")
        self.lines.append(line)

    def new_var(self) -> str:
        self._vars += 1
        return f"t{self._vars}"


class _SharedRebuild(_Statements):
    """The rebuild of one occurrence of a repeated output subtree, as the
    body of a function ``(o, a0, a1, ...)``: the occurrence's recorded
    nodes are ``o[i]`` in visit order, and its numbers are the parameters
    ``a{j}``, whose trace expressions the main function computes and
    passes.  The body text is therefore a function of the subtree's
    structure alone."""

    def __init__(self, codegen: "_Codegen"):
        super().__init__()
        self.codegen = codegen
        self.nodes: List[object] = []
        self.args: List[str] = []

    def number_ref(self, trace) -> str:
        self.args.append(self.codegen.trace_expr(trace))
        return f"a{len(self.args) - 1}"

    def node_ref(self, value) -> str:
        self.nodes.append(value)
        return f"o[{len(self.nodes) - 1}]"


def _cone(nodes: List[object], moved: FrozenSet[Loc]) -> Set[int]:
    """The ids of the trace nodes that read a location in ``moved``;
    ``nodes`` lists each node after its arguments."""
    cone: Set[int] = set()
    add = cone.add
    for node in nodes:
        if type(node) is Loc:
            if node in moved:
                add(id(node))
        else:
            for arg in node.args:
                if id(arg) in cone:
                    add(id(node))
                    break
    return cone


class _Codegen(_Statements):
    """Accumulates the main function's statements, and the shared rebuild
    functions it calls, for one specialization: of the whole recording
    when ``moved`` is ``None``, else the plan for that moved set."""

    def __init__(self, cache, moved: Optional[FrozenSet[Loc]] = None):
        super().__init__()
        self.cache = cache
        self.moved = moved
        #: Ids of the trace nodes that read a moved location, or ``None``
        #: when every node does (the whole recording).  Every other node
        #: is the constant it was when recorded (:meth:`recorded_value`).
        self._cone = None if moved is None \
            else _cone(cache.trace_nodes(), moved)
        self._recorded: Dict[int, object] = {}
        self.locs: List[Loc] = []
        self.consts: List[object] = []
        self.objs: List[object] = []
        self._loc_index: Dict[object, int] = {}
        self._const_index: Dict[object, int] = {}
        self._obj_index: Dict[int, int] = {}
        self._trace_var: Dict[int, str] = {}
        #: The variable of each distinct right-hand side emitted so far.
        self._expr_var: Dict[str, str] = {}
        #: Guard lines emitted so far; a repeated guard checks nothing new.
        self._guards: Set[str] = set()
        #: Source of each shared rebuild function ``R[j]`` (one per
        #: distinct body text), and their statements in total.
        self.functions: List[str] = []
        self.function_statements = 0
        self._function_index: Dict[str, int] = {}
        #: Structural key of each recorded cons (by identity), and per key
        #: its rebuild size in statements and its number of occurrences.
        self._node_keys: Dict[int, int] = {}
        self._key_index: Dict[Tuple[int, int], int] = {
            (_NO_NUMBER, _NO_NUMBER): _NO_NUMBER}
        self._key_sizes: List[int] = [0, 1]
        self._key_counts: List[int] = [0, 0]

    def const_ref(self, value) -> str:
        """Pool a float/str constant.  Pooling (instead of source
        literals) keeps ``repr`` round-tripping — NaN, signed zeros,
        arbitrary strings — out of the generated source entirely."""
        # Floats by their bits: 0.0 == -0.0 and nan != nan.
        key = (float, float_bits(value)) if type(value) is float \
            else (type(value), value)
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

    def node_ref(self, value) -> str:
        """Pool a recorded output object (by identity)."""
        index = self._obj_index.get(id(value))
        if index is None:
            index = len(self.objs)
            self.objs.append(value)
            self._obj_index[id(value)] = index
        return f"O[{index}]"

    # -- traces -> float expressions ------------------------------------------

    def in_cone(self, trace) -> bool:
        """Whether ``trace`` reads a moved location, so a replay must
        compute it."""
        return self._cone is None or id(trace) in self._cone

    def recorded_value(self, trace):
        """``ρt`` under the recording's ρ: the value, bit for bit, of a
        node outside the cone on every replay the plan answers (its
        locations hold their recorded values).  Evaluated once per node,
        by ``apply_numeric_op`` as the interpreted replay does, without
        recursion."""
        values, rho = self._recorded, self.cache.rho
        stack = [trace]
        while stack:
            node = stack[-1]
            if id(node) in values:
                stack.pop()
            elif type(node) is Loc:
                values[id(node)] = rho[node]
                stack.pop()
            else:
                pending = [arg for arg in node.args
                           if id(arg) not in values]
                if pending:
                    stack.extend(pending)
                    continue
                stack.pop()
                values[id(node)] = apply_numeric_op(
                    node.op, [values[id(arg)] for arg in node.args])
        return values[id(trace)]

    def trace_expr(self, trace) -> str:
        """The variable holding ``ρt`` for this trace node — or the pooled
        recorded value of a node outside the cone.  Like ``_trace_value``,
        each distinct node is evaluated once per step, and a node that
        recomputes an earlier node's operation over the same operands (the
        evaluator records a node per recomputation) reuses that
        statement's variable: the same float operation over the same bits
        answers the same bits."""
        cone = self._cone
        if cone is not None and id(trace) not in cone:
            ref = self._trace_var.get(id(trace))
            if ref is None:
                ref = self._trace_var[id(trace)] = \
                    self.const_ref(self.recorded_value(trace))
            return ref
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
        var = self._expr_var.get(expr)
        if var is None:
            var = self._expr_var[expr] = self.new_var()
            self.emit(f"{var} = {expr}")
        self._trace_var[id(trace)] = var
        return var

    # -- guards -> the predicate vector ---------------------------------------

    def emit_guard(self, line: str) -> None:
        """Emit one guard line unless it was emitted already."""
        if line not in self._guards:
            self._guards.add(line)
            self.emit(line)

    def emit_guards(self, cache) -> None:
        """One check per distinct guard and one computation per partial
        that reads a moved location; the rest hold, as they did when
        recorded."""
        in_cone = self.in_cone
        for op, left, right, expected in cache.comparisons:
            if not (in_cone(left) or in_cone(right)):
                continue
            a = self.trace_expr(left)
            b = self.trace_expr(right)
            cond = f"({a} {'==' if op == '=' else op} {b})"
            self.emit_guard(f"if not {cond}: return None" if expected
                            else f"if {cond}: return None")
        for trace, rendered in cache.tostrings:
            if not in_cone(trace):
                continue
            t = self.trace_expr(trace)
            self.emit_guard(f"if _fmt({t}) != {self.const_ref(rendered)}: "
                            f"return None")
        for trace, pattern_value, expected in cache.num_matches:
            if not in_cone(trace):
                continue
            t = self.trace_expr(trace)
            pattern = self.const_ref(pattern_value)
            self.emit_guard(f"if {t} != {pattern}: return None" if expected
                            else f"if {t} == {pattern}: return None")
        # A partial raises where the program would; one that also feeds
        # the output or a guard is already emitted, so it adds nothing.
        for trace in cache.partials:
            if in_cone(trace):
                self.trace_expr(trace)

    def rebuilds(self, number) -> bool:
        """Whether a replay can answer ``number`` with a fresh node: its
        trace reads a moved location, or its value is NaN, which
        ``_rebuild``'s ``==`` never matches, so both tiers rebuild it on
        every replay."""
        return self.in_cone(number.trace) or number.value != number.value

    # -- output rebuild ---------------------------------------------------------

    def shape_key(self, value) -> int:
        """The structural key of one output occurrence, counting the
        occurrence: :data:`_NO_NUMBER` for a subtree with no numeric leaf,
        :data:`_NUMBER` for a number, else the interned pair of the
        head's and tail's keys.  Equal keys rebuild by the same
        statements, and a key's size is how many.  A cons shared by
        identity is walked once, so only its own key counts its repeats.
        That changes no decision: the cons is larger than anything under
        it and repeats too, so it is shared in their place (outermost
        wins).  A number the replay cannot change (:meth:`rebuilds`)
        counts as no number: the rebuild returns it as recorded."""
        kind = type(value)
        if kind is VNum:
            if not self.rebuilds(value):
                return _NO_NUMBER
            key = _NUMBER
        elif kind is VCons:
            key = self._node_keys.get(id(value))
            if key is None:
                pair = (self.shape_key(value.head),
                        self.shape_key(value.tail))
                key = self._key_index.get(pair)
                if key is None:
                    key = len(self._key_sizes)
                    self._key_index[pair] = key
                    self._key_sizes.append(self._key_sizes[pair[0]]
                                           + self._key_sizes[pair[1]] + 1)
                    self._key_counts.append(0)
                self._node_keys[id(value)] = key
        else:
            return _NO_NUMBER
        self._key_counts[key] += 1
        return key

    #: The main function's output frame: numbers by their trace variable,
    #: nodes through the ``O`` pool.
    number_ref = trace_expr

    def visit_value(self, value, out) -> Optional[str]:
        """Emit the rebuild of one recorded output node into ``out`` (this
        main function, or a :class:`_SharedRebuild` body), returning the
        variable holding the rebuilt value — or ``None`` for a subtree
        with no numeric leaf the replay can change, which ``_rebuild``
        provably returns as-is (zero statements, shared by identity).

        In the main function, a subtree whose structure repeats (at least
        two occurrences, at least :data:`SHARED_MIN_STATEMENTS` rebuild
        statements; the outermost such subtree wins) becomes one call of
        its shared rebuild function, whose body is exactly the statements
        emitted here inline otherwise.  Needs :meth:`shape_key` to have
        walked the output."""
        kind = type(value)
        if kind is VNum:
            if not self.rebuilds(value):
                return None
            t = out.number_ref(value.trace)
            o = out.node_ref(value)
            var = out.new_var()
            # Exactly _rebuild's check (== on floats, so a recomputed
            # -0.0 still shares the recorded 0.0 node, and vice versa).
            out.emit(f"{var} = {o} if {t} == {o}.value "
                     f"else _VNum({t}, {o}.trace)")
            return var
        if kind is not VCons:
            return None
        key = self._node_keys[id(value)]
        if key == _NO_NUMBER:
            return None
        if (out is self and self._key_counts[key] >= 2
                and self._key_sizes[key] >= SHARED_MIN_STATEMENTS):
            return self.emit_shared(value)
        head = self.visit_value(value.head, out)
        tail = self.visit_value(value.tail, out)
        o = out.node_ref(value)
        conditions = []
        if head is None:
            head = f"{o}.head"
        else:
            conditions.append(f"{head} is {o}.head")
        if tail is None:
            tail = f"{o}.tail"
        else:
            conditions.append(f"{tail} is {o}.tail")
        var = out.new_var()
        out.emit(f"{var} = {o} if {' and '.join(conditions)} "
                 f"else _VCons({head}, {tail})")
        return var

    def emit_shared(self, value) -> str:
        """Emit ``tN = R[j](O[i], a0, ...)`` for one occurrence of a
        repeated subtree, generating ``R[j]`` on its structure's first
        occurrence."""
        body = _SharedRebuild(self)
        body.emit(f"return {self.visit_value(value, body)}")
        text = "\n".join("    " + line for line in body.lines)
        index = self._function_index.get(text)
        if index is None:
            index = len(self.functions)
            self._function_index[text] = index
            params = "".join(f", a{j}" for j in range(len(body.args)))
            self.functions.append(
                f"def _r{index}(o{params}, _VNum=_VNum, _VCons=_VCons):\n"
                + text)
            self.function_statements += len(body.lines)
        args = "".join(", " + arg for arg in body.args)
        var = self.new_var()
        self.emit(f"{var} = R[{index}]({self.node_ref(tuple(body.nodes))}"
                  f"{args})")
        return var

    # -- assembly ----------------------------------------------------------------

    def build(self) -> "CompiledEvaluation":
        cache = self.cache
        self.emit_guards(cache)
        self.shape_key(cache.output)
        root = self.visit_value(cache.output, self)
        self.emit(f"return {root}" if root is not None
                  else f"return {self.node_ref(cache.output)}")
        names = "".join(f"_r{j}, " for j in range(len(self.functions)))
        source = "\n".join(self.functions + [f"R = ({names})", _HEADER]
                            + ["    " + line for line in self.lines])
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
        main = namespace["_specialized"]
        # Every name the generated functions read is a parameter or a
        # default argument.  Emptying their globals breaks the cycle
        # through them, so a dropped plan is freed by reference counting.
        namespace.clear()
        guard_charge = (len(cache.comparisons) + len(cache.tostrings)
                        + len(cache.num_matches) + len(cache.partials))
        return CompiledEvaluation(
            main, guard_charge,
            len(self.lines) + self.function_statements, self.moved)


class CompiledEvaluation:
    """One specialized drag-step artifact, a *plan*: ``replay(ρ)`` answers
    exactly what :func:`~repro.lang.incremental.reevaluate` would — the
    rebuilt output, or ``None`` to escalate — only compiled, for every ρ
    whose moved set it :meth:`covers`."""

    __slots__ = ("_fn", "guard_charge", "statements", "moved")

    def __init__(self, fn, guard_charge: int, statements: int,
                 moved: Optional[FrozenSet[Loc]] = None):
        self._fn = fn
        #: Fuel charged per replay: one step per recorded guard and
        #: partial, the same coarse accounting as the interpreted fast path.
        self.guard_charge = guard_charge
        #: Size of the generated code, for introspection and tests: the
        #: main function's statements plus each distinct shared rebuild
        #: function's, counted once however many calls it has.
        self.statements = statements
        #: The moved set (locations) this plan was specialized for;
        #: ``None`` for the whole recording.
        self.moved = moved

    def covers(self, moved: Optional[FrozenSet[Loc]]) -> bool:
        """Whether this plan answers every ρ that moves only locations in
        ``moved`` (``None``: any)."""
        if self.moved is None:
            return True
        return moved is not None and self.moved.issuperset(moved)

    def replay(self, rho) -> Optional[object]:
        """Re-run the recorded evaluation under ``rho`` (the program's
        location-keyed ρ0), whose moved set this plan must cover.  Returns
        the new output value — bit-identical to the interpreted replay —
        or ``None`` when a guard flipped or any evaluation error occurred
        (the caller escalates to a full re-evaluation, which reproduces
        the interpreter's exact error behavior).  An exhausted budget
        propagates, never masked."""
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


def specialize(cache, moved: Optional[FrozenSet[Loc]] = None
               ) -> CompiledEvaluation:
    """Lower one recorded evaluation into a :class:`CompiledEvaluation`:
    the plan for the moved set ``moved`` (locations, as
    :meth:`~repro.lang.incremental.EvalCache.moved` returns), or the whole
    recording when ``moved`` is ``None``.

    Raises :class:`CompileUnsupported` (or any codegen error) when the
    recording cannot be specialized; use :func:`ensure_compiled` for the
    attach, reuse and fail-once lifecycle.
    """
    return _Codegen(cache, moved).build()


def ensure_compiled(cache, probe=None, moved: Optional[FrozenSet[Loc]] = None
                    ) -> Optional[CompiledEvaluation]:
    """The plan of ``cache`` that covers the moved set ``moved`` — the one
    attached if it does, else a new one, compiled and attached in its
    place — or ``None`` when the recording cannot be specialized.

    A recording's first plan is specialized for ``moved``; without
    ``moved``, and once a plan is attached that does not cover it, the
    new plan is the whole recording, which covers every later step.

    ``probe(event)``, if given, observes the lifecycle — ``"attempt"``
    before compiling (the serve layer's ``compile.specialize`` fault
    point fires here), then ``"compiled"`` or ``"failed"``.  A failed
    specialization is remembered on the cache and the recording never
    specialized again; a plan already attached still answers what it
    covers, and the interpreted replay the rest.  Caches are shared
    read-mostly across sessions (the serve compile cache): concurrent
    calls may both compile, and either plan winning the write is fine.
    """
    plan = cache.plan
    if plan is not None:
        if plan.covers(moved):
            return plan
        moved = None
    if cache.compile_failed:
        return None
    try:
        if probe is not None:
            probe("attempt")
        plan = specialize(cache, moved)
    except Exception:
        cache.compile_failed = True
        if probe is not None:
            probe("failed")
        return None
    cache.plan = plan
    if probe is not None:
        probe("compiled")
    return plan
