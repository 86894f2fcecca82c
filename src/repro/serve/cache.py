"""Shared program-compile cache for the serve layer.

Parsing and first evaluation dominate the cost of opening a session (the
paper's §5.2.3 table puts Parse at a median 53 ms and up to 520 ms), and a
service's traffic is heavily skewed toward the example corpus — N users
opening the same program should parse and evaluate it **once**.

:class:`CompileCache` keys on the SHA-256 of the source text plus the parse
options, and stores the parsed :class:`~repro.lang.program.Program`
together with its recorded first evaluation (the output value and the
control-flow guards of :mod:`repro.lang.incremental`).  Everything stored
is read-only under sharing: ``Program.substitute`` copies, ``reevaluate``
only reads the guard list, and each session's pipeline replaces — never
mutates — the cache entry's objects.  The one sanctioned exception: the
shared :class:`~repro.lang.incremental.EvalCache` lazily carries its
compiled plan (:func:`repro.lang.compile.ensure_compiled`), so the first
session to specialize it pays for every later session — and for
rehydrations under LRU pressure — that adopts the same seed and moves
what it covers.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from threading import Event, Lock
from typing import Dict, Tuple

from ..lang.eval import budget_scope
from ..lang.incremental import EvalCache, record_evaluation
from ..lang.program import Program, parse_program
from .faults import fail_point

__all__ = ["CompileCache", "CompiledProgram"]


@dataclass(frozen=True)
class CompiledProgram:
    """One cache entry: a parsed program plus its recorded evaluation, the
    seed a session pipeline adopts via
    :meth:`~repro.core.pipeline.SyncPipeline.seed_run`."""

    program: Program
    eval_cache: EvalCache


def source_key(source: str, *, auto_freeze: bool = False,
               prelude_frozen: bool = True) -> Tuple[str, bool, bool]:
    """The cache key: source hash + every option that affects parsing."""
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    return (digest, auto_freeze, prelude_frozen)


class _Flight:
    """One in-progress compilation that concurrent misses wait on."""

    __slots__ = ("done", "entry", "error")

    def __init__(self):
        self.done = Event()
        self.entry = None
        self.error = None


class CompileCache:
    """An LRU cache of :class:`CompiledProgram`s with **single-flight**
    compilation: when N threads miss on the same key at once, one thread
    parses and evaluates while the rest block on its result — the work
    happens exactly once, never raced or duplicated.

    >>> cache = CompileCache(capacity=8)
    >>> compiled, hit = cache.compile("(svg [(rect 'red' 1 2 3 4)])")
    >>> hit
    False
    >>> again, hit = cache.compile("(svg [(rect 'red' 1 2 3 4)])")
    >>> hit and again.program is compiled.program
    True
    """

    def __init__(self, capacity: int = 128, *, budget=None, faults=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: Prototype :class:`~repro.lang.eval.EvalBudget` applied to the
        #: leader's first evaluation (cloned per compile — leaders for
        #: different keys run concurrently) so an adversarial program
        #: fails its open with ``ResourceExhausted`` instead of wedging
        #: the leader and every waiter coalesced behind it.
        self.budget = budget
        self.faults = faults
        self.hits = 0
        self.misses = 0
        #: Opens served by *waiting* on another thread's compilation.
        self.coalesced = 0
        self._entries: "OrderedDict[tuple, CompiledProgram]" = OrderedDict()
        self._inflight: Dict[tuple, _Flight] = {}
        self._lock = Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def compile(self, source: str, *, auto_freeze: bool = False,
                prelude_frozen: bool = True
                ) -> Tuple[CompiledProgram, bool]:
        """Parse + evaluate ``source`` (or reuse), returning
        ``(compiled, cache_hit)``.  Parse and runtime errors propagate as
        :class:`~repro.lang.errors.LittleError`; failures are not cached.
        """
        key = source_key(source, auto_freeze=auto_freeze,
                         prelude_frozen=prelude_frozen)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry, True
            flight = self._inflight.get(key)
            if flight is None:
                flight = _Flight()
                self._inflight[key] = flight
                leader = True
            else:
                leader = False
        if not leader:
            # Single-flight: block on the leader's parse + evaluation
            # instead of duplicating it; its failure is our failure.
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            with self._lock:
                self.hits += 1
                self.coalesced += 1
            return flight.entry, True
        # Compile outside the lock: a slow parse must not stall sessions
        # hitting other entries.
        try:
            fail_point(self.faults, "compile.leader")
            program = parse_program(source, auto_freeze=auto_freeze,
                                    prelude_frozen=prelude_frozen)
            budget = self.budget.clone() if self.budget is not None else None
            with budget_scope(budget):
                _output, eval_cache = record_evaluation(program)
            entry = CompiledProgram(program, eval_cache)
        except BaseException as error:
            with self._lock:
                self._inflight.pop(key, None)
            flight.error = error
            flight.done.set()
            raise
        with self._lock:
            self.misses += 1
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            self._inflight.pop(key, None)
        flight.entry = entry
        flight.done.set()
        return entry, False

    def stats(self) -> dict:
        with self._lock:
            return {"entries": len(self._entries), "capacity": self.capacity,
                    "hits": self.hits, "misses": self.misses,
                    "coalesced": self.coalesced}
