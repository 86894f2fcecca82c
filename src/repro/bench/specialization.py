"""Specialization table: a first-zone plan against the whole recording.

A drag moves the locations of one shape assignment, and the trace
compiler (:mod:`repro.lang.compile`) specializes a *plan* for the
locations a step moved instead of the whole recording.  This module
measures, per corpus example, what the compiler generates, how long it
takes and how much memory it holds at once, for both:

* **whole** — :func:`~repro.lang.compile.specialize` with no moved set;
* **plan** — the moved set of the example's first Active zone, its chosen
  locations each moved by 3, then the plan for it.  The time includes the
  recording's moved-set comparison, whose first call walks its traces
  once, as the first held drag of a recording pays it.

Each is timed on a fresh recording, best of ``repeats``, after a
``gc.collect()``.  Its memory is the peak :mod:`tracemalloc` traces while
it runs on one more fresh recording, in a pass of its own (tracing slows
the allocator, so no timed run is traced).  Statements count the main
function plus each distinct shared rebuild function once.  The replays of
the plan and of the whole recording are checked node for node against
:func:`~repro.lang.incremental.reevaluate`.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.pipeline import SyncPipeline
from ..examples.registry import example_names, example_source
from ..lang.ast import Loc
from ..lang.compile import specialize
from ..lang.incremental import record_evaluation, reevaluate
from ..lang.values import VCons, VNum, float_bits

#: How far the first zone's locations move.
MOVE = 3.0


@dataclass(frozen=True)
class SpecializationRow:
    name: str
    whole_statements: int
    whole_ms: float
    whole_peak_mib: float    # traced peak of one specialization
    plan_statements: int
    plan_ms: float
    plan_peak_mib: float
    identical: bool          # both replays == reevaluate, node for node


def first_zone_rho(pipeline: SyncPipeline) -> Dict[Loc, float]:
    """ρ0 with the first Active zone's chosen locations moved by
    :data:`MOVE` (ρ0 itself if the program has no Active zone)."""
    rho = dict(pipeline.program.rho0)
    chosen = pipeline.assignments.chosen
    if chosen:
        for loc in chosen[min(chosen)].location_set:
            rho[loc] += MOVE
    return rho


def same_replay(recorded, a, b) -> bool:
    """Whether two replays of ``recorded`` share the same nodes with it
    by identity, and agree elsewhere in node kinds and in number bits."""
    if a is None or b is None:
        return a is b
    stack = [(recorded, a, b)]
    while stack:
        old, x, y = stack.pop()
        if (x is old) != (y is old):
            return False
        if x is old:
            continue
        if not type(x) is type(y) is type(old):
            return False
        if type(x) is VNum:
            if x.trace is not old.trace or y.trace is not old.trace or \
                    (type(x.value), _bits(x.value)) != \
                    (type(y.value), _bits(y.value)):
                return False
        elif type(x) is VCons:
            stack.append((old.head, x.head, y.head))
            stack.append((old.tail, x.tail, y.tail))
        else:
            return False            # only numbers and conses are rebuilt
    return True


def _bits(value):
    return float_bits(value) if type(value) is float else value


def _best_ms(program, compile_one, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        _, cache = record_evaluation(program)
        gc.collect()
        start = time.perf_counter()
        compile_one(cache)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _peak_mib(program, compile_one) -> float:
    """The largest memory :mod:`tracemalloc` traces while ``compile_one``
    runs on a fresh recording, the recording itself not counted."""
    _, cache = record_evaluation(program)
    gc.collect()
    tracemalloc.start()
    try:
        compile_one(cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def measure_specialization(names: Optional[Sequence[str]] = None,
                           repeats: int = 3) -> List[SpecializationRow]:
    """One row per example (default: the whole corpus)."""
    rows = []
    for name in names if names is not None else example_names():
        pipeline = SyncPipeline.from_source(example_source(name))
        pipeline.run()
        program = pipeline.program
        rho = first_zone_rho(pipeline)
        cache = pipeline._eval_cache
        whole = specialize(cache)
        plan = specialize(cache, cache.moved(rho))
        interpreted = reevaluate(cache, rho)

        def plan_one(fresh):
            specialize(fresh, fresh.moved(rho))

        rows.append(SpecializationRow(
            name, whole.statements,
            _best_ms(program, specialize, repeats),
            _peak_mib(program, specialize),
            plan.statements,
            _best_ms(program, plan_one, repeats),
            _peak_mib(program, plan_one),
            same_replay(cache.output, plan.replay(rho), interpreted)
            and same_replay(cache.output, whole.replay(rho), interpreted)))
    return rows
