"""Drag- and release-latency measurement: live-sync throughput, fast vs naive.

The paper's premise is that the run-solve-rerun loop feels instantaneous
(§4.1, §5.2.3).  This module measures both halves of that loop:

* the throughput of a drag *gesture* — ``start_drag`` followed by N
  cumulative mouse-move steps — along three paths: the pre-optimization
  pipeline (rebuild the user AST, rebuild the combined Prelude+user
  program, re-walk it for ρ0, re-evaluate the whole ``ELet`` spine from
  scratch, re-validate the canvas), the incremental session path
  (indexed substitution, Prelude caches, guarded trace-driven
  re-evaluation), and the **compiled** path — the incremental session
  with the trace compiler (:mod:`repro.lang.compile`) specializing the
  recorded evaluation into a flat replay artifact;
* the throughput of the *release* — the Prepare operation ("we compute new
  shape assignments and mouse triggers", §4.1) — along the change-set-driven
  incremental pipeline (:mod:`repro.core.pipeline`) versus a from-scratch
  ``assign_canvas`` + ``compute_triggers`` + ``collect_sliders``.

Both comparisons drive the two paths through *identical* inputs, and a
verification pass checks bit-identical results at every step (rendered SVG
and traces for drags; assignments, triggers, sliders and hover data for
releases).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median
from typing import List, Optional, Sequence, Tuple

from ..core.pipeline import SyncPipeline
from ..core.sliders import collect_sliders
from ..editor.session import LiveSession
from ..examples.registry import example_source
from ..lang.ast import substitute
from ..lang.compile import ensure_compiled
from ..lang.eval import evaluate
from ..lang.parser import collect_rho0
from ..lang.program import Program, parse_program
from ..svg.canvas import Canvas
from ..svg.render import render_canvas
from ..trace.trace import trace_key
from ..zones.assignment import assign_canvas
from ..zones.triggers import compute_triggers

#: Corpus examples exercised by the drag-latency benchmark: the running
#: example, the smallest program, a case study, and progressively heavier
#: canvases (group box + stars, FILL zones, slider, 80-polygon tiling).
DEFAULT_EXAMPLES = (
    "sine_wave_of_boxes",
    "three_boxes",
    "ferris_wheel",
    "chicago_flag",
    "color_wheel",
    "n_boxes_slider",
    "tessellation",
)

DEFAULT_STEPS = 60


@dataclass(frozen=True)
class DragLatencyRow:
    name: str
    steps: int
    fast_sps: float        # steps per second, incremental session path
    naive_sps: float       # steps per second, pre-optimization path
    compiled_sps: float    # steps per second, trace-compiled replay
    outputs_identical: bool

    @property
    def speedup(self) -> float:
        return self.fast_sps / self.naive_sps if self.naive_sps else 0.0

    @property
    def compiled_speedup(self) -> float:
        """The trace compiler's gain over the already-incremental path."""
        return self.compiled_sps / self.fast_sps if self.fast_sps else 0.0


def _gesture(steps: int) -> List[Tuple[float, float]]:
    """Deterministic cumulative offsets for one drag gesture."""
    return [(float(i % 20), float((i * 3) % 11)) for i in range(steps)]


def _start(name: str, compiled: bool = True) -> LiveSession:
    # ``compiled=False`` pins the interpreted replay for the ``fast``
    # column; the default session specializes on its first held replay.
    session = LiveSession(example_source(name), compiled=compiled)
    key = next(iter(session.triggers))
    session.start_drag(*key)
    return session


def _canvas_signature(canvas: Canvas) -> Tuple[str, tuple]:
    rendered = render_canvas(canvas.root, include_hidden=True)
    traces = tuple(trace_key(trace)
                   for trace in canvas.all_numeric_traces())
    return rendered, traces


def _naive_step(base: Program, bindings) -> Canvas:
    """One pre-optimization drag step: full rebuild, full re-evaluation."""
    new_user = substitute(base.user_ast, bindings)
    program = Program(new_user, source=base.source,
                      prelude_frozen=base.prelude_frozen)
    collect_rho0(program.ast)           # the seed constructor's full walk
    value = evaluate(program.ast)       # full Prelude spine, no caches
    return Canvas.from_value(value)


def _verify_identical(name: str, steps: int) -> bool:
    """Drive all three paths through the same gesture; outputs must
    match bit-for-bit (rendered SVG and trace structure) at every step.
    The sessions share one parsed program, so loc idents — which appear
    in trace keys — are comparable across them."""
    program = parse_program(example_source(name))
    session = LiveSession(program=program, compiled=False)
    compiled_session = LiveSession(program=program, compiled=True)
    key = next(iter(session.triggers))
    session.start_drag(*key)
    compiled_session.start_drag(*key)
    base = session._drag_base
    identical = True
    for dx, dy in _gesture(steps):
        result = session.drag(dx, dy)
        compiled_session.drag(dx, dy)
        fast_signature = _canvas_signature(session.canvas)
        if fast_signature != _canvas_signature(compiled_session.canvas):
            identical = False
            break
        if not result.bindings:
            continue
        naive_canvas = _naive_step(base, result.bindings)
        if fast_signature != _canvas_signature(naive_canvas):
            identical = False
            break
    session.release()
    compiled_session.release()
    return identical


def chunked_rate(step, offsets: Sequence[Tuple[float, float]],
                 chunk: int = 10) -> float:
    """Steps/sec from the *fastest* chunk of one gesture pass.

    Drag latency is a minimum-cost property — OS noise only ever adds
    time — so the pass is timed in ``chunk``-step windows and the best
    window wins: a scheduler stall or GC pause taxes one chunk instead
    of poisoning the whole measurement.
    """
    best = float("inf")
    for index in range(0, len(offsets), chunk):
        block = offsets[index:index + chunk]
        start = time.perf_counter()
        for dx, dy in block:
            step(dx, dy)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / len(block))
    return 1.0 / best if best > 0.0 else 0.0


def _time_fast(name: str, steps: int) -> float:
    session = _start(name, compiled=False)
    rate = chunked_rate(session.drag, _gesture(steps))
    session.release()
    return rate


def _time_compiled(name: str, steps: int) -> float:
    session = _start(name)
    offsets = _gesture(steps)
    # One warmup step pays the one-time specialization (it rides the
    # shared EvalCache thereafter) so the column measures steady state.
    session.drag(*offsets[0])
    assert ensure_compiled(session.pipeline._eval_cache) is not None
    rate = chunked_rate(session.drag, offsets)
    session.release()
    return rate


def _time_naive(name: str, steps: int) -> float:
    session = _start(name)
    base = session._drag_base
    trigger = session._drag_trigger

    def step(dx: float, dy: float) -> None:
        result = trigger(dx, dy)
        if result.bindings:
            _naive_step(base, result.bindings)

    rate = chunked_rate(step, _gesture(steps))
    session.release()
    return rate


def measure_drag_latency(names: Optional[Sequence[str]] = None,
                         steps: int = DEFAULT_STEPS,
                         repeats: int = 3,
                         verify: bool = True) -> List[DragLatencyRow]:
    """Measure fast/naive/compiled drag throughput for each example.

    Each path is timed ``repeats`` times and the best rate kept (drag
    latency is a minimum-cost property; the OS noise only adds time).
    The passes interleave the three paths so a noisy scheduling window
    taxes all of them rather than skewing one ratio.
    """
    rows: List[DragLatencyRow] = []
    for name in names or DEFAULT_EXAMPLES:
        identical = _verify_identical(name, steps) if verify else True
        fast = naive = compiled = 0.0
        for _ in range(repeats):
            fast = max(fast, _time_fast(name, steps))
            naive = max(naive, _time_naive(name, steps))
            compiled = max(compiled, _time_compiled(name, steps))
        rows.append(DragLatencyRow(name, steps, fast, naive, compiled,
                                   identical))
    return rows


def median_speedup(rows: Sequence[DragLatencyRow]) -> float:
    return median(row.speedup for row in rows)


def median_compiled_speedup(rows: Sequence[DragLatencyRow]) -> float:
    """Median gain of the trace-compiled replay over the incremental
    interpreter — the §4.1 hot path's second optimization tier."""
    return median(row.compiled_speedup for row in rows)


# ---------------------------------------------------------------------------
# Release latency: incremental vs from-scratch Prepare
# ---------------------------------------------------------------------------

#: Multi-shape examples where Prepare cost grows with zone count
#: (Appendix G): the flagship 80-polygon tiling, the §6.2 case study, and
#: the group-box + nStar flag.
RELEASE_EXAMPLES = (
    "tessellation",
    "ferris_wheel",
    "chicago_flag",
)

DEFAULT_RELEASES = 12
DEFAULT_RELEASE_STEPS = 5


@dataclass(frozen=True)
class ReleaseLatencyRow:
    name: str
    releases: int
    fast_rps: float        # Prepares per second, incremental pipeline
    naive_rps: float       # Prepares per second, from-scratch path
    outputs_identical: bool

    @property
    def speedup(self) -> float:
        return self.fast_rps / self.naive_rps if self.naive_rps else 0.0


def naive_prepare(pipeline: SyncPipeline):
    """The from-scratch Prepare: what every ``release()`` cost before the
    change-set-driven pipeline.  Returns (assignments, triggers, sliders)."""
    assignments = assign_canvas(pipeline.canvas, pipeline.heuristic)
    triggers = compute_triggers(pipeline.canvas, assignments,
                                pipeline.program.rho0)
    sliders = collect_sliders(pipeline.program)
    return assignments, triggers, sliders


def _trigger_state(trigger) -> tuple:
    """Structural snapshot of one trigger: the pre-read features with the
    trace compared by structure, plus the (shared) ρ."""
    return tuple((feature, loc, value, trace_key(trace))
                 for feature, loc, value, trace in trigger._features)


def prepare_equal(pipeline: SyncPipeline, assignments, triggers,
                  sliders) -> bool:
    """Is the pipeline's (incrementally maintained) Prepare state equal to
    a from-scratch one?  Compares analyses, chosen assignments, triggers
    (features and ρ), sliders, and per-zone hover data."""
    ours = pipeline.assignments
    if ours.analyses != assignments.analyses:
        return False
    if ours.chosen != assignments.chosen:
        return False
    if set(pipeline.triggers) != set(triggers):
        return False
    for key, trigger in triggers.items():
        mine = pipeline.triggers[key]
        if _trigger_state(mine) != _trigger_state(trigger):
            return False
        if mine.rho != trigger.rho:
            return False
    if pipeline.sliders != sliders:
        return False
    for analysis in assignments.analyses:
        key = (analysis.zone.shape_index, analysis.zone.name)
        if ours.hover_data(*key) != assignments.hover_data(*key):
            return False
    return True


def _release_gesture(session: LiveSession, start: int, steps: int) -> None:
    """One short drag gesture ending just before the release."""
    key = next(iter(session.triggers))
    session.start_drag(*key)
    for i in range(steps):
        session.drag(float((start + i) % 17), float((start + 2 * i) % 13))


def measure_release_latency(names: Optional[Sequence[str]] = None,
                            releases: int = DEFAULT_RELEASES,
                            steps: int = DEFAULT_RELEASE_STEPS,
                            verify: bool = True
                            ) -> List[ReleaseLatencyRow]:
    """Measure incremental vs from-scratch Prepare throughput per example.

    Each gesture is dragged along the session's fast path; at the release
    the incremental ``pipeline.prepare(change)`` is timed against a
    from-scratch Prepare on the *same* program/canvas state, and (when
    ``verify``) the two resulting states are checked for equality —
    assignments, triggers, sliders and hover data.
    """
    rows: List[ReleaseLatencyRow] = []
    for name in names or RELEASE_EXAMPLES:
        session = LiveSession(example_source(name))
        fast_time = 0.0
        naive_time = 0.0
        identical = True
        for round_index in range(releases):
            _release_gesture(session, round_index, steps)
            start = time.perf_counter()
            session.release()
            fast_time += time.perf_counter() - start
            start = time.perf_counter()
            state = naive_prepare(session.pipeline)
            naive_time += time.perf_counter() - start
            if verify and not prepare_equal(session.pipeline, *state):
                identical = False
        rows.append(ReleaseLatencyRow(
            name, releases,
            releases / fast_time if fast_time else 0.0,
            releases / naive_time if naive_time else 0.0,
            identical))
    return rows


def median_release_speedup(rows: Sequence[ReleaseLatencyRow]) -> float:
    return median(row.speedup for row in rows)
