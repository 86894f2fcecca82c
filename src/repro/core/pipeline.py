"""The staged run→assign→trigger→sliders pipeline (§4.1, §5.2.3).

:class:`SyncPipeline` is the single implementation of the loop the paper
describes — "the program is run, the new output is rendered … when the
user releases the mouse button, we compute new shape assignments and mouse
triggers" — shared by the CLI, the headless editor, the example renderer
and the benchmark harness.  It models the loop as four stages:

1. **Run** — evaluate the program and build the canvas
   (:meth:`eval_stage` + :meth:`canvas_stage`);
2. **Assign** — per-zone candidate analysis and heuristic choice
   (:meth:`assign_stage`);
3. **Trigger** — mouse triggers for every Active zone
   (:meth:`trigger_stage`);
4. **Sliders** — built-in sliders for range-annotated literals
   (:meth:`slider_stage`).

The Run and Assign stages take a :class:`~repro.core.changeset.ChangeSet`
describing how the current program differs from the one they last ran
against, and cache accordingly; Trigger and Sliders read the current state:

* **Run** replays the recorded evaluation guards
  (:mod:`repro.lang.incremental`) and rebuilds only changed canvas nodes;
  a guard flip escalates the change to structural (full re-run).
* **Assign** exploits that candidate location sets depend only on *trace
  structure*, never attribute values: a non-structural change reaches it
  only after every recorded guard held, and both replay tiers and the
  incremental canvas rebuild keep every trace object, so the stage keeps
  its assignments and computes them afresh only on a structural change.
* **Trigger** builds every trigger afresh from the current canvas: a
  drag's canvas rebuild keeps the :class:`~repro.svg.canvas.Shape` of
  every shape it did not move, so a trigger on such a shape reads its
  features from a number table already built.
* **Sliders** re-reads the range annotations on every Prepare; the scan is
  a few microseconds.

The escalation discipline makes the caching self-checking: every
assumption ("same structure") is guarded by the recorded control-flow
guards, and anything unprovable falls back to the from-scratch path whose
outputs the caches are verified against (``tests/test_incremental_prepare``
and the release-latency benchmark).
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import attrgetter
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from ..lang.ast import Loc
from ..lang.compile import ensure_compiled
from ..lang.eval import EvalBudget, budget_scope
from ..lang.incremental import EvalCache, record_evaluation, reevaluate
from ..lang.program import Program, parse_program
from ..svg.canvas import Canvas
from ..svg.render import render_canvas
from ..zones.assignment import (CanvasAssignments, analyze_shape,
                                choose_assignments)
from ..zones.triggers import MouseTrigger, compute_triggers
from .changeset import FULL_CHANGE, ChangeSet
from .sliders import BuiltinSlider, collect_sliders

__all__ = ["SyncPipeline"]

#: Every attribute a stage writes — what :meth:`SyncPipeline.transaction`
#: saves and restores.
_STAGE_FIELDS = ("program", "output", "canvas", "assignments", "triggers",
                 "sliders", "_eval_cache", "_plan", "_pending_output")
_stage_state = attrgetter(*_STAGE_FIELDS)


class SyncPipeline:
    """Stateful staged pipeline over one evolving :class:`Program`.

    >>> pipeline = SyncPipeline.from_source(
    ...     "(def x 10) (svg [(rect 'teal' x 20 30 40)])")
    >>> pipeline.run().structural        # first run: everything computed
    True
    >>> x = pipeline.program.user_locs()[0]
    >>> change = pipeline.replace_program(
    ...     pipeline.program.substitute({x: 50.0}))
    >>> pipeline.run(change).structural  # guards held: incremental re-run
    False
    >>> 'x="50"' in pipeline.render()
    True
    """

    def __init__(self, program: Program, *, heuristic: str = "fair",
                 record: bool = True,
                 budget: Optional[EvalBudget] = None,
                 compiled: bool = True,
                 specialize_probe=None):
        self.program = program
        self.heuristic = heuristic
        #: Whether the Run stage may replay through compiled artifacts
        #: (:mod:`repro.lang.compile`).  ``False`` pins the interpreted
        #: replay: the reference the differential tests and benchmarks
        #: compare the compiled tier against.
        self.compiled = compiled
        #: Lifecycle observer passed to
        #: :func:`~repro.lang.compile.ensure_compiled` — the serve layer
        #: wires its ``compile.specialize`` fault point and counters here.
        self.specialize_probe = specialize_probe
        #: Whether the Run stage records control-flow guards so later runs
        #: can be incremental.  One-shot consumers (CLI render, example
        #: export, stage benchmarks) switch it off.
        self.record = record
        #: Optional :class:`~repro.lang.eval.EvalBudget` installed around
        #: every evaluation this pipeline performs (fresh counters per
        #: run).  A runaway program then fails the Run stage with
        #: :class:`~repro.lang.errors.ResourceExhausted` instead of
        #: wedging the thread; run it inside :meth:`transaction` to roll
        #: back.  The budget must not be shared with another thread's
        #: pipeline (counters are mutable): clone per pipeline.
        self.budget = budget
        self.output = None
        self.canvas: Optional[Canvas] = None
        self.assignments: Optional[CanvasAssignments] = None
        self.triggers: Dict[Tuple[int, str], MouseTrigger] = {}
        self.sliders: Dict[Loc, BuiltinSlider] = {}
        self._eval_cache: Optional[EvalCache] = None
        #: The compiled plan of ``_eval_cache`` that answered the last
        #: Run, if one did (so it covers the current program's ρ0).
        self._plan = None
        self._pending_output = None

    @classmethod
    def from_source(cls, source: str, *, heuristic: str = "fair",
                    record: bool = True,
                    budget: Optional[EvalBudget] = None,
                    compiled: bool = True,
                    specialize_probe=None,
                    **parse_options) -> "SyncPipeline":
        return cls(parse_program(source, **parse_options),
                   heuristic=heuristic, record=record, budget=budget,
                   compiled=compiled, specialize_probe=specialize_probe)

    # -- transactions ------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Run a block of stage calls atomically: if it raises, every
        field a stage writes is put back, so the pipeline again describes
        the program installed before the block.

        Stages replace their cached objects rather than mutating them,
        which makes restoring the saved references a complete rollback.
        """
        saved = _stage_state(self)
        try:
            yield
        except BaseException:
            for name, value in zip(_STAGE_FIELDS, saved):
                setattr(self, name, value)
            raise

    # -- program replacement ---------------------------------------------------

    def replace_program(self, program: Program,
                        change: Optional[ChangeSet] = None) -> ChangeSet:
        """Install a new program and return the change set to feed the
        stages — ``program.last_change`` unless the caller knows better."""
        self.program = program
        return change if change is not None else program.last_change

    def edit_program(self, program: Program,
                     change: Optional[ChangeSet] = None) -> ChangeSet:
        """Install an *edited* program and run every stage under its change.

        The change-set-aware counterpart of :meth:`replace_program` for
        source edits (:func:`repro.lang.diff.diff_source`): a value-only
        change replays the recorded guards and reuses the Prepare results
        exactly like a drag step; a structural change rebuilds
        everything.  Returns the effective change set (escalated to
        ``FULL_CHANGE`` if a guard flipped during the replay).
        """
        change = self.replace_program(program, change)
        return self.run(change)

    # -- stage 1: Run ------------------------------------------------------------

    def eval_stage(self, change: Optional[ChangeSet] = None,
                   gesture: Optional[FrozenSet[Loc]] = None) -> ChangeSet:
        """Evaluate the program, incrementally when the change allows.

        Returns the *effective* change set: the input one when the guarded
        replay succeeded, ``FULL_CHANGE`` when a full (re-)evaluation was
        needed.  The output is staged for :meth:`canvas_stage`.
        ``gesture``, on a drag step, holds the locations the dragged
        zone's trigger rewrites: the step specializes only the plan for
        them (:func:`~repro.lang.compile.ensure_compiled`).
        """
        change = FULL_CHANGE if change is None else change
        # One budget scope per Run: a guarded replay that flips into a
        # full re-evaluation spends from the same allowance — it is one
        # user action either way.
        with budget_scope(self.budget):
            if (not change.structural and self._eval_cache is not None
                    and self.output is not None):
                if not change.locs:
                    self._pending_output = self.output
                    return change
                # Replay through the recording's plan if it covers this
                # step, else through the interpreter, and specialize only
                # once that interpreted replay held: a recording that
                # flips before ever holding is never compiled.  Either
                # verdict is final — a ``None`` escalates straight to the
                # full re-evaluation below, so the budget is never charged
                # twice for one step.
                cache = self._eval_cache
                rho = self.program.rho0
                plan = None
                if self.compiled:
                    # The change bounds how this step's ρ differs from the
                    # last one's, bit for bit, so the plan that answered
                    # the last step covers this one if it covers the
                    # change; only otherwise is ρ compared with the
                    # recording's.
                    plan = self._plan
                    if plan is None or not plan.covers(change.locs):
                        plan = cache.plan_for(rho)
                if plan is not None:
                    output = plan.replay(rho)
                else:
                    output = reevaluate(cache, rho)
                    if output is not None and self.compiled:
                        # A gesture's plan covers this step's ρ too, so
                        # the next step may reuse it as the last plan.
                        plan = ensure_compiled(
                            cache, self.specialize_probe,
                            None if gesture is None
                            else cache.moved(rho) | gesture)
                if output is not None:
                    self._plan = plan
                    self._pending_output = output
                    return change
            self._plan = None
            if self.record:
                output, self._eval_cache = record_evaluation(self.program)
            else:
                output = self.program.evaluate()
                self._eval_cache = None
            self._pending_output = output
            return FULL_CHANGE

    def canvas_stage(self, change: Optional[ChangeSet] = None) -> Canvas:
        """Build the canvas for the staged output — incrementally (shared
        nodes and shapes, no re-validation) for a non-structural change."""
        change = FULL_CHANGE if change is None else change
        output = self._pending_output
        if output is None:
            raise RuntimeError("canvas_stage before eval_stage")
        self._pending_output = None
        if change.structural or self.canvas is None:
            self.canvas = Canvas.from_value(output)
        elif output is not self.output:
            self.canvas = Canvas.rebuilt(self.canvas, self.output, output)
        self.output = output
        return self.canvas

    def run_stage(self, change: Optional[ChangeSet] = None,
                  gesture: Optional[FrozenSet[Loc]] = None) -> ChangeSet:
        """The Run stage: evaluate + build the canvas (``gesture`` as for
        :meth:`eval_stage`)."""
        effective = self.eval_stage(change, gesture)
        self.canvas_stage(effective)
        return effective

    def seed_run(self, eval_cache: EvalCache) -> ChangeSet:
        """Adopt a recorded evaluation of ``self.program`` as the Run stage.

        ``eval_cache`` must come from evaluating exactly ``self.program``
        — e.g. from the serve layer's shared compile cache, so N sessions
        opening the same source evaluate it once.  Re-evaluations replace
        the recording per pipeline, so sharing is read-only.
        """
        self._eval_cache = eval_cache
        self._plan = None
        self._pending_output = eval_cache.output
        self.canvas_stage(FULL_CHANGE)
        return FULL_CHANGE

    # -- stage 2: Assign ---------------------------------------------------------

    def assign_stage(self, change: Optional[ChangeSet] = None
                     ) -> CanvasAssignments:
        """Compute shape assignments for every zone.

        Candidate location sets and the heuristic's choice depend on
        trace structure alone, and a non-structural change reaches this
        stage only after the Run stage proved that structure unchanged
        (every recorded guard held, every trace object kept), so it keeps
        the assignments it has."""
        change = FULL_CHANGE if change is None else change
        canvas = self.canvas
        if canvas is None:
            raise RuntimeError("assign_stage before run_stage")
        if change.structural or self.assignments is None:
            self.assignments = choose_assignments(
                canvas, [analysis for shape in canvas
                         for analysis in analyze_shape(canvas, shape)],
                self.heuristic)
        return self.assignments

    # -- stage 3: Trigger --------------------------------------------------------

    def trigger_stage(self) -> Dict[Tuple[int, str], MouseTrigger]:
        """Compute mouse triggers for every Active zone, afresh from the
        current canvas, assignments and ρ."""
        canvas, assignments = self.canvas, self.assignments
        if canvas is None or assignments is None:
            raise RuntimeError("trigger_stage before assign_stage")
        self.triggers = compute_triggers(canvas, assignments,
                                         self.program.rho0)
        return self.triggers

    # -- stage 4: Sliders --------------------------------------------------------

    def slider_stage(self) -> Dict[Loc, BuiltinSlider]:
        """Collect built-in sliders (§2.4) for range-annotated literals —
        afresh on every Prepare: the scan takes a few microseconds."""
        self.sliders = collect_sliders(self.program)
        return self.sliders

    # -- composite operations ----------------------------------------------------

    def prepare(self, change: Optional[ChangeSet] = None) -> None:
        """Assign + Trigger + Sliders — the Prepare operation of §5.2.3,
        performed "when the program is run initially and after the user
        finishes dragging a zone"."""
        self.assign_stage(change)
        self.trigger_stage()
        self.slider_stage()

    def run(self, change: Optional[ChangeSet] = None) -> ChangeSet:
        """The whole pipeline: Run, then Prepare under the effective
        change (escalated to full if evaluation could not be replayed)."""
        effective = self.run_stage(change)
        self.prepare(effective)
        return effective

    # -- output ------------------------------------------------------------------

    def render(self, *, include_hidden: bool = False) -> str:
        """The canvas as SVG text (Appendix C)."""
        if self.canvas is None:
            raise RuntimeError("render before run_stage")
        return render_canvas(self.canvas.root, include_hidden=include_hidden)
