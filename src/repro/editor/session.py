"""Headless live-synchronization editor (§4.1, §5).

:class:`LiveSession` substitutes for the reference implementation's browser
UI: it exposes exactly the interaction loop of the paper —

1. **run**: parse + evaluate the program, build the canvas;
2. **prepare**: compute shape assignments (heuristics) and mouse triggers
   for every zone ("we only perform this computation when the program is
   run initially and after the user finishes dragging a zone", §5.2.3);
3. **drag**: while the mouse moves, fire the zone's trigger, apply the
   substitution to the original program, re-evaluate, re-render;
4. **release**: commit, then re-prepare for the next action.

The session is a thin shell over :class:`~repro.core.pipeline.SyncPipeline`
— the staged run→assign→trigger→sliders core shared with the CLI and the
benchmarks — adding only interaction state: the drag in flight, the undo
history (§6.2), and hover/highlight presentation (§5).  Each drag step
feeds the pipeline the substitution's change set, so the Run stage replays
recorded guards instead of re-evaluating, and the release's Prepare keeps
the assignments unless the gesture's accumulated change is structural
and builds the mouse triggers afresh.

The *programmatic* half of the paper's workflow flows through the same
machinery: :meth:`LiveSession.edit_source` classifies a text edit with the
structural differ (:mod:`repro.lang.diff`) and routes it through the
pipeline as a change set, so editing a literal in the text is exactly as
cheap as dragging it on the canvas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.changeset import EMPTY_CHANGE, FULL_CHANGE, ChangeSet
from ..core.pipeline import SyncPipeline
from ..core.sliders import BuiltinSlider
from ..lang.ast import Loc
from ..lang.diff import IDENTITY, SourceDiff, diff_source
from ..lang.errors import LittleError
from ..lang.prelude import prelude_rho0
from ..lang.program import Program, parse_program
from ..svg.canvas import Canvas
from ..zones.assignment import CanvasAssignments
from ..zones.triggers import MouseTrigger, TriggerResult

__all__ = ["EditorError", "HoverInfo", "LiveSession"]


class EditorError(LittleError):
    """Misuse of the editor API (dragging an Inactive zone, …)."""


@dataclass(frozen=True)
class HoverInfo:
    """What the editor shows when hovering a zone (§5): whether it is
    Active, the constants that will change (highlighted yellow), and the
    constants that contributed to the attributes but were not selected
    (highlighted gray)."""

    active: bool
    caption: str
    selected: Tuple[Loc, ...] = ()
    unselected: Tuple[Loc, ...] = ()


class LiveSession:
    """A headless Sketch-n-Sketch editing session.

    Each command (:meth:`drag`, :meth:`release`, :meth:`set_slider`,
    :meth:`edit_source`, :meth:`undo`) does its pipeline work inside one
    :meth:`~repro.core.pipeline.SyncPipeline.transaction` and changes its
    own state only after that returns, so a command that raises leaves the
    session exactly as it was — a failed release keeps the gesture in
    flight.
    """

    def __init__(self, source: Optional[str] = None, *,
                 program: Optional[Program] = None,
                 heuristic: str = "fair",
                 auto_freeze: bool = False,
                 prelude_frozen: bool = True,
                 seed=None,
                 budget=None,
                 compiled: bool = True,
                 specialize_probe=None):
        if (source is None) == (program is None):
            raise EditorError("provide exactly one of source or program")
        if program is None:
            program = parse_program(source, auto_freeze=auto_freeze,
                                    prelude_frozen=prelude_frozen)
        self.pipeline = SyncPipeline(program, heuristic=heuristic,
                                     record=True, budget=budget,
                                     compiled=compiled,
                                     specialize_probe=specialize_probe)
        self.history: List[Program] = []
        self._drag_base: Optional[Program] = None
        self._drag_trigger: Optional[MouseTrigger] = None
        self._drag_key: Optional[Tuple[int, str]] = None
        self._drag_offsets: Optional[Tuple[float, float]] = None
        self._last_result: Optional[TriggerResult] = None
        self._gesture_change: ChangeSet = EMPTY_CHANGE
        if seed is not None:
            # A recorded evaluation of exactly ``program`` (shared compile
            # cache): skip the redundant evaluation, Prepare from scratch.
            self.pipeline.seed_run(seed)
            self.pipeline.prepare(FULL_CHANGE)
        else:
            self.run()

    # -- pipeline views ----------------------------------------------------------

    @property
    def program(self) -> Program:
        return self.pipeline.program

    @property
    def heuristic(self) -> str:
        return self.pipeline.heuristic

    @property
    def canvas(self) -> Canvas:
        return self.pipeline.canvas

    @property
    def assignments(self) -> CanvasAssignments:
        return self.pipeline.assignments

    @property
    def triggers(self) -> Dict[Tuple[int, str], MouseTrigger]:
        return self.pipeline.triggers

    @property
    def sliders(self) -> Dict[Loc, BuiltinSlider]:
        return self.pipeline.sliders

    # -- run / prepare ---------------------------------------------------------

    def run(self) -> None:
        """Evaluate the current program from scratch and prepare for user
        actions."""
        self.pipeline.run()

    def prepare(self) -> None:
        """Recompute assignments and triggers for every zone (the
        from-scratch "Prepare" operation measured in §5.2.3)."""
        self.pipeline.prepare()

    # -- hovering ----------------------------------------------------------------

    def hover(self, shape_index: int, zone_name: str) -> HoverInfo:
        active, caption, selected, unselected = \
            self.assignments.hover_data(shape_index, zone_name)
        return HoverInfo(active=active, caption=caption,
                         selected=selected, unselected=unselected)

    # -- dragging ---------------------------------------------------------------

    @property
    def dragging(self) -> Optional[Tuple[int, str]]:
        """The ``(shape_index, zone_name)`` of the drag in flight, if any."""
        return self._drag_key if self._drag_base is not None else None

    def check_drag(self, shape_index: int, zone_name: str):
        """The trigger a drag of this zone would fire, or
        :class:`EditorError` if the zone is not an Active drag target —
        the same validation (and message) ``start_drag`` applies, for
        callers that must reject a gesture without starting it (the
        serve layer's queued drags)."""
        trigger = self.triggers.get((shape_index, zone_name))
        if trigger is None:
            raise EditorError(
                f"zone {zone_name!r} of shape {shape_index} is Inactive")
        return trigger

    def start_drag(self, shape_index: int, zone_name: str) -> None:
        trigger = self.check_drag(shape_index, zone_name)
        self._drag_base = self.program
        self._drag_trigger = trigger
        self._drag_key = (shape_index, zone_name)
        self._drag_offsets = None
        self._last_result = None
        # _gesture_change is NOT reset here: if a previous gesture was
        # never released, its accumulated change must still reach the
        # next Prepare (release() resets it after consuming it).

    def drag(self, dx: float, dy: float) -> TriggerResult:
        """One mouse-move step: the offsets are cumulative from the
        drag start, exactly as in §4.1's τ(dx, dy)."""
        if self._drag_trigger is None or self._drag_base is None:
            raise EditorError("drag without start_drag")
        result = self._drag_trigger(dx, dy)
        if result.bindings:
            program = self._drag_base.substitute(result.bindings)
            # The substitution (and hence ``last_change``) is relative to
            # the drag *base*, but the pipeline's state is at the previous
            # step — also a substitution of the same base.  Their union
            # bounds the step-over-step difference (a loc dragged away and
            # back to its base value appears only in the previous one).
            step_change = program.last_change
            if self.program is not self._drag_base:
                step_change = step_change.union(self.program.last_change)
            with self.pipeline.transaction():
                self.pipeline.replace_program(program, step_change)
                effective = self.pipeline.run_stage(step_change)
            self._gesture_change = self._gesture_change.union(effective)
        self._drag_offsets = (dx, dy)
        self._last_result = result
        return result

    def release(self) -> None:
        """Finish the user action: commit to history and re-prepare
        ("when the user releases the mouse button, we compute new shape
        assignments and mouse triggers", §4.1), keeping the assignments
        unless the gesture's accumulated change set is structural."""
        if self._drag_base is None:
            raise EditorError("release without start_drag")
        with self.pipeline.transaction():
            self.pipeline.prepare(self._gesture_change)
        self._end_gesture(self.program)

    def _end_gesture(self, dragged: Program) -> None:
        """Commit the drag in flight, which left the session at
        ``dragged`` and whose Prepare already ran: push its base onto the
        history if it changed the program, and clear it."""
        if dragged is not self._drag_base:
            self.history.append(self._drag_base)
        self._clear_gesture()

    def _clear_gesture(self) -> None:
        self._drag_base = None
        self._drag_trigger = None
        self._drag_key = None
        self._drag_offsets = None
        self._gesture_change = EMPTY_CHANGE

    def drag_zone(self, shape_index: int, zone_name: str, dx: float,
                  dy: float) -> TriggerResult:
        """Convenience: a full click-drag-release gesture."""
        self.start_drag(shape_index, zone_name)
        result = self.drag(dx, dy)
        self.release()
        return result

    # -- sliders (§2.4) -----------------------------------------------------------

    def set_slider(self, loc: Loc, value: float) -> None:
        slider = self.sliders.get(loc)
        if slider is None:
            raise EditorError(f"no slider for location {loc.display()}")
        clamped = max(slider.lo, min(slider.hi, value))
        if clamped == slider.value:
            # No-op drag to the current value: no history entry, no re-run.
            return
        previous = self.program
        with self.pipeline.transaction():
            self.pipeline.run(self.pipeline.replace_program(
                previous.substitute({loc: clamped})))
        self.history.append(previous)

    # -- source edits (§4.1, the other half of the loop) ---------------------------

    def edit_source(self, text: str) -> SourceDiff:
        """Apply a source-text edit to the live program.

        The structural differ (:func:`repro.lang.diff.diff_source`)
        classifies the edit and re-expresses it against the current
        program, so a value-only edit (only literal values changed) flows
        through the incremental pipeline exactly like a drag step — guards
        replayed, canvas nodes shared, assignments kept — while a
        structural edit re-runs from scratch with surviving literals
        re-keyed to their old locations.  The previous program is pushed
        onto the undo history (identity edits excepted), and an in-flight
        drag gesture is released first.  The edit is atomic: a parse
        error propagates as :class:`~repro.lang.errors.LittleSyntaxError`
        before any state changes, and an edit whose program fails to
        *run* (or whose gesture fails to release) changes nothing either.
        Returns the :class:`~repro.lang.diff.SourceDiff`.
        """
        diff = diff_source(self.program, text)
        previous = self.program
        with self.pipeline.transaction():
            if self._drag_base is not None:
                self.pipeline.prepare(self._gesture_change)
            if diff.kind == IDENTITY:
                # Same program, new text: adopt it without a history entry
                # or a re-run — ρ0 is value-identical, so the existing
                # triggers and caches stay exact.
                self.pipeline.replace_program(diff.program, diff.change)
            else:
                self.pipeline.edit_program(diff.program, diff.change)
        if self._drag_base is not None:
            self._end_gesture(previous)
        if diff.kind != IDENTITY:
            self.history.append(previous)
        return diff

    # -- undo (§6.2) ----------------------------------------------------------------

    def undo(self) -> None:
        if not self.history:
            raise EditorError("nothing to undo")
        if self._drag_base is not None:
            # Undo during an in-flight drag aborts the gesture: the
            # pipeline state is then more than one substitution away from
            # the restored program, so no cheap change set bounds the
            # difference — re-run from scratch.
            change = FULL_CHANGE
        else:
            # Between user actions the current program was derived from
            # the restored one by a single step whose ``last_change`` bounds
            # the difference: a substitution (drag commit, slider move,
            # value-only source edit) names exactly the touched locations,
            # and a structural source edit carries ``FULL_CHANGE``.
            change = self.program.last_change
        with self.pipeline.transaction():
            self.pipeline.run(self.pipeline.replace_program(
                self.history[-1], change))
        self.history.pop()
        self._clear_gesture()

    # -- snapshot / restore ------------------------------------------------------

    def _program_state(self, program: Program,
                       current_source: str) -> dict:
        """A JSON-able picture of one program in the session's chain.

        ``user`` is the full list of user-literal values in parse order
        (stable across re-parses of the same source); ``prelude`` lists the
        ``(ident, value)`` pairs of any rewritten Prelude literals — each
        freeze mode numbers the Prelude's literals from a fixed start, so
        their idents are the same in every process.  A history entry from
        before a structural (or identity) edit carries its own ``source``
        text, since its overlays are relative to a different base program
        than the current one's; value edits, drags and slider moves keep
        the base.
        """
        state = {"user": program.user_values(),
                 "prelude": [[loc.ident, value] for loc, value
                             in program.prelude_overlays().items()]}
        if program.source != current_source:
            state["source"] = program.source
        return state

    def snapshot(self) -> dict:
        """Serialize the session to a JSON-able dict (see :meth:`restore`).

        The snapshot captures the full interaction state — undo history,
        current program, and any drag in flight — as the original source
        text plus literal-value overlays, so restoring costs one (cacheable)
        parse instead of storing ASTs.  Snapshots are what the serve layer's
        :class:`~repro.serve.manager.SessionManager` keeps for sessions it
        evicts, and what it persists for a warm restart: Prelude location
        idents are the same in every process, so a snapshot whose
        Prelude was modified restores in another.
        """
        current = self._drag_base if self._drag_base is not None \
            else self.program
        drag = None
        if self._drag_base is not None:
            dx, dy = self._drag_offsets or (None, None)
            shape_index, zone_name = self._drag_key
            drag = {"shape": shape_index, "zone": zone_name,
                    "dx": dx, "dy": dy}
        return {
            "version": 2,
            "source": current.source,
            "options": {"heuristic": self.heuristic,
                        "auto_freeze": current.auto_freeze,
                        "prelude_frozen": current.prelude_frozen},
            "history": [self._program_state(p, current.source)
                        for p in self.history],
            "current": self._program_state(current, current.source),
            "drag": drag,
        }

    @classmethod
    def restore(cls, snapshot: dict, *, compile_fn=None,
                budget=None, compiled: bool = True,
                specialize_probe=None) -> "LiveSession":
        """Rebuild a session from a :meth:`snapshot`.

        ``compile_fn(source, **parse_options)`` must return a tuple of the
        parsed base :class:`Program` and an optional recorded evaluation
        of it (an :class:`~repro.lang.incremental.EvalCache`, the seed) —
        the serve layer passes its shared compile cache here; the default
        parses from scratch.  It is called for the main source only: the
        session opens at that base as a new one would, and the current
        overlays run as one value step that replays the seed and its
        compiled drag artifact, if any (:mod:`repro.lang.compile`).  Bases
        from before a structural edit are parsed, never recorded.  The
        restored session is behaviorally identical to the snapshotted one:
        same rendered output, same undo history, and any in-flight drag
        is replayed so the gesture can simply continue.
        """
        options = snapshot["options"]
        # Other keys (older snapshots carry a Prelude switch that was
        # always on) are ignored.
        parse_options = {"auto_freeze": options["auto_freeze"],
                         "prelude_frozen": options["prelude_frozen"]}
        main_source = snapshot["source"]
        if compile_fn is None:
            main, seed = parse_program(main_source, **parse_options), None
        else:
            main, seed = compile_fn(main_source, **parse_options)
        bases = {main_source: main}
        prelude_locs = {loc.ident: loc for loc in
                        prelude_rho0(options["prelude_frozen"])}
        states = list(snapshot["history"]) + [snapshot["current"]]
        sources = [state.get("source", main_source)
                   for state in snapshot["history"]] + [main_source]
        chain: List[Program] = []
        for state, source in zip(states, sources):
            if source not in bases:
                bases[source] = parse_program(source, **parse_options)
            base = bases[source]
            values, locs = state["user"], base.user_locs()
            if len(values) != len(locs):
                raise EditorError("snapshot does not match its source")
            rho = {loc: value for loc, value, old in
                   zip(locs, values, base.user_values()) if value != old}
            for ident, value in state["prelude"]:
                loc = prelude_locs.get(ident)
                if loc is None:
                    raise EditorError(
                        "snapshot references an unknown Prelude location")
                rho[loc] = value
            # Substitute even an empty ρ: every entry is then its own
            # object, whose ``last_change`` is widened below.
            chain.append(base.substitute(rho))
        # ``undo`` bounds the diff to a program's *predecessor* with
        # ``last_change``; after a restore every chain entry is a direct
        # substitution of its base instead, so widen each change to the
        # union with its predecessor's (a conservative superset of the
        # true step-over-step diff).  Consecutive entries from *different*
        # bases (a structural edit happened between them) share no location
        # coordinate system, so the step is pessimized to ``FULL_CHANGE``.
        own_changes = [program.last_change for program in chain]
        for index in range(1, len(chain)):
            chain[index].last_change = (
                own_changes[index].union(own_changes[index - 1])
                if sources[index] == sources[index - 1] else FULL_CHANGE)
        session = cls(program=main, heuristic=options["heuristic"],
                      seed=seed, budget=budget, compiled=compiled,
                      specialize_probe=specialize_probe)
        # The current overlays on the base run as one value step.
        session.pipeline.replace_program(chain.pop())
        if own_changes[-1]:
            session.pipeline.run(own_changes[-1])
        session.history = chain
        drag = snapshot.get("drag")
        if drag is not None:
            session.start_drag(drag["shape"], drag["zone"])
            if drag["dx"] is not None:
                session.drag(drag["dx"], drag["dy"])
        return session

    # -- output -----------------------------------------------------------------------

    def source(self) -> str:
        """Current program text as the user would see it."""
        return self.program.unparse()

    def export_svg(self, *, include_hidden: bool = False) -> str:
        """Export the canvas as SVG text (Appendix C)."""
        return self.pipeline.render(include_hidden=include_hidden)

    # -- introspection -------------------------------------------------------------

    def zone_names(self, shape_index: int) -> List[str]:
        return [analysis.zone.name for analysis in self.assignments.analyses
                if analysis.zone.shape_index == shape_index]

    def active_zone_count(self) -> int:
        return len(self.assignments.chosen)

    def freeze_highlight(self) -> Dict[str, Tuple[Loc, ...]]:
        """Locations grouped by highlight color after the last drag:
        green (updated) and red (solver failed) (§5)."""
        if self._last_result is None:
            return {"green": (), "red": ()}
        green = tuple(outcome.loc for outcome in self._last_result.outcomes
                      if outcome.solved)
        red = tuple(outcome.loc for outcome in self._last_result.outcomes
                    if not outcome.solved)
        return {"green": green, "red": red}
