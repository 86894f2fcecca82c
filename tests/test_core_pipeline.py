"""Unit tests for the core staged pipeline: ChangeSet recording, per-shape
dependency sets, per-stage caching and the escalation discipline."""

import pytest

from repro.core import EMPTY_CHANGE, FULL_CHANGE, ChangeSet, SyncPipeline
from repro.core.run import run_source
from repro.editor import LiveSession
from repro.examples import example_source
from repro.lang.program import parse_program
from repro.svg import AttrRef

SINE = example_source("sine_wave_of_boxes")

THREE_BOXES = example_source("three_boxes")


def affected_shapes(canvas, locs):
    """Indices of the shapes whose dependency set meets ``locs`` — the
    per-shape test the Trigger stage applies to a value-only change."""
    idents = frozenset(loc.ident for loc in locs)
    return {shape.index for shape in canvas
            if not idents.isdisjoint(shape.dep_locs())}


class TestChangeSet:
    def test_full_and_empty(self):
        assert FULL_CHANGE.structural and bool(FULL_CHANGE)
        assert not EMPTY_CHANGE.structural and not bool(EMPTY_CHANGE)

    def test_union_escalates(self):
        program = parse_program(SINE)
        loc = next(iter(program.user_locs()))
        change = ChangeSet.of([loc])
        assert change.union(FULL_CHANGE) is FULL_CHANGE
        assert FULL_CHANGE.union(change) is FULL_CHANGE
        assert change.union(EMPTY_CHANGE) is change
        assert EMPTY_CHANGE.union(change) is change


class TestProgramChangeRecording:
    def test_fresh_program_is_full(self):
        assert parse_program(SINE).last_change.structural

    def test_substitute_records_changed_locs(self):
        program = parse_program(SINE)
        loc = next(loc for loc in program.user_locs()
                   if loc.display() == "x0")
        changed = program.substitute({loc: program.rho0[loc] + 5.0})
        assert changed.last_change.locs == frozenset({loc})
        assert not changed.last_change.structural

    def test_substitute_drops_noop_entries(self):
        program = parse_program(SINE)
        loc = next(iter(program.user_locs()))
        unchanged = program.substitute({loc: program.rho0[loc]})
        assert unchanged.last_change.locs == frozenset()


class TestCanvasDependencyIndex:
    def test_shared_loc_reaches_every_shape(self):
        pipeline = run_source(SINE)
        program = pipeline.program
        x0 = next(loc for loc in program.user_locs()
                  if loc.display() == "x0")
        # x0 positions every box.
        assert all(x0.ident in shape.dep_locs()
                   for shape in pipeline.canvas)
        assert affected_shapes(pipeline.canvas, [x0]) \
            == set(range(len(pipeline.canvas)))

    def test_rebuilt_canvas_transplants_index(self):
        session = LiveSession(SINE)
        shapes = list(session.canvas)
        deps = [shape.dep_locs() for shape in shapes]
        session.start_drag(0, "INTERIOR")
        session.drag(3.0, 4.0)
        # The drag rebuilt shapes, and each kept its dependency set object.
        assert any(new is not old
                   for new, old in zip(session.canvas, shapes))
        assert all(shape.dep_locs() is dep
                   for shape, dep in zip(session.canvas, deps))
        session.release()

    def test_path_numbers_cached_per_shape(self):
        pipeline = run_source(example_source("color_wheel"))
        shape = next(s for s in pipeline.canvas if s.kind == "path")
        numbers = shape.numbers()
        assert numbers is shape.numbers()
        assert shape.get_num(AttrRef("d[0]", ("d", 0))) is numbers[("d", 0)]


class TestStagedPipeline:
    def test_incremental_release_reuses_assignments(self):
        session = LiveSession(THREE_BOXES)
        assignments = session.assignments
        session.start_drag(0, "INTERIOR")
        session.drag(7.0, 3.0)
        session.release()
        # Value-only gesture: the assignment object survives wholesale.
        assert session.assignments is assignments

    def test_unaffected_shapes_share_trigger_features(self):
        session = LiveSession(example_source("ferris_wheel"))
        before = dict(session.triggers)
        # Pick a zone whose substitution leaves some shape untouched
        # (triggers are pure, so probing them commits nothing).
        base_rho = session.program.rho0
        chosen_key = None
        for key, trigger in sorted(before.items()):
            bindings = trigger(5.0, 3.0).bindings
            changed = [loc for loc, value in bindings.items()
                       if base_rho[loc] != value]
            affected = affected_shapes(session.canvas, changed)
            if changed and len(affected) < len(session.canvas):
                chosen_key = key
                break
        assert chosen_key is not None, \
            "expected a zone with an unaffected shape"
        session.start_drag(*chosen_key)
        result = session.drag(5.0, 3.0)
        session.release()
        affected = affected_shapes(session.canvas, [
            loc for loc, value in result.bindings.items()
            if base_rho[loc] != value])
        shared = [key for key in before if key[0] not in affected]
        assert shared, "expected some shape untouched by the radius drag"
        for key in shared:
            # Rebound, not rebuilt: the pre-read features are shared …
            assert session.triggers[key]._features is before[key]._features
        for key in before:
            if key[0] in affected:
                assert session.triggers[key]._features \
                    is not before[key]._features
        # … and every trigger's ρ is the committed program's substitution.
        for trigger in session.triggers.values():
            assert trigger.rho is session.program.rho0

    def test_guard_flip_escalates_to_full_run(self):
        # Moving sine's n slider changes the box count: the recorded
        # guards flip, the Run stage falls back to a full evaluation, and
        # Prepare must rebuild for the structurally new canvas.
        session = LiveSession(SINE)
        canvas_before = session.canvas
        zones_before = session.active_zone_count()
        (loc, slider), = session.sliders.items()
        session.set_slider(loc, slider.value - 2)
        assert len(session.canvas) != len(canvas_before)
        assert session.active_zone_count() != zones_before

    def test_run_stage_short_circuits_empty_change(self):
        session = LiveSession(THREE_BOXES)
        canvas = session.canvas
        session.start_drag(0, "INTERIOR")
        session.drag(0.0, 0.0)                  # no-op bindings
        assert session.canvas is canvas
        session.release()

    def test_stage_order_enforced(self):
        pipeline = SyncPipeline(parse_program(SINE))
        with pytest.raises(RuntimeError):
            pipeline.assign_stage()
        with pytest.raises(RuntimeError):
            pipeline.canvas_stage()
        with pytest.raises(RuntimeError):
            pipeline.render()

    def test_one_shot_run_path_renders(self):
        pipeline = run_source(SINE)
        assert pipeline.render().startswith("<svg")
        assert pipeline.assignments is None     # prepare not requested
        prepared = run_source(SINE, prepare=True)
        assert prepared.assignments is not None
        assert prepared.triggers


class TestSetSliderNoOp:
    def test_noop_slider_move_skips_history_and_rerun(self):
        session = LiveSession(SINE)
        (loc, slider), = session.sliders.items()
        canvas = session.canvas
        program = session.program
        session.set_slider(loc, slider.value)
        assert session.history == []
        assert session.canvas is canvas
        assert session.program is program

    def test_clamped_to_current_value_is_noop(self):
        session = LiveSession(SINE)
        (loc, slider), = session.sliders.items()
        session.set_slider(loc, slider.hi)      # real move to the cap
        history_len = len(session.history)
        session.set_slider(loc, slider.hi + 50.0)   # clamps back to hi
        assert len(session.history) == history_len

    def test_real_move_still_reruns(self):
        session = LiveSession(SINE)
        (loc, slider), = session.sliders.items()
        session.set_slider(loc, slider.value + 1)
        assert len(session.history) == 1
        assert session.sliders[loc].value == slider.value + 1
