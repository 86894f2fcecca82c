"""Unit tests for the core staged pipeline: ChangeSet recording, the
incremental canvas rebuild, per-stage caching and the escalation
discipline."""

import pytest

from repro.core import EMPTY_CHANGE, FULL_CHANGE, ChangeSet, SyncPipeline
from repro.core.run import run_source
from repro.editor import LiveSession
from repro.examples import example_source
from repro.lang.program import parse_program
from repro.svg import AttrRef

SINE = example_source("sine_wave_of_boxes")

THREE_BOXES = example_source("three_boxes")

TWO_RECTS_AND_A_GROUP = """(def red_x 10) (def blue_x 200)
(svg [(rect 'red' red_x 20 30 40)
      ['g' [] [(rect 'blue' blue_x 60 30 40) (circle 'green' 50 150 9)]]])"""


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
    def test_rebuilt_canvas_keeps_unmoved_shapes(self):
        session = LiveSession(TWO_RECTS_AND_A_GROUP)
        shapes = list(session.canvas)
        tables = [shape.numbers() for shape in shapes]
        session.start_drag(0, "INTERIOR")
        session.drag(3.0, 4.0)
        canvas = session.canvas
        assert [shape.index for shape in canvas] == [0, 1, 2]
        # The drag moved the red rect only: it is wrapped afresh …
        assert canvas[0] is not shapes[0]
        assert canvas[0].simple_num("x").value == 13.0
        # … and the blue rect and the grouped circle keep their shapes,
        # number tables included.
        for index in (1, 2):
            assert canvas[index] is shapes[index]
            assert canvas[index].numbers() is tables[index]
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

    def test_release_rebuilds_every_trigger(self):
        session = LiveSession(TWO_RECTS_AND_A_GROUP)
        before = dict(session.triggers)
        session.start_drag(0, "INTERIOR")
        session.drag(5.0, 3.0)
        session.release()
        assert set(session.triggers) == set(before)
        for key, trigger in session.triggers.items():
            # Built afresh under the committed program's substitution, on
            # the current canvas's shape …
            assert trigger is not before[key]
            assert trigger.rho is session.program.rho0
            assert trigger.shape is session.canvas[key[0]]
            # … reading the same features where the drag moved nothing.
            if key[0] != 0:
                assert trigger._features == before[key]._features

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
