"""Tests for the incremental live-sync fast paths: indexed substitution,
cached prelude evaluation, and guarded trace-driven re-evaluation.

The contract throughout: the fast paths must be *observationally
identical* to the from-scratch ("naive") pipeline — same values, same
traces, same rendered SVG.
"""

import pytest

from repro.editor import LiveSession
from repro.examples import example_names, example_source, load_example
from repro.lang import parse_program, value_equal
from repro.lang.ast import iter_numbers
from repro.lang.incremental import record_evaluation, reevaluate
from repro.lang.parser import collect_rho0
from repro.lang.prelude import prelude_env
from repro.svg import Canvas, render_canvas
from repro.trace.trace import trace_key

#: A representative slice of the corpus for the expensive cross-checks.
SAMPLED = ["sine_wave_of_boxes", "three_boxes", "ferris_wheel",
           "chicago_flag", "color_wheel", "tessellation", "fractal_tree",
           "hilbert_curve", "tile_pattern", "us13_flag"]


def perturbation(program, delta=7.0):
    """A drag-like substitution: bump the first unfrozen user literal."""
    for loc in program.user_locs():
        if not loc.frozen:
            return {loc: program.rho0[loc] + delta}
    return {}


def traces_of(value):
    canvas = Canvas.from_value(value)
    return [trace_key(trace) for trace in canvas.all_numeric_traces()]


class TestIndexedSubstitution:
    def test_rho0_consistent_with_from_scratch_walk(self):
        for name in SAMPLED:
            program = load_example(name)
            rho = perturbation(program)
            if not rho:
                continue
            updated = program.substitute(rho)
            assert updated.rho0 == collect_rho0(updated.ast), name

    def test_chained_substitutions_keep_rho0_consistent(self, sine_program):
        program = sine_program
        for step in range(4):
            rho = perturbation(program, delta=float(step + 1))
            program = program.substitute(rho)
        assert program.rho0 == collect_rho0(program.ast)

    def test_index_tracks_substituted_literals(self, sine_program):
        rho = perturbation(sine_program)
        updated = sine_program.substitute(rho)
        index = updated._index()
        assert set(index) == {num.loc
                              for num in iter_numbers(updated.user_ast)}
        for loc, value in rho.items():
            assert index[loc].value == value

    def test_no_op_entry_keeps_the_literal_in_rho0(self):
        """-0.0 == 0.0, so the entry is a no-op: the text and the change
        set keep the literal, and so must ρ0, which the replays compare
        by bits."""
        program = parse_program("(def z 0) (svg [(rect 'red' z 20 30 40)])")
        z = program.user_locs()[0]
        updated = program.substitute({z: -0.0})
        assert not updated.last_change
        assert updated.rho0[z] is program.rho0[z]

    def test_unknown_locations_are_dropped(self, sine_program):
        from repro.lang.ast import Loc
        ghost = Loc(987654321)
        updated = sine_program.substitute({ghost: 1.0})
        assert ghost not in updated.rho0
        assert updated.rho0 == collect_rho0(updated.ast)

    def test_prelude_sharing_preserved(self, sine_program):
        rho = perturbation(sine_program)
        updated = sine_program.substitute(rho)
        # The outer Prelude binding (and hence the whole spine's bound
        # expressions) are the shared cached objects.
        assert updated.ast.bound is sine_program.ast.bound
        prelude_locs = {loc for loc in updated.rho0 if loc.in_prelude}
        assert prelude_locs == {loc for loc in sine_program.rho0
                                if loc.in_prelude}

    def test_fast_path_output_identical_to_naive(self):
        for name in SAMPLED:
            program = load_example(name)
            rho = perturbation(program)
            if not rho:
                continue
            updated = program.substitute(rho)
            fast = updated.evaluate()
            naive = updated.evaluate(naive=True)
            assert value_equal(fast, naive), name
            assert traces_of(fast) == traces_of(naive), name
            assert render_canvas(Canvas.from_value(fast).root,
                                 include_hidden=True) == \
                render_canvas(Canvas.from_value(naive).root,
                              include_hidden=True), name


class TestCachedPreludeEvaluation:
    def test_prelude_env_cached_per_mode(self):
        assert prelude_env(True) is prelude_env(True)
        assert prelude_env(False) is prelude_env(False)
        assert prelude_env(True) is not prelude_env(False)

    def test_evaluate_matches_naive_spine_evaluation(self):
        program = parse_program("(sum (map (\\x (* x x)) (zeroTo 5!)))")
        assert program.evaluate().value == program.evaluate(naive=True).value

    def test_prelude_substitution_falls_back(self):
        # Substituting a Prelude literal must leave the shared caches
        # untouched and still evaluate correctly via the full spine.
        program = parse_program("(sum (zeroTo 4!))", prelude_frozen=False)
        prelude_loc = next(loc for loc in program.rho0 if loc.in_prelude
                           and program.rho0[loc] == 1.0)
        updated = program.substitute({prelude_loc: 2.0})
        assert updated._prelude_modified
        # The shared cache still evaluates the pristine Prelude.
        pristine = parse_program("(sum (zeroTo 4!))", prelude_frozen=False)
        assert pristine.evaluate().value == 6.0


class TestGuardedReevaluation:
    def test_reevaluate_identical_to_full_eval(self):
        for name in SAMPLED:
            program = load_example(name)
            _, cache = record_evaluation(program)
            rho = perturbation(program)
            if not rho:
                continue
            updated = program.substitute(rho)
            incremental = reevaluate(cache, updated.rho0)
            if incremental is None:       # structure changed: fallback path
                continue
            full = updated.evaluate(naive=True)
            assert value_equal(incremental, full), name
            assert traces_of(incremental) == traces_of(full), name
            assert render_canvas(Canvas.from_value(incremental).root,
                                 include_hidden=True) == \
                render_canvas(Canvas.from_value(full).root,
                              include_hidden=True), name

    def test_structure_change_detected(self, sine_program):
        _, cache = record_evaluation(sine_program)
        n = next(loc for loc in sine_program.rho0
                 if loc.display() == "n")
        updated = sine_program.substitute({n: 5.0})
        # Changing the box count flips range's comparisons: guard trips.
        assert reevaluate(cache, updated.rho0) is None

    def test_missing_location_detected(self, sine_program):
        _, cache = record_evaluation(sine_program)
        rho = {loc: value for loc, value in sine_program.rho0.items()
               if loc.display() != "x0"}
        assert reevaluate(cache, rho) is None

    def test_session_drag_matches_from_scratch_session(self):
        """End to end: a live-synced drag equals re-parsing the updated
        source and evaluating from scratch."""
        for name in ("sine_wave_of_boxes", "three_boxes", "ferris_wheel"):
            session = LiveSession(example_source(name))
            key = next(iter(session.triggers))
            session.start_drag(*key)
            session.drag(9.0, 4.0)
            session.drag(17.0, -6.0)
            live_svg = session.export_svg(include_hidden=True)
            fresh = LiveSession(session.source())
            assert fresh.export_svg(include_hidden=True) == live_svg, name
            session.release()

    def test_guard_flip_falls_back_to_full_eval(self):
        """Dragging a slider ball past its end crosses the clamp: the
        incremental path must bail out and the full path take over."""
        session = LiveSession(
            "(def [n shapes] (numSlider 100! 300! 50! 0! 10! 'n = ' 4)) "
            "(svg (append shapes [(circle 'red' 200 200 (+ 20! n))]))")
        balls = [shape for shape in session.canvas.shapes_of_kind("circle")
                 if shape.hidden and shape.simple_num("r").value == 10.0]
        session.drag_zone(balls[-1].index, "INTERIOR", 500.0, 0.0)
        circle = session.canvas.visible_shapes()[0]
        assert circle.simple_num("r").value == 30.0
        fresh = LiveSession(session.source())
        assert fresh.export_svg(include_hidden=True) == \
            session.export_svg(include_hidden=True)
