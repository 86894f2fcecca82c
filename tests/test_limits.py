"""Evaluation budgets: fuel / recursion-depth / value-size caps.

The budget layer (:class:`repro.lang.eval.EvalBudget`) turns the three
classic ways a program can take the interpreter down — runaway loops,
unbounded recursion, exponential allocation — into a typed
:class:`~repro.lang.errors.ResourceExhausted` with a one-line message,
raised cooperatively from inside evaluation so the caller's state is
still consistent.  These tests cover the caps themselves, the pipeline
and session wiring (rollback on exhaustion), and the CLI's
``program_limit`` diagnostics (the editor-integration contract).
"""

import pytest

from repro.cli import main
from repro.core.pipeline import SyncPipeline
from repro.core.run import run_source
from repro.editor.session import LiveSession
from repro.lang.errors import (LittleError, LittleRuntimeError,
                               ResourceExhausted)
from repro.lang.eval import EvalBudget, budget_scope, evaluate
from repro.lang.program import parse_program

#: Tail-recursive spin: consumes fuel forever at constant depth/size.
SPIN = ("(defrec spin (\\n (spin (+ n 1))))\n"
        "(svg [(rect 'red' (spin 0) 0 5 5)])")

#: Non-tail recursion: depth grows with n (one Python frame per call).
DEEP = ("(defrec sum (\\n (if (< n 1) 0 (+ n (sum (- n 1))))))\n"
        "(svg [(rect 'red' (sum 100000) 0 5 5)])")

#: Tail-recursive list builder: allocates n cons cells at depth O(1),
#: so the *size* cap trips before fuel or depth can.
BIG = ("(defrec build (\\(n acc) (if (< n 1) acc "
       "(build (- n 1) [n | acc]))))\n"
       "(svg (build 1000000 []))")

GOOD = "(def y 20) (svg [(rect 'red' 10 y 30 40)])"

#: Dragging x below 20 flips the guard to an output that is not an 'svg'
#: node, so the canvas rejects it.
FLIP_TO_RECT = ("(def x 30) (if (< x 20) ['rect' [] []] "
                "(svg [(rect 'red' x 20 30 40)]))")

#: Dragging x below 20 flips the guard to a rect whose 'x' is a string:
#: the canvas accepts it, the release's Prepare rejects it.
PREPARE_REJECTS = ("(def x 30) (svg [(if (< x 20) ['rect' [['x' 'a'] "
                   "['y' 1] ['width' 2] ['height' 3]] []] "
                   "(rect 'red' x 20 30 40))])")

#: ``dead``'s square root feeds neither the output nor a guard; dragging
#: x below 20 makes it raise.
DEAD_SQRT = ("(def x 30) (def dead (sqrt (- x 20))) "
             "(svg [(rect 'red' x 20 30 40)])")

#: A slider whose low end makes the program take a negative square root.
SLIDER_SQRT = "(def r 10{0-20}) (svg [(rect 'red' (sqrt (- r 5)) 20 30 40)])"


class TestEvalBudget:
    def test_fuel_cap_trips_with_kind_and_message(self):
        program = parse_program(SPIN)
        with budget_scope(EvalBudget(max_fuel=10_000)):
            with pytest.raises(ResourceExhausted) as info:
                evaluate(program.ast)
        assert info.value.kind == "fuel"
        assert info.value.limit == 10_000
        assert "\n" not in str(info.value)
        assert "10000 steps (fuel)" in str(info.value)

    def test_depth_cap_trips_before_python_recursion_limit(self):
        program = parse_program(DEEP)
        with budget_scope(EvalBudget(max_depth=500)):
            with pytest.raises(ResourceExhausted) as info:
                evaluate(program.ast)
        assert info.value.kind == "depth"

    def test_size_cap_trips_on_allocation(self):
        program = parse_program(BIG)
        with budget_scope(EvalBudget(max_size=50_000)):
            with pytest.raises(ResourceExhausted) as info:
                evaluate(program.ast)
        assert info.value.kind == "size"

    def test_resource_exhausted_is_a_little_error(self):
        # The serve/CLI layers rely on the subtyping: generic
        # LittleError handlers stay correct, specific handlers can
        # still distinguish program_limit.
        assert issubclass(ResourceExhausted, LittleError)

    def test_defaults_leave_corpus_scale_headroom(self):
        # The heaviest corpus program evaluates in ~5e4 steps; the
        # default caps are orders of magnitude above working programs.
        program = parse_program(GOOD)
        with budget_scope(EvalBudget()):
            evaluate(program.ast)

    def test_budget_scope_restores_previous(self):
        outer = EvalBudget(max_fuel=1_000_000)
        inner = EvalBudget(max_fuel=10)
        from repro.lang.eval import get_budget
        with budget_scope(outer):
            with budget_scope(inner):
                assert get_budget() is inner
            assert get_budget() is outer
        assert get_budget() is None

    def test_clone_does_not_share_counters(self):
        proto = EvalBudget(max_fuel=100)
        proto.fuel = 50
        clone = proto.clone()
        assert clone.max_fuel == 100 and clone.fuel == 0
        clone.fuel = 99
        assert proto.fuel == 50

    def test_no_budget_costs_nothing_and_caps_nothing(self):
        program = parse_program(GOOD)
        evaluate(program.ast)        # no scope armed: unchanged behavior


class TestPipelineBudget:
    def test_pipeline_budget_fails_eval_stage(self):
        with pytest.raises(ResourceExhausted):
            run_source(SPIN, budget=EvalBudget(max_fuel=10_000))

    def test_pipeline_without_budget_unaffected(self):
        pipeline = run_source(GOOD)
        assert len(pipeline.canvas) == 1

    def test_budget_resets_between_runs(self):
        # Each eval_stage call gets the full allowance: N successful
        # runs must not accumulate toward the cap.
        budget = EvalBudget(max_fuel=50_000)
        pipeline = SyncPipeline.from_source(GOOD, budget=budget)
        for _ in range(20):
            pipeline.run()
        assert budget.fuel <= budget.max_fuel


class TestSessionRollback:
    def test_edit_to_runaway_program_rolls_back(self):
        session = LiveSession(GOOD, budget=EvalBudget(max_fuel=50_000))
        before = session.source()
        with pytest.raises(ResourceExhausted):
            session.edit_source(SPIN)
        assert session.source() == before
        assert len(session.canvas) == 1

    def test_drag_exhaustion_keeps_session_alive(self):
        # Exhaustion mid-gesture restores the pre-step program and the
        # session still answers (the serve layer's rollback contract).
        # The program carries a comparison guard so the incremental
        # replay has a nonzero fuel charge to trip on.
        guarded = ("(def y 20)\n"
                   "(svg [(rect (if (< y 100) 'red' 'blue') 10 y 30 40)])")
        session = LiveSession(guarded, budget=EvalBudget(max_fuel=50_000))
        key = next(iter(session.triggers))
        session.start_drag(*key)
        session.drag(5.0, 5.0)
        before = session.source()
        session.pipeline.budget.max_fuel = 0      # next replay charge trips
        with pytest.raises(ResourceExhausted):
            session.drag(6.0, 6.0)
        session.pipeline.budget.max_fuel = 50_000
        assert session.source() == before
        session.release()
        assert len(session.canvas) == 1

    def test_canvas_rejected_guard_flip_keeps_session(self):
        # The guard flip makes the program output a bare 'rect', which
        # the canvas rejects.  The failed step must not leave its
        # recording behind for the next step to replay.
        session = LiveSession(FLIP_TO_RECT)
        session.start_drag(0, "INTERIOR")
        before = session.source()
        for dx in (-15.0, -12.0):
            with pytest.raises(LittleError):
                session.drag(dx, 0.0)
            assert session.source() == before
        session.drag(5.0, 0.0)
        session.release()
        assert session.source().startswith("(def x 35)")

    def test_prepare_rejected_release_keeps_gesture(self):
        session = LiveSession(PREPARE_REJECTS)
        session.start_drag(0, "INTERIOR")
        session.drag(-15.0, 0.0)
        with pytest.raises(LittleError):
            session.release()
        assert session.dragging == (0, "INTERIOR")
        assert session.history == []
        session.drag(5.0, 0.0)
        session.release()
        assert session.dragging is None
        session.undo()
        assert session.source().startswith("(def x 30)")

    @pytest.mark.parametrize("compiled", [True, False])
    def test_dead_failing_arithmetic_fails_the_step(self, compiled):
        # Both replay tiers must fail the step a from-scratch run of its
        # source would fail, even where the failing value is dead.
        session = LiveSession(DEAD_SQRT, compiled=compiled)
        session.start_drag(0, "INTERIOR")
        session.drag(-5.0, 0.0)
        assert (session.pipeline._eval_cache.compiled is not None) \
            == compiled                     # the next step's tier
        before = session.source()
        with pytest.raises(LittleRuntimeError, match="sqrt"):
            session.drag(-15.0, 0.0)
        assert session.source() == before
        session.release()
        assert session.source().startswith("(def x 25)")
        svg = run_source(session.source()).render()
        assert session.export_svg() == svg
        assert LiveSession.restore(session.snapshot()).export_svg() == svg

    @staticmethod
    def compiled_session():
        session = LiveSession(SLIDER_SQRT)
        session.drag_zone(0, "INTERIOR", 3.0, 2.0)
        cache = session.pipeline._eval_cache
        assert cache.compiled is not None
        return session, cache

    def test_rejected_edit_keeps_recording(self):
        session, cache = self.compiled_session()
        before = session.source()
        with pytest.raises(LittleError):
            session.edit_source("(def boom (sqrt (- 0 1)))\n" + before)
        assert session.pipeline._eval_cache is cache
        assert cache.compiled is not None
        assert session.source() == before

    def test_rejected_slider_move_keeps_recording(self):
        session, cache = self.compiled_session()
        before, history = session.source(), list(session.history)
        with pytest.raises(LittleError):
            session.set_slider(next(iter(session.sliders)), 0.0)
        assert session.pipeline._eval_cache is cache
        assert cache.compiled is not None
        assert session.source() == before
        assert session.history == history


class TestCliProgramLimit:
    """Satellite: ``repro check`` / ``repro run`` on adversarial
    programs exit nonzero with a one-line ``program_limit`` diagnostic
    instead of hanging."""

    @pytest.fixture
    def spin_file(self, tmp_path):
        path = tmp_path / "spin.little"
        path.write_text(SPIN, encoding="utf-8")
        return path

    @pytest.fixture
    def big_file(self, tmp_path):
        path = tmp_path / "big.little"
        path.write_text(BIG, encoding="utf-8")
        return path

    def test_check_infinite_recursion_one_line(self, spin_file, capsys):
        assert main(["check", str(spin_file),
                     "--eval-budget", "10000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"repro check: {spin_file}: program_limit:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_run_infinite_recursion_one_line(self, spin_file, capsys):
        assert main(["run", str(spin_file), "--eval-budget", "10000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"repro run: {spin_file}: program_limit:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_check_exponential_allocation_one_line(self, big_file,
                                                   capsys):
        assert main(["check", str(big_file),
                     "--eval-budget", "10000000"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"repro check: {big_file}: program_limit:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_check_budget_zero_is_unlimited(self, tmp_path, capsys):
        path = tmp_path / "good.little"
        path.write_text(GOOD, encoding="utf-8")
        assert main(["check", str(path), "--eval-budget", "0"]) == 0
        assert "ok (1 shapes" in capsys.readouterr().out

    def test_check_good_program_under_budget_ok(self, tmp_path, capsys):
        path = tmp_path / "good.little"
        path.write_text(GOOD, encoding="utf-8")
        assert main(["check", str(path), "--eval-budget", "100000"]) == 0
        assert "ok (1 shapes" in capsys.readouterr().out
