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

import json
import subprocess
import sys
import threading

import pytest

from repro.cli import main
from repro.core.pipeline import SyncPipeline
from repro.core.run import run_source
from repro.editor.session import LiveSession
from repro.examples import example_source
from repro.lang.errors import (LittleError, LittleRuntimeError,
                               ResourceExhausted)
from repro.lang.eval import (EvalBudget, budget_scope, evaluate, get_budget,
                             get_recorder)
from repro.lang.incremental import record_evaluation
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

#: A corpus program with comparisons (``zeroTo``) and partial operations
#: (``/``, ``sin``) among its guards.
GUARDED = example_source("sine_wave_of_boxes")

#: Run in a fresh interpreter, whose Prelude has not been evaluated yet:
#: two budgeted recordings of the program at ``sys.argv[1]``, printed as
#: JSON in the form of :func:`charges`.
FRESH_PROCESS_CHARGES = """
import json, sys
from repro.lang.eval import EvalBudget, budget_scope
from repro.lang.incremental import record_evaluation
from repro.lang.program import parse_program

source = open(sys.argv[1], encoding="utf-8").read()
runs = []
for _ in range(2):
    budget = EvalBudget()
    with budget_scope(budget):
        _, cache = record_evaluation(parse_program(source))
    runs.append([budget.fuel, budget.size, len(cache.comparisons),
                 len(cache.tostrings), len(cache.num_matches),
                 len(cache.partials)])
print(json.dumps(runs))
"""


#: 61 definitions, each doubling the one before: the rect's ``x`` has a
#: trace of 61 distinct nodes that expands to 2**60 leaves.
DOUBLINGS = "(def a0 1)\n" + "".join(
    f"(def a{n} (+ a{n - 1} a{n - 1}))\n" for n in range(1, 61)) + \
    "(svg [(rect 'red' a60 10 20 30)])\n"

#: A loop adding 1 for 30,000 steps: the rect's ``x`` has a trace that
#: deep.
DEEP_TRACE = ("(defrec acc (\\(n x) (if (= n 0) x (acc (- n 1) (+ x 1))))) "
              "(svg [(rect 'red' (acc 30000 10) 0 5 5)])")

#: 30,000 groups around one rect.
NESTED_GROUPS = ("(defrec nest (\\(k node) (if (= k 0) node "
                 "(nest (- k 1) ['g' [] [node]])))) "
                 "(svg [(nest 30000 (rect 'red' 1 2 3 4))])")


def nested_additions(levels):
    """A program whose brackets nest ``levels`` deep: ``x`` is ``levels``
    nested additions (the ``def`` form itself does not nest)."""
    return ("(def x " + "(+ 1 " * levels + "1" + ")" * levels + ")\n"
            "(svg [(rect 'red' x 0 5 5)])\n")


#: Non-tail recursion with no base case.  With no evaluation budget (the
#: default of ``repro run``, ``check`` and ``serve``), only Python's
#: recursion limit stops it.
UNBOUNDED = ("(defrec f (\\n (+ 1 (f (+ n 1)))))\n"
             "(svg [(rect 'red' (f 0) 0 5 5)])\n")


def polygon(count):
    """A program drawing one polygon of ``count`` points."""
    points = " ".join(f"[{i % 97} {i // 97}]" for i in range(count))
    return f"(svg [(polygon 'red' 'black' 1 [{points}])])"


#: Run in a fresh interpreter: the JSON list of requests in ``sys.argv[1]``
#: through one ``ServeApp``, configured as ``repro serve`` with no options
#: configures it (no evaluation budget), each request without a ``session``
#: sent to the last session opened; prints each answer's status (``ok`` or
#: the error code) and the incident count.
SERVE_REQUESTS = """
import json, sys
from repro.cli import _eval_budget, build_parser
from repro.serve import ServeApp

args = build_parser().parse_args(["serve"])
app = ServeApp(max_sessions=args.max_sessions, shards=args.shards,
               eval_budget=_eval_budget(args.eval_budget))
statuses, session = [], None
for request in json.loads(sys.argv[1]):
    if request["cmd"] != "open":
        request["session"] = session
    answer = app.handle(request)
    session = answer.get("session", session)
    statuses.append("ok" if answer["ok"] else answer["error"]["code"])
print(json.dumps([statuses, app.handle({"cmd": "stats"})["stats"]["incidents"]]))
"""


def serve_in_subprocess(requests, repro_env):
    """``[statuses, incidents]`` from :data:`SERVE_REQUESTS`; a hang fails
    the test when the timeout expires."""
    result = subprocess.run(
        [sys.executable, "-c", SERVE_REQUESTS, json.dumps(requests)],
        capture_output=True, text=True, env=repro_env, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def charges(source):
    """What one budgeted recording of ``source`` costs and records: fuel,
    size, then the comparison, ``toString``, numeric-pattern and partial
    counts."""
    budget = EvalBudget()
    with budget_scope(budget):
        _, cache = record_evaluation(parse_program(source))
    return [budget.fuel, budget.size, len(cache.comparisons),
            len(cache.tostrings), len(cache.num_matches),
            len(cache.partials)]


def on_fresh_thread(fn):
    """``fn()`` on a new thread, which has never installed a budget or a
    recorder; returns its result or raises its exception."""
    outcome = {}

    def body():
        try:
            outcome["result"] = fn()
        except Exception as error:
            outcome["error"] = error

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


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


class TestFreshThread:
    """A thread that never installed a budget or a recorder reads
    ``None`` for both, and meters and records like the main thread."""

    def test_no_budget_and_no_recorder(self):
        assert on_fresh_thread(lambda: (get_budget(), get_recorder())) \
            == (None, None)

    def test_charges_and_records_as_on_main_thread(self):
        assert on_fresh_thread(lambda: charges(GUARDED)) == charges(GUARDED)

    def test_spin_trips_fuel(self):
        def spin():
            with budget_scope(EvalBudget(max_fuel=10_000)):
                evaluate(parse_program(SPIN).ast)

        with pytest.raises(ResourceExhausted) as info:
            on_fresh_thread(spin)
        assert info.value.kind == "fuel"

    def test_nested_scopes_restore_none(self):
        def nested():
            seen = []
            with budget_scope(EvalBudget()) as outer:
                with budget_scope(EvalBudget()) as inner:
                    seen.append(get_budget() is inner)
                seen.append(get_budget() is outer)
            seen.append(get_budget() is None)
            return seen

        assert on_fresh_thread(nested) == [True, True, True]


class TestPreludeOutsideBudget:
    """The Prelude is evaluated once per process, outside whichever
    budget and recording the first program to run has armed."""

    def test_first_run_in_a_process_is_charged_like_the_next(
            self, tmp_path, repro_env):
        # The Prelude is already warm in this process, hence the fresh one.
        path = tmp_path / "guarded.little"
        path.write_text(GUARDED, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-c", FRESH_PROCESS_CHARGES, str(path)],
            capture_output=True, text=True, env=repro_env, timeout=120)
        assert result.returncode == 0, result.stderr
        first, second = json.loads(result.stdout)
        assert first == second == charges(GUARDED)
        assert first[2] and first[5]      # comparisons and partials

    def test_check_passes_at_the_programs_own_fuel(self, tmp_path,
                                                   repro_env):
        path = tmp_path / "guarded.little"
        path.write_text(GUARDED, encoding="utf-8")
        fuel = charges(GUARDED)[0]
        for steps, code in ((fuel, 0), (fuel - 1, 1)):
            result = subprocess.run(
                [sys.executable, "-m", "repro", "check", str(path),
                 "--eval-budget", str(steps)],
                capture_output=True, text=True, env=repro_env, timeout=120)
            assert result.returncode == code, (steps, result.stderr)
        assert "program_limit" in result.stderr


class TestSharedAndDeepOutputs:
    """Trace readers visit each shared node once and never recurse, so a
    program whose traces share or nest without bound opens, drags and
    releases; output nodes nested too deep end in a program error.
    Each case runs in a fresh interpreter with a timeout."""

    def test_doubled_trace_serves(self, repro_env):
        open_fair = {"cmd": "open", "source": DOUBLINGS}
        statuses, incidents = serve_in_subprocess([
            open_fair,
            {"cmd": "drag", "shape": 0, "zone": "INTERIOR",
             "steps": [[3, 2]]},
            {"cmd": "release"},
            {"cmd": "hover", "shape": 0, "zone": "INTERIOR"},
            dict(open_fair, heuristic="biased"),
        ], repro_env)
        assert statuses == ["ok"] * 5 and incidents == 0

    def test_doubled_trace_runs_with_biased_heuristic(self, tmp_path,
                                                      repro_env):
        path = tmp_path / "doublings.little"
        path.write_text(DOUBLINGS, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(path),
             "--heuristic", "biased"],
            capture_output=True, text=True, env=repro_env, timeout=60)
        assert result.returncode == 0, result.stderr

    def test_deep_trace_drags(self, repro_env):
        statuses, incidents = serve_in_subprocess([
            {"cmd": "open", "source": DEEP_TRACE},
            {"cmd": "drag", "shape": 0, "zone": "INTERIOR",
             "steps": [[3, 2]]},
        ], repro_env)
        assert statuses == ["ok", "ok"] and incidents == 0

    def test_nesting_too_deep_is_a_program_error(self, repro_env):
        statuses, incidents = serve_in_subprocess(
            [{"cmd": "open", "source": NESTED_GROUPS}], repro_env)
        assert statuses == ["program_error"] and incidents == 0


class TestDeepPrograms:
    """Nesting and recursion deeper than Python's stack allows end in one
    classified error, in a fresh process as in one that has run programs
    before: the parser sets the recursion limit before its first parse and
    bounds bracket nesting, and ``evaluate()`` reports a ``RecursionError``
    as a runtime error."""

    @staticmethod
    def check(tmp_path, repro_env, source):
        path = tmp_path / "deep.little"
        path.write_text(source, encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "repro", "check", str(path)],
            capture_output=True, text=True, env=repro_env, timeout=120)

    def test_nesting_within_the_bound_checks(self, tmp_path, repro_env):
        result = self.check(tmp_path, repro_env, nested_additions(1999))
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("source, message", [
        (nested_additions(2001), "brackets nest more than 2000 levels deep "
                                 f"(line 1, col {8 + 5 * 2000})"),
        (UNBOUNDED, "program recursed too deeply"),
    ])
    def test_too_deep_ends_in_one_line(self, tmp_path, repro_env, source,
                                       message):
        result = self.check(tmp_path, repro_env, source)
        assert result.returncode == 1
        assert len(result.stderr.splitlines()) == 1
        assert message in result.stderr

    def test_serve_classifies_them(self, repro_env):
        statuses, incidents = serve_in_subprocess([
            {"cmd": "open", "source": nested_additions(2001)},
            {"cmd": "open", "source": UNBOUNDED},
        ], repro_env)
        assert statuses == ["parse_error", "program_error"]
        assert incidents == 0

    def test_nesting_within_the_bound_serves(self, repro_env):
        source = nested_additions(1999)
        statuses, incidents = serve_in_subprocess([
            {"cmd": "open", "source": source},
            {"cmd": "drag", "shape": 0, "zone": "INTERIOR",
             "steps": [[3, 2]]},
            {"cmd": "release"},
            {"cmd": "edit",
             "source": source.replace("x 0 5 5", "x 7 5 5")},
            {"cmd": "undo"},
        ], repro_env)
        assert statuses == ["ok"] * 5 and incidents == 0


class TestLargeShapes:
    """Prepare, which no evaluation budget meters, reads each number of a
    shape's attributes once, so its cost is linear in the shape's size."""

    @staticmethod
    def elements_read(monkeypatch, source):
        """How many elements ``to_pylist`` returns while a pipeline runs
        ``source`` (Run and Prepare)."""
        from repro.lang import values
        original = values.to_pylist
        counted = [0]

        def counting(value):
            items = original(value)
            counted[0] += len(items)
            return items

        pipeline = SyncPipeline(parse_program(source))
        with monkeypatch.context() as patch:
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro.") \
                        and getattr(module, "to_pylist", None) is original:
                    patch.setattr(module, "to_pylist", counting)
            pipeline.run()
        return counted[0]

    def test_prepare_is_linear_in_polygon_points(self, monkeypatch):
        small = self.elements_read(monkeypatch, polygon(500))
        large = self.elements_read(monkeypatch, polygon(1000))
        assert large <= 2 * small and large <= 10 * 1000, (small, large)

    def test_large_polygon_serves(self, repro_env):
        statuses, incidents = serve_in_subprocess([
            {"cmd": "open", "source": polygon(4000)},
            {"cmd": "drag", "shape": 0, "zone": "INTERIOR",
             "steps": [[10, 7]]},
            {"cmd": "release"},
        ], repro_env)
        assert statuses == ["ok"] * 3 and incidents == 0


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
        assert (session.pipeline._eval_cache.plan is not None) \
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
        assert cache.plan is not None
        return session, cache

    def test_rejected_edit_keeps_recording(self):
        session, cache = self.compiled_session()
        before = session.source()
        with pytest.raises(LittleError):
            session.edit_source("(def boom (sqrt (- 0 1)))\n" + before)
        assert session.pipeline._eval_cache is cache
        assert cache.plan is not None
        assert session.source() == before

    def test_rejected_slider_move_keeps_recording(self):
        session, cache = self.compiled_session()
        before, history = session.source(), list(session.history)
        with pytest.raises(LittleError):
            session.set_slider(next(iter(session.sliders)), 0.0)
        assert session.pipeline._eval_cache is cache
        assert cache.plan is not None
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
