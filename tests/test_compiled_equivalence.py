"""Differential equivalence: the compiled drag path is indistinguishable
from the interpreted one — corpus-wide, at every step.

The trace compiler (:mod:`repro.lang.compile`) is an *optimization* of
the guarded replay, never a second semantics.  These tests run two
sessions of the same parsed program in lockstep — one pinned to the
interpreter, one to the compiled artifact — through randomized gestures,
slider moves, value edits and undo, asserting byte-identical SVG, trace
keys, trigger/zone structure, hover data and source text after **every**
step; plus targeted cases for each escalation rule (guard flip, compile
failure, structural invalidation, injected specialization faults) and
for the artifact's snapshot/seed lifecycle.

Sharing one parsed :class:`~repro.lang.program.Program` between the two
sessions is what makes the signatures comparable (location idents are
assigned at parse time) — and is safe: programs are immutable under
substitution, and each session records its own :class:`EvalCache`.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.lang.compile as compile_module
from repro.editor import LiveSession
from repro.examples import example_names, example_source
from repro.lang import parse_program
from repro.lang.compile import CompileUnsupported, ensure_compiled, specialize
from repro.lang.errors import LittleError, ResourceExhausted
from repro.lang.eval import EvalBudget
from repro.lang.incremental import record_evaluation
from repro.serve.faults import FaultPlan, InjectedFault, fail_point
from repro.trace.trace import trace_key

#: ``dead``'s square root feeds neither the output nor a guard; x below
#: 20 makes it raise, so a from-scratch run of that state fails.
DEAD_SQRT = ("(def x 30) (def dead (sqrt (- x 20))) "
             "(svg [(rect 'red' x 20 30 40)])")

#: Gesture shape mirroring tests/test_incremental_prepare.py.
MAX_STEPS = 4


def make_pair(source):
    """Two sessions of one parsed program: interpreter vs compiled."""
    base = parse_program(source)
    interp = LiveSession(program=base, compiled=False)
    compiled = LiveSession(program=base, compiled=True)
    return interp, compiled


def signature(session):
    """Everything the user can observe, as comparable values."""
    canvas = session.canvas
    hover = tuple(
        (key,) + tuple(getattr(session.hover(*key), field)
                       for field in ("active", "caption", "selected",
                                     "unselected"))
        for key in sorted(session.assignments.chosen))
    return (
        session.export_svg(include_hidden=True),
        tuple(trace_key(trace) for trace in canvas.all_numeric_traces()),
        tuple(sorted(session.triggers)),
        tuple(sorted((loc.ident, slider.lo, slider.hi, slider.value)
                     for loc, slider in session.sliders.items())),
        hover,
        session.source(),
    )


def assert_lockstep(interp, compiled):
    assert signature(interp) == signature(compiled)


def apply_both(interp, compiled, action):
    """Run one action on both sessions; they must fail identically or
    succeed identically (state compared via :func:`signature`)."""
    outcomes = []
    for session in (interp, compiled):
        try:
            action(session)
            outcomes.append(("ok",))
        except LittleError as error:
            outcomes.append(("err", type(error).__name__, str(error)))
    assert outcomes[0] == outcomes[1]
    assert_lockstep(interp, compiled)


def drive(source, rng, gestures=2):
    """One seeded lockstep scenario: gestures (checked per step), a
    slider move, a value edit, and an undo."""
    interp, compiled = make_pair(source)
    assert_lockstep(interp, compiled)
    for _ in range(gestures):
        keys = sorted(interp.triggers)
        if not keys:
            break
        key = keys[rng.randrange(len(keys))]
        apply_both(interp, compiled, lambda s: s.start_drag(*key))
        for _ in range(rng.randint(2, MAX_STEPS)):
            dx = rng.uniform(-60.0, 60.0)
            dy = rng.uniform(-60.0, 60.0)
            apply_both(interp, compiled, lambda s: s.drag(dx, dy))
        apply_both(interp, compiled, lambda s: s.release())
    sliders = sorted(interp.sliders, key=lambda loc: loc.ident)
    if sliders:
        loc = sliders[rng.randrange(len(sliders))]
        slider = interp.sliders[loc]
        value = rng.uniform(slider.lo, slider.hi)
        apply_both(interp, compiled, lambda s: s.set_slider(loc, value))
    # A value-only source edit: bump one unfrozen literal in the text.
    unfrozen = [loc for loc in interp.program.user_locs() if not loc.frozen]
    if unfrozen:
        loc = unfrozen[rng.randrange(len(unfrozen))]
        moved = interp.program.substitute(
            {loc: interp.program.rho0[loc] + rng.uniform(1.0, 9.0)})
        text = moved.unparse()
        apply_both(interp, compiled, lambda s: s.edit_source(text))
    if interp.history:
        assert len(interp.history) == len(compiled.history)
        apply_both(interp, compiled, lambda s: s.undo())
    return interp, compiled


# ---------------------------------------------------------------------------
# The headline harness: every corpus example, in lockstep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", example_names())
def test_corpus_lockstep(name):
    drive(example_source(name), random.Random(f"compiled-eq-{name}"))


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       name=st.sampled_from(["sine_wave_of_boxes", "three_boxes",
                             "ferris_wheel", "n_boxes_slider"]))
def test_property_lockstep(seed, name):
    drive(example_source(name), random.Random(seed), gestures=1)


# ---------------------------------------------------------------------------
# Escalation rules
# ---------------------------------------------------------------------------

def test_guard_flip_falls_back_and_respecializes():
    """A change that flips a recorded guard makes the artifact answer
    None, the interpreter re-records, and the *new* recording
    re-specializes once an interpreted replay of it holds."""
    session = LiveSession(example_source("sine_wave_of_boxes"),
                          compiled=True)
    key = sorted(session.triggers)[0]
    session.start_drag(*key)
    session.drag(7.0, 3.0)          # guards hold: artifact built
    first_cache = session.pipeline._eval_cache
    assert first_cache.compiled is not None
    session.release()
    # Moving the box-count slider flips range's comparison guards.
    (n_loc, slider), = session.sliders.items()
    session.set_slider(n_loc, slider.value - 4.0)
    second_cache = session.pipeline._eval_cache
    assert second_cache is not first_cache      # full re-record happened
    assert second_cache.compiled is None        # not yet re-specialized
    key = sorted(session.triggers)[0]
    session.start_drag(*key)
    session.drag(5.0, 5.0)          # held replay specializes the new cache
    assert session.pipeline._eval_cache.compiled is not None
    session.release()
    fresh = LiveSession(session.source(), compiled=False)
    assert fresh.export_svg(include_hidden=True) == \
        session.export_svg(include_hidden=True)


def test_compile_failure_pins_interpreter(monkeypatch):
    """A failed specialization marks the recording and is never retried;
    the drag keeps working through the interpreter, byte-identically."""
    calls = []

    def exploding(cache):
        calls.append(cache)
        raise CompileUnsupported("injected")

    monkeypatch.setattr(compile_module, "specialize", exploding)
    source = example_source("three_boxes")
    interp, compiled = make_pair(source)
    key = sorted(interp.triggers)[0]
    for session in (interp, compiled):
        session.start_drag(*key)
    for step in range(3):
        for session in (interp, compiled):
            session.drag(5.0 * (step + 1), 2.0)
        assert_lockstep(interp, compiled)
    cache = compiled.pipeline._eval_cache
    assert cache.compile_failed and cache.compiled is None
    assert len(calls) == 1          # fail once, never retried
    for session in (interp, compiled):
        session.release()
    assert_lockstep(interp, compiled)


def test_specialize_fault_injection_degrades_gracefully():
    """An armed ``compile.specialize`` fault point (the serve layer's
    probe contract) aborts specialization without ever changing an
    answer."""
    plan = FaultPlan("compile.specialize:1")
    events = []

    def probe(event):
        events.append(event)
        if event == "attempt":
            fail_point(plan, "compile.specialize")

    source = example_source("sine_wave_of_boxes")
    base = parse_program(source)
    interp = LiveSession(program=base, compiled=False)
    compiled = LiveSession(program=base, compiled=True,
                           specialize_probe=probe)
    key = sorted(interp.triggers)[0]
    for session in (interp, compiled):
        session.start_drag(*key)
    for session in (interp, compiled):
        session.drag(11.0, -7.0)
    assert_lockstep(interp, compiled)
    for session in (interp, compiled):
        session.release()
    assert_lockstep(interp, compiled)
    assert plan.counts() == {"compile.specialize": 1}
    assert events == ["attempt", "failed"]
    assert compiled.pipeline._eval_cache.compile_failed


def test_structural_edit_invalidates_artifact():
    session = LiveSession(example_source("three_boxes"), compiled=True)
    key = sorted(session.triggers)[0]
    session.start_drag(*key)
    session.drag(9.0, 3.0)
    session.release()
    old_cache = session.pipeline._eval_cache
    assert old_cache.compiled is not None
    session.edit_source(session.source() +
                        "\n; structurally different program")
    # Comment-only text is IDENTITY; force a real structural edit too.
    session.edit_source(
        "(def [x0 y0 w h sep] [40 28 60 130 110])\n"
        "(def boxi (\\i (let xi (+ x0 (mult i sep))"
        " (rect 'lightblue' xi y0 w h))))\n"
        "(svg (append (map boxi (zeroTo 3!)) [(circle 'red' 300 300 20)]))")
    new_cache = session.pipeline._eval_cache
    assert new_cache is not old_cache and new_cache.compiled is None
    key = sorted(session.triggers)[0]
    session.start_drag(*key)
    session.drag(4.0, 4.0)
    session.release()
    fresh = LiveSession(session.source(), compiled=False)
    assert fresh.export_svg(include_hidden=True) == \
        session.export_svg(include_hidden=True)


def test_budget_exhaustion_parity():
    """Both replay paths charge the same coarse per-guard fuel and both
    surface ResourceExhausted — never a silent fallback."""
    source = example_source("sine_wave_of_boxes")
    base = parse_program(source)
    probe = LiveSession(program=base, compiled=False)
    key = sorted(probe.triggers)[0]
    for compiled in (False, True):
        session = LiveSession(program=base, compiled=compiled)
        session.start_drag(*key)
        # Tighten only now: the budget resets per pipeline run, so the
        # allowance applies to the drag step, not the initial record.
        session.pipeline.budget = EvalBudget(max_fuel=1)
        with pytest.raises(ResourceExhausted):
            session.drag(5.0, 5.0)


# ---------------------------------------------------------------------------
# Artifact lifecycle across snapshot / seed
# ---------------------------------------------------------------------------

def test_snapshot_carried_artifact_skips_respecializing():
    source = example_source("three_boxes")
    program = parse_program(source)
    _, cache = record_evaluation(program)
    artifact = ensure_compiled(cache)
    assert artifact is not None

    session = LiveSession(program=program, compiled=True, seed=cache)
    assert session.pipeline._eval_cache is cache
    snapshot = session.snapshot()

    def compile_fn(text, **parse_options):
        assert text == source
        return program, cache

    restored = LiveSession.restore(snapshot, compile_fn=compile_fn,
                                   compiled=True)
    # The shared cache — artifact included — survived the round trip:
    # rehydration under LRU pressure re-specializes nothing.
    assert restored.pipeline._eval_cache is cache
    assert cache.compiled is artifact
    key = sorted(restored.triggers)[0]
    restored.start_drag(*key)
    restored.drag(6.0, 2.0)
    restored.release()
    fresh = LiveSession(restored.source(), compiled=False)
    assert fresh.export_svg(include_hidden=True) == \
        restored.export_svg(include_hidden=True)


def test_artifact_shared_across_sessions_compiles_once(monkeypatch):
    """N sessions adopting one seed cache specialize it exactly once."""
    calls = []
    real = compile_module.specialize

    def counting(cache):
        calls.append(cache)
        return real(cache)

    monkeypatch.setattr(compile_module, "specialize", counting)
    source = example_source("three_boxes")
    program = parse_program(source)
    _, cache = record_evaluation(program)
    sessions = [LiveSession(program=program, compiled=True, seed=cache)
                for _ in range(3)]
    for session in sessions:
        key = sorted(session.triggers)[0]
        session.start_drag(*key)
        session.drag(3.0, 1.0)
        session.release()
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# When a recording is specialized
# ---------------------------------------------------------------------------

def test_pipeline_pin_beats_knob():
    """A session pinned with ``compiled=False`` never specializes or
    consults an artifact: it is the interpreted reference."""
    session = LiveSession(example_source("three_boxes"), compiled=False)
    key = sorted(session.triggers)[0]
    session.start_drag(*key)
    session.drag(5.0, 5.0)
    session.release()
    assert session.pipeline._eval_cache.compiled is None


@pytest.mark.parametrize("name", ["color_picker", "sliders"])
def test_flip_heavy_programs_rarely_specialize(name):
    """Programs whose guards flip on most steps (every flip re-records)
    specialize only recordings an interpreted replay has held, not one
    per flip; each step still matches the interpreted reference."""
    events = []
    base = parse_program(example_source(name))
    compiled = LiveSession(program=base, specialize_probe=events.append)
    interp = LiveSession(program=base, compiled=False)
    steps = 0
    for key in sorted(compiled.triggers)[:10]:
        for session in (interp, compiled):
            session.start_drag(*key)
        for step in range(30):
            dx, dy = float(step % 20), float((step * 3) % 11)
            for session in (interp, compiled):
                session.drag(dx, dy)
            assert compiled.export_svg(include_hidden=True) == \
                interp.export_svg(include_hidden=True)
            steps += 1
        for session in (interp, compiled):
            session.release()
    specializations = events.count("compiled")
    assert steps >= 90
    assert specializations <= steps // 10, (specializations, steps)


def test_artifact_answers_match_interpreter_verdicts():
    """Direct unit check: replay and reevaluate agree verdict-for-verdict
    on held guards, flipped guards, and a missing location."""
    from repro.lang.incremental import reevaluate

    program = parse_program(example_source("sine_wave_of_boxes"))
    _, cache = record_evaluation(program)
    artifact = specialize(cache)
    assert artifact.statements > 0

    loc = next(l for l in program.rho0 if l.display() == "x0")
    moved = program.substitute({loc: program.rho0[loc] + 13.0})
    compiled_out = artifact.replay(moved.rho0)
    interp_out = reevaluate(cache, moved.rho0)
    assert compiled_out is not None and interp_out is not None
    from repro.svg import Canvas, render_canvas
    assert render_canvas(Canvas.from_value(compiled_out).root,
                         include_hidden=True) == \
        render_canvas(Canvas.from_value(interp_out).root,
                      include_hidden=True)

    n = next(l for l in program.rho0 if l.display() == "n")
    flipped = program.substitute({n: 5.0})
    assert artifact.replay(flipped.rho0) is None
    assert reevaluate(cache, flipped.rho0) is None

    partial = {l: value for l, value in program.rho0.items() if l is not loc}
    assert artifact.replay(partial) is None
    assert reevaluate(cache, partial) is None

    # Failing arithmetic whose value is dead still escalates.
    program = parse_program(DEAD_SQRT)
    _, cache = record_evaluation(program)
    artifact = specialize(cache)
    x = program.user_locs()[0]
    held = program.substitute({x: 25.0}).rho0
    assert artifact.replay(held) is not None
    assert reevaluate(cache, held) is not None
    failing = program.substitute({x: 15.0}).rho0
    assert artifact.replay(failing) is None
    assert reevaluate(cache, failing) is None
