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
for the artifact's snapshot/seed lifecycle; and, recording by recording,
the replay contract itself: the same nodes shared with the recording and
the same number bits as ``reevaluate``, from artifacts of bounded size
that compute each distinct right-hand side and check each distinct guard
once — for the whole recording and for the plan of each moved set, over
the examples and the ingested SVG corpus the client benchmark drags.

Sharing one parsed :class:`~repro.lang.program.Program` between the two
sessions is what makes the signatures comparable (location idents are
assigned at parse time) — and is safe: programs are immutable under
substitution, and each session records its own :class:`EvalCache`.
"""

import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.lang.compile as compile_module
from repro.bench.specialization import first_zone_rho, same_replay
from repro.core import SyncPipeline
from repro.editor import LiveSession
from repro.examples import example_names, example_source
from repro.lang import parse_program
from repro.lang.compile import CompileUnsupported, ensure_compiled, specialize
from repro.lang.errors import LittleError, ResourceExhausted
from repro.lang.eval import EvalBudget, budget_scope
from repro.lang.incremental import record_evaluation, reevaluate
from repro.lang.values import VCons, VNum
from repro.serve.faults import FaultPlan, InjectedFault, fail_point
from repro.svg.ingest import ingest_text
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
    assert first_cache.plan is not None
    session.release()
    # Moving the box-count slider flips range's comparison guards.
    (n_loc, slider), = session.sliders.items()
    session.set_slider(n_loc, slider.value - 4.0)
    second_cache = session.pipeline._eval_cache
    assert second_cache is not first_cache      # full re-record happened
    assert second_cache.plan is None            # not yet re-specialized
    key = sorted(session.triggers)[0]
    session.start_drag(*key)
    session.drag(5.0, 5.0)          # held replay specializes the new cache
    assert session.pipeline._eval_cache.plan is not None
    session.release()
    fresh = LiveSession(session.source(), compiled=False)
    assert fresh.export_svg(include_hidden=True) == \
        session.export_svg(include_hidden=True)


def test_compile_failure_pins_interpreter(monkeypatch):
    """A failed specialization marks the recording and is never retried;
    the drag keeps working through the interpreter, byte-identically."""
    calls = []

    def exploding(cache, moved=None):
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
    assert cache.compile_failed and cache.plan is None
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
    assert old_cache.plan is not None
    session.edit_source(session.source() +
                        "\n; structurally different program")
    # Comment-only text is IDENTITY; force a real structural edit too.
    session.edit_source(
        "(def [x0 y0 w h sep] [40 28 60 130 110])\n"
        "(def boxi (\\i (let xi (+ x0 (mult i sep))"
        " (rect 'lightblue' xi y0 w h))))\n"
        "(svg (append (map boxi (zeroTo 3!)) [(circle 'red' 300 300 20)]))")
    new_cache = session.pipeline._eval_cache
    assert new_cache is not old_cache and new_cache.plan is None
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
    assert cache.plan is artifact
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

    def counting(cache, moved=None):
        calls.append(cache)
        return real(cache, moved)

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
    assert session.pipeline._eval_cache.plan is None


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


# ---------------------------------------------------------------------------
# The replay contract, node by node: sharing, number bits, size
# ---------------------------------------------------------------------------

#: The SVG documents the client benchmark ingests and drags alongside the
#: examples, named as its corpus names them.
SVG_CORPUS = {f"svg:{path.name}": path for path in
              sorted((Path(__file__).parent / "svg_corpus").glob("*.svg"))}

#: Every program the replay-contract tests replay.
REPLAYED = list(example_names()) + list(SVG_CORPUS)


def recorded(source):
    """A program's recording with its whole-recording specialization (or
    the exception that refused it)."""
    program = parse_program(source)
    _, cache = record_evaluation(program)
    try:
        artifact = specialize(cache)
    except CompileUnsupported as error:
        artifact = error
    return program, cache, artifact


@pytest.fixture(scope="module")
def corpus_artifacts():
    """Every example's :func:`recorded` triple."""
    return {name: recorded(example_source(name))
            for name in example_names()}


@pytest.fixture(scope="module")
def replayed_artifacts(corpus_artifacts):
    """:data:`REPLAYED`'s :func:`recorded` triples: the examples', and
    each SVG document's, ingested as the client benchmark's corpus
    ingests it (``ingest_text`` on the file's text)."""
    artifacts = dict(corpus_artifacts)
    for name, path in SVG_CORPUS.items():
        result = ingest_text(path.read_text(encoding="utf-8"),
                             name=path.name)
        assert result.ok, result.diagnostic()
        artifacts[name] = recorded(result.source)
    return artifacts


def assert_same_replay(recorded, compiled, interpreted):
    """Both replays share the same nodes with the recording by identity,
    and agree elsewhere in node kinds and in number bits (so -0.0 and 0.0,
    or two NaN payloads, differ) over the recording's trace objects."""
    assert same_replay(recorded, compiled, interpreted)


def perturbed_rhos(program, rng):
    """ρ0 moved at one user location, at a few, and at every one (twice
    each), plus ρ0 itself."""
    locs = program.user_locs()
    rhos = [dict(program.rho0)]
    for count in (1, min(3, len(locs)), len(locs)):
        for _ in range(2):
            rho = dict(program.rho0)
            for loc in rng.sample(locs, count):
                rho[loc] = rho[loc] + rng.uniform(-25.0, 25.0)
            rhos.append(rho)
    return rhos


@pytest.mark.parametrize("name", REPLAYED)
def test_replay_shares_nodes_like_reevaluate(replayed_artifacts, name):
    """``replay(ρ)`` answers what ``reevaluate(cache, ρ)`` does: the same
    verdict, the same nodes shared with the recording, the same numbers
    bit for bit — for every example and SVG document, under perturbed
    ρ."""
    program, cache, artifact = replayed_artifacts[name]
    assert not isinstance(artifact, Exception), artifact
    rng = random.Random(f"sharing-{name}")
    for rho in perturbed_rhos(program, rng):
        compiled = artifact.replay(rho)
        interpreted = reevaluate(cache, rho)
        assert (compiled is None) == (interpreted is None)
        if compiled is not None:
            assert_same_replay(cache.output, compiled, interpreted)
    assert artifact.replay(program.rho0) is cache.output


def test_unmoved_copy_of_a_repeated_shape_is_shared():
    """Two copies of one shape (one shared rebuild function): moving one
    copy answers the other as the recorded node itself."""
    program = parse_program("(def box (\\x (rect 'red' x 20 30 40))) "
                            "(svg [(box 10) (box 100)])")
    _, cache = record_evaluation(program)
    artifact = specialize(cache)
    first_x = next(loc for loc in program.user_locs()
                   if program.rho0[loc] == 10.0)
    rho = dict(program.rho0)
    rho[first_x] = 15.0
    replayed = artifact.replay(rho)
    assert_same_replay(cache.output, replayed, reevaluate(cache, rho))
    shapes, recorded = replayed.tail.tail.head, cache.output.tail.tail.head
    assert shapes.head is not recorded.head
    assert shapes.tail.head is recorded.tail.head


def test_repeated_structure_compiles_once(corpus_artifacts):
    """Each repeated output structure is generated once, not once per
    occurrence, and each repeated computation once, not once per trace
    node: the corpus's artifacts stay small, and every example still
    specializes."""
    refused = {name: artifact for name, (_, _, artifact)
               in corpus_artifacts.items()
               if isinstance(artifact, Exception)}
    assert not refused
    sizes = {name: artifact.statements
             for name, (_, _, artifact) in corpus_artifacts.items()}
    assert sum(sizes.values()) <= 13_930, sum(sizes.values())
    assert sizes["tessellation"] <= 400, sizes["tessellation"]
    assert sizes["us50_flag"] <= 700, sizes["us50_flag"]


def computations_and_guards(cache, moved):
    """The main function's computed right-hand sides and its guard lines,
    for one specialization.  Rebuild statements, which name a recorded
    output node (``O[i]``) or call a shared rebuild (``R[j]``), are left
    out: a node the output holds twice by identity is rebuilt once per
    occurrence, as ``_rebuild`` rebuilds it."""
    codegen = compile_module._Codegen(cache, moved)
    codegen.build()
    computations, guards = [], []
    for line in codegen.lines:
        if line.startswith("if "):
            guards.append(line)
        elif " = " in line:
            right = line.split(" = ", 1)[1]
            if "O[" not in right and "R[" not in right:
                computations.append(right)
    return computations, guards


def repeats(lines):
    return [line for line, count in Counter(lines).items() if count > 1]


@pytest.mark.parametrize("name", REPLAYED)
def test_each_computation_and_guard_is_emitted_once(replayed_artifacts,
                                                    name):
    """No two statements of the whole recording, or of the first Active
    zone's plan, compute the same right-hand side (the same operator over
    the same operand variables or pooled constants), and no guard line
    repeats."""
    program, cache, _ = replayed_artifacts[name]
    pipeline = SyncPipeline(program)
    pipeline.run()
    for moved in (None, cache.moved(first_zone_rho(pipeline))):
        computations, guards = computations_and_guards(cache, moved)
        assert not repeats(computations), repeats(computations)
        assert not repeats(guards), repeats(guards)


def leaves(value):
    """The numbers of an output value, in order."""
    found, stack = [], [value]
    while stack:
        node = stack.pop()
        if type(node) is VNum:
            found.append(node.value)
        elif type(node) is VCons:
            stack.extend((node.tail, node.head))
    return found


def test_a_zeros_sign_keeps_two_computations_apart():
    """``(* x 0)`` and ``(* x (neg 0))`` differ only in a zero's sign.  In
    the plan for ``x`` and ``y`` both zeros are pooled constants, 0.0 and
    -0.0, which compare equal; the products stay two statements, and with
    ``x`` negative and ``y`` at -0.0 the sums answer -0.0 and 0.0 (fresh
    nodes: the recorded sums are 5), as ``reevaluate`` does."""
    program = parse_program(
        "(def x 5) (def y 5) "
        "(svg [(rect 'red' (+ (* x 0) y) (+ (* x (neg 0)) y) 30 40)])")
    _, cache = record_evaluation(program)
    x, y = program.user_locs()[:2]
    rho = program.substitute({x: -3.0, y: -0.0}).rho0
    for moved in (None, cache.moved(rho)):
        replayed = specialize(cache, moved).replay(rho)
        assert_same_replay(cache.output, replayed, reevaluate(cache, rho))
        signs = [math.copysign(1.0, value) for value in leaves(replayed)
                 if value == 0.0]
        assert signs == [-1.0, 1.0]
    assert sum(" * " in line for line in
               computations_and_guards(cache, frozenset({x, y}))[0]) == 2


#: ``scale`` divides by ``d`` for each shape: two trace nodes, one
#: right-hand side.
SCALED = ("(def d 2) (def scale (\\w (/ 60 w))) "
          "(svg [(rect 'red' (scale d) 20 30 40) "
          "(rect 'blue' 10 (scale d) 30 40)])")


def test_a_merged_division_by_a_moved_zero_escalates():
    """A division repeated across shapes is emitted once, and answers
    ``None`` when its divisor moves to 0, as ``reevaluate`` does."""
    program = parse_program(SCALED)
    _, cache = record_evaluation(program)
    d = next(loc for loc in program.user_locs() if program.rho0[loc] == 2.0)
    for value in (4.0, 0.0):
        rho = program.substitute({d: value}).rho0
        interpreted = reevaluate(cache, rho)
        assert (interpreted is None) == (value == 0.0)
        for moved in (None, cache.moved(rho)):
            assert sum(" / " in line for line in
                       computations_and_guards(cache, moved)[0]) == 1
            assert_same_replay(cache.output,
                               specialize(cache, moved).replay(rho),
                               interpreted)


def test_a_number_held_twice_is_rebuilt_per_occurrence():
    """Merging computations shares no output node ``_rebuild`` would not
    share: a shape the output holds twice by identity is rebuilt into two
    nodes, by the interpreted replay and by every plan."""
    program = parse_program(
        "(def x 10) (def box (rect 'red' x 20 30 40)) (svg [box box])")
    _, cache = record_evaluation(program)
    x = program.user_locs()[0]
    rho = program.substitute({x: 15.0}).rho0
    interpreted = reevaluate(cache, rho).tail.tail.head
    assert interpreted.head is not interpreted.tail.head
    for moved in (None, cache.moved(rho)):
        replayed = specialize(cache, moved).replay(rho).tail.tail.head
        assert replayed.head is not replayed.tail.head


# ---------------------------------------------------------------------------
# Plans: one specialization per moved set
# ---------------------------------------------------------------------------

def assert_plan_replays_like_reevaluate(cache, rho):
    """The plan for ``rho``'s moved set covers it and answers exactly what
    ``reevaluate`` does."""
    moved = cache.moved(rho)
    plan = specialize(cache, moved)
    assert plan.covers(moved) and plan.moved == moved
    replayed = plan.replay(rho)
    interpreted = reevaluate(cache, rho)
    assert (replayed is None) == (interpreted is None)
    if replayed is not None:
        assert_same_replay(cache.output, replayed, interpreted)
    return plan


@pytest.mark.parametrize("name", REPLAYED)
def test_plan_replay_shares_nodes_like_reevaluate(replayed_artifacts, name):
    """Every example and SVG document, under perturbed ρ and with its
    first Active zone's chosen locations moved alone: the plan for the
    moved set shares the same nodes with the recording, and computes the
    same number bits, as ``reevaluate`` — and the plan for the empty set
    returns the recording itself."""
    program, cache, _ = replayed_artifacts[name]
    pipeline = SyncPipeline(program)
    pipeline.run()
    rhos = perturbed_rhos(program, random.Random(f"plans-{name}"))
    for rho in rhos + [first_zone_rho(pipeline)]:
        assert_plan_replays_like_reevaluate(cache, rho)
    assert specialize(cache, frozenset()).replay(program.rho0) \
        is cache.output


def test_moved_set_compares_bits_not_values():
    """A zero whose sign flips is a move: with ``z`` and ``w`` both moved
    to -0.0 the number ``z + w`` is -0.0, and a plan that took ``z`` for
    unmoved (0.0 == -0.0) would compute 0.0 instead."""
    program = parse_program(
        "(def z 0) (def w 5) (svg [(rect 'red' (+ z w) 20 30 40)])")
    _, cache = record_evaluation(program)
    z, w = program.user_locs()[:2]
    rho = dict(program.rho0)
    rho[z] = rho[w] = -0.0
    assert cache.moved(rho) == {z, w}
    assert_plan_replays_like_reevaluate(cache, rho)
    stale = specialize(cache, frozenset({w})).replay(rho)
    with pytest.raises(AssertionError):
        assert_same_replay(cache.output, stale, reevaluate(cache, rho))
    flipped_only = dict(program.rho0)
    flipped_only[z] = -0.0
    assert cache.moved(flipped_only) == {z}
    assert_plan_replays_like_reevaluate(cache, flipped_only)


#: ``x`` is inf - inf: the recording holds a NaN number.
NAN_X = ("(def big (pow 10 200)) (def w 30) "
         "(svg [(rect 'red' (- (* big big) (* big big)) 20 w 40)])")


def test_recorded_nan_is_rebuilt_on_every_replay():
    """``nan == nan`` is false, so ``_rebuild`` builds a NaN number afresh
    on every replay, whatever moved; every plan does the same."""
    program = parse_program(NAN_X)
    assert 'x="nan"' in LiveSession(program=program).export_svg()
    _, cache = record_evaluation(program)
    w = next(loc for loc in program.user_locs()
             if program.rho0[loc] == 30.0)
    rho = dict(program.rho0)
    rho[w] = 45.0
    plan = ensure_compiled(cache, moved=cache.moved(rho))
    assert plan.moved == {w}
    for replayed_rho in (rho, program.rho0):
        replayed = plan.replay(replayed_rho)
        assert replayed is not cache.output     # the NaN is fresh
        assert_same_replay(cache.output, replayed,
                           reevaluate(cache, replayed_rho))
    assert specialize(cache, frozenset()).replay(program.rho0) \
        is not cache.output
    interp, compiled = drive(NAN_X, random.Random("nan"))
    assert_lockstep(interp, compiled)


def two_zone_key(session, count):
    """The first zone whose chosen assignment moves ``count`` locations."""
    return next(key for key in sorted(session.triggers)
                if len(session.assignments.chosen[key].location_set)
                == count)


def test_a_gesture_plans_for_its_zone_from_a_one_axis_start():
    """A drag step plans for the dragged zone's locations, not only the
    ones its sample moved: after a first sample along one axis, the
    samples that move the other axis too, or put a coordinate back at its
    recorded value, replay through the same plan, and nothing new is
    specialized."""
    events = []
    base = parse_program(example_source("three_boxes"))
    compiled = LiveSession(program=base, specialize_probe=events.append)
    interp = LiveSession(program=base, compiled=False)
    key = two_zone_key(interp, 2)
    zone = interp.assignments.chosen[key].location_set
    apply_both(interp, compiled, lambda s: s.start_drag(*key))
    apply_both(interp, compiled, lambda s: s.drag(10.0, 0.0))
    cache = compiled.pipeline._eval_cache
    plan = cache.plan
    assert len(cache.moved(compiled.program.rho0)) == 1
    assert plan.moved == zone
    for offsets in ((10.0, 10.0), (0.0, 10.0), (0.0, 0.0), (-4.0, 6.0)):
        apply_both(interp, compiled, lambda s: s.drag(*offsets))
        assert cache.plan_for(compiled.program.rho0) is plan
    apply_both(interp, compiled, lambda s: s.release())
    assert cache.plan is plan
    assert events == ["attempt", "compiled"]


TWO_SHAPES = ("(def x 10) (def y 50) "
              "(svg [(rect 'red' x 20 30 40) (circle 'blue' y 60 5)])")


def test_a_location_outside_the_plan_compiles_the_whole_recording():
    """A ρ that moves a location the plan does not cover never replays
    through it: the whole recording is compiled in its place, and answers
    every ρ."""
    program = parse_program(TWO_SHAPES)
    _, cache = record_evaluation(program)
    x, y = program.user_locs()[:2]
    at_x = program.substitute({x: 15.0}).rho0
    at_y = program.substitute({y: 70.0}).rho0
    at_both = program.substitute({x: 15.0, y: 70.0}).rho0
    plan_x = ensure_compiled(cache, moved=cache.moved(at_x))
    assert plan_x.moved == {x} and cache.plan_for(at_x) is plan_x
    assert cache.plan_for(at_y) is None
    assert cache.plan_for(at_both) is None
    whole = ensure_compiled(cache, moved=cache.moved(at_y))
    assert whole.moved is None and cache.plan is whole
    for rho in (at_x, at_y, at_both, program.rho0):
        assert cache.plan_for(rho) is whole
        assert_same_replay(cache.output, whole.replay(rho),
                           reevaluate(cache, rho))


def test_a_second_zone_never_replays_through_the_first_zones_plan():
    """In a session: after one shape's gesture, dragging the other moves
    locations outside the first plan.  Every step matches the interpreted
    reference, and the whole recording replaces the first plan."""
    events = []
    base = parse_program(TWO_SHAPES)
    compiled = LiveSession(program=base, specialize_probe=events.append)
    interp = LiveSession(program=base, compiled=False)
    plans = []
    for shape in (0, 1, 0):
        apply_both(interp, compiled,
                   lambda s: s.start_drag(shape, "INTERIOR"))
        for step in range(1, 4):
            apply_both(interp, compiled,
                       lambda s: s.drag(3.0 * step, 2.0 * step))
        apply_both(interp, compiled, lambda s: s.release())
        plans.append(compiled.pipeline._eval_cache.plan)
    assert events == ["attempt", "compiled"] * 2
    first, whole, again = plans
    assert first.moved == \
        compiled.assignments.chosen[(0, "INTERIOR")].location_set
    assert whole.moved is None and again is whole


def test_value_edits_compile_the_whole_recording():
    """A value edit is no drag step: its first held replay compiles the
    whole recording, which answers every later edit of any literal."""
    events = []
    base = parse_program(TWO_SHAPES)
    compiled = LiveSession(program=base, specialize_probe=events.append)
    interp = LiveSession(program=base, compiled=False)
    x, y = base.user_locs()[:2]
    for loc, value in ((x, 12.0), (y, 55.0), (x, 14.0)):
        text = compiled.program.substitute({loc: value}).unparse()
        apply_both(interp, compiled, lambda s: s.edit_source(text))
        assert compiled.pipeline._eval_cache.plan.moved is None
    assert events == ["attempt", "compiled"]


def test_every_plan_charges_the_recordings_fuel():
    """Budget parity per plan: whatever its moved set checks, a plan
    charges one step per guard and partial of the whole recording, like
    ``reevaluate``, and exhausts exactly where it does."""
    program = parse_program(example_source("sine_wave_of_boxes"))
    _, cache = record_evaluation(program)
    charge = (len(cache.comparisons) + len(cache.tostrings)
              + len(cache.num_matches) + len(cache.partials))
    pipeline = SyncPipeline(program)
    pipeline.run()
    rhos = [first_zone_rho(pipeline), program.rho0] + perturbed_rhos(
        program, random.Random("plan-fuel"))
    for rho in rhos:
        plan = specialize(cache, cache.moved(rho))
        assert plan.guard_charge == charge
        for replay in (plan.replay, lambda r: reevaluate(cache, r)):
            with budget_scope(EvalBudget(max_fuel=charge)):
                replay(rho)
            with budget_scope(EvalBudget(max_fuel=charge - 1)):
                with pytest.raises(ResourceExhausted):
                    replay(rho)


def test_specialize_fault_pins_the_recording_per_plan():
    """The ``compile.specialize`` fault point fires on each plan's
    attempt.  Armed after a first plan, it fails the next one: the
    recording is never specialized again, the first plan still answers
    the steps it covers, and the interpreter the rest, identically."""
    faults = FaultPlan("compile.specialize:1")
    armed = []
    events = []

    def probe(event):
        events.append(event)
        if event == "attempt" and armed:
            fail_point(faults, "compile.specialize")

    base = parse_program(TWO_SHAPES)
    compiled = LiveSession(program=base, specialize_probe=probe)
    interp = LiveSession(program=base, compiled=False)
    apply_both(interp, compiled, lambda s: s.drag_zone(0, "INTERIOR",
                                                       5.0, 3.0))
    first = compiled.pipeline._eval_cache.plan
    armed.append(True)
    for shape in (1, 0):
        apply_both(interp, compiled,
                   lambda s: s.start_drag(shape, "INTERIOR"))
        for step in range(1, 4):
            apply_both(interp, compiled,
                       lambda s: s.drag(4.0 * step, -2.0 * step))
        apply_both(interp, compiled, lambda s: s.release())
    apply_both(interp, compiled, lambda s: s.undo())
    apply_both(interp, compiled, lambda s: s.undo())
    cache = compiled.pipeline._eval_cache
    assert cache.compile_failed and cache.plan is first
    assert cache.plan_for(compiled.program.rho0) is first
    assert events == ["attempt", "compiled", "attempt", "failed"]
    assert faults.counts() == {"compile.specialize": 1}
