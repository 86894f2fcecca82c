"""Incremental-Prepare equivalence: the change-set-driven pipeline must be
indistinguishable from a from-scratch Prepare after arbitrary gestures and
value edits.

The core pipeline (repro.core.pipeline) keeps its assignments across
``release()`` unless the gesture's accumulated change set is structural,
and a drag's canvas rebuild keeps the shapes it did not move; triggers and
sliders are rebuilt on every Prepare.  These tests drive randomized (seeded)
multi-step gestures across the corpus and check, after every release, that
the cached state — assignments, triggers, sliders, hover captions with
selected/unselected sets, and the active zone count — equals what
``assign_canvas`` + ``compute_triggers`` + ``collect_sliders`` compute from
scratch on the same program and canvas.
"""

import random

import pytest

from repro.bench import naive_prepare, prepare_equal
from repro.bench.edit_latency import value_edit_texts
from repro.editor import LiveSession
from repro.examples import example_source

#: >=10 corpus examples spanning the shape kinds and zone varieties:
#: rects, polygons, paths, circles, rotation/FILL zones, sliders, and the
#: guard-heavy cases where drags flip control flow.
EXAMPLES = (
    "sine_wave_of_boxes",
    "three_boxes",
    "ferris_wheel",
    "chicago_flag",
    "color_wheel",
    "n_boxes_slider",
    "tessellation",
    "sliders",
    "us13_flag",
    "solar_system",
    "eye_icon",
    "keyboard",
)

GESTURES = 3
MAX_STEPS = 6
VALUE_EDITS = 6

TWO_RECTS = """(def red_x 10) (def blue_x 200)
(svg [(rect 'red' red_x 20 30 40) (rect 'blue' blue_x 60 30 40)])"""


def _assert_prepare_matches(session):
    state = naive_prepare(session.pipeline)
    assert prepare_equal(session.pipeline, *state), \
        "incremental Prepare diverged from from-scratch Prepare"
    naive_assignments = state[0]
    assert session.active_zone_count() == len(naive_assignments.chosen)
    # Hover captions go through the same assignment data both ways.
    for key in naive_assignments.chosen:
        info = session.hover(*key)
        active, caption, selected, unselected = \
            naive_assignments.hover_data(*key)
        assert (info.active, info.caption, info.selected,
                info.unselected) == (active, caption, selected, unselected)


def _random_gesture(session, rng):
    keys = sorted(session.triggers)
    key = keys[rng.randrange(len(keys))]
    session.start_drag(*key)
    for _ in range(rng.randint(2, MAX_STEPS)):
        session.drag(rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0))
    session.release()


@pytest.mark.parametrize("name", EXAMPLES)
def test_random_gestures_keep_prepare_equal(name):
    rng = random.Random(f"prepare-{name}")
    session = LiveSession(example_source(name))
    _assert_prepare_matches(session)
    for _ in range(GESTURES):
        if not session.triggers:
            pytest.skip(f"{name} has no active zones")
        _random_gesture(session, rng)
        _assert_prepare_matches(session)


@pytest.mark.parametrize("name", ("sine_wave_of_boxes", "tessellation"))
def test_biased_heuristic_gestures_keep_prepare_equal(name):
    rng = random.Random(f"biased-{name}")
    session = LiveSession(example_source(name), heuristic="biased")
    for _ in range(GESTURES):
        _random_gesture(session, rng)
        _assert_prepare_matches(session)


def test_slider_moves_keep_prepare_equal():
    """Built-in slider moves run the whole pipeline incrementally too."""
    rng = random.Random("prepare-sliders")
    session = LiveSession(example_source("sine_wave_of_boxes"))
    (loc, slider), = [(loc, s) for loc, s in session.sliders.items()]
    for _ in range(4):
        session.set_slider(loc, rng.uniform(slider.lo, slider.hi))
        _assert_prepare_matches(session)
    session.undo()
    _assert_prepare_matches(session)


def test_value_edits_keep_prepare_equal():
    """Source edits that retype one literal take the same incremental
    Prepare as a drag: the assignments are kept, and every trigger is
    rebuilt under the edited program's ρ."""
    for name in EXAMPLES:
        session = LiveSession(example_source(name))
        for text in value_edit_texts(session.source(), VALUE_EDITS):
            assert session.edit_source(text).kind == "value"
            _assert_prepare_matches(session)
    session = LiveSession(TWO_RECTS)
    before = dict(session.triggers)
    edited = session.edit_source(TWO_RECTS.replace("red_x 10", "red_x 15"))
    assert edited.kind == "value"
    _assert_prepare_matches(session)
    assert set(session.triggers) == set(before)
    assert {key[0] for key in before} == {0, 1}
    for trigger in session.triggers.values():
        assert trigger.rho is session.program.rho0


def test_undo_during_drag_keeps_prepare_equal():
    """Undo with a drag in flight aborts the gesture and must leave the
    Prepare state equal to a from-scratch one (the pipeline cannot bound
    the difference with a cheap change set there)."""
    session = LiveSession(example_source("ferris_wheel"))
    session.start_drag(6, "INTERIOR")
    session.drag(7.0, 7.0)
    session.release()
    session.start_drag(0, "INTERIOR")
    session.drag(-9.0, 4.0)
    session.undo()
    _assert_prepare_matches(session)


def test_unreleased_gesture_change_reaches_next_release():
    """start_drag without releasing the previous gesture must not drop
    that gesture's accumulated change from the next Prepare."""
    session = LiveSession(example_source("ferris_wheel"))
    session.start_drag(6, "INTERIOR")
    session.drag(7.0, 7.0)                      # never released
    session.start_drag(0, "INTERIOR")
    session.drag(-9.0, 4.0)
    session.release()
    _assert_prepare_matches(session)


def test_undo_after_gesture_keeps_prepare_equal():
    rng = random.Random("prepare-undo")
    session = LiveSession(example_source("ferris_wheel"))
    for _ in range(2):
        _random_gesture(session, rng)
    while session.history:
        session.undo()
        _assert_prepare_matches(session)
