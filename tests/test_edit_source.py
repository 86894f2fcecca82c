"""LiveSession.edit_source: the edit path end to end.

The acceptance bar for the edit path: a value-only literal edit reuses
the incremental pipeline (no full re-evaluation — asserted on guard-cache
and trace *identity*), structural edits escalate correctly, and the
session state after any mix of drags, edits, undos, snapshots and
rehydrations is byte-identical to a session freshly opened on the same
text.
"""

import json

import pytest

from repro.bench.edit_latency import _session_signature, value_edit_texts
from repro.editor import LiveSession
from repro.editor.session import EditorError
from repro.examples import example_source
from repro.lang.errors import LittleSyntaxError
from repro.serve.cache import CompileCache

SOURCE = "(def x 10) (svg [(rect 'teal' x 20 30 40)])"


def assert_matches_fresh(session: LiveSession) -> None:
    """The session must be observably identical to a fresh one opened on
    its current text (parse-stable coordinates; see the benchmark)."""
    fresh = LiveSession(session.source())
    assert _session_signature(session) == _session_signature(fresh)


class TestValueEdits:
    def test_value_edit_reuses_recorded_evaluation(self):
        session = LiveSession(SOURCE)
        cache = session.pipeline._eval_cache
        diff = session.edit_source(SOURCE.replace("20", "60"))
        assert diff.kind == "value"
        # Guard identity: the recorded evaluation was *replayed*, not
        # re-recorded — a full re-eval would have installed a new cache.
        assert session.pipeline._eval_cache is cache
        assert 'y="60"' in session.export_svg()
        assert_matches_fresh(session)

    def test_value_edit_preserves_unaffected_traces(self):
        session = LiveSession(example_source("three_boxes"))
        # The lists keep the old trace objects alive, so an id match is
        # an identity match.
        traces = [shape.attr_traces() for shape in session.canvas]
        text = session.source().replace("[40 28", "[40 45")   # y0: 28 → 45
        assert session.edit_source(text).kind == "value"
        # Trace identity: the incremental canvas rebuild kept every trace
        # object, exactly like a drag.
        assert [[id(trace) for trace in shape.attr_traces()]
                for shape in session.canvas] == \
            [[id(trace) for trace in kept] for kept in traces]
        assert_matches_fresh(session)

    def test_value_edit_pushes_history_and_undoes_incrementally(self):
        session = LiveSession(SOURCE)
        svg_before = session.export_svg()
        session.edit_source(SOURCE.replace("10", "70"))
        assert len(session.history) == 1
        cache = session.pipeline._eval_cache
        session.undo()
        assert session.pipeline._eval_cache is cache  # still incremental
        assert session.export_svg() == svg_before

    def test_value_edit_updates_slider(self):
        session = LiveSession("(def n 3{1-8})\n"
                              "(svg [(rect 'red' 10 20 (* n 10) 40)])")
        loc = next(iter(session.sliders))
        session.edit_source(session.source().replace("3{1-8}", "5{1-8}"))
        assert session.sliders[loc].value == 5.0
        assert_matches_fresh(session)

    def test_guard_flipping_value_edit_escalates_and_stays_identical(self):
        session = LiveSession(example_source("n_boxes_slider"))
        text = session.source().replace("5!{1-10}", "8!{1-10}")
        assert text != session.source()
        diff = session.edit_source(text)      # box count: list length flips
        assert diff.kind == "value"
        assert_matches_fresh(session)


class TestIdentityEdits:
    def test_identity_edit_is_free(self):
        session = LiveSession(SOURCE)
        cache = session.pipeline._eval_cache
        output = session.pipeline.output
        diff = session.edit_source(session.source())
        assert diff.kind == "identity"
        assert not session.history                  # no undo entry
        assert session.pipeline._eval_cache is cache
        assert session.pipeline.output is output    # not even a rebuild

    def test_identity_edit_keeps_undo_incremental_and_exact(self):
        session = LiveSession(SOURCE)
        session.drag_zone(0, "INTERIOR", 25.0, 0.0)       # x: 10 → 35
        session.edit_source(session.source() + "\n\n")     # identity
        session.undo()                                     # undo the drag
        assert 'x="10"' in session.export_svg()            # not stale
        assert_matches_fresh(session)

    def test_identity_edit_after_drag_to_a_tiny_value(self):
        # x0 lands near 1e-05, which repr would print in exponent form.
        session = LiveSession(example_source("three_boxes"))
        session.drag_zone(0, "INTERIOR", -39.99999, 0.0)
        assert session.edit_source(session.source()).kind == "identity"

    def test_identity_edit_adopts_formatting(self):
        session = LiveSession(SOURCE)
        spaced = SOURCE.replace(" (svg", "   (svg")
        session.edit_source(spaced)
        assert session.program.source == spaced
        assert_matches_fresh(session)


class TestStructuralEdits:
    def test_insertion_adds_shape_and_keeps_locs(self):
        session = LiveSession(SOURCE)
        x = session.program.user_locs()[0]
        diff = session.edit_source(
            "(def x 10) (svg [(rect 'teal' x 20 30 40) "
            "(circle 'red' 100 100 9)])")
        assert diff.kind == "structural"
        assert len(session.canvas) == 2
        assert session.program.user_locs()[0] == x  # survived the reparse
        assert_matches_fresh(session)

    def test_structural_edit_undo_restores_exactly(self):
        session = LiveSession(SOURCE)
        svg_before = session.export_svg()
        session.edit_source("(def x 10) (svg [(circle 'red' x 50 20)])")
        session.undo()
        assert session.export_svg() == svg_before
        assert_matches_fresh(session)

    def test_drag_edit_drag_mixed_session(self):
        """The paper's headline workflow: alternate direct manipulation
        and programmatic edits against one live artifact."""
        session = LiveSession(SOURCE)
        session.drag_zone(0, "INTERIOR", 25.0, 0.0)
        assert "(def x 35)" in session.source()
        diff = session.edit_source(session.source().replace("20", "60"))
        assert diff.kind == "value"
        session.drag_zone(0, "INTERIOR", 5.0, 0.0)
        assert "(def x 40)" in session.source()
        assert 'y="60"' in session.export_svg()
        assert_matches_fresh(session)
        for _ in range(len(session.history)):
            session.undo()
        assert session.source() == LiveSession(SOURCE).source()


class TestEditDuringDrag:
    def test_edit_commits_inflight_gesture(self):
        session = LiveSession(SOURCE)
        session.start_drag(0, "INTERIOR")
        session.drag(15.0, 0.0)
        diff = session.edit_source(session.source().replace("20", "80"))
        assert diff.kind == "value"
        assert session.dragging is None
        # Two undo steps: the edit, then the committed gesture.
        assert len(session.history) == 2
        assert_matches_fresh(session)

    def test_parse_error_leaves_drag_in_flight(self):
        session = LiveSession(SOURCE)
        session.start_drag(0, "INTERIOR")
        session.drag(15.0, 0.0)
        svg = session.export_svg()
        with pytest.raises(LittleSyntaxError):
            session.edit_source("(svg [(rect")
        assert session.dragging == (0, "INTERIOR")
        assert session.export_svg() == svg
        session.release()


class TestSnapshotAcrossEdits:
    def test_snapshot_restore_after_edits_is_byte_identical(self):
        session = LiveSession(SOURCE)
        session.drag_zone(0, "INTERIOR", 25.0, 0.0)
        session.edit_source(session.source().replace("20", "60"))
        session.edit_source(
            "(def x 35) (svg [(rect 'teal' x 60 30 40) "
            "(circle 'red' 9 9 9)])")
        session.drag_zone(1, "INTERIOR", 3.0, 4.0)
        restored = LiveSession.restore(session.snapshot())
        assert _session_signature(restored) == _session_signature(session)
        # Undo through the whole mixed history, in lockstep.
        while session.history:
            session.undo()
            restored.undo()
            assert restored.export_svg() == session.export_svg()
            assert restored.source() == session.source()

    def test_snapshot_midgesture_after_edit(self):
        session = LiveSession(SOURCE)
        session.edit_source(SOURCE.replace("10", "15"))
        session.start_drag(0, "INTERIOR")
        session.drag(2.0, 2.0)
        restored = LiveSession.restore(session.snapshot())
        assert restored.dragging == session.dragging
        for live in (session, restored):
            live.drag(6.0, 1.0)
            live.release()
        assert restored.export_svg() == session.export_svg()

    def test_value_edits_share_one_base(self, recordings):
        """Value edits keep the opened text as the base: the snapshot
        names it once, restore compiles only it and records nothing, and
        every undo replays the cached recording."""
        text = example_source("ferris_wheel")
        cache = CompileCache()
        compiled, _hit = cache.compile(text)
        session = LiveSession(program=compiled.program,
                              seed=compiled.eval_cache)
        for edit in value_edit_texts(text, 12):
            assert session.edit_source(edit).kind == "value"
        snapshot = json.loads(json.dumps(session.snapshot()))
        assert snapshot["source"] == text
        assert len(snapshot["history"]) == 12
        assert not any("source" in state for state in snapshot["history"])
        compiles = []

        def compile_fn(source, **options):
            compiles.append(source)
            entry, _hit = cache.compile(source, **options)
            return entry.program, entry.eval_cache

        recordings.clear()
        restored = LiveSession.restore(snapshot, compile_fn=compile_fn)
        assert compiles == [text]
        assert recordings == []
        assert restored.source() == session.source()
        assert restored.export_svg() == session.export_svg()
        for key in sorted(session.triggers):
            assert restored.hover(*key) == session.hover(*key)
        live_cache = session.pipeline._eval_cache
        restored_cache = restored.pipeline._eval_cache
        while session.history:
            session.undo()
            restored.undo()
            assert _session_signature(restored) == \
                _session_signature(session)
            assert session.pipeline._eval_cache is live_cache
            assert restored.pipeline._eval_cache is restored_cache
        assert not restored.history
        assert restored.source() == compiled.program.unparse()
        assert recordings == []

    def test_structural_edit_starts_the_one_older_base(self):
        session = LiveSession(SOURCE)
        for x in (11, 12, 13):
            assert session.edit_source(
                SOURCE.replace("10", str(x))).kind == "value"
        grown = ("(def x 13) (svg [(rect 'teal' x 20 30 40) "
                 "(circle 'red' 9 9 9)])")
        assert session.edit_source(grown).kind == "structural"
        for r in (10, 11, 12):
            assert session.edit_source(
                grown.replace("9 9 9", f"9 9 {r}")).kind == "value"
        snapshot = json.loads(json.dumps(session.snapshot()))
        assert snapshot["source"] == grown
        assert [state.get("source") for state in snapshot["history"]] == \
            [SOURCE] * 4 + [None] * 3
        restored = LiveSession.restore(snapshot)
        assert _session_signature(restored) == _session_signature(session)
        while session.history:
            session.undo()
            restored.undo()
            assert _session_signature(restored) == \
                _session_signature(session)
        assert restored.source() == LiveSession(SOURCE).source()

    def test_snapshot_with_a_source_per_value_edit_restores(self):
        # Older snapshots name each value edit's text as a base of its own.
        edited = SOURCE.replace("10", "15")
        snapshot = LiveSession(SOURCE).snapshot()
        snapshot["history"] = [dict(snapshot["current"], source=SOURCE)]
        snapshot["source"] = edited
        snapshot["current"] = {"user": [15.0, 20.0, 30.0, 40.0],
                               "prelude": []}
        restored = LiveSession.restore(snapshot)
        assert_matches_fresh(restored)
        assert "(def x 15)" in restored.source()
        restored.undo()
        assert_matches_fresh(restored)
        assert "(def x 10)" in restored.source()

    def test_snapshot_stays_jsonable(self):
        session = LiveSession(SOURCE)
        session.edit_source("(def x 10) (svg [(circle 'red' x 50 20)])")
        json.dumps(session.snapshot())


class TestErrors:
    def test_edit_to_unrunnable_program_rolls_back(self):
        from repro.lang.errors import LittleError

        session = LiveSession(SOURCE)
        svg = session.export_svg()
        with pytest.raises(LittleError):
            session.edit_source("(svg [(rect 'red' nope 1 2 3)])")
        # The edit is atomic: the failure surfaced, the session stayed
        # on its previous program, and no undo entry was left behind.
        assert not session.history
        assert session.export_svg() == svg
        assert session.drag_zone(0, "INTERIOR", 2.0, 2.0).all_solved
