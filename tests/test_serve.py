"""Tests for the multi-session sync service (``repro.serve``).

Three invariants drive the suite:

1. **transparency** — every protocol response is byte-identical to driving
   a ``LiveSession`` directly with the same inputs, across eviction and
   rehydration;
2. **sharing** — sessions opened on the same source share one compiled
   program and recorded evaluation, without observable coupling;
3. **robustness** — malformed requests of any shape produce structured
   errors, never tracebacks.
"""

import http.client
import json
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.run import run_source
from repro.editor import LiveSession
from repro.examples import example_source
from repro.serve import (CompileCache, ServeApp, SessionManager,
                         UnknownSession, make_server)
from repro.serve.persist import StatePersister, load_state
from repro.svg.importer import svg_to_little

THREE_BOXES = example_source("three_boxes")

#: ``dead``'s square root feeds neither the output nor a guard; x below
#: 20 makes it raise, so a from-scratch run of that state fails.
DEAD_SQRT = ("(def x 30) (def dead (sqrt (- x 20))) "
             "(svg [(rect 'red' x 20 30 40)])")


#: Run in a fresh interpreter: open each example in ``sys.argv[2:]`` with
#: the Prelude unfrozen, drag the last one's shape 0 and persist every
#: session to the state dir ``sys.argv[1]``; prints the dragged session's
#: id, the Prelude literals the drag rewrote and its SVG.
PERSIST_UNFROZEN = """
import json, sys
from repro.serve import ServeApp, SessionManager
from repro.serve.persist import StatePersister

manager = SessionManager()
persister = StatePersister(sys.argv[1], manager.persist_payload)
manager.attach_persister(persister)
app = ServeApp(manager=manager)
for name in sys.argv[2:]:
    sid = app.handle({"cmd": "open", "example": name,
                      "prelude_frozen": False})["session"]
app.handle({"cmd": "drag", "session": sid, "shape": 0, "zone": "INTERIOR",
            "steps": [[10, 7]]})
app.handle({"cmd": "release", "session": sid})
svg = app.handle({"cmd": "render", "session": sid})["svg"]
prelude = manager.persist_payload(sid)["snapshot"]["current"]["prelude"]
manager.flush_state()
persister.stop(flush=True)
print(json.dumps([sid, prelude, svg]))
"""

#: Run in a fresh interpreter: boot on the state dir ``sys.argv[1]``, open
#: the example ``sys.argv[2]`` with the Prelude unfrozen, then print the
#: answer to rendering session ``sys.argv[3]``.
RESTORE_UNFROZEN = """
import json, sys
from repro.serve import ServeApp, SessionManager
from repro.serve.persist import load_state

manager = SessionManager()
manager.load_state(load_state(sys.argv[1])[0])
app = ServeApp(manager=manager)
app.handle({"cmd": "open", "example": sys.argv[2], "prelude_frozen": False})
print(json.dumps(app.handle({"cmd": "render", "session": sys.argv[3]})))
"""


def open_session(app, **fields):
    response = app.handle({"cmd": "open", **fields})
    assert response["ok"], response
    return response


def first_zone(session):
    return sorted(session.triggers)[0]


# ---------------------------------------------------------------------------
# Protocol happy path: byte-identical to the direct LiveSession
# ---------------------------------------------------------------------------

class TestProtocolTransparency:
    def test_open_matches_direct_session(self):
        app = ServeApp()
        mirror = LiveSession(THREE_BOXES)
        opened = open_session(app, source=THREE_BOXES)
        assert opened["svg"] == mirror.export_svg()
        assert opened["source"] == mirror.source()
        assert opened["shapes"] == len(mirror.canvas)
        assert opened["active_zones"] == mirror.active_zone_count()

    def test_drag_burst_coalesces_to_final_sample(self):
        app = ServeApp()
        mirror = LiveSession(THREE_BOXES)
        opened = open_session(app, source=THREE_BOXES)
        shape, zone = first_zone(mirror)
        dragged = app.handle({"cmd": "drag", "session": opened["session"],
                              "shape": shape, "zone": zone,
                              "steps": [[2, 1], [5, 2], [9, 4]]})
        assert dragged["ok"] and dragged["coalesced"] == 3
        mirror.start_drag(shape, zone)
        mirror.drag(9.0, 4.0)
        assert dragged["svg"] == mirror.export_svg()
        assert dragged["source"] == mirror.source()
        released = app.handle({"cmd": "release",
                               "session": opened["session"]})
        mirror.release()
        assert released["ok"]
        assert released["svg"] == mirror.export_svg()
        assert released["active_zones"] == mirror.active_zone_count()

    def test_gesture_split_across_requests_continues(self):
        app = ServeApp()
        mirror = LiveSession(THREE_BOXES)
        opened = open_session(app, source=THREE_BOXES)
        shape, zone = first_zone(mirror)
        mirror.start_drag(shape, zone)
        mirror.drag(12.0, 6.0)
        for steps in ([[3, 1]], [[8, 4], [12, 6]]):
            dragged = app.handle({"cmd": "drag",
                                  "session": opened["session"],
                                  "shape": shape, "zone": zone,
                                  "steps": steps})
            assert dragged["ok"]
        assert dragged["svg"] == mirror.export_svg()

    def test_set_slider_and_undo(self):
        source = example_source("n_boxes_slider")
        app = ServeApp()
        mirror = LiveSession(source)
        opened = open_session(app, source=source)
        assert opened["sliders"]
        name = opened["sliders"][0]["loc"]
        loc = next(l for l in mirror.sliders if l.display() == name)
        moved = app.handle({"cmd": "set_slider",
                            "session": opened["session"],
                            "loc": name, "value": 7})
        mirror.set_slider(loc, 7.0)
        assert moved["ok"]
        assert moved["svg"] == mirror.export_svg()
        undone = app.handle({"cmd": "undo", "session": opened["session"]})
        mirror.undo()
        assert undone["ok"]
        assert undone["svg"] == mirror.export_svg()
        assert undone["source"] == mirror.source()

    def test_hover_render_source(self):
        app = ServeApp()
        mirror = LiveSession(THREE_BOXES)
        opened = open_session(app, source=THREE_BOXES)
        shape, zone = first_zone(mirror)
        hovered = app.handle({"cmd": "hover", "session": opened["session"],
                              "shape": shape, "zone": zone})
        info = mirror.hover(shape, zone)
        assert hovered["ok"] and hovered["active"] == info.active
        assert hovered["caption"] == info.caption
        rendered = app.handle({"cmd": "render",
                               "session": opened["session"],
                               "include_hidden": True})
        assert rendered["svg"] == mirror.export_svg(include_hidden=True)
        src = app.handle({"cmd": "source", "session": opened["session"]})
        assert src["source"] == mirror.source()

    def test_source_of_tiny_and_huge_literals_reruns(self):
        # The little lexer has no exponent form, so the printed source
        # must spell 1e-05 and 1e+17 out positionally.
        app = ServeApp()
        for source in (
                "(svg [(rect 'red' 0.00001 0 5 5)])",
                "(svg [(rect 'red' 100000000000000000 0 5 5)])",
                svg_to_little('<svg><circle cx="2.855938629885282e-14" '
                              'cy="5" r="1"/></svg>')):
            opened = open_session(app, source=source)
            assert run_source(opened["source"]).render() == opened["svg"]

    def test_responses_are_json_serializable(self):
        app = ServeApp()
        opened = open_session(app, example="n_boxes_slider")
        shape, zone = first_zone(app.manager.get(opened["session"]))
        for response in (
                opened,
                app.handle({"cmd": "drag", "session": opened["session"],
                            "shape": shape, "zone": zone,
                            "steps": [[4, 2]]}),
                app.handle({"cmd": "release",
                            "session": opened["session"]}),
                app.handle({"cmd": "stats"}),
                app.handle({"cmd": "nope"})):
            json.dumps(response)


# ---------------------------------------------------------------------------
# Shared compile cache
# ---------------------------------------------------------------------------

class TestCompileCache:
    def test_same_source_shares_one_compile(self):
        manager = SessionManager(max_sessions=8)
        sid_a, session_a, hit_a = manager.open(THREE_BOXES)
        sid_b, session_b, hit_b = manager.open(THREE_BOXES)
        assert (hit_a, hit_b) == (False, True)
        assert session_a.program is session_b.program
        assert manager.cache.stats()["misses"] == 1

    def test_parse_options_are_part_of_the_key(self):
        cache = CompileCache()
        cache.compile(THREE_BOXES)
        _, hit = cache.compile(THREE_BOXES, prelude_frozen=False)
        assert not hit
        _, hit = cache.compile(THREE_BOXES)
        assert hit

    def test_sessions_sharing_a_compile_stay_independent(self):
        manager = SessionManager(max_sessions=8)
        sid_a, session_a, _ = manager.open(THREE_BOXES)
        sid_b, session_b, _ = manager.open(THREE_BOXES)
        control = LiveSession(THREE_BOXES)
        shape, zone = first_zone(control)
        session_a.drag_zone(shape, zone, 25.0, 10.0)
        assert session_b.export_svg() == control.export_svg()
        assert session_a.export_svg() != session_b.export_svg()

    def test_lru_capacity_bounds_entries(self):
        cache = CompileCache(capacity=2)
        for name in ("three_boxes", "ferris_wheel", "n_boxes_slider"):
            cache.compile(example_source(name))
        assert len(cache) == 2
        _, hit = cache.compile(example_source("three_boxes"))
        assert not hit                      # the oldest entry was evicted

    def test_seeded_open_matches_cold_open(self):
        manager = SessionManager(max_sessions=8)
        _sid, seeded, _ = manager.open(THREE_BOXES)
        _sid, warm, _ = manager.open(THREE_BOXES)
        cold = LiveSession(THREE_BOXES)
        for session in (seeded, warm):
            assert session.export_svg(include_hidden=True) == \
                cold.export_svg(include_hidden=True)
            assert session.active_zone_count() == cold.active_zone_count()
            assert sorted(session.triggers) == sorted(cold.triggers)


# ---------------------------------------------------------------------------
# LRU eviction + rehydration
# ---------------------------------------------------------------------------

class TestEvictionRehydration:
    def test_lru_eviction_is_transparent(self):
        app = ServeApp(manager=SessionManager(max_sessions=2))
        control = LiveSession(THREE_BOXES)
        opened = open_session(app, source=THREE_BOXES)
        shape, zone = first_zone(control)
        app.handle({"cmd": "drag", "session": opened["session"],
                    "shape": shape, "zone": zone, "steps": [[7, 3]]})
        app.handle({"cmd": "release", "session": opened["session"]})
        control.drag_zone(shape, zone, 7.0, 3.0)
        # Push the session out of the live set.
        open_session(app, example="ferris_wheel")
        open_session(app, example="n_boxes_slider")
        stats = app.handle({"cmd": "stats"})["stats"]
        assert stats["evicted"] >= 1 and stats["live_sessions"] == 2
        # Any touch rehydrates; undo exercises restored history.
        undone = app.handle({"cmd": "undo", "session": opened["session"]})
        control.undo()
        assert undone["ok"]
        assert undone["svg"] == control.export_svg()
        assert undone["source"] == control.source()
        assert app.handle({"cmd": "stats"})["stats"]["rehydrated"] == 1

    @pytest.mark.parametrize("change", ["drag", "edits"])
    def test_rehydration_replays_the_cached_recording(self, change,
                                                      recordings):
        from repro.bench.edit_latency import value_edit_texts

        app = ServeApp(max_sessions=1, shards=1)
        sid = open_session(app, example="ferris_wheel")["session"]
        if change == "drag":
            shape, zone = first_zone(app.manager.get(sid))
            assert app.handle({"cmd": "drag", "session": sid,
                               "shape": shape, "zone": zone,
                               "steps": [[7, 3]]})["ok"]
            assert app.handle({"cmd": "release", "session": sid})["ok"]
        else:
            texts = value_edit_texts(example_source("ferris_wheel"), 20)
            assert len(texts) == 20
            for text in texts:
                assert app.handle({"cmd": "edit", "session": sid,
                                   "source": text})["edit"] == "value"
        before = app.handle({"cmd": "render", "session": sid})["svg"]
        open_session(app, example="three_boxes")      # evicts sid
        assert app.handle({"cmd": "stats"})["stats"]["evicted"] == 1
        cache = app.manager.cache.stats()
        recordings.clear()
        rendered = app.handle({"cmd": "render", "session": sid})
        assert rendered["ok"], rendered
        assert rendered["svg"] == before
        assert recordings == []
        after = app.manager.cache.stats()
        assert (after["entries"], after["misses"]) == \
            (cache["entries"], cache["misses"])

    def test_rehydration_mid_gesture_continues_the_drag(self):
        manager = SessionManager(max_sessions=1)
        app = ServeApp(manager=manager)
        control = LiveSession(example_source("ferris_wheel"))
        opened = open_session(app, example="ferris_wheel")
        shape, zone = first_zone(control)
        app.handle({"cmd": "drag", "session": opened["session"],
                    "shape": shape, "zone": zone, "steps": [[4, 2]]})
        control.start_drag(shape, zone)
        control.drag(4.0, 2.0)
        # Evict mid-gesture, then keep dragging the same zone.
        open_session(app, example="three_boxes")
        assert app.handle({"cmd": "stats"})["stats"]["evicted"] == 1
        dragged = app.handle({"cmd": "drag", "session": opened["session"],
                              "shape": shape, "zone": zone,
                              "steps": [[10, 5], [14, 8]]})
        control.drag(14.0, 8.0)
        assert dragged["ok"], dragged
        assert dragged["svg"] == control.export_svg()
        released = app.handle({"cmd": "release",
                               "session": opened["session"]})
        control.release()
        assert released["svg"] == control.export_svg()
        assert released["source"] == control.source()
        assert released["active_zones"] == control.active_zone_count()

    def test_snapshot_restore_roundtrip_with_history(self):
        session = LiveSession(example_source("n_boxes_slider"))
        loc = next(iter(session.sliders))
        session.set_slider(loc, session.sliders[loc].hi)
        shape, zone = first_zone(session)
        session.drag_zone(shape, zone, 9.0, 5.0)
        snapshot = json.loads(json.dumps(session.snapshot()))
        restored = LiveSession.restore(snapshot)
        assert restored.source() == session.source()
        assert restored.export_svg(include_hidden=True) == \
            session.export_svg(include_hidden=True)
        assert len(restored.history) == len(session.history)
        while session.history:
            session.undo()
            restored.undo()
            assert restored.source() == session.source()
            assert restored.export_svg() == session.export_svg()

    def test_snapshot_rejects_mismatched_source(self):
        from repro.editor.session import EditorError

        snapshot = LiveSession(THREE_BOXES).snapshot()
        snapshot["current"]["user"] = snapshot["current"]["user"][:-1]
        with pytest.raises(EditorError):
            LiveSession.restore(snapshot)

    def test_snapshot_limit_expires_oldest(self):
        manager = SessionManager(max_sessions=1, snapshot_limit=1)
        sid_a, _, _ = manager.open(THREE_BOXES)
        manager.open(example_source("n_boxes_slider"))   # evicts a
        manager.open(example_source("ferris_wheel"))     # evicts b, drops a
        assert manager.stats()["expired"] == 1
        with pytest.raises(UnknownSession):
            manager.get(sid_a)

    def test_dead_failing_arithmetic_never_commits(self, tmp_path):
        manager = SessionManager(max_sessions=1)
        persister = StatePersister(str(tmp_path), manager.persist_payload)
        manager.attach_persister(persister)
        app = ServeApp(manager=manager)
        sid = open_session(app, source=DEAD_SQRT)["session"]
        drag = {"cmd": "drag", "session": sid, "shape": 0,
                "zone": "INTERIOR"}
        assert app.handle({**drag, "steps": [[-5, 0]]})["ok"]
        failed = app.handle({**drag, "steps": [[-15, 0]]})
        assert failed["error"]["code"] == "program_error"
        assert app.handle({"cmd": "release", "session": sid})["ok"]
        source = app.handle({"cmd": "source", "session": sid})["source"]
        expected = run_source(source).render()
        open_session(app, source=THREE_BOXES)          # evicts sid
        assert manager.stats()["evicted"] == 1
        rendered = app.handle({"cmd": "render", "session": sid})
        assert rendered["ok"], rendered
        assert rendered["svg"] == expected
        manager.flush_state()
        persister.stop(flush=True)
        restarted = SessionManager()
        payloads, corrupt = load_state(str(tmp_path))
        assert corrupt == 0
        assert restarted.load_state(payloads) == 2
        rendered = ServeApp(manager=restarted).handle(
            {"cmd": "render", "session": sid})
        assert rendered["ok"], rendered
        assert rendered["svg"] == expected
        assert manager.stats()["incidents"] == 0
        assert restarted.stats()["incidents"] == 0

    def test_stored_session_that_no_longer_runs_expires(self):
        # A state file is input from outside the program: its snapshot
        # may name a state whose program fails to run.
        snapshot = LiveSession(DEAD_SQRT).snapshot()
        snapshot["current"]["user"][0] = 15.0
        manager = SessionManager()
        manager.load_state([{"sid": "s7", "seq": 0, "pending": None,
                             "snapshot": snapshot}])
        app = ServeApp(manager=manager)
        first = app.handle({"cmd": "render", "session": "s7"})
        assert first["error"]["code"] == "program_error"
        second = app.handle({"cmd": "render", "session": "s7"})
        assert second["error"]["code"] == "session_expired"
        stats = manager.stats()
        assert stats["expired"] == 1
        assert stats["live_sessions"] == stats["snapshotted_sessions"] == 0
        assert stats["incidents"] == 0

    def test_malformed_state_files_are_counted_and_left_in_place(
            self, tmp_path):
        # State files are input from outside the program: a payload that
        # does not have the shape the persister writes must neither stop
        # the boot nor let its session id name a path.
        snapshot = LiveSession(
            "(def x 10) (svg [(rect 'red' x 20 30 40)])").snapshot()
        good = {"version": 1, "sid": "s1", "seq": 0, "pending": None,
                "snapshot": snapshot}
        files = {"s1": good,
                 "s2": {**good, "sid": "s2", "seq": "x"},
                 "s3": {**good, "sid": "s3", "pending": [0, "INTERIOR"]},
                 "s4": {**good, "sid": "../../escape"}}
        state_dir = tmp_path / "a" / "b" / "state"
        state_dir.mkdir(parents=True)
        for stem, payload in files.items():
            (state_dir / f"{stem}.json").write_text(json.dumps(payload))
        payloads, corrupt = load_state(str(state_dir))
        assert [payload["sid"] for payload in payloads] == ["s1"]
        assert corrupt == 3
        manager = SessionManager()
        assert manager.load_state(payloads) == 1
        persister = StatePersister(str(state_dir), manager.persist_payload)
        manager.attach_persister(persister)
        manager.flush_state()
        assert persister.writes == 1
        written = sorted(path.relative_to(tmp_path)
                         for path in tmp_path.rglob("*") if path.is_file())
        assert written == [pathlib.Path("a", "b", "state", f"{stem}.json")
                           for stem in sorted(files)]
        rendered = ServeApp(manager=manager).handle(
            {"cmd": "render", "session": "s1"})
        assert rendered["ok"], rendered

    def test_state_payload_must_be_what_the_persister_writes(self,
                                                            tmp_path):
        good = {"version": 1, "sid": "s5", "seq": 3,
                "pending": [0, "INTERIOR", 2, [1.5, -4]], "snapshot": {}}
        bad = [[], {**good, "sid": "s6"}, {**good, "sid": 5},
               {**good, "seq": True}, {**good, "seq": -1},
               {**good, "seq": 1.0}, {**good, "pending": []},
               {**good, "pending": [0, "INTERIOR", 2, [1, None]]},
               {**good, "pending": [False, "INTERIOR", 2, [1, 2]]},
               {**good, "snapshot": []}, {"sid": "s5", "seq": 0}]
        for payload in [good] + bad:
            (tmp_path / "s5.json").write_text(json.dumps(payload))
            payloads, corrupt = load_state(str(tmp_path))
            assert (len(payloads), corrupt) == \
                ((1, 0) if payload is good else (0, 1)), payload

    def test_prelude_overlays_restore_in_another_process(self, tmp_path,
                                                         repro_env):
        """A drag that rewrote a Prelude literal restores in a process
        that parsed other programs first: Prelude idents do not depend
        on what a process parsed before."""
        def run(script, *args):
            result = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path), *args],
                capture_output=True, text=True, env=repro_env, timeout=120)
            assert result.returncode == 0, result.stderr
            return json.loads(result.stdout)

        sid, prelude, svg = run(PERSIST_UNFROZEN, "sine_wave_of_boxes",
                                "wave_boxes_grid")
        assert prelude
        rendered = run(RESTORE_UNFROZEN, "three_boxes", sid)
        assert rendered["ok"], rendered
        assert rendered["svg"] == svg

    def test_close_forgets_live_and_snapshotted(self):
        manager = SessionManager(max_sessions=1)
        sid_a, _, _ = manager.open(THREE_BOXES)
        sid_b, _, _ = manager.open(example_source("ferris_wheel"))
        manager.close(sid_a)                 # snapshotted by now
        manager.close(sid_b)                 # live
        for sid in (sid_a, sid_b):
            with pytest.raises(UnknownSession):
                manager.get(sid)


# ---------------------------------------------------------------------------
# Malformed requests → structured errors
# ---------------------------------------------------------------------------

class TestProtocolErrors:
    @pytest.fixture
    def app(self):
        return ServeApp()

    def error_code(self, app, request):
        response = app.handle(request)
        assert response["ok"] is False
        assert set(response["error"]) == {"code", "message", "status"}
        return response["error"]["code"]

    def test_non_dict_requests(self, app):
        for request in (None, 17, "open", [1, 2], True):
            assert self.error_code(app, request) == "bad_request"

    def test_missing_and_unknown_command(self, app):
        assert self.error_code(app, {}) == "bad_request"
        assert self.error_code(app, {"cmd": "frobnicate"}) \
            == "unknown_command"
        assert self.error_code(app, {"cmd": 7}) == "bad_request"

    def test_open_argument_errors(self, app):
        assert self.error_code(app, {"cmd": "open"}) == "bad_request"
        assert self.error_code(
            app, {"cmd": "open", "source": "x", "example": "y"}) \
            == "bad_request"
        assert self.error_code(
            app, {"cmd": "open", "example": "no_such_example"}) \
            == "unknown_example"
        assert self.error_code(
            app, {"cmd": "open", "source": THREE_BOXES,
                  "heuristic": "greedy"}) == "bad_request"
        assert self.error_code(
            app, {"cmd": "open", "source": "(((("}) == "parse_error"
        # 401 digits overflow a float to inf.
        assert self.error_code(
            app, {"cmd": "open",
                  "source": "(svg [(rect 'red' 1" + "0" * 400 + " 0 5 5)])"}
        ) == "parse_error"
        for source in ("(svg [(rect 'r' x 1 2 3)])",
                       "(svg [['polygon' [['points' [[1 2] 3]]] []]])",
                       "(svg [['path' [['d' 5]] []]])"):
            assert self.error_code(app, {"cmd": "open", "source": source}) \
                == "program_error"

    def test_canvas_rejected_guard_flip_is_a_program_error(self, app):
        sid = open_session(app, source=(
            "(def x 30) (if (< x 20) ['rect' [] []] "
            "(svg [(rect 'red' x 20 30 40)]))"))["session"]
        for dx in (-15, -12):
            assert self.error_code(
                app, {"cmd": "drag", "session": sid, "shape": 0,
                      "zone": "INTERIOR", "steps": [[dx, 0]]}) \
                == "program_error"
        assert app.manager.stats()["incidents"] == 0

    def test_non_finite_numbers_are_classified(self, app):
        # json.loads accepts Infinity; the solver must not commit it.
        sid = open_session(app, source=THREE_BOXES)["session"]
        dragged = app.handle(
            {"cmd": "drag", "session": sid, "shape": 0, "zone": "INTERIOR",
             "steps": json.loads("[[Infinity, 0]]")})
        assert dragged["ok"], dragged
        assert "x0" in dragged["unsolved"]
        # A product that overflows to inf renders as an attribute and
        # through toString.
        big = "1" + "0" * 200
        for source in (f"(svg [(rect 'red' (* {big} {big}) 0 5 5)])",
                       f"(svg [(text 10 20 (toString (* {big} {big})))])"):
            open_session(app, source=source)
        assert app.manager.stats()["incidents"] == 0

    def test_unknown_session(self, app):
        assert self.error_code(app, {"cmd": "render", "session": "s404"}) \
            == "unknown_session"

    def test_drag_validation(self, app):
        opened = open_session(app, source=THREE_BOXES)
        sid = opened["session"]
        base = {"cmd": "drag", "session": sid, "shape": 0,
                "zone": "Interior"}
        assert self.error_code(app, {**base, "steps": []}) == "bad_request"
        assert self.error_code(app, {**base, "steps": [[1]]}) \
            == "bad_request"
        assert self.error_code(app, {**base, "steps": [[1, "a"]]}) \
            == "bad_request"
        assert self.error_code(app, {**base, "steps": "nope"}) \
            == "bad_request"
        assert self.error_code(
            app, {**base, "shape": "0", "steps": [[1, 2]]}) == "bad_request"
        assert self.error_code(
            app, {**base, "zone": "NoSuchZone", "steps": [[1, 2]]}) \
            == "editor_error"

    def test_conflicting_gesture_states(self, app):
        opened = open_session(app, source=THREE_BOXES)
        sid = opened["session"]
        assert self.error_code(app, {"cmd": "release", "session": sid}) \
            == "no_drag"
        shape, zone = first_zone(app.manager.get(sid))
        app.handle({"cmd": "drag", "session": sid, "shape": shape,
                    "zone": zone, "steps": [[2, 2]]})
        assert self.error_code(
            app, {"cmd": "drag", "session": sid, "shape": shape + 1,
                  "zone": zone, "steps": [[2, 2]]}) == "drag_in_progress"

    def test_slider_and_undo_errors(self, app):
        opened = open_session(app, source=THREE_BOXES)
        sid = opened["session"]
        assert self.error_code(
            app, {"cmd": "set_slider", "session": sid, "loc": "nope",
                  "value": 3}) == "no_slider"
        assert self.error_code(
            app, {"cmd": "set_slider", "session": sid, "loc": "nope",
                  "value": "3"}) == "bad_request"
        assert self.error_code(app, {"cmd": "undo", "session": sid}) \
            == "nothing_to_undo"

    def test_hover_out_of_range(self, app):
        opened = open_session(app, source=THREE_BOXES)
        sid = opened["session"]
        assert self.error_code(
            app, {"cmd": "hover", "session": sid, "shape": 99,
                  "zone": "Interior"}) == "bad_request"


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------

class TestHttpTransport:
    @pytest.fixture
    def server(self):
        server = make_server("127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def post(self, server, payload, raw=None):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            body = raw if raw is not None else json.dumps(payload)
            conn.request("POST", "/api", body,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_full_loop_over_http(self, server):
        control = LiveSession(THREE_BOXES)
        status, opened = self.post(server, {"cmd": "open",
                                            "source": THREE_BOXES})
        assert status == 200 and opened["ok"]
        assert opened["svg"] == control.export_svg()
        shape, zone = first_zone(control)
        status, dragged = self.post(
            server, {"cmd": "drag", "session": opened["session"],
                     "shape": shape, "zone": zone,
                     "steps": [[3, 1], [6, 2]]})
        control.start_drag(shape, zone)
        control.drag(6.0, 2.0)
        assert status == 200 and dragged["svg"] == control.export_svg()
        status, released = self.post(
            server, {"cmd": "release", "session": opened["session"]})
        control.release()
        assert status == 200 and released["source"] == control.source()

    def test_http_error_statuses(self, server):
        status, response = self.post(server, {"cmd": "render",
                                              "session": "s404"})
        assert status == 404
        assert response["error"]["code"] == "unknown_session"
        status, response = self.post(server, None, raw="{not json")
        assert status == 400 and response["error"]["code"] == "bad_json"
        status, response = self.post(server, {"cmd": "open"})
        assert status == 400 and response["error"]["code"] == "bad_request"

    def test_hostile_json_bodies_answer_bad_json(self, server):
        # 100 KB of '[' exhausts the decoder's recursion, and a 5,000-digit
        # number passes CPython's limit on int digits (a ValueError).
        for raw in ("[" * 100_000, '{"cmd": ' + "1" * 5000 + "}"):
            status, response = self.post(server, None, raw=raw)
            assert status == 400 and response["error"]["code"] == "bad_json"
        status, response = self.post(server, {"cmd": "stats"})
        assert status == 200 and response["ok"]

    def test_health_and_stats_probes(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            assert json.loads(conn.getresponse().read())["ok"]
            conn.request("GET", "/stats")
            payload = json.loads(conn.getresponse().read())
            assert payload["ok"] and "live_sessions" in payload["stats"]
            conn.request("GET", "/nope")
            response = conn.getresponse()
            assert response.status == 404
            response.read()
        finally:
            conn.close()

    def test_keep_alive_requests_do_not_stall(self, server):
        # Each response is two writes; without TCP_NODELAY the second one
        # waits about 40 ms for the client's delayed ACK of the first.
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        headers = {"Content-Type": "application/json"}
        try:
            conn.request("POST", "/api", json.dumps(
                {"cmd": "open", "example": "three_boxes"}), headers)
            sid = json.loads(conn.getresponse().read())["session"]
            render = json.dumps({"cmd": "render", "session": sid})
            for method, path, body in (("POST", "/api", render),
                                       ("GET", "/stats", None)):
                start = time.perf_counter()
                for _ in range(20):
                    conn.request(method, path, body, headers)
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
                assert time.perf_counter() - start < 0.4, (method, path)
        finally:
            conn.close()

    def test_drain_waits_for_admitted_commands(self, server, monkeypatch):
        app = server.app
        source = "(def x 10) (svg [(rect 'teal' x 20 30 40)])"
        sid = open_session(app, source=source)["session"]
        edit = {"cmd": "edit", "session": sid,
                "source": source.replace("10", "11")}
        entered = threading.Event()
        handle = app.handle

        def handle_and_signal(request):
            entered.set()
            return handle(request)

        monkeypatch.setattr(app, "handle", handle_and_signal)
        answers = []
        client = threading.Thread(
            target=lambda: answers.append(self.post(server, edit)))
        drained = threading.Thread(target=server.wait_drained, daemon=True)
        with app.manager.locked(sid):
            client.start()
            assert entered.wait(10)     # admitted, blocked on the lock
            server.drain()
            drained.start()
            drained.join(0.2)
            assert drained.is_alive()
            status, refused = self.post(server, edit)
            assert status == 503
            assert refused["error"]["code"] == "draining"
            assert drained.is_alive()
        client.join(10)
        drained.join(10)
        assert not client.is_alive() and not drained.is_alive()
        status, answer = answers[0]
        assert status == 200 and answer["ok"]
        assert answer["source"] == LiveSession(edit["source"]).source()

    def test_drain_under_concurrent_load(self, server, monkeypatch):
        # More keep-alive clients than cores and a short switch interval:
        # when the drain returns no command is still inside ``handle``,
        # and each client's commands answer ``ok`` until one answers 503.
        app = server.app
        sids = [open_session(app, example="three_boxes")["session"]
                for _ in range(6)]
        lock = threading.Lock()
        inside = [0]
        handle = app.handle

        def counted(request):
            with lock:
                inside[0] += 1
            try:
                return handle(request)
            finally:
                with lock:
                    inside[0] -= 1

        monkeypatch.setattr(app, "handle", counted)
        host, port = server.server_address[:2]
        statuses = [[] for _ in sids]
        stop = threading.Event()

        def client(index):
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                while not stop.is_set() and (not statuses[index]
                                             or statuses[index][-1] == 200):
                    status, _ = call(conn, {"cmd": "render",
                                            "session": sids[index]})
                    statuses[index].append(status)
            finally:
                conn.close()

        seen_inside = []

        def drain():
            server.wait_drained()
            with lock:
                seen_inside.append(inside[0])

        clients = [threading.Thread(target=client, args=(index,),
                                    daemon=True)
                   for index in range(len(sids))]
        drainer = threading.Thread(target=drain, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in clients:
                thread.start()
            time.sleep(0.3)
            server.drain()
            drainer.start()
            drainer.join(30)
            for thread in clients:
                thread.join(30)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not drainer.is_alive() and seen_inside == [0]
        assert not any(thread.is_alive() for thread in clients)
        for answered in statuses:
            assert answered[-1] == 503
            assert set(answered[:-1]) == {200}


def start_serve(state_dir, env):
    """``repro serve --port 0 --state-dir DIR`` and the port it bound."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--state-dir", str(state_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=dict(env, PYTHONUNBUFFERED="1"))
    for line in process.stdout:
        match = re.search(r"listening on http://[\d.]+:(\d+)/", line)
        if match:
            return process, int(match.group(1))
    process.wait(30)
    raise AssertionError("repro serve did not start")


def call(conn, payload):
    conn.request("POST", "/api", json.dumps(payload),
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class TestSigtermDrain:
    """A client keeps editing on its open connection after ``SIGTERM``:
    the server refuses what it would not persist, and a restart holds
    the last edit it answered ``ok``."""

    SOURCE = "(def x {}) (svg [(rect 'red' x 20 30 40)])"

    def test_commands_after_sigterm_are_refused_not_lost(self, tmp_path,
                                                          repro_env):
        process, port = start_serve(tmp_path, repro_env)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            status, opened = call(conn, {"cmd": "open",
                                         "source": self.SOURCE.format(0)})
            assert status == 200
            sid, acknowledged = opened["session"], opened["source"]
            process.send_signal(signal.SIGTERM)
            for x in range(1, 10_000):
                status, reply = call(conn, {"cmd": "edit", "session": sid,
                                            "source": self.SOURCE.format(x)})
                if status != 200:
                    break
                acknowledged = reply["source"]
            assert status == 503 and reply["error"]["code"] == "draining"
            conn.close()
            assert process.wait(30) == 0
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(30)
            process.stdout.close()
        process, port = start_serve(tmp_path, repro_env)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            status, restored = call(conn, {"cmd": "source", "session": sid})
            conn.close()
            assert status == 200 and restored["source"] == acknowledged
        finally:
            process.terminate()
            process.wait(30)
            process.stdout.close()


# ---------------------------------------------------------------------------
# The edit verb: text edits through the protocol
# ---------------------------------------------------------------------------

class TestEdit:
    SOURCE = "(def x 10) (svg [(rect 'teal' x 20 30 40)])"

    def test_value_edit_matches_direct_session(self):
        app = ServeApp()
        mirror = LiveSession(self.SOURCE)
        opened = open_session(app, source=self.SOURCE)
        text = self.SOURCE.replace("20", "60")
        edited = app.handle({"cmd": "edit", "session": opened["session"],
                             "source": text})
        mirror.edit_source(text)
        assert edited["ok"]
        assert edited["edit"] == "value"
        assert edited["structural"] is False
        assert len(edited["changed"]) == 1
        assert edited["svg"] == mirror.export_svg()
        assert edited["source"] == mirror.source()
        assert edited["history"] == 1

    def test_value_edit_rekeys_without_touching_compile_cache(self):
        app = ServeApp()
        opened = open_session(app, source=self.SOURCE)
        before = app.handle({"cmd": "stats"})["stats"]
        for step in range(3):
            text = self.SOURCE.replace("10", str(50 + step))
            assert app.handle({"cmd": "edit", "session": opened["session"],
                               "source": text})["edit"] == "value"
        after = app.handle({"cmd": "stats"})["stats"]
        # Re-key, not re-seed: the shared compile cache saw no new
        # compiles and no hits — the session was edited in place.
        assert after["compile_cache"]["misses"] == \
            before["compile_cache"]["misses"]
        assert after["compile_cache"]["hits"] == \
            before["compile_cache"]["hits"]
        assert after["edits"] == before["edits"] + 3
        assert after["session_edits"][opened["session"]] == {"value": 3}

    def test_structural_edit_reported_and_counted(self):
        app = ServeApp()
        opened = open_session(app, source=self.SOURCE)
        edited = app.handle({
            "cmd": "edit", "session": opened["session"],
            "source": "(def x 10) (svg [(rect 'teal' x 20 30 40) "
                      "(circle 'red' 5 6 7)])"})
        assert edited["ok"] and edited["edit"] == "structural"
        assert edited["structural"] is True and edited["shapes"] == 2
        stats = app.handle({"cmd": "stats"})["stats"]
        assert stats["session_edits"][opened["session"]] == \
            {"structural": 1}

    def test_edit_then_drag_matches_direct_session(self):
        app = ServeApp()
        mirror = LiveSession(self.SOURCE)
        opened = open_session(app, source=self.SOURCE)
        text = self.SOURCE.replace("10", "25")
        app.handle({"cmd": "edit", "session": opened["session"],
                    "source": text})
        mirror.edit_source(text)
        shape, zone = first_zone(mirror)
        dragged = app.handle({"cmd": "drag", "session": opened["session"],
                              "shape": shape, "zone": zone,
                              "steps": [[4, 3]]})
        mirror.start_drag(shape, zone)
        mirror.drag(4.0, 3.0)
        assert dragged["svg"] == mirror.export_svg()

    def test_edit_survives_eviction_and_rehydration(self):
        app = ServeApp(manager=SessionManager(max_sessions=1))
        opened = open_session(app, source=self.SOURCE)
        text = self.SOURCE.replace("20", "90")
        app.handle({"cmd": "edit", "session": opened["session"],
                    "source": text})
        open_session(app, example="three_boxes")      # evicts the first
        rendered = app.handle({"cmd": "render",
                               "session": opened["session"]})
        mirror = LiveSession(self.SOURCE)
        mirror.edit_source(text)
        assert rendered["svg"] == mirror.export_svg()
        # ... and the rehydrated session can keep editing and undoing.
        undone = app.handle({"cmd": "undo", "session": opened["session"]})
        assert undone["svg"] == LiveSession(self.SOURCE).export_svg()

    def test_parse_error_leaves_session_intact(self):
        app = ServeApp()
        opened = open_session(app, source=self.SOURCE)
        bad = app.handle({"cmd": "edit", "session": opened["session"],
                          "source": "(svg [(rect"})
        assert not bad["ok"] and bad["error"]["code"] == "parse_error"
        rendered = app.handle({"cmd": "render",
                               "session": opened["session"]})
        assert rendered["ok"] and rendered["svg"] == opened["svg"]

    def test_edit_missing_source_field_is_bad_request(self):
        app = ServeApp()
        opened = open_session(app, source=self.SOURCE)
        response = app.handle({"cmd": "edit",
                               "session": opened["session"]})
        assert response["error"]["code"] == "bad_request"

    def test_snapshot_expiry_drops_edit_counters(self):
        app = ServeApp(manager=SessionManager(max_sessions=1,
                                              snapshot_limit=1))
        first = open_session(app, source=self.SOURCE)
        app.handle({"cmd": "edit", "session": first["session"],
                    "source": self.SOURCE.replace("10", "11")})
        open_session(app, example="three_boxes")    # evicts first
        open_session(app, example="ferris_wheel")   # expires first's snap
        stats = app.handle({"cmd": "stats"})["stats"]
        assert stats["expired"] == 1
        assert first["session"] not in stats["session_edits"]

    def test_close_drops_edit_counters(self):
        app = ServeApp()
        opened = open_session(app, source=self.SOURCE)
        app.handle({"cmd": "edit", "session": opened["session"],
                    "source": self.SOURCE.replace("10", "11")})
        app.handle({"cmd": "close", "session": opened["session"]})
        stats = app.handle({"cmd": "stats"})["stats"]
        assert opened["session"] not in stats["session_edits"]
        assert stats["edits"] == 1        # the aggregate count remains
