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

import json
import threading

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
        import http.client

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

    def test_health_and_stats_probes(self, server):
        import http.client

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
