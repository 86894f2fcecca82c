"""Concurrency harness for the sharded serve layer.

The contract under test (``repro.serve``):

1. **parallel disjoint sessions** — N threads driving different sessions
   produce, per session, exactly the response stream a serial replay of
   the same script produces on a fresh ``ServeApp`` (eviction,
   rehydration, migration, and the shared compile cache are invisible);
2. **same-session ordering** — N threads racing on one session serialize
   on its lock; the per-session sequence number recovers the order the
   server applied, and replaying the applied operations in that order
   reproduces every response byte-for-byte (no torn state);
3. **single-flight compilation** — concurrent opens of identical source
   parse and evaluate exactly once;
4. **eviction never tears a live drag** — a session mid-request is
   skipped by the evictor, and eviction between requests stays
   transparent.

Stress intensity scales with the ``REPRO_STRESS_REPEAT`` environment
variable (CI sets it > 1 for a thread-sanitizer-ish soak); the default
keeps the suite fast.  Scheduling is still the OS's choice, so the tests
assert *invariants*, not particular interleavings — plus a
hypothesis-driven interleaving test that replays generated scripts.
"""

import json
import os
import re
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.editor import LiveSession
from repro.examples import example_source
from repro.serve import (ServeApp, SessionManager, make_server,
                         shard_index)

#: Multiplier for rounds/threads in the stress tests (CI soak knob).
REPEAT = max(1, int(os.environ.get("REPRO_STRESS_REPEAT", "1")))

SLIDER_EXAMPLE = "n_boxes_slider"
TEMPLATE = "(def x {v}) (svg [(rect 'teal' x 20 30 40)])"


#: Unnamed literals display as ``loc<N>`` where N is a process-global
#: parse counter — incidental naming, not session state.
LOC_TOKEN = re.compile(r"loc\d+")


def normalize(sid, response):
    """A response as comparable text: the session id (differs between a
    shared app and a fresh replay app) and the cache hit/miss field (the
    shared cache is warmed by *other* sessions) are scrubbed; everything
    else — including errors and sequence numbers — must match."""
    clean = {key: value for key, value in response.items()
             if key not in ("session", "cache")}
    return json.dumps(clean, sort_keys=True).replace(sid, "<sid>")


def canonicalize(stream):
    """Rename ``loc<N>`` tokens in numeric order so two response streams
    compare structurally: the global loc counter differs between apps,
    but idents are assigned monotonically in parse order, so their
    *relative* numeric order is what must match."""
    idents = sorted({int(match[3:]) for text in stream
                     for match in LOC_TOKEN.findall(text)})
    mapping = {f"loc{ident}": f"loc<{rank:06d}>"
               for rank, ident in enumerate(idents)}
    # Re-dump after renaming: dict keys were sorted by *raw* loc names,
    # whose lexicographic order depends on the counter's digit count.
    return [json.dumps(json.loads(
                LOC_TOKEN.sub(lambda m: mapping[m.group(0)], text)),
            sort_keys=True) for text in stream]


def run_threads(workers):
    """Start one thread per callable, join them, re-raise any failure."""
    errors = []

    def guarded(fn):
        def run():
            try:
                fn()
            except BaseException as error:   # noqa: BLE001 (re-raised)
                errors.append(error)
        return run

    threads = [threading.Thread(target=guarded(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# Script execution: the same materializer drives concurrent and serial runs
# ---------------------------------------------------------------------------

def materialize(app, sid, opened, spec, op):
    """One abstract op -> a concrete request dict.  Derivations use only
    per-session state, so identical per-session histories materialize
    identical requests in the concurrent run and the serial replay."""
    kind = op[0]
    if kind == "drag":
        _, zone_index, dx, dy, sync = op
        session = app.manager.get(sid)
        keys = sorted(session.triggers)
        shape, zone = keys[zone_index % len(keys)]
        request = {"cmd": "drag", "session": sid, "shape": shape,
                   "zone": zone, "steps": [[dx, dy], [dx * 2, dy + 1]]}
        if not sync:
            request["sync"] = False
        return request
    if kind == "release":
        return {"cmd": "release", "session": sid}
    if kind == "undo":
        return {"cmd": "undo", "session": sid}
    if kind == "render":
        return {"cmd": "render", "session": sid}
    if kind == "slider":
        sliders = opened.get("sliders") or []
        name = sliders[0]["loc"] if sliders else "nope"
        return {"cmd": "set_slider", "session": sid, "loc": name,
                "value": 1 + op[1] % 5}
    if kind == "edit":
        if spec["template"]:
            text = TEMPLATE.format(v=10 + op[1])
        else:
            text = spec["source"]        # revert-to-original value edit
        return {"cmd": "edit", "session": sid, "source": text}
    raise AssertionError(f"unknown op {op!r}")


def execute_script(app, spec, ops):
    """Open a session and run ``ops`` against ``app``; returns the
    normalized response stream (the open response included)."""
    opened = app.handle({"cmd": "open", "source": spec["source"]})
    assert opened["ok"], opened
    sid = opened["session"]
    stream = [normalize(sid, opened)]
    for op in ops:
        request = materialize(app, sid, opened, spec, op)
        stream.append(normalize(sid, app.handle(request)))
    return stream


def spec_for(index):
    if index % 2 == 0:
        return {"source": TEMPLATE.format(v=10 + index), "template": True}
    return {"source": example_source(SLIDER_EXAMPLE), "template": False}


# ---------------------------------------------------------------------------
# 1. Disjoint sessions: concurrent == serial replay, byte for byte
# ---------------------------------------------------------------------------

class TestDisjointSessions:
    def script(self, index, rounds):
        ops = []
        for r in range(rounds):
            ops.append(("drag", r + index, 2 + (r * 3 + index) % 9,
                        1 + (r * 5 + index) % 7, True))
            ops.append(("release",))
            ops.append(("slider", r + index))
            ops.append(("undo",))
        return ops

    def test_hammered_disjoint_sessions_match_serial_replay(self):
        threads = 6
        rounds = 3 * REPEAT
        # Small budgets force constant eviction/rehydration/migration
        # churn underneath the hammering threads.
        app = ServeApp(manager=SessionManager(max_sessions=3, shards=2))
        specs = [spec_for(i) for i in range(threads)]
        scripts = [self.script(i, rounds) for i in range(threads)]
        streams = [None] * threads

        def worker(i):
            def run():
                streams[i] = execute_script(app, specs[i], scripts[i])
            return run

        run_threads([worker(i) for i in range(threads)])

        stats = app.handle({"cmd": "stats"})["stats"]
        assert stats["live_sessions"] <= 3
        for i in range(threads):
            replay = execute_script(ServeApp(), specs[i], scripts[i])
            assert canonicalize(streams[i]) == canonicalize(replay), \
                f"session {i} diverged"

    def test_parallel_disjoint_opens_and_drags_match_mirrors(self):
        threads = 8
        rounds = 4 * REPEAT
        app = ServeApp(manager=SessionManager(max_sessions=threads,
                                              shards=4))

        def worker(i):
            def run():
                source = TEMPLATE.format(v=20 + i)
                mirror = LiveSession(source)
                opened = app.handle({"cmd": "open", "source": source})
                assert opened["ok"]
                sid = opened["session"]
                shape, zone = sorted(mirror.triggers)[0]
                for r in range(rounds):
                    dx, dy = float(3 + r + i), float(2 + r)
                    dragged = app.handle(
                        {"cmd": "drag", "session": sid, "shape": shape,
                         "zone": zone, "steps": [[dx, dy]]})
                    released = app.handle({"cmd": "release",
                                           "session": sid})
                    mirror.start_drag(shape, zone)
                    mirror.drag(dx, dy)
                    mirror.release()
                    assert dragged["ok"] and released["ok"]
                    assert released["svg"] == mirror.export_svg()
                    assert released["source"] == mirror.source()
            return run

        run_threads([worker(i) for i in range(threads)])


# ---------------------------------------------------------------------------
# 2. One session, many threads: per-session ordering, no torn state
# ---------------------------------------------------------------------------

class TestSameSessionRace:
    def test_racing_threads_serialize_and_replay_in_seq_order(self):
        threads = 6
        per_thread = 4 * REPEAT
        app = ServeApp(manager=SessionManager(max_sessions=4, shards=2))
        opened = app.handle({"cmd": "open",
                             "source": TEMPLATE.format(v=10)})
        sid = opened["session"]
        shape, zone = sorted(app.manager.get(sid).triggers)[0]
        recorded = []
        record_lock = threading.Lock()

        def worker(t):
            def run():
                for k in range(per_thread):
                    # Everyone fights over the same gesture: drags
                    # continue it, releases commit it mid-flight.
                    if (t + k) % 3 == 2:
                        request = {"cmd": "release", "session": sid}
                    else:
                        dx = float(2 + (t * per_thread + k) % 17)
                        dy = float(1 + (t * 3 + k) % 11)
                        request = {"cmd": "drag", "session": sid,
                                   "shape": shape, "zone": zone,
                                   "steps": [[dx, dy]]}
                    response = app.handle(request)
                    if not response["ok"]:
                        # The only legitimate rejections in this schedule.
                        assert response["error"]["code"] in (
                            "no_drag", "drag_in_progress")
                    with record_lock:
                        recorded.append((request, response))
            return run

        run_threads([worker(t) for t in range(threads)])

        applied = sorted((pair for pair in recorded if pair[1]["ok"]),
                         key=lambda pair: pair[1]["seq"])
        # The sequence numbers recover a total order with no holes and
        # no duplicates: every applied op is accounted for exactly once.
        assert [r["seq"] for _, r in applied] == \
            list(range(1, len(applied) + 1))

        # Replaying the applied ops in seq order on a fresh app must
        # reproduce every response byte-for-byte: the racing threads
        # observed *some* serial schedule, not torn state.
        replay_app = ServeApp()
        replay_opened = replay_app.handle(
            {"cmd": "open", "source": TEMPLATE.format(v=10)})
        replay_sid = replay_opened["session"]
        raced, replayed = [], []
        for request, response in applied:
            raced.append(normalize(sid, response))
            replayed.append(normalize(
                replay_sid,
                replay_app.handle({**request, "session": replay_sid})))
        assert canonicalize(raced) == canonicalize(replayed)

    def test_client_seq_fences_racing_duplicates(self):
        app = ServeApp()
        opened = app.handle({"cmd": "open",
                             "source": TEMPLATE.format(v=10)})
        sid = opened["session"]
        shape, zone = sorted(app.manager.get(sid).triggers)[0]
        threads = 5
        outcomes = [None] * threads

        def worker(t):
            def run():
                # Every thread claims seq 1: exactly one may win.
                outcomes[t] = app.handle(
                    {"cmd": "drag", "session": sid, "shape": shape,
                     "zone": zone, "steps": [[4, 2]], "seq": 1})
            return run

        run_threads([worker(t) for t in range(threads)])
        winners = [r for r in outcomes if r["ok"]]
        losers = [r for r in outcomes if not r["ok"]]
        assert len(winners) == 1 and winners[0]["seq"] == 1
        assert all(r["error"]["code"] == "stale_seq" for r in losers)
        # The duplicate drags were rejected *without* being applied.
        mirror = LiveSession(TEMPLATE.format(v=10))
        mirror.start_drag(shape, zone)
        mirror.drag(4.0, 2.0)
        rendered = app.handle({"cmd": "render", "session": sid})
        assert rendered["svg"] == mirror.export_svg()


# ---------------------------------------------------------------------------
# 3. Single-flight compile cache
# ---------------------------------------------------------------------------

class TestSingleFlightCompile:
    def test_concurrent_identical_opens_compile_exactly_once(self):
        manager = SessionManager(max_sessions=32, shards=4)
        source = example_source("ferris_wheel")
        threads = 8
        barrier = threading.Barrier(threads)
        sessions = [None] * threads

        def worker(i):
            def run():
                barrier.wait()
                _sid, session, _hit = manager.open(source)
                sessions[i] = session
            return run

        run_threads([worker(i) for i in range(threads)])
        stats = manager.cache.stats()
        assert stats["misses"] == 1, stats
        assert stats["hits"] == threads - 1
        # Coalesced opens blocked on the leader's compile; late opens
        # would hit the stored entry instead — either way, one parse.
        assert stats["coalesced"] <= threads - 1
        programs = {id(session.program) for session in sessions}
        assert len(programs) == 1
        cold = LiveSession(source)
        for session in sessions:
            assert session.export_svg() == cold.export_svg()

    def test_leader_failure_propagates_to_waiters(self):
        from repro.lang.errors import LittleError

        manager = SessionManager(max_sessions=8)
        bad = "(svg [(rect 'r' nope 1 2 3)])"
        threads = 4
        barrier = threading.Barrier(threads)
        failures = [None] * threads

        def worker(i):
            def run():
                barrier.wait()
                try:
                    manager.open(bad)
                except LittleError as error:
                    failures[i] = error
            return run

        run_threads([worker(i) for i in range(threads)])
        assert all(failure is not None for failure in failures)
        # Failures are not cached: a later open re-attempts the compile.
        assert manager.cache.stats()["misses"] == 0


# ---------------------------------------------------------------------------
# 4. Eviction racing a live drag
# ---------------------------------------------------------------------------

class TestEvictionRace:
    def test_eviction_pressure_never_tears_a_dragging_session(self):
        app = ServeApp(manager=SessionManager(max_sessions=2, shards=1,
                                              snapshot_limit=64))
        rounds = 8 * REPEAT
        source = TEMPLATE.format(v=30)
        stop = threading.Event()

        def dragger():
            mirror = LiveSession(source)
            opened = app.handle({"cmd": "open", "source": source})
            assert opened["ok"]
            sid = opened["session"]
            shape, zone = sorted(mirror.triggers)[0]
            try:
                for r in range(rounds):
                    dx, dy = float(2 + r % 13), float(1 + r % 9)
                    dragged = app.handle(
                        {"cmd": "drag", "session": sid, "shape": shape,
                         "zone": zone, "steps": [[dx, dy]]})
                    mirror.start_drag(shape, zone)
                    mirror.drag(dx, dy)
                    assert dragged["ok"], dragged
                    assert dragged["svg"] == mirror.export_svg()
                    released = app.handle({"cmd": "release",
                                           "session": sid})
                    mirror.release()
                    assert released["ok"], released
                    assert released["svg"] == mirror.export_svg()
                    assert released["source"] == mirror.source()
            finally:
                stop.set()

        def churner():
            i = 0
            while not stop.is_set():
                response = app.handle(
                    {"cmd": "open",
                     "source": TEMPLATE.format(v=100 + i)})
                assert response["ok"], response
                i += 1

        run_threads([dragger, churner])
        stats = app.handle({"cmd": "stats"})["stats"]
        assert stats["live_sessions"] <= 2


# ---------------------------------------------------------------------------
# Sequence numbers, async drags, expiry, migration (single-threaded
# regressions for the protocol-level machinery the stress tests lean on)
# ---------------------------------------------------------------------------

class TestSequenceNumbers:
    def test_duplicate_and_gap_detected_not_applied(self):
        app = ServeApp()
        opened = app.handle({"cmd": "open",
                             "source": TEMPLATE.format(v=10)})
        sid = opened["session"]
        shape, zone = sorted(app.manager.get(sid).triggers)[0]
        first = app.handle({"cmd": "drag", "session": sid, "shape": shape,
                            "zone": zone, "steps": [[3, 2]], "seq": 1})
        assert first["ok"] and first["seq"] == 1
        before = app.handle({"cmd": "render", "session": sid})["svg"]
        duplicate = app.handle({"cmd": "drag", "session": sid,
                                "shape": shape, "zone": zone,
                                "steps": [[9, 9]], "seq": 1})
        assert duplicate["error"]["code"] == "stale_seq"
        assert duplicate["error"]["status"] == 409
        gap = app.handle({"cmd": "release", "session": sid, "seq": 7})
        assert gap["error"]["code"] == "seq_gap"
        # Neither rejected request moved the session.
        assert app.handle({"cmd": "render", "session": sid})["svg"] \
            == before
        accepted = app.handle({"cmd": "release", "session": sid,
                               "seq": 2})
        assert accepted["ok"] and accepted["seq"] == 2

    def test_failed_commands_do_not_consume_seq(self):
        app = ServeApp()
        opened = app.handle({"cmd": "open",
                             "source": TEMPLATE.format(v=10)})
        sid = opened["session"]
        rejected = app.handle({"cmd": "release", "session": sid,
                               "seq": 1})
        assert rejected["error"]["code"] == "no_drag"
        shape, zone = sorted(app.manager.get(sid).triggers)[0]
        retried = app.handle({"cmd": "drag", "session": sid,
                              "shape": shape, "zone": zone,
                              "steps": [[2, 2]], "seq": 1})
        assert retried["ok"] and retried["seq"] == 1


class TestAsyncDrag:
    def test_queued_bursts_flush_as_one_rerun(self):
        app = ServeApp()
        source = TEMPLATE.format(v=10)
        opened = app.handle({"cmd": "open", "source": source})
        sid = opened["session"]
        mirror = LiveSession(source)
        shape, zone = sorted(mirror.triggers)[0]
        for steps in ([[2, 1]], [[5, 2], [7, 3]], [[9, 4]]):
            ack = app.handle({"cmd": "drag", "session": sid,
                              "shape": shape, "zone": zone,
                              "steps": steps, "sync": False})
            assert ack["ok"] and ack["queued"] == len(steps)
            assert "svg" not in ack          # acknowledged, not applied
        assert ack["pending"] == 4
        # The flush applies all queued samples as one re-run at the
        # final cumulative offset — byte-identical to eager stepping.
        mirror.start_drag(shape, zone)
        mirror.drag(9.0, 4.0)
        rendered = app.handle({"cmd": "render", "session": sid})
        assert rendered["svg"] == mirror.export_svg()
        released = app.handle({"cmd": "release", "session": sid})
        mirror.release()
        assert released["svg"] == mirror.export_svg()
        assert released["source"] == mirror.source()
        assert released["history"] == 1

    def test_invalid_gesture_rejected_at_queue_time(self):
        app = ServeApp()
        source = TEMPLATE.format(v=10)
        opened = app.handle({"cmd": "open", "source": source})
        sid = opened["session"]
        bad = app.handle({"cmd": "drag", "session": sid, "shape": 99,
                          "zone": "interior", "steps": [[1, 1]],
                          "sync": False})
        # Rejected immediately — not acknowledged and exploded later.
        assert bad["error"]["code"] == "editor_error"
        assert app.manager.pending_drag(sid) is None
        rendered = app.handle({"cmd": "render", "session": sid})
        assert rendered["ok"] and rendered["svg"] == opened["svg"]

    def test_eviction_survives_a_poisoned_queued_gesture(self):
        # queue_drag is below the protocol's validation, so a bad
        # gesture can only reach the evictor's flush through direct
        # manager use — it must never destroy the session or fail the
        # bystander open that triggered shedding.
        manager = SessionManager(max_sessions=1)
        source = TEMPLATE.format(v=10)
        sid, session, _hit = manager.open(source)
        with manager.locked(sid):
            manager.queue_drag(sid, 99, "interior", [[1, 1]])
        sid_b, _session_b, _ = manager.open(TEMPLATE.format(v=11))
        stats = manager.stats()
        assert stats["live_sessions"] == 2      # shed deferred, not torn
        assert stats["evicted"] == 0
        # The poisoned gesture was dropped; both sessions still work.
        assert manager.pending_drag(sid) is None
        cold = LiveSession(source)
        assert manager.get(sid).export_svg() == cold.export_svg()
        assert manager.get(sid_b) is not None
        # The next request completes the deferred shed.
        assert manager.stats()["live_sessions"] <= 2

    def test_queued_bursts_survive_eviction(self):
        app = ServeApp(manager=SessionManager(max_sessions=1))
        source = TEMPLATE.format(v=10)
        opened = app.handle({"cmd": "open", "source": source})
        sid = opened["session"]
        mirror = LiveSession(source)
        shape, zone = sorted(mirror.triggers)[0]
        ack = app.handle({"cmd": "drag", "session": sid, "shape": shape,
                          "zone": zone, "steps": [[6, 3]], "sync": False})
        assert ack["ok"]
        app.handle({"cmd": "open", "example": "three_boxes"})  # evicts
        mirror.start_drag(shape, zone)
        mirror.drag(6.0, 3.0)
        mirror.release()
        released = app.handle({"cmd": "release", "session": sid})
        assert released["ok"], released
        assert released["svg"] == mirror.export_svg()
        assert released["source"] == mirror.source()


class TestExpiredSessions:
    def test_expired_session_is_distinct_from_never_opened(self):
        app = ServeApp(manager=SessionManager(max_sessions=1,
                                              snapshot_limit=1))
        first = app.handle({"cmd": "open", "example": "three_boxes"})
        app.handle({"cmd": "open", "example": "ferris_wheel"})
        app.handle({"cmd": "open", "example": SLIDER_EXAMPLE})
        expired = app.handle({"cmd": "render",
                              "session": first["session"]})
        assert expired["error"]["code"] == "session_expired"
        assert expired["error"]["status"] == 410
        unknown = app.handle({"cmd": "render", "session": "s404"})
        assert unknown["error"]["code"] == "unknown_session"
        assert unknown["error"]["status"] == 404
        stats = app.handle({"cmd": "stats"})["stats"]
        assert stats["expired"] == 1

    def test_closed_session_stays_unknown_not_expired(self):
        app = ServeApp()
        opened = app.handle({"cmd": "open", "example": "three_boxes"})
        app.handle({"cmd": "close", "session": opened["session"]})
        response = app.handle({"cmd": "render",
                               "session": opened["session"]})
        assert response["error"]["code"] == "unknown_session"

    def test_expiry_racing_close_does_not_resurrect_the_id(self):
        # Deterministic replay of the race: the shard's snapshot store
        # pops an id for expiry, the client closes it before the
        # coordinator records the tombstone.  The close must win — no
        # tombstone, no expired count, still a plain 404.
        manager = SessionManager(max_sessions=8)
        sid, _session, _hit = manager.open(TEMPLATE.format(v=10))
        manager.close(sid)
        manager._expire([sid])
        import pytest as _pytest
        from repro.serve import SessionExpired, UnknownSession
        with _pytest.raises(UnknownSession) as caught:
            manager.get(sid)
        assert not isinstance(caught.value, SessionExpired)
        assert manager.stats()["expired"] == 0


class TestMigration:
    def test_hot_shard_migrates_to_cold_instead_of_evicting(self):
        # crc32 placement is deterministic: s1, s2, s3 all hash to shard
        # 0 of 2, so the third open overflows shard 0's budget of 2 and
        # must migrate its LRU session to shard 1 instead of snapshotting.
        assert [shard_index(f"s{i}", 2) for i in (1, 2, 3)] == [0, 0, 0]
        manager = SessionManager(max_sessions=4, shards=2)
        source = TEMPLATE.format(v=10)
        sids = [manager.open(source)[0] for _ in range(3)]
        stats = manager.stats()
        assert stats["migrations"] == 1
        assert stats["evicted"] == 0
        assert stats["live_sessions"] == 3
        assert [shard["live"] for shard in stats["per_shard"]] == [2, 1]
        # Migrated sessions stay addressable and correct.
        cold = LiveSession(source)
        for sid in sids:
            assert manager.get(sid).export_svg() == cold.export_svg()

    def test_small_snapshot_limit_split_across_shards_still_stores(self):
        # snapshot_limit=2 over 4 shards would round two budgets to 0;
        # the floor of 1 keeps a fresh eviction addressable instead of
        # expiring it on the spot.
        manager = SessionManager(max_sessions=4, shards=4,
                                 snapshot_limit=2)
        assert all(shard.snapshot_budget >= 1
                   for shard in manager.shards)

    def test_queued_drag_storage_is_constant_size(self):
        app = ServeApp()
        source = TEMPLATE.format(v=10)
        opened = app.handle({"cmd": "open", "source": source})
        sid = opened["session"]
        mirror = LiveSession(source)
        shape, zone = sorted(mirror.triggers)[0]
        for burst in range(50):
            ack = app.handle({"cmd": "drag", "session": sid,
                              "shape": shape, "zone": zone,
                              "steps": [[burst + 1, burst]] * 4,
                              "sync": False})
            assert ack["ok"] and ack["pending"] == 4 * (burst + 1)
        # Only the count and the final cumulative sample are retained.
        pending = app.manager.pending_drag(sid)
        assert pending == (shape, zone, 200, [50, 49])
        mirror.start_drag(shape, zone)
        mirror.drag(50.0, 49.0)
        rendered = app.handle({"cmd": "render", "session": sid})
        assert rendered["svg"] == mirror.export_svg()

    def test_all_shards_full_falls_back_to_snapshot_eviction(self):
        manager = SessionManager(max_sessions=2, shards=2)
        source = TEMPLATE.format(v=10)
        sids = [manager.open(source)[0] for _ in range(3)]
        stats = manager.stats()
        assert stats["live_sessions"] == 2
        assert stats["evicted"] == 1
        # s1 was migrated live; s2 is the snapshotted one — and it
        # transparently rehydrates.
        cold = LiveSession(source)
        assert manager.get(sids[1]).export_svg() == cold.export_svg()
        assert manager.stats()["rehydrated"] == 1


# ---------------------------------------------------------------------------
# HTTP transport: concurrent dispatch end to end
# ---------------------------------------------------------------------------

class TestConcurrentHttp:
    def test_parallel_clients_over_http(self):
        import http.client

        app = ServeApp(manager=SessionManager(max_sessions=16, shards=4))
        server = make_server("127.0.0.1", 0, app)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        clients = 6
        rounds = 2 * REPEAT
        try:
            def worker(i):
                def run():
                    source = TEMPLATE.format(v=40 + i)
                    mirror = LiveSession(source)
                    conn = http.client.HTTPConnection(host, port,
                                                      timeout=30)
                    try:
                        def post(payload):
                            conn.request(
                                "POST", "/api", json.dumps(payload),
                                {"Content-Type": "application/json"})
                            response = conn.getresponse()
                            assert response.status == 200
                            return json.loads(response.read())

                        opened = post({"cmd": "open", "source": source})
                        sid = opened["session"]
                        assert opened["svg"] == mirror.export_svg()
                        shape, zone = sorted(mirror.triggers)[0]
                        for r in range(rounds):
                            dx, dy = float(3 + r + i), float(2 + r)
                            post({"cmd": "drag", "session": sid,
                                  "shape": shape, "zone": zone,
                                  "steps": [[dx, dy]]})
                            released = post({"cmd": "release",
                                             "session": sid})
                            mirror.start_drag(shape, zone)
                            mirror.drag(dx, dy)
                            mirror.release()
                            assert released["svg"] == mirror.export_svg()
                    finally:
                        conn.close()
                return run

            run_threads([worker(i) for i in range(clients)])
        finally:
            server.shutdown()
            server.server_close()


# ---------------------------------------------------------------------------
# Property-based interleavings: hypothesis scripts across threads
# ---------------------------------------------------------------------------

OP = st.one_of(
    st.tuples(st.just("drag"), st.integers(0, 3), st.integers(1, 12),
              st.integers(1, 9), st.booleans()),
    st.tuples(st.just("release")),
    st.tuples(st.just("undo")),
    st.tuples(st.just("render")),
    st.tuples(st.just("slider"), st.integers(0, 7)),
    st.tuples(st.just("edit"), st.integers(0, 3)),
)


class TestPropertyInterleavings:
    @settings(max_examples=10 * REPEAT, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scripts=st.lists(st.lists(OP, min_size=1, max_size=6),
                            min_size=2, max_size=3))
    def test_interleaved_scripts_match_serial_replay(self, scripts):
        """Every per-session response stream under a concurrent schedule
        equals the same script replayed serially on a fresh ``ServeApp``
        — the byte-identity contract of ``tests/test_serve.py``, extended
        to concurrent schedules (with eviction churn underneath)."""
        app = ServeApp(manager=SessionManager(max_sessions=2, shards=2))
        specs = [spec_for(i) for i in range(len(scripts))]
        streams = [None] * len(scripts)

        def worker(i):
            def run():
                streams[i] = execute_script(app, specs[i], scripts[i])
            return run

        run_threads([worker(i) for i in range(len(scripts))])
        for i, script in enumerate(scripts):
            replay = execute_script(ServeApp(), specs[i], script)
            assert canonicalize(streams[i]) == canonicalize(replay), (
                f"script {i} diverged under the concurrent schedule:\n"
                f"{script!r}")
