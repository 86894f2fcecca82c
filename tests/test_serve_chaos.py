"""Chaos suite: deterministic fault injection composed with concurrency.

Arms the injection points of :mod:`repro.serve.faults` and drives the
serve layer through the failure schedules production would take years
to produce, asserting the fault-containment contract:

1. **determinism** — the same ``(spec, seed)`` replays the exact same
   failure schedule: two fresh apps produce byte-identical response
   streams, injected failures included;
2. **quarantine + self-healing** — an unexpected dispatch failure
   yields a structured ``internal_error`` with an incident id, and the
   session's next touch transparently restores the last-good snapshot
   (the state of its last successful boundary command);
3. **no session is lost silently** — every session id keeps answering:
   ``ok``, a structured error, or (when healing itself is made
   impossible) a ``session_expired`` 410 — never a hang, a wedged lock,
   or a torn state;
4. **persister failure containment** — disk-full writes degrade
   ``health()``, retry, and drain once the disk recovers; a warm
   restart reproduces every session byte-for-byte.

The failure *schedule* comes from ``REPRO_FAULT_SEED`` (default 0); CI
runs the suite across several seeds.  Multi-threaded tests assert
invariants (the OS still owns the interleaving); single-threaded tests
get bit-stable schedules.
"""

import json
import os
import threading

from repro.editor import LiveSession
from repro.serve import ServeApp, SessionManager
from repro.serve.faults import FaultPlan, InjectedFault, fail_point
from repro.serve.persist import StatePersister, load_state

from test_serve_concurrency import (REPEAT, TEMPLATE, canonicalize,
                                    normalize, run_threads)

#: The chaos schedule's seed — CI sweeps several values.
SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

#: Commands that refresh the rolling last-good snapshot on success.
BOUNDARIES = frozenset({"open", "release", "edit", "set_slider", "undo"})


def drive_script(app, source, ops):
    """Open a session and run ``ops`` (request-dict factories taking the
    session id); returns ``(sid, [normalized responses])``."""
    opened = app.handle({"cmd": "open", "source": source})
    assert opened["ok"], opened
    sid = opened["session"]
    stream = [normalize(sid, opened)]
    for op in ops:
        stream.append(normalize(sid, app.handle(op(sid))))
    return sid, stream


def gesture_ops(rounds, index=0):
    """A deterministic drag/release/edit script (shape 0, INTERIOR)."""
    ops = []
    for r in range(rounds):
        dx, dy = float(2 + (r * 3 + index) % 9), float(1 + (r + index) % 7)
        ops.append(lambda sid, dx=dx, dy=dy: {
            "cmd": "drag", "session": sid, "shape": 0, "zone": "INTERIOR",
            "steps": [[dx, dy]]})
        ops.append(lambda sid: {"cmd": "release", "session": sid})
        if r % 3 == 2:
            ops.append(lambda sid, r=r, index=index: {
                "cmd": "edit", "session": sid,
                "source": TEMPLATE.format(v=10 + index + r)})
    return ops


# ---------------------------------------------------------------------------
# 1. Determinism: same (spec, seed) -> same schedule, byte for byte
# ---------------------------------------------------------------------------

class TestDeterminism:
    SPEC = "dispatch.drag:0.4,dispatch.release:0.3,budget.force:0.2"

    def run_once(self, seed):
        plan = FaultPlan(self.SPEC, seed=seed)
        app = ServeApp(faults=plan)
        _sid, stream = drive_script(app, TEMPLATE.format(v=10),
                                    gesture_ops(6 * REPEAT))
        return stream, plan.counts()

    def test_same_seed_replays_identical_failure_schedule(self):
        first, first_counts = self.run_once(SEED)
        second, second_counts = self.run_once(SEED)
        assert first_counts == second_counts
        assert canonicalize(first) == canonicalize(second)
        # The schedule actually exercised both outcomes at these rates.
        assert sum(first_counts.values()) > 0

    def test_plans_are_independent_of_draw_interleaving(self):
        # Drawing point A ten times before point B must not change
        # point B's schedule: each point owns its seeded stream.
        solo = FaultPlan({"a": 0.5, "b": 0.5}, seed=SEED)
        behaviour_b = [solo.should_fire("b") for _ in range(20)]
        interleaved = FaultPlan({"a": 0.5, "b": 0.5}, seed=SEED)
        for _ in range(10):
            interleaved.should_fire("a")
        assert [interleaved.should_fire("b")
                for _ in range(20)] == behaviour_b

    def test_wildcard_precedence(self):
        plan = FaultPlan({"dispatch.*": 1.0, "dispatch.render": 0.0},
                         seed=SEED)
        assert plan.rate_for("dispatch.drag") == 1.0
        assert plan.rate_for("dispatch.render") == 0.0   # exact wins
        assert plan.rate_for("persist.write") == 0.0     # not armed


# ---------------------------------------------------------------------------
# 2. Quarantine + self-healing at the protocol boundary
# ---------------------------------------------------------------------------

class TestQuarantineHealing:
    def test_incident_then_heal_restores_last_boundary_state(self):
        plan = FaultPlan({"dispatch.edit": 1.0}, seed=SEED)
        app = ServeApp(faults=plan)
        source = TEMPLATE.format(v=10)
        opened = app.handle({"cmd": "open", "source": source})
        sid = opened["session"]
        # Advance to a boundary: drag + release refreshes last-good.
        app.handle({"cmd": "drag", "session": sid, "shape": 0,
                    "zone": "INTERIOR", "steps": [[4, 3]]})
        released = app.handle({"cmd": "release", "session": sid})
        assert released["ok"]
        # Drag beyond the boundary — progress healing must discard.
        app.handle({"cmd": "drag", "session": sid, "shape": 0,
                    "zone": "INTERIOR", "steps": [[9, 9]]})
        failed = app.handle({"cmd": "edit", "session": sid,
                             "source": source})
        assert failed["error"]["code"] == "internal_error"
        assert failed["error"]["status"] == 500
        assert failed["error"]["incident"]
        assert app.manager.poisoned_count() == 1
        # Next touch self-heals to the release-time state.
        rendered = app.handle({"cmd": "render", "session": sid})
        assert rendered["ok"]
        assert rendered["svg"] == released["svg"]
        assert app.manager.poisoned_count() == 0
        stats = app.handle({"cmd": "stats"})["stats"]
        assert stats["incidents"] == 1 and stats["healed"] == 1
        assert stats["faults"] == {"dispatch.edit": 1}

    def test_budget_force_refuses_without_touching_state(self):
        plan = FaultPlan({"budget.force": 1.0}, seed=SEED)
        app = ServeApp(faults=plan)
        opened = app.handle({"cmd": "open",
                             "source": TEMPLATE.format(v=10)})
        sid = opened["session"]
        refused = app.handle({"cmd": "drag", "session": sid, "shape": 0,
                              "zone": "INTERIOR", "steps": [[4, 3]]})
        assert refused["error"]["code"] == "program_limit"
        assert refused["error"]["status"] == 422
        rendered = app.handle({"cmd": "render", "session": sid})
        assert rendered["ok"] and rendered["svg"] == opened["svg"]
        assert app.manager.poisoned_count() == 0     # refused, not torn
        assert app.handle({"cmd": "stats"})["stats"]["limit_errors"] == 1

    def test_compile_leader_fault_fails_open_without_wedging(self):
        plan = FaultPlan({"compile.leader": 1.0}, seed=SEED)
        app = ServeApp(faults=plan)
        source = TEMPLATE.format(v=10)
        failed = app.handle({"cmd": "open", "source": source})
        assert failed["error"]["code"] == "internal_error"
        # Failures are not cached and the flight is not wedged: disarm
        # and the same source opens cleanly.
        plan.rates["compile.leader"] = 0.0
        opened = app.handle({"cmd": "open", "source": source})
        assert opened["ok"], opened

    def test_deserialize_fault_ends_in_structured_410_never_a_hang(self):
        # Healing is impossible (every restore fails): the session must
        # degrade 500 -> 410, not wedge or resurrect corrupt state.
        plan = FaultPlan({"snapshot.deserialize": 1.0}, seed=SEED)
        app = ServeApp(manager=SessionManager(max_sessions=1,
                                              faults=plan))
        first = app.handle({"cmd": "open",
                            "source": TEMPLATE.format(v=10)})
        app.handle({"cmd": "open", "source": TEMPLATE.format(v=11)})
        sid = first["session"]
        poisoned = app.handle({"cmd": "render", "session": sid})
        assert poisoned["error"]["code"] == "internal_error"
        expired = app.handle({"cmd": "render", "session": sid})
        assert expired["error"]["code"] == "session_expired"
        assert expired["error"]["status"] == 410
        stats = app.handle({"cmd": "stats"})["stats"]
        assert stats["heal_failures"] == 1
        assert app.manager.poisoned_count() == 0


class TestSpecializeFaults:
    """Failed trace-compiler specialization (:mod:`repro.lang.compile`)
    is pure degradation: every response stays byte-identical to an
    unfaulted server, the failure is counted in ``/stats``, and no
    session is quarantined."""

    def test_specialize_fault_degrades_to_interpreter_identically(self):
        source = TEMPLATE.format(v=10)
        ops = gesture_ops(4)
        plan = FaultPlan({"compile.specialize": 1.0}, seed=SEED)
        faulted_app = ServeApp(faults=plan)
        _, faulted = drive_script(faulted_app, source, ops)
        clean_app = ServeApp()
        _, clean = drive_script(clean_app, source, ops)
        # never a wrong/missing answer (loc idents canonicalized: the
        # global counter differs between the two apps)
        assert canonicalize(faulted) == canonicalize(clean)
        stats = faulted_app.handle({"cmd": "stats"})["stats"]
        assert stats["faults"]["compile.specialize"] >= 1
        assert stats["specialize_failures"] >= 1
        assert stats["specializations"] == 0     # pinned to the interpreter
        assert faulted_app.manager.poisoned_count() == 0
        clean_stats = clean_app.handle({"cmd": "stats"})["stats"]
        assert clean_stats["specializations"] >= 1
        assert clean_stats["specialize_failures"] == 0


# ---------------------------------------------------------------------------
# 3. Snapshot failure containment (eviction + last-good refresh)
# ---------------------------------------------------------------------------

class TestSnapshotFaults:
    def test_serialize_storm_counts_and_keeps_sessions_correct(self):
        plan = FaultPlan({"snapshot.serialize": 1.0}, seed=SEED)
        logged = []
        manager = SessionManager(max_sessions=1, faults=plan,
                                 log=logged.append)
        app = ServeApp(manager=manager)
        source = TEMPLATE.format(v=10)
        opened = app.handle({"cmd": "open", "source": source})
        sid = opened["session"]
        # Boundary refresh fails: counted, session keeps working.
        app.handle({"cmd": "drag", "session": sid, "shape": 0,
                    "zone": "INTERIOR", "steps": [[4, 3]]})
        released = app.handle({"cmd": "release", "session": sid})
        assert released["ok"]
        assert manager.snapshot_failures >= 1
        # Eviction pressure: the snapshot fails, the victim is put
        # back, and the bystander open still succeeds.
        second = app.handle({"cmd": "open",
                             "source": TEMPLATE.format(v=11)})
        assert second["ok"], second
        stats = app.handle({"cmd": "stats"})["stats"]
        assert stats["evict_failures"] >= 1
        assert stats["live_sessions"] == 2       # shed deferred, not torn
        assert any("evict" in line for line in logged)
        mirror = LiveSession(source)
        mirror.start_drag(0, "INTERIOR")
        mirror.drag(4.0, 3.0)
        mirror.release()
        rendered = app.handle({"cmd": "render", "session": sid})
        assert rendered["ok"] and rendered["svg"] == mirror.export_svg()
        # Snapshot failures degrade nothing by themselves.
        assert manager.health()["ok"]


# ---------------------------------------------------------------------------
# 4. Persister: disk-full containment + warm-restart byte-identity
# ---------------------------------------------------------------------------

class TestPersistFaults:
    def test_disk_full_degrades_then_drains_on_recovery(self, tmp_path):
        plan = FaultPlan({"persist.write": 1.0}, seed=SEED)
        manager = SessionManager(max_sessions=8)
        persister = StatePersister(str(tmp_path), manager.persist_payload,
                                   faults=plan)
        manager.attach_persister(persister)
        app = ServeApp(manager=manager)
        opened = app.handle({"cmd": "open",
                             "source": TEMPLATE.format(v=10)})
        assert opened["ok"]
        assert persister.flush() > 0             # failed writes re-queued
        assert persister.consecutive_failures > 0
        health = manager.health()
        assert not health["ok"]
        assert "persist_failures" in health["degraded"]
        # The disk recovers: the retry queue drains and health clears.
        plan.rates["persist.write"] = 0.0
        assert persister.flush() == 0
        assert persister.consecutive_failures == 0
        assert manager.health()["ok"]
        payloads, corrupt = load_state(str(tmp_path))
        assert corrupt == 0
        assert {p["sid"] for p in payloads} == {opened["session"]}

    def test_warm_restart_reproduces_sessions_byte_for_byte(self,
                                                            tmp_path):
        manager = SessionManager(max_sessions=8)
        persister = StatePersister(str(tmp_path), manager.persist_payload)
        manager.attach_persister(persister)
        app = ServeApp(manager=manager)
        before = {}
        for i in range(4):
            opened = app.handle({"cmd": "open",
                                 "source": TEMPLATE.format(v=10 + i)})
            sid = opened["session"]
            app.handle({"cmd": "drag", "session": sid, "shape": 0,
                        "zone": "INTERIOR", "steps": [[3 + i, 2]]})
            if i % 2 == 0:
                app.handle({"cmd": "release", "session": sid})
            before[sid] = app.handle({"cmd": "source", "session": sid})
        manager.flush_state()
        persister.stop(flush=True)

        restarted = SessionManager(max_sessions=8)
        payloads, corrupt = load_state(str(tmp_path))
        assert corrupt == 0
        assert restarted.load_state(payloads) == len(before)
        app2 = ServeApp(manager=restarted)
        for sid, expected in before.items():
            after = app2.handle({"cmd": "source", "session": sid})
            assert after["ok"], after
            assert after["source"] == expected["source"]
        # Mid-flight gestures survived: odd sessions can still release.
        for sid in before:
            response = app2.handle({"cmd": "release", "session": sid})
            assert response["ok"] \
                or response["error"]["code"] == "no_drag"
        # Fresh ids never collide with restored ones.
        fresh = app2.handle({"cmd": "open",
                             "source": TEMPLATE.format(v=99)})
        assert fresh["ok"] and fresh["session"] not in before


# ---------------------------------------------------------------------------
# 5. Chaos storm: faults x concurrency, invariants only
# ---------------------------------------------------------------------------

class TestChaosStorm:
    """Faults composed with the PR 5 concurrency harness.  Scheduling
    is the OS's choice, so these assert the containment *invariants*:
    no wedged locks (the test completes and every session answers), no
    session lost without a structured error, poisoned count drains to
    zero, and every post-heal render equals the session's last
    successful boundary response byte-for-byte."""

    SPEC = {"dispatch.drag": 0.15, "dispatch.release": 0.15,
            "dispatch.edit": 0.2, "budget.force": 0.1}

    def storm_worker(self, app, index, rounds):
        source = TEMPLATE.format(v=10 + index)
        opened = app.handle({"cmd": "open", "source": source})
        assert opened["ok"], opened
        sid = opened["session"]
        boundary_svg = opened["svg"]    # last-good refreshes at open
        for op in gesture_ops(rounds, index):
            response = app.handle(op(sid))
            if response["ok"]:
                if response.get("history") is not None \
                        and "coalesced" not in response:
                    # release/edit: a boundary command succeeded.
                    boundary_svg = response["svg"]
                continue
            code = response["error"]["code"]
            assert code in ("internal_error", "program_limit",
                            "no_drag", "drag_in_progress"), response
            if code == "internal_error":
                assert response["error"]["incident"]
                # The next touch must heal to the last boundary state
                # (render can be hit by no fault: only state-changing
                # commands are armed in this storm).
                healed = app.handle({"cmd": "render", "session": sid})
                assert healed["ok"], healed
                assert healed["svg"] == boundary_svg
        return sid

    def test_storm_heals_every_session_and_drains_poison(self):
        threads = 6
        rounds = 4 * REPEAT
        plan = FaultPlan(dict(self.SPEC), seed=SEED)
        app = ServeApp(manager=SessionManager(max_sessions=3, shards=2,
                                              faults=plan))
        sids = [None] * threads

        def worker(i):
            def run():
                sids[i] = self.storm_worker(app, i, rounds)
            return run

        run_threads([worker(i) for i in range(threads)])

        # Every session still answers; nothing is wedged or lost.
        for sid in sids:
            final = app.handle({"cmd": "render", "session": sid})
            assert final["ok"], final
        assert app.manager.poisoned_count() == 0
        health = app.manager.health()
        assert health["ok"], health
        stats = app.handle({"cmd": "stats"})["stats"]
        assert stats["incidents"] == stats["healed"]
        assert stats["faults"] == plan.counts()

    def test_same_session_storm_never_wedges_the_lock(self):
        plan = FaultPlan({"dispatch.*": 0.25}, seed=SEED)
        app = ServeApp(faults=plan)
        # The wildcard arms dispatch.open too: walk the deterministic
        # schedule until an open lands.
        for _ in range(50):
            opened = app.handle({"cmd": "open",
                                 "source": TEMPLATE.format(v=10)})
            if opened["ok"]:
                break
        assert opened["ok"], opened
        sid = opened["session"]
        threads = 5
        per_thread = 6 * REPEAT

        def worker(t):
            def run():
                for k in range(per_thread):
                    if (t + k) % 3 == 2:
                        request = {"cmd": "release", "session": sid}
                    else:
                        request = {"cmd": "drag", "session": sid,
                                   "shape": 0, "zone": "INTERIOR",
                                   "steps": [[2 + (t + k) % 9,
                                              1 + k % 7]]}
                    response = app.handle(request)
                    assert isinstance(response.get("ok"), bool)
            return run

        run_threads([worker(t) for t in range(threads)])
        # Drain: with the wildcard armed even render can fault, so
        # retry through the deterministic schedule — a wedged lock
        # would instead hang the join above or fail every attempt.
        for _ in range(50):
            final = app.handle({"cmd": "render", "session": sid})
            if final["ok"]:
                break
            assert final["error"]["code"] == "internal_error"
        assert final["ok"], final
        assert app.manager.poisoned_count() == 0


# ---------------------------------------------------------------------------
# Plumbing details the suite leans on
# ---------------------------------------------------------------------------

class TestFaultPlumbing:
    def test_injected_fault_is_not_a_little_error(self):
        from repro.lang.errors import LittleError
        assert not issubclass(InjectedFault, LittleError)

    def test_fail_point_tolerates_no_plan(self):
        fail_point(None, "dispatch.drag")        # must be a no-op

    def test_plan_from_env(self, monkeypatch):
        from repro.serve.faults import plan_from_env
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert plan_from_env() is None
        plan = plan_from_env({"REPRO_FAULTS": "persist.write:1",
                              "REPRO_FAULT_SEED": "7"})
        assert plan.seed == 7
        assert plan.rate_for("persist.write") == 1.0

    def test_incident_ids_are_unique_and_reported(self):
        plan = FaultPlan({"dispatch.render": 1.0}, seed=SEED)
        app = ServeApp(faults=plan)
        opened = app.handle({"cmd": "open",
                             "source": TEMPLATE.format(v=10)})
        sid = opened["session"]
        incidents = set()
        for _ in range(3):
            response = app.handle({"cmd": "render", "session": sid})
            # render faults poison too; the next loop pass heals first
            # (materialize) and then faults again at dispatch.
            assert response["error"]["code"] == "internal_error"
            incidents.add(response["error"]["incident"])
        assert len(incidents) == 3
