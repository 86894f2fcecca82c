"""Serve-throughput benchmarks: the JSON protocol under concurrent load.

Two tables:

* **interleaved throughput** (:func:`measure_serve_throughput`) — a
  single-threaded load generator interleaves N sessions and measures
  sessions opened/sec (shared compile cache) and drag-events/sec
  (per-request burst coalescing);
* **concurrent scaling** (:func:`measure_serve_scaling`) — a *real*
  thread pool of N worker clients hammers disjoint sessions, comparing
  three server configurations at each worker count:

  - ``global`` — every request serialized through one global dispatch
    lock with eager per-request re-runs (the pre-sharding PR 3 server);
  - ``shard`` — per-session locks + sharded manager, same eager
    requests (on a GIL interpreter this measures lock overhead; on a
    free-threaded/multi-core build it scales with cores);
  - ``coalesce`` — per-session locks + cross-request drag coalescing
    (``"sync": false`` acknowledged bursts applied as one re-run at the
    next state-bearing command), the flood-tolerant client protocol the
    per-session ordering machinery makes safe.

  Each pass also counts the drag artifacts its server specialized
  (:mod:`repro.lang.compile`): at most one per session it opened.

Every state-bearing response is verified byte-identical to a direct
:class:`~repro.editor.session.LiveSession` driven with the same inputs;
verification happens outside the timed regions.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from ..editor.session import LiveSession
from ..examples.registry import example_source
from ..serve.manager import SessionManager
from ..serve.protocol import ServeApp

__all__ = ["SERVE_CONCURRENCY", "SERVE_EXAMPLES", "SERVE_WORKERS",
           "ServeThroughputRow", "ServeScalingRow",
           "measure_serve_throughput", "measure_serve_scaling"]

#: Concurrency levels of the load table (sessions interleaved per round).
SERVE_CONCURRENCY = (1, 8, 64)

#: Worker-thread counts of the scaling table (one disjoint session each).
SERVE_WORKERS = (1, 4, 16)

#: Corpus programs the generator cycles over: the "hello world", the
#: running example, a case study, and a heavy multi-shape canvas.
SERVE_EXAMPLES = ("three_boxes", "sine_wave_of_boxes", "ferris_wheel",
                  "chicago_flag")

DEFAULT_BURSTS = 3
DEFAULT_STEPS_PER_BURST = 5


@dataclass(frozen=True)
class ServeThroughputRow:
    concurrency: int
    steps_per_burst: int
    opens_per_sec: float
    drag_events_per_sec: float
    requests: int
    responses_identical: bool


def _burst(round_index: int, steps: int) -> List[List[float]]:
    """One drag burst: cumulative offsets, deterministic per round."""
    return [[float((round_index * 7 + sample + 3) % 23),
             float((round_index * 5 + sample * 2 + 2) % 17)]
            for sample in range(steps)]


def measure_serve_throughput(
        concurrencies: Sequence[int] = SERVE_CONCURRENCY, *,
        bursts: int = DEFAULT_BURSTS,
        steps_per_burst: int = DEFAULT_STEPS_PER_BURST,
        examples: Sequence[str] = SERVE_EXAMPLES
        ) -> List[ServeThroughputRow]:
    rows = []
    for concurrency in concurrencies:
        app = ServeApp(manager=SessionManager(
            max_sessions=max(64, concurrency)))
        mirrors: Dict[str, LiveSession] = {
            name: LiveSession(example_source(name))
            for name in set(examples[i % len(examples)]
                            for i in range(concurrency))}
        identical = True
        requests = 0

        # -- open phase: sessions/sec, shared compile cache hot ------------
        sessions: List[Tuple[str, str]] = []        # (session id, example)
        open_elapsed = 0.0
        for index in range(concurrency):
            name = examples[index % len(examples)]
            request = {"cmd": "open", "example": name}
            start = perf_counter()
            response = app.handle(request)
            open_elapsed += perf_counter() - start
            requests += 1
            mirror = mirrors[name]
            identical &= (response.get("ok", False)
                          and response["svg"] == mirror.export_svg()
                          and response["source"] == mirror.source())
            sessions.append((response["session"], name))

        # -- drag phase: bursts of coalesced samples + release -------------
        drag_elapsed = 0.0
        drag_events = 0
        for round_index in range(bursts):
            steps = _burst(round_index, steps_per_burst)
            final_dx, final_dy = steps[-1]
            # Advance each example's mirror once: every session of that
            # example is in the same state and receives the same gesture.
            round_keys: Dict[str, Tuple[int, str]] = {}
            for name, mirror in mirrors.items():
                keys = sorted(mirror.triggers)
                key = keys[round_index % len(keys)]
                round_keys[name] = key
                mirror.start_drag(*key)
                mirror.drag(final_dx, final_dy)
                mirror.release()
            for sid, name in sessions:
                shape, zone = round_keys[name]
                drag_request = {"cmd": "drag", "session": sid,
                                "shape": shape, "zone": zone,
                                "steps": steps}
                release_request = {"cmd": "release", "session": sid}
                start = perf_counter()
                dragged = app.handle(drag_request)
                released = app.handle(release_request)
                drag_elapsed += perf_counter() - start
                requests += 2
                drag_events += len(steps)
                mirror = mirrors[name]
                # ``release`` never changes the program, so the drag
                # response must already show the final geometry.
                identical &= (dragged.get("ok", False)
                              and released.get("ok", False)
                              and dragged["svg"] == released["svg"]
                              and released["svg"] == mirror.export_svg()
                              and released["source"] == mirror.source())

        rows.append(ServeThroughputRow(
            concurrency=concurrency,
            steps_per_burst=steps_per_burst,
            opens_per_sec=concurrency / open_elapsed if open_elapsed else 0.0,
            drag_events_per_sec=(drag_events / drag_elapsed
                                 if drag_elapsed else 0.0),
            requests=requests,
            responses_identical=identical))
    return rows


# ---------------------------------------------------------------------------
# Concurrent scaling: real worker threads on disjoint sessions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServeScalingRow:
    workers: int
    global_eps: float           # drag-events/s, global dispatch lock
    shard_eps: float            # drag-events/s, per-session locks
    coalesce_eps: float         # drag-events/s, + cross-request coalescing
    speedup: float              # coalesce_eps / global_eps
    responses_identical: bool
    specializations: int        # most artifacts one pass specialized


def _scaling_source(index: int) -> str:
    """One small program per worker: disjoint sessions, disjoint compile
    cache entries (the scaling table measures dispatch, not the cache)."""
    return (f"(def x {10 + index})\n"
            f"(svg [(rect 'teal' x 20 30 40) (rect 'navy' 90 x 20 25)])")


def _drive_workers(handle, workers: int, *, rounds: int,
                   bursts: int, steps_per_burst: int, coalesce: bool
                   ) -> Tuple[int, float, bool]:
    """Hammer a server (its ``handle`` callable) from ``workers`` client
    threads, one disjoint session each; returns
    ``(drag_events, elapsed, identical)``.  Each
    round sends ``bursts`` cumulative-sample bursts then a release;
    with ``coalesce`` the bursts are ``"sync": false`` acknowledgements
    and only the release re-runs.  Responses are recorded inside the
    timed region and verified against per-worker mirrors outside it."""
    sources = [_scaling_source(i) for i in range(workers)]
    opened = [handle({"cmd": "open", "source": source})
              for source in sources]
    sessions = [response["session"] for response in opened]
    mirrors = [LiveSession(source) for source in sources]
    keys = [sorted(mirror.triggers)[0] for mirror in mirrors]
    recorded: List[List[dict]] = [[] for _ in range(workers)]
    barrier = threading.Barrier(workers + 1)

    def burst_steps(round_index: int, burst: int) -> List[List[float]]:
        return [[float(1 + (round_index * 7 + burst * 3 + s) % 19),
                 float(1 + (round_index * 5 + burst * 2 + s) % 13)]
                for s in range(steps_per_burst)]

    def worker(index: int):
        sid = sessions[index]
        shape, zone = keys[index]
        out = recorded[index]
        barrier.wait()
        for round_index in range(rounds):
            for burst in range(bursts):
                request = {"cmd": "drag", "session": sid, "shape": shape,
                           "zone": zone,
                           "steps": burst_steps(round_index, burst)}
                if coalesce:
                    request["sync"] = False
                out.append(handle(request))
            out.append(handle({"cmd": "release", "session": sid}))

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(workers)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = perf_counter()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - start

    identical = all(response["ok"] for response in opened)
    for index in range(workers):
        identical &= opened[index]["svg"] == mirrors[index].export_svg()
        mirror = mirrors[index]
        shape, zone = keys[index]
        position = 0
        for round_index in range(rounds):
            mirror.start_drag(shape, zone)
            for burst in range(bursts):
                response = recorded[index][position]
                position += 1
                if not response.get("ok"):
                    identical = False
                elif coalesce:
                    identical &= response["queued"] == steps_per_burst
                else:
                    # Eager mode: every drag response shows the geometry
                    # at its burst's final cumulative sample.
                    dx, dy = burst_steps(round_index, burst)[-1]
                    mirror.drag(dx, dy)
                    identical &= response["svg"] == mirror.export_svg()
            if coalesce:
                dx, dy = burst_steps(round_index, bursts - 1)[-1]
                mirror.drag(dx, dy)
            mirror.release()
            released = recorded[index][position]
            position += 1
            identical &= (released.get("ok", False)
                          and released["svg"] == mirror.export_svg()
                          and released["source"] == mirror.source())
    events = workers * rounds * bursts * steps_per_burst
    return events, elapsed, identical


#: The three server configurations of the scaling table, in column order:
#: (coalesce bursts?, one global dispatch lock?).
_SCALING_CONFIGS = (
    ("global", False, True),
    ("shard", False, False),
    ("coalesce", True, False),
)


def _scaling_pass(workers: int, *, rounds: int, bursts: int,
                  steps_per_burst: int, coalesce: bool,
                  global_lock: bool) -> Tuple[float, bool, int]:
    """One timed pass of one server configuration; returns
    ``(drag_events_per_sec, responses_identical, specializations)``."""
    if global_lock:
        # Baseline: the pre-sharding server — one global dispatch lock.
        app = ServeApp(manager=SessionManager(max_sessions=workers + 1))
        lock = threading.Lock()

        def handle(request, _app=app, _lock=lock):
            with _lock:
                return _app.handle(request)
    else:
        app = ServeApp(manager=SessionManager(max_sessions=workers + 1,
                                              shards=4))
        handle = app.handle
    events, elapsed, identical = _drive_workers(
        handle, workers, rounds=rounds, bursts=bursts,
        steps_per_burst=steps_per_burst, coalesce=coalesce)
    return (events / elapsed if elapsed else 0.0, identical,
            app.manager.stats()["specializations"])


def measure_serve_scaling(worker_counts: Sequence[int] = SERVE_WORKERS, *,
                          rounds: int = 3, bursts: int = 6,
                          steps_per_burst: int = 5, repeats: int = 2
                          ) -> List[ServeScalingRow]:
    """The scaling table: drag-events/s at N concurrent worker threads
    on disjoint sessions, global-lock baseline vs the sharded server.

    Each configuration is timed ``repeats`` times with the passes
    interleaved across configurations, keeping the best rate — so a
    noisy scheduling window (or a GC pause inherited from an earlier
    benchmark in the same process) taxes all columns instead of
    skewing one ratio.
    """
    rows = []
    for workers in worker_counts:
        best = {name: 0.0 for name, *_ in _SCALING_CONFIGS}
        identical = True
        specializations = 0
        for _ in range(repeats):
            for name, coalesce, global_lock in _SCALING_CONFIGS:
                eps, ok, specialized = _scaling_pass(
                    workers, rounds=rounds, bursts=bursts,
                    steps_per_burst=steps_per_burst, coalesce=coalesce,
                    global_lock=global_lock)
                best[name] = max(best[name], eps)
                identical &= ok
                specializations = max(specializations, specialized)
        rows.append(ServeScalingRow(
            workers=workers,
            global_eps=best["global"],
            shard_eps=best["shard"],
            coalesce_eps=best["coalesce"],
            speedup=(best["coalesce"] / best["global"]
                     if best["global"] else 0.0),
            responses_identical=identical,
            specializations=specializations))
    return rows
