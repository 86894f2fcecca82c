"""Serve-throughput benchmarks: the sync service under concurrent load.

The ROADMAP's north star is a service for many users; two tables:

* **throughput** — sessions/sec (shared compile cache) and
  drag-events/sec (per-request burst coalescing) under an interleaved
  single-threaded load generator;
* **scaling** — drag-events/sec from a *real* thread pool of 1/4/16
  worker clients on disjoint sessions: the global-dispatch-lock baseline
  (the pre-sharding server) vs per-session locks vs per-session locks
  plus cross-request coalescing of acknowledged drag bursts.

Every state-bearing protocol response is verified byte-identical (SVG
and program text) to a direct ``LiveSession`` driven with the same
inputs, so the service adds no semantic layer — only scheduling.  Under
``--benchmark-disable`` the equivalence checks are the point; the
throughput numbers are noise.
"""

from repro.bench import (SERVE_CONCURRENCY, SERVE_WORKERS,
                         format_serve_scaling_table,
                         format_serve_throughput_table,
                         measure_serve_scaling, measure_serve_throughput)
from repro.serve import ServeApp


def test_bench_serve_drag_request(benchmark):
    """A single coalesced drag request + release through the protocol."""
    app = ServeApp()
    opened = app.handle({"cmd": "open", "example": "ferris_wheel"})
    assert opened["ok"]
    sid = opened["session"]
    session = app.manager.get(sid)
    shape, zone = sorted(session.triggers)[0]
    counter = [0]

    def burst():
        base = float(counter[0] % 19)
        counter[0] += 1
        steps = [[base + sample, base + 2 * sample] for sample in range(5)]
        dragged = app.handle({"cmd": "drag", "session": sid,
                              "shape": shape, "zone": zone, "steps": steps})
        released = app.handle({"cmd": "release", "session": sid})
        assert dragged["ok"] and released["ok"]

    benchmark(burst)
    assert app.manager.stats()["live_sessions"] == 1


def test_serve_throughput_table(request, write_table):
    """E9 — the serve-throughput table at 1/8/64 concurrent sessions
    plus the concurrent-scaling table at 1/4/16 worker threads, every
    state-bearing response byte-identical to the direct LiveSession
    path."""
    rows = measure_serve_throughput()
    assert [row.concurrency for row in rows] == list(SERVE_CONCURRENCY)
    assert all(row.responses_identical for row in rows)
    scaling = measure_serve_scaling()
    assert [row.workers for row in scaling] == list(SERVE_WORKERS)
    assert all(row.responses_identical for row in scaling)
    # The compiled drag tier must not tax the serve path by
    # re-specializing per burst: a pass specializes each session's
    # recording at most once (one session per worker).
    for row in scaling:
        assert row.specializations <= row.workers, row
    # Cross-request coalescing must clearly beat the global-lock
    # baseline at the top worker count (measured ~3x).  The wall-clock
    # ratio is asserted only when timing is the point: under
    # --benchmark-disable (correctness mode) throughput numbers are
    # noise by contract.
    if not request.config.getoption("benchmark_disable"):
        assert scaling[-1].speedup > 1.5, scaling[-1]
    write_table("serve_throughput",
                format_serve_throughput_table(rows) + "\n\n"
                + format_serve_scaling_table(scaling),
                rows={"throughput": rows, "scaling": scaling})
