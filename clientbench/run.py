"""Client-side benchmark of the live-sync service: what an editor client sees.

    python3 clientbench/run.py --workload drag --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports ``repro`` from ``src/``.

Workloads (``BENCHMARK.json`` records why each was chosen); all are closed
loops from one client process, because an editor waits for each render
before it sends the next move:

* ``drag`` — direct-manipulation sessions over the whole corpus (the
  bundled examples plus the ``tests/svg_corpus`` documents ingested at
  set-up), one session at a time, one client thread, in process against a
  ``ServeApp`` built from the ``repro serve`` CLI defaults;
* ``edit`` — value edits, structural edits, slider moves and undo on one
  session per corpus program, all open under the default live-session
  budget and revisited with Zipf popularity; in process, one thread;
* ``http`` — the first sessions of the ``drag`` script from two
  keep-alive connections, each with its own sessions, against
  ``python -m repro serve`` in a subprocess.

Each phase runs against a fresh server that has first opened every
program once (see :func:`prime`); set-up ends when it is ready.

Every request does the JSON round trip a transport would and is timed
client-side, from request sent to response parsed.  Requests fall in
three groups that every workload has: **update** (``drag``, ``edit``,
``set_slider``), **commit** (``release``, ``undo``) and **open**.  Each
response must be ``ok``; at every release, edit, slider move and undo,
and at each session's end, its ``svg`` must equal the render of a
from-scratch ``run_source(response["source"])`` (checked outside the
timed region).  A failure is counted, classified and printed, and never
stops the run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` replays the
same requests untraced and with spans around every layer's entry points
(:mod:`tracing`), in alternating rounds, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scripts and full results are written under ``.clientbench/``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from statistics import median  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: String hashing decides dict and set layouts, and through set iteration
#: order some of the work the program does; every benchmark process uses
#: the same hash seed so that runs differ only in what they measure.
HASH_SEED = "0"
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.execve(sys.executable, [sys.executable] + sys.argv,
              dict(os.environ, PYTHONHASHSEED=HASH_SEED))
if not (ROOT / "src" / "repro").is_dir() \
        or not (ROOT / "tests" / "svg_corpus").is_dir():
    sys.exit(f"clientbench: {ROOT} is not a checkout of the repository "
             f"(src/repro and tests/svg_corpus are needed)")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.cli import _eval_budget, build_parser  # noqa: E402
from repro.lang.errors import LittleError  # noqa: E402
from repro.serve.protocol import ServeApp  # noqa: E402

import tracing  # noqa: E402
from transport import (HttpClient, InProcessClient,  # noqa: E402
                       ServerProcess, peak_rss_mb, reset_peak_rss)
from workloads import (Corpus, Expectations, drag_script,  # noqa: E402
                       edit_script, write_script)

WORKLOADS = ("drag", "edit", "http")
GROUPS = {"drag": "update", "edit": "update", "set_slider": "update",
          "release": "commit", "undo": "commit", "open": "open"}
FRAME_MS = 1000.0 / 60.0
SETUP_RUNS = 3                 # set-ups per run; setup_s is their median
CONNECTIONS = 2                # http keep-alive connections (nproc = 2)
#: Sessions of the ``http`` script: the first of the ``drag`` script's.
#: Every request waits out the transport stall, so a 25 s run gets through
#: these sixteen (about 740 requests) about one and a half times, and
#: priming all 81 over the wire would take about as long as the run.
HTTP_SESSIONS = 16
#: Untraced/traced phase pairs of a traced run.  A shared 2-vCPU VM's
#: speed can drift by tens of percent between consecutive seconds, so one
#: pair cannot tell the tracing overhead from the drift; the median of
#: several can.
TRACE_ROUNDS = 3
OUT = ROOT / ".clientbench"
FAILURE_CLASSES = ("transport:", "response:", "check:mismatch",
                   "check:ground_truth_rejects", "check:no_state",
                   "dependency:no_session")

#: The limit within which a response feels instantaneous (0.1 s: Miller
#: 1968; Nielsen, *Usability Engineering*, 1993).
INSTANT_MS = 100.0

#: ``update_instant_share``: the share of update requests answered within
#: :data:`INSTANT_MS`, a failed one counting as a miss.
END_TO_END = [("setup_s", "s"), ("update_instant_share", "fraction"),
              ("ok_share", "fraction"), ("peak_rss_mb", "MiB")]
#: Reported with the end-to-end metrics but not declared in
#: BENCHMARK.json: no latency figure holds a bound of at most 0.25 on a
#: shared 2-vCPU VM.  A fixed Python loop there runs 25% slower or faster
#: from one second to the next, and for stretches of ten seconds to many
#: minutes 30-40% slower throughout.  Over sets of ten runs, the update p50
#: and p95 over every sample spread by 0.14-0.30 (quartile distance over
#: median), and the ``update_best_*`` figures (p50 and p95 over the
#: script's update requests of each request's fastest replay in the run,
#: :func:`best_latencies`) by 0.09-0.24 in two sets and by 0.30-0.39 in a
#: third, taken while the host was slow.  The tails (11th-largest sample)
#: are rarer still: on ``edit`` the top update samples are requests a
#: full collection of the server's heap interrupts (about three per pass,
#: 25-100 ms each).  ``frame_share`` and ``error_share`` each read 0 on
#: some workload today (no ``http`` drag fits in a 60 Hz frame; nothing
#: fails), and a declared metric must not.
UNDECLARED = [("update_best_p50_ms", "ms"), ("update_best_p95_ms", "ms"),
              ("update_p50_ms", "ms"), ("update_p95_ms", "ms"),
              ("commit_p50_ms", "ms"), ("open_p50_ms", "ms"),
              ("throughput_rps", "1/s"), ("update_tail_ms", "ms"),
              ("commit_tail_ms", "ms"), ("open_tail_ms", "ms"),
              ("frame_share", "fraction"), ("error_share", "fraction")]

#: Per-layer metrics of a traced run: ``<span>.self_ms`` is the median,
#: over the requests that entered the span, of the request's self time
#: in it; ``<span>.calls`` counts spans.
PER_LAYER = [
    ("serve.http.transport_ms", "ms"), ("serve.http.ttfb_ms", "ms"),
    ("serve.http.request_bytes", "bytes"),
    ("serve.http.response_bytes", "bytes"),
    ("serve.protocol.self_ms", "ms"), ("serve.protocol.encode_ms", "ms"),
    ("serve.protocol.response_bytes", "bytes"),
    ("serve.manager.lock_wait_ms", "ms"),
    ("serve.manager.evictions", "count"),
    ("serve.manager.rehydrations", "count"),
    ("serve.manager.migrations", "count"),
    ("serve.cache.hit_ratio", "fraction"),
    ("serve.cache.compile.self_ms", "ms"),
    ("editor.restore.calls", "count"), ("editor.restore.self_ms", "ms"),
    ("editor.snapshot.self_ms", "ms"),
    ("core.eval.self_ms", "ms"), ("core.escalations", "count"),
    ("core.replay_ratio", "fraction"), ("core.canvas.self_ms", "ms"),
    ("core.assign.self_ms", "ms"), ("core.trigger.self_ms", "ms"),
    ("core.sliders.self_ms", "ms"),
    ("lang.parse.self_ms", "ms"), ("lang.diff.self_ms", "ms"),
    ("lang.diff.value", "count"), ("lang.diff.structural", "count"),
    ("lang.diff.full", "count"), ("lang.unparse.self_ms", "ms"),
    ("lang.substitute.self_ms", "ms"),
    ("lang.record.calls", "count"), ("lang.record.self_ms", "ms"),
    ("lang.replay.calls", "count"), ("lang.replay.self_ms", "ms"),
    ("lang.specialize.calls", "count"), ("lang.specialize.self_ms", "ms"),
    ("zones.trigger.calls", "count"), ("zones.trigger.self_ms", "ms"),
    ("zones.solved_ratio", "fraction"), ("zones.analyze.self_ms", "ms"),
    ("zones.choose.self_ms", "ms"),
    ("svg.canvas.self_ms", "ms"), ("svg.render.self_ms", "ms"),
    ("svg.render.bytes", "bytes"), ("svg.import.self_ms", "ms"),
    ("trace.overhead_share", "fraction"),
]

#: Module layers for the self-time shares, matched by span-name prefix.
LAYERS = ("serve.http", "serve.protocol", "serve.manager", "serve.cache",
          "editor", "core", "lang", "zones", "svg", "client")


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

class Record:
    """What one client thread saw: one sample per request sent."""

    def __init__(self):
        #: ``[cmd, latency_ms, ok, request id, transport info, position]``,
        #: where ``position`` names the script request the sample replays
        #: (the same in every pass over the script).
        self.samples = []
        self.failures = []
        #: Checks whose expected render was not precomputed:
        #: ``(sample index, request, source, svg)``, resolved after the
        #: timed region.
        self.deferred = []

    def fail(self, index: int, klass: str, request: dict,
             detail: str) -> None:
        self.samples[index][2] = False
        brief = {key: (f"<{len(value)} chars>" if key == "source"
                       else value) for key, value in request.items()}
        self.failures.append({"class": klass, "request": brief,
                              "detail": " ".join(str(detail).split())[:300]})

    def extend(self, other: "Record") -> None:
        offset = len(self.samples)
        self.samples.extend(other.samples)
        self.failures.extend(other.failures)
        self.deferred.extend((index + offset, request, source, svg)
                             for index, request, source, svg
                             in other.deferred)


def _send(client, request: dict, sids: dict, record: Record,
          expectations: Expectations, tracer, rid: str,
          position: str) -> None:
    body = dict(request["body"])
    cmd = body["cmd"]
    slot = request["slot"]
    if cmd != "open":
        sid = sids.get(slot)
        if sid is None:
            record.samples.append([cmd, 0.0, True, rid, {}, position])
            record.fail(len(record.samples) - 1, "dependency:no_session",
                        body, "the session's open failed")
            return
        body["session"] = sid
    root = None
    if tracer is not None:
        tracer.set_request(rid)
        root = tracer.begin("client.request")
    start = time.perf_counter_ns()
    try:
        response, info = client.call(body, rid if tracer else None)
        error = None
    except Exception as exc:    # noqa: BLE001 — a transport failure is data
        response, info, error = None, {}, exc
    latency_ms = (time.perf_counter_ns() - start) / 1e6
    if tracer is not None:
        tracer.end(root)
        tracer.set_request(None)
    index = len(record.samples)
    record.samples.append([cmd, latency_ms, True, rid, info, position])
    if error is not None:
        record.fail(index, f"transport:{type(error).__name__}", body, error)
        return
    if not isinstance(response, dict) or response.get("ok") is not True:
        detail = response.get("error", {}) if isinstance(response, dict) \
            else response
        code = detail.get("code", "malformed") if isinstance(detail, dict) \
            else "malformed"
        record.fail(index, f"response:{code}", body, detail)
        return
    if cmd == "open":
        sids[slot] = response["session"]
    elif cmd == "close":
        sids.pop(slot, None)
    if request["check"]:
        source, svg = response.get("source"), response.get("svg")
        if not isinstance(source, str) or not isinstance(svg, str):
            record.fail(index, "check:no_state", body,
                        "response lacks source or svg")
            return
        expected = expectations.renders.get(source)
        if expected is None:
            record.deferred.append((index, body, source, svg))
        elif expected != svg:
            record.fail(index, "check:mismatch", body,
                        "svg differs from a from-scratch run of its source")


def replay(client, script, record: Record, expectations: Expectations, *,
           deadline=None, limit=None, tracer=None, tag: str = "r"):
    """Send ``script`` in a closed loop, cycling it, until ``deadline``
    (``time.perf_counter``) or ``limit`` requests.  Returns the number of
    requests sent and the sessions still open (``slot -> id``)."""
    sids = {}
    sent = 0
    while (limit is None or sent < limit) \
            and (deadline is None or time.perf_counter() < deadline):
        position = sent % len(script)
        _send(client, script[position], sids, record, expectations,
              tracer, f"{tag}{sent}", f"{tag}@{position}")
        sent += 1
    return sent, sids


def close_out(client, sids: dict, record: Record) -> None:
    """Close the sessions a timed replay left open (untimed)."""
    for slot in sorted(sids):
        _send(client, {"slot": slot, "body": {"cmd": "close"},
                       "check": False},
              sids, record, Expectations(), None, f"close{slot}",
              f"close{slot}")


def resolve_checks(record: Record, expectations: Expectations) -> None:
    """Run the deferred output checks from scratch."""
    for index, body, source, svg in record.deferred:
        try:
            expected = expectations.expect(source)
        except LittleError as error:
            record.fail(index, "check:ground_truth_rejects", body, error)
            continue
        if expected != svg:
            record.fail(index, "check:mismatch", body,
                        "svg differs from a from-scratch run of its source")
    record.deferred = []


# ---------------------------------------------------------------------------
# Set-up and phases
# ---------------------------------------------------------------------------

def default_app() -> ServeApp:
    """A ``ServeApp`` configured exactly as ``repro serve`` configures it
    when given no options."""
    args = build_parser().parse_args(["serve"])
    return ServeApp(max_sessions=args.max_sessions, shards=args.shards,
                    eval_budget=_eval_budget(args.eval_budget))


def connection_scripts(script):
    """Split a session script between the http connections."""
    return [[request for request in script
             if request["slot"] % CONNECTIONS == connection]
            for connection in range(CONNECTIONS)]


def tree_digest(*roots: pathlib.Path) -> str:
    """SHA-256 over the files under ``roots`` (names and contents)."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def cached_drag_script(corpus: Corpus, expectations: Expectations):
    """The ``drag`` script and its expected renders.  The script does not
    depend on the seed, so it is generated once per checkout (and again
    whenever the program, the benchmark or the SVG corpus changes) and
    loaded by later set-ups."""
    key = tree_digest(ROOT / "src", HERE, ROOT / "tests" / "svg_corpus")
    path = OUT / f"drag-script-{key[:16]}-py{platform.python_version()}.json"
    if path.exists():
        cached = json.loads(path.read_text(encoding="utf-8"))
        expectations.renders.update(cached["renders"])
        return cached["script"]
    script = drag_script(corpus, expectations)
    OUT.mkdir(exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps({"script": script,
                                   "renders": expectations.renders}),
                       encoding="utf-8")
    os.replace(partial, path)
    return script


def build(workload: str, seed: int, tracer=None):
    if tracer is not None:
        installation = tracing.install(tracer)
        try:
            corpus = Corpus(ROOT, tracer)
        finally:
            installation.remove()
    else:
        corpus = Corpus(ROOT)
    expectations = Expectations()
    if workload == "edit":
        script = edit_script(corpus, seed, expectations)
    else:
        script = cached_drag_script(corpus, expectations)
        if workload == "http":
            script = [request for request in script
                      if request["slot"] < HTTP_SESSIONS]
    write_script(OUT / f"script-{workload}-seed{seed}.jsonl", script)
    return script, expectations


def quiesce() -> None:
    """Collect the garbage and exempt the client's own objects (script,
    expected renders, the mirrors' leftovers) from the collector, so
    in-process garbage collections walk what the server keeps, as they
    would in its own process."""
    gc.collect()
    gc.freeze()


def prime(client, script) -> None:
    """Open every program the script opens once, send the first drag or
    edit its session sends (the first replay specializes the program's
    recorded evaluation), and close it again.  Timed opens then find the
    program compiled and specialized, as on a server that has been up for
    a while, and a run's share of cold requests does not depend on how
    many passes over the script it makes."""
    first_update = {}
    for request in script:
        if request["body"]["cmd"] in ("drag", "edit"):
            first_update.setdefault(request["slot"], request["body"])
    seen = set()
    for request in script:
        body = request["body"]
        key = json.dumps(body, sort_keys=True)
        if body["cmd"] != "open" or key in seen:
            continue
        seen.add(key)
        response, _ = client.call(body)
        if not response.get("ok"):
            continue
        sid = response["session"]
        if request["slot"] in first_update:
            client.call(dict(first_update[request["slot"]], session=sid))
        client.call({"cmd": "close", "session": sid})


@contextlib.contextmanager
def serving(workload: str, script, spans_path=None):
    """The fresh, primed server a phase talks to: a ``repro serve``
    subprocess for ``http`` (stopped when the block ends), else a
    ``ServeApp`` in this process."""
    quiesce()
    if workload == "http":
        with ServerProcess(ROOT, spans_path=spans_path) as server:
            client = HttpClient(server.port)
            try:
                prime(client, script)
            finally:
                client.close()
            yield server
    else:
        app = default_app()
        prime(InProcessClient(app), script)
        yield app


def run_phase(workload: str, script, expectations: Expectations, server, *,
              seconds=None, limits=None, tracer=None, tag: str = ""):
    """One replay against ``server`` (from :func:`serving`).  Returns
    ``(record of the timed requests, record of the close-out, wall
    seconds, requests sent per client thread)``."""
    record, closing = Record(), Record()
    if workload != "http":
        # Set-up (script generation above all) peaks higher than a server
        # does: count only what the process reaches from here on.
        reset_peak_rss()
        client = InProcessClient(server, tracer)
        start = time.perf_counter()
        deadline = start + seconds if seconds is not None else None
        sent, sids = replay(client, script, record, expectations,
                            deadline=deadline,
                            limit=limits[0] if limits else None,
                            tracer=tracer, tag=f"{tag}r")
        wall = time.perf_counter() - start
        close_out(client, sids, closing)
        return record, closing, wall, [sent]
    scripts = connection_scripts(script)
    records = [Record() for _ in scripts]
    results = [None] * len(scripts)
    clients = [HttpClient(server.port) for _ in scripts]
    barrier = threading.Barrier(len(scripts) + 1)

    def drive(connection: int) -> None:
        barrier.wait()
        deadline = time.perf_counter() + seconds \
            if seconds is not None else None
        results[connection] = replay(
            clients[connection], scripts[connection], records[connection],
            expectations, deadline=deadline,
            limit=limits[connection] if limits else None, tracer=tracer,
            tag=f"{tag}c{connection}-")

    threads = [threading.Thread(target=drive, args=(connection,))
               for connection in range(len(scripts))]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    for connection, (sent, sids) in enumerate(results):
        close_out(clients[connection], sids, closing)
        clients[connection].close()
        record.extend(records[connection])
    return record, closing, wall, [sent for sent, _ in results]


def setup_probe(workload: str, seed: int) -> float:
    """Time one more complete set-up in a fresh process."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170)
    if completed.returncode != 0:
        raise RuntimeError("set-up probe failed: " + completed.stdout
                           + completed.stderr)
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def latency_summary(values):
    """p50, p95 (the nearest-rank value), and the tail: the highest
    percentile with at least ten samples beyond it (the 11th-largest
    value)."""
    values = sorted(values)
    count = len(values)
    if not count:
        return {"n": 0, "p50_ms": 0.0, "p95_ms": 0.0, "tail_ms": 0.0,
                "tail_pct": 0.0}
    if count > 10:
        tail, pct = values[count - 11], 100.0 * (count - 10) / count
    else:
        tail, pct = values[-1], 100.0
    return {"n": count, "p50_ms": median(values),
            "p95_ms": values[math.ceil(0.95 * count) - 1], "tail_ms": tail,
            "tail_pct": round(pct, 3)}


def request_summaries(record: Record):
    by_cmd, by_group = {}, {}
    for cmd, latency, ok, _rid, _info, _position in record.samples:
        if ok:
            by_cmd.setdefault(cmd, []).append(latency)
            if cmd in GROUPS:
                by_group.setdefault(GROUPS[cmd], []).append(latency)
    return ({cmd: latency_summary(values) for cmd, values in by_cmd.items()},
            {group: latency_summary(by_group.get(group, ()))
             for group in ("update", "commit", "open")})


def best_latencies(record: Record):
    """Each script request's fastest successful replay in the run, by
    group: what the request costs when no slow spell of the host and no
    garbage collection falls on it."""
    best = {}
    for cmd, latency, ok, _rid, _info, position in record.samples:
        if ok and cmd in GROUPS:
            key = (GROUPS[cmd], position)
            best[key] = min(latency, best.get(key, latency))
    by_group = {}
    for (group, _position), latency in best.items():
        by_group.setdefault(group, []).append(latency)
    return by_group


def end_to_end(record: Record, wall: float, setups, rss_mb: float):
    _, groups = request_summaries(record)
    updates = [sample for sample in record.samples
               if GROUPS.get(sample[0]) == "update"]

    def within(limit_ms):
        met = sum(1 for sample in updates
                  if sample[2] and sample[1] <= limit_ms)
        return met / len(updates) if updates else 0.0

    attempted = len(record.samples)
    succeeded = sum(1 for sample in record.samples if sample[2])
    ok_share = succeeded / attempted if attempted else 0.0
    values = {"setup_s": median(setups),
              "frame_share": within(FRAME_MS),
              "update_instant_share": within(INSTANT_MS),
              "throughput_rps": succeeded / wall if wall > 0 else 0.0,
              "ok_share": ok_share, "error_share": 1.0 - ok_share,
              "peak_rss_mb": rss_mb}
    best = best_latencies(record)
    for group, summary in groups.items():
        values[f"{group}_p50_ms"] = summary["p50_ms"]
        values[f"{group}_p95_ms"] = summary["p95_ms"]
        values[f"{group}_tail_ms"] = summary["tail_ms"]
        best_summary = latency_summary(best.get(group, ()))
        values[f"{group}_best_p50_ms"] = best_summary["p50_ms"]
        values[f"{group}_best_p95_ms"] = best_summary["p95_ms"]
    return ({name: {"value": values[name], "unit": unit}
             for name, unit in END_TO_END},
            {name: {"value": values[name], "unit": unit}
             for name, unit in UNDECLARED})


def _layer_of(name: str, http: bool) -> str:
    if name == "client.request" and http:
        return "serve.http"        # the client's wait on the wire
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return "client"


def layer_report(tracer, record: Record, workload: str, overhead: float):
    """The per-layer metrics and self-time shares of the traced phases."""
    http = workload == "http"
    spans = tracer.spans
    selves = tracing.self_times(spans)
    request_rids = {sample[3] for sample in record.samples}
    # span name -> request id -> summed self time, inclusive time, value
    self_ms, incl_ms, span_values = (
        defaultdict(lambda: defaultdict(float)) for _ in range(3))
    calls = Counter()
    imports = defaultdict(float)         # set-up request -> svg.import ms
    for span, self_ns in zip(spans, selves):
        name, rid = span[tracing.NAME], span[tracing.RID]
        if rid in request_rids:
            calls[name] += 1
            self_ms[name][rid] += self_ns / 1e6
            incl_ms[name][rid] += (span[tracing.END]
                                   - span[tracing.START]) / 1e6
            if span[tracing.VALUE] is not None:
                span_values[name][rid] += span[tracing.VALUE]
        elif name == "svg.import" and rid.startswith("setup:"):
            imports[rid] += self_ns / 1e6
    p50 = tracing.p50_over_requests
    counters = tracer.counters

    def ratio(part, whole):
        return part / whole if whole else 0.0

    infos = [sample[4] for sample in record.samples if sample[2]]

    def info_p50(key):
        values = [info[key] for info in infos if key in info]
        return median(values) if values else 0.0

    handled = incl_ms["serve.protocol"]
    transport = {rid: total - handled[rid]
                 for rid, total in incl_ms["client.request"].items()
                 if http and rid in handled}
    hits, misses = counters["serve.cache.hits"], counters["serve.cache.misses"]
    values = {
        "serve.http.transport_ms": p50(transport),
        "serve.http.ttfb_ms": info_p50("ttfb_ms"),
        "serve.http.request_bytes": info_p50("request_bytes"),
        "serve.http.response_bytes":
            info_p50("response_bytes") if http else 0.0,
        "serve.protocol.encode_ms": p50(self_ms["serve.protocol.encode"]),
        "serve.protocol.response_bytes": info_p50("response_bytes"),
        "serve.manager.lock_wait_ms": p50(self_ms["serve.manager.lock"]),
        "serve.manager.evictions": counters["serve.manager.evictions"],
        "serve.manager.rehydrations": counters["serve.manager.rehydrations"],
        "serve.manager.migrations": counters["serve.manager.migrations"],
        "serve.cache.hit_ratio": ratio(hits, hits + misses),
        "core.escalations": counters["core.escalations"],
        "core.replay_ratio": ratio(counters["lang.replay.answered"],
                                   calls["lang.replay"]),
        "lang.diff.value": counters["lang.diff.value"],
        "lang.diff.structural": counters["lang.diff.structural"],
        "lang.diff.full": counters["lang.diff.full"],
        "zones.solved_ratio": ratio(counters["zones.trigger.solved"],
                                    counters["zones.trigger.features"]),
        "svg.render.bytes": p50(span_values["svg.render"]),
        "svg.import.self_ms": p50(imports),
        "trace.overhead_share": overhead,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".self_ms"):
            value = p50(self_ms[name[:-len(".self_ms")]])
        elif name.endswith(".calls"):
            value = calls[name[:-len(".calls")]]
        else:
            raise KeyError(name)
        metrics[name] = {"value": value, "unit": unit}
    shares = self_time_shares(spans, selves, record, request_rids, http)
    return metrics, shares


def self_time_shares(spans, selves, record: Record, request_rids, http):
    """Each layer's share of self time over all requests, and over the
    requests beyond each group's tail."""
    per_rid = {}
    for record_span, self_ns in zip(spans, selves):
        rid = record_span[tracing.RID]
        if rid in request_rids:
            layer = _layer_of(record_span[tracing.NAME], http)
            bucket = per_rid.setdefault(rid, {})
            bucket[layer] = bucket.get(layer, 0) + self_ns
    _, groups = request_summaries(record)
    selections = {"all": list(per_rid)}
    for group, summary in groups.items():
        if summary["n"]:
            selections[f"{group} tail (p{summary['tail_pct']:g})"] = [
                sample[3] for sample in record.samples
                if sample[2] and GROUPS.get(sample[0]) == group
                and sample[1] >= summary["tail_ms"]]
    shares = {}
    for label, rids in selections.items():
        totals = {}
        for rid in rids:
            for layer, ns in per_rid.get(rid, {}).items():
                totals[layer] = totals.get(layer, 0) + ns
        whole = sum(totals.values())
        shares[label] = {layer: round(totals.get(layer, 0) / whole, 4)
                         if whole else 0.0 for layer in LAYERS}
    return shares


# ---------------------------------------------------------------------------
# Attribution and output
# ---------------------------------------------------------------------------

def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        completed = subprocess.run(["git", "rev-parse", "HEAD"],
                                   cwd=str(ROOT), capture_output=True,
                                   text=True)
        commit = completed.stdout.strip() or None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "source_sha256": tree_digest(ROOT / "src"),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu}


def phase_counts(record: Record) -> dict:
    failed = sum(1 for sample in record.samples if not sample[2])
    return {"attempted": len(record.samples),
            "succeeded": len(record.samples) - failed, "failed": failed}


def print_report(result: dict) -> None:
    env = result["environment"]
    print(f"clientbench {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} seconds={result['seconds']}")
    print(f"  commit={env['commit']} src={env['source_sha256'][:12]} "
          f"nproc={env['nproc']} python={env['python']} cpu={env['cpu']}")
    for phase, counts in result["phases"].items():
        print(f"  phase {phase:10s} attempted={counts['attempted']} "
              f"succeeded={counts['succeeded']} failed={counts['failed']}")
    print("  requests (ok only):")
    for cmd, summary in sorted(result["requests"].items()):
        print(f"    {cmd:10s} n={summary['n']:6d} "
              f"{cmd}_p50_ms={summary['p50_ms']:.4f} "
              f"{cmd}_p95_ms={summary['p95_ms']:.4f} "
              f"{cmd}_tail_ms={summary['tail_ms']:.4f} "
              f"(p{summary['tail_pct']:g})")
    for failure in result["failures"][:20]:
        print(f"  FAILED {failure['class']}: {failure['request']} "
              f"{failure['detail']}")
    if len(result["failures"]) > 20:
        print(f"  ... {len(result['failures']) - 20} more failures")
    for label, shares in result.get("self_time_shares", {}).items():
        print(f"  self-time share, {label}: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items()
            if share))
    for group, summary in result["groups"].items():
        print(f"  {group}_tail_ms is p{summary['tail_pct']:g} of "
              f"{summary['n']} samples")
    print("  metrics:")
    for name, metric in result["metrics"].items():
        print(f"    {name} = {metric['value']:.6g} {metric['unit']}")
    for name, metric in result.get("undeclared", {}).items():
        print(f"    ({name} = {metric['value']:.6g} {metric['unit']}, "
              f"not declared)")


def finish(result: dict, record: Record, closing: Record) -> int:
    failures = record.failures + closing.failures
    attempted = len(record.samples) + len(closing.samples)
    result["failures"] = failures
    result["correct"] = not failures
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{stem}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    (OUT / f"samples-{stem}.json").write_text(json.dumps(
        [sample[:3] + sample[5:] for sample in record.samples]))
    print_report(result)
    for metric in result["metrics"].values():
        if not math.isfinite(metric["value"]):
            raise ValueError(f"non-finite metric in {result['metrics']}")
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": len(failures),
                      "metrics": result["metrics"]}))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def new_result(args, script) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "environment": environment(), "script_requests": len(script)}


def traced_run(args, script, expectations: Expectations, tracer) -> int:
    """The same requests untraced, then traced, each on a fresh server,
    in alternating rounds; the overhead is the median wall-time ratio."""
    workload, seed = args.workload, args.seed
    plain, traced, closing = Record(), Record(), Record()
    walls, sent = [], None
    spans_path = str(OUT / f"spans-server-{workload}-seed{seed}.json")
    for round_index in range(TRACE_ROUNDS):
        with serving(workload, script) as server:
            phase, phase_closing, plain_wall, counts = run_phase(
                workload, script, expectations, server,
                seconds=args.seconds / (2 * TRACE_ROUNDS) if sent is None
                else None, limits=sent)
        sent = sent or counts
        plain.extend(phase)
        closing.extend(phase_closing)
        with serving(workload, script, spans_path) as server:
            installation = tracing.install(tracer) \
                if workload != "http" else None
            try:
                phase, phase_closing, wall, _ = run_phase(
                    workload, script, expectations, server, limits=sent,
                    tracer=tracer, tag=f"t{round_index}-")
            finally:
                if installation is not None:
                    installation.remove()
        if workload == "http":
            roots = {span[tracing.RID]: index
                     for index, span in enumerate(tracer.spans)
                     if span[tracing.NAME] == "client.request"}
            tracer.merge_file(spans_path, roots)
        traced.extend(phase)
        closing.extend(phase_closing)
        walls.append((plain_wall, wall))
    resolve_checks(plain, expectations)
    resolve_checks(traced, expectations)
    overhead = median(wall / plain_wall for plain_wall, wall in walls) - 1.0
    result = new_result(args, script)
    result["metrics"], result["self_time_shares"] = layer_report(
        tracer, traced, workload, overhead)
    result["nesting_errors"] = tracing.nesting_errors(tracer.spans)[:20]
    tracer.dump(OUT / f"spans-{workload}-seed{seed}.json")
    result["phases"] = {"untraced": phase_counts(plain),
                        "traced": phase_counts(traced),
                        "close-out": phase_counts(closing)}
    result["requests"], result["groups"] = request_summaries(traced)
    result["wall_s"] = {"untraced_traced_pairs": walls}
    closing.extend(plain)
    return finish(result, traced, closing)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report setup_s, and exit "
                             "(used for the repeated set-ups)")
    args = parser.parse_args(argv)
    workload, seed = args.workload, args.seed
    tracer = tracing.Tracer() if args.trace else None
    script, expectations = build(workload, seed, tracer)
    if args.trace:
        return traced_run(args, script, expectations, tracer)
    with serving(workload, script) as server:
        setup_s = time.perf_counter() - PROCESS_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record, closing, wall, _ = run_phase(
            workload, script, expectations, server, seconds=args.seconds)
        rss_mb = server.peak_rss_mb() if workload == "http" \
            else peak_rss_mb()
    resolve_checks(record, expectations)
    setups = [setup_s] + [setup_probe(workload, seed)
                          for _ in range(SETUP_RUNS - 1)]
    result = new_result(args, script)
    result["setup_runs_s"] = setups
    result["metrics"], result["undeclared"] = end_to_end(
        record, wall, setups, rss_mb)
    result["phases"] = {"timed": phase_counts(record),
                        "close-out": phase_counts(closing)}
    result["requests"], result["groups"] = request_summaries(record)
    result["wall_s"] = wall
    return finish(result, record, closing)


if __name__ == "__main__":
    sys.exit(main())
