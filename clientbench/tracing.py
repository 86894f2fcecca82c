"""Spans around each layer's public entry points, installed from outside.

The traced run wraps functions and methods of ``repro`` with recorders
(:func:`install`) instead of instrumenting the program.  A span records
its name, start, end, parent span and request id; spans are kept in
memory and written out when the run ends.  A span is only recorded while
a request id is set on the calling thread, so work outside requests
(script generation, output checks) leaves no spans.

Free functions that other modules import by name (``record_evaluation``,
``render_canvas``, ``analyze_shape``, ``parse_program``, ``diff_source``
…) are wrapped at their definition *and* at every importing module's
binding; otherwise calls through those bindings would go unrecorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median
from typing import Dict, List, Optional

#: Span fields, in the order each record stores them.
NAME, START, END, PARENT, RID, VALUE = range(6)


class Tracer:
    """In-memory span and counter store shared by every thread."""

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- request context -------------------------------------------------------

    def set_request(self, rid: Optional[str]) -> None:
        self._local.rid = rid
        self._local.stack = []

    def begin(self, name: str) -> Optional[int]:
        local = self._local
        rid = getattr(local, "rid", None)
        if rid is None:
            return None
        stack = local.stack
        record = [name, time.perf_counter_ns(), None,
                  stack[-1] if stack else None, rid, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def end(self, index: Optional[int]) -> None:
        if index is None:
            return
        self.spans[index][END] = time.perf_counter_ns()
        stack = self._local.stack
        if stack and stack[-1] == index:
            stack.pop()

    def annotate(self, index: Optional[int], value: float) -> None:
        if index is not None:
            self.spans[index][VALUE] = value

    def count(self, name: str, amount: int = 1) -> None:
        if getattr(self._local, "rid", None) is None:
            return
        with self._lock:
            self.counters[name] += amount

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    # -- persistence ------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": self.counters},
                      handle)

    def merge_file(self, path, roots: Dict[str, int]) -> None:
        """Adopt spans written by another process (the traced server):
        its top-level spans become children of ``roots[rid]``, the
        client-side span of the same request.  Both processes read the
        same monotonic clock.  The server closes its handler span only
        after the last byte is written, which can be after the client has
        parsed the response; that overhang is no part of the request's
        latency, so adopted spans are clipped to the client's span."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        with self._lock:
            offset = len(self.spans)
            for record in data["spans"]:
                record = list(record)
                if record[PARENT] is None:
                    record[PARENT] = roots.get(record[RID])
                else:
                    record[PARENT] += offset
                root = roots.get(record[RID])
                if root is not None:
                    outer = self.spans[root]
                    record[START] = min(max(record[START], outer[START]),
                                        outer[END])
                    record[END] = max(min(record[END], outer[END]),
                                      record[START])
                self.spans.append(record)
            self.counters.update(data["counters"])


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _wrap(tracer: Tracer, name: str, fn, observe=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        if index is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if observe is not None:
            observe(tracer, index, result, args, kwargs)
        return result
    return traced


def _counting(tracer: Tracer, counter: str, fn, when=None):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if when is None or when(args, kwargs):
            tracer.count(counter)
        return fn(*args, **kwargs)
    return counted


class _TracedLock:
    """``SessionManager.locked`` traced up to the moment the command body
    receives its session: lock wait plus any rehydration."""

    __slots__ = ("tracer", "manager")

    def __init__(self, tracer: Tracer, manager):
        self.tracer = tracer
        self.manager = manager

    def __enter__(self):
        index = self.tracer.begin("serve.manager.lock")
        try:
            return self.manager.__enter__()
        finally:
            self.tracer.end(index)

    def __exit__(self, *exc):
        return self.manager.__exit__(*exc)


# -- observers: counts and values measured where the work happens -------------

def _observe_compile(tracer, index, result, args, kwargs):
    tracer.count("serve.cache.hits" if result[1] else "serve.cache.misses")


def _observe_diff(tracer, index, result, args, kwargs):
    tracer.count(f"lang.diff.{result.kind}")


def _observe_replay(tracer, index, result, args, kwargs):
    if result is not None:
        tracer.count("lang.replay.answered")


def _observe_trigger(tracer, index, result, args, kwargs):
    tracer.count("zones.trigger.features", len(result.outcomes))
    tracer.count("zones.trigger.solved",
                 sum(1 for outcome in result.outcomes if outcome.solved))


def _observe_eval(tracer, index, result, args, kwargs):
    change = args[1] if len(args) > 1 else kwargs.get("change")
    if change is not None and not change.structural and change.locs \
            and result.structural:
        tracer.count("core.escalations")


def _observe_bytes(tracer, index, result, args, kwargs):
    tracer.annotate(index, len(result))


#: (span name, module, attribute, importing modules, observer).  An
#: attribute ``Class.method`` wraps a method; a plain name wraps a free
#: function at the module's binding and at each importing module's.  A
#: recursive function (``lang.ast.substitute``) and one whose callers
#: elsewhere are covered by another span (``parse_top_level`` inside
#: ``parse_program``) are wrapped only at the binding of interest, so
#: their inner calls stay untraced.
SPANS = [
    ("serve.protocol", "repro.serve.protocol", "ServeApp.handle", (), None),
    ("serve.manager.open", "repro.serve.manager", "SessionManager.open", (),
     None),
    ("serve.cache.compile", "repro.serve.cache", "CompileCache.compile", (),
     _observe_compile),
    ("editor.restore", "repro.editor.session", "LiveSession.restore", (),
     None),
    ("editor.snapshot", "repro.editor.session", "LiveSession.snapshot", (),
     None),
    ("editor.session", "repro.editor.session", "LiveSession.__init__", (),
     None),
    ("editor.session", "repro.editor.session", "LiveSession.start_drag", (),
     None),
    ("editor.session", "repro.editor.session", "LiveSession.drag", (), None),
    ("editor.session", "repro.editor.session", "LiveSession.release", (),
     None),
    ("editor.session", "repro.editor.session", "LiveSession.edit_source", (),
     None),
    ("editor.session", "repro.editor.session", "LiveSession.set_slider", (),
     None),
    ("editor.session", "repro.editor.session", "LiveSession.undo", (), None),
    ("editor.session", "repro.editor.session", "LiveSession.hover", (), None),
    ("core.eval", "repro.core.pipeline", "SyncPipeline.eval_stage", (),
     _observe_eval),
    ("core.canvas", "repro.core.pipeline", "SyncPipeline.canvas_stage", (),
     None),
    ("core.assign", "repro.core.pipeline", "SyncPipeline.assign_stage", (),
     None),
    ("core.trigger", "repro.core.pipeline", "SyncPipeline.trigger_stage",
     (), None),
    ("core.sliders", "repro.core.pipeline", "SyncPipeline.slider_stage", (),
     None),
    ("lang.parse", "repro.lang.program", "parse_program",
     ("repro.core.pipeline", "repro.serve.cache", "repro.editor.session",
      "repro.core.run"), None),
    ("lang.parse", "repro.lang.diff", "parse_top_level", (), None),
    ("lang.diff", "repro.lang.diff", "diff_source", ("repro.editor.session",),
     _observe_diff),
    ("lang.unparse", "repro.lang.program", "Program.unparse", (), None),
    ("lang.substitute", "repro.lang.program", "Program.substitute", (), None),
    ("lang.substitute", "repro.lang.program", "substitute", (), None),
    ("lang.record", "repro.lang.incremental", "record_evaluation",
     ("repro.core.pipeline", "repro.serve.cache"), None),
    ("lang.replay", "repro.lang.incremental", "reevaluate",
     ("repro.core.pipeline",), _observe_replay),
    ("lang.replay", "repro.lang.compile", "CompiledEvaluation.replay", (),
     _observe_replay),
    ("lang.specialize", "repro.lang.compile", "specialize", (), None),
    ("zones.trigger", "repro.zones.triggers", "MouseTrigger.__call__", (),
     _observe_trigger),
    ("zones.analyze", "repro.zones.assignment", "analyze_shape",
     ("repro.core.pipeline",), None),
    ("zones.choose", "repro.zones.assignment", "choose_assignments",
     ("repro.core.pipeline",), None),
    ("svg.canvas", "repro.svg.canvas", "Canvas.from_value", (), None),
    ("svg.canvas", "repro.svg.canvas", "Canvas.rebuilt", (), None),
    ("svg.render", "repro.svg.render", "render_canvas",
     ("repro.core.pipeline",), _observe_bytes),
    ("svg.import", "repro.svg.importer", "svg_to_little",
     ("repro.svg.ingest",), None),
]

#: (counter, defining module, ``Class.method``, condition on the call).
COUNTERS = [
    ("serve.manager.evictions", "repro.serve.shard",
     "SessionShard.note_evicted", None),
    ("serve.manager.rehydrations", "repro.serve.shard",
     "SessionShard.note_rehydrated", None),
    ("serve.manager.migrations", "repro.serve.shard",
     "SessionShard.note_migration",
     lambda args, kwargs: kwargs.get("inbound", args[1:2] == (True,))),
]


class Installation:
    """The wrappers :func:`install` put in place; :meth:`remove` restores
    every original."""

    def __init__(self):
        self._saved: List[tuple] = []

    def patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _patch_member(installation: Installation, owner, attr: str, make) -> None:
    """Replace ``owner.attr`` (function, method, classmethod) by
    ``make(function)``, keeping its descriptor kind."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        installation.patch(owner, attr, classmethod(make(raw.__func__)))
    else:
        installation.patch(owner, attr, make(raw))


def install(tracer: Tracer, *, http: bool = False) -> Installation:
    """Wrap every entry point in :data:`SPANS` and :data:`COUNTERS`;
    with ``http``, also the server's request handler and its JSON codec
    (for a traced ``repro serve`` process)."""
    installation = Installation()
    # Import every module first: a module imported after its source was
    # patched would bind the wrapper, not the function, by name.
    for _name, module_name, _attr, importers, _observe in SPANS:
        for owner_name in (module_name,) + tuple(importers):
            importlib.import_module(owner_name)
    for name, module_name, attr, importers, observe in SPANS:
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            _patch_member(installation, getattr(module, class_name), method,
                          lambda fn, name=name, observe=observe:
                          _wrap(tracer, name, fn, observe))
            continue
        original = getattr(module, attr)
        traced = _wrap(tracer, name, original, observe)
        for owner_name in (module_name,) + tuple(importers):
            owner = importlib.import_module(owner_name)
            if owner.__dict__.get(attr) is not original:
                raise RuntimeError(f"{owner_name}.{attr} is not "
                                   f"{module_name}.{attr}")
            installation.patch(owner, attr, traced)
    for counter, module_name, attr, when in COUNTERS:
        class_name, method = attr.split(".")
        owner = getattr(importlib.import_module(module_name), class_name)
        _patch_member(installation, owner, method,
                      lambda fn, counter=counter, when=when:
                      _counting(tracer, counter, fn, when))
    manager_class = importlib.import_module(
        "repro.serve.manager").SessionManager
    _patch_member(installation, manager_class, "locked",
                  lambda fn: functools.wraps(fn)(
                      lambda self, session_id: _TracedLock(
                          tracer, fn(self, session_id))))
    if http:
        _install_http(tracer, installation)
    return installation


def _install_http(tracer: Tracer, installation: Installation) -> None:
    http_module = importlib.import_module("repro.serve.http")
    handler = http_module._Handler

    def make_post(fn):
        @functools.wraps(fn)
        def do_post(self):
            tracer.set_request(self.headers.get("X-Request-Id"))
            index = tracer.begin("serve.http.handler")
            try:
                return fn(self)
            finally:
                tracer.end(index)
                tracer.set_request(None)
        return do_post

    _patch_member(installation, handler, "do_POST", make_post)
    codec = http_module.json
    installation.patch(http_module, "json", types.SimpleNamespace(
        dumps=_wrap(tracer, "serve.protocol.encode", codec.dumps),
        loads=_wrap(tracer, "serve.protocol.decode", codec.loads),
        JSONDecodeError=codec.JSONDecodeError))


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of it its children cover, in
    nanoseconds (children may come from another process)."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, record in enumerate(spans):
        if record[PARENT] is not None:
            children[record[PARENT]].append(index)
    result = []
    for index, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0
        cursor = start
        for child in sorted(children.get(index, ()),
                            key=lambda i: spans[i][START]):
            lo = max(spans[child][START], cursor)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


def nesting_errors(spans: List[list]) -> List[str]:
    """Spans that end before they start, or stick out of their parent."""
    errors = []
    for index, record in enumerate(spans):
        if record[END] is None or record[END] < record[START]:
            errors.append(f"span {index} {record[NAME]} is not closed")
            continue
        parent = record[PARENT]
        if parent is None:
            continue
        outer = spans[parent]
        if record[START] < outer[START] or record[END] > outer[END]:
            errors.append(f"span {index} {record[NAME]} is outside its "
                          f"parent {outer[NAME]}")
        if record[RID] != outer[RID]:
            errors.append(f"span {index} {record[NAME]} changes request")
    return errors


def p50_over_requests(values: Dict[str, float]) -> float:
    """Median over the requests that entered the layer (0 if none did)."""
    return median(values.values()) if values else 0.0
