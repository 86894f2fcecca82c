"""JSON protocol over the run→assign→trigger loop (§4.1, as a service).

:class:`ServeApp` maps plain-dict requests onto a
:class:`~repro.serve.manager.SessionManager`; the HTTP layer
(:mod:`repro.serve.http`) is a thin transport over :meth:`ServeApp.handle`,
and tests and benchmarks call it directly.

Requests are ``{"cmd": <name>, ...}``; responses are ``{"ok": true, ...}``
or ``{"ok": false, "error": {"code": ..., "message": ..., "status": ...}}``
(``status`` is the HTTP status the transport serves the error with) —
malformed input of any shape produces a structured error, never a
traceback.

Commands::

    open        {source | example, heuristic?, auto_freeze?, prelude_frozen?}
    drag        {session, shape, zone, steps: [[dx, dy], ...], sync?, seq?}
    edit        {session, source, seq?}
    release     {session, seq?}
    set_slider  {session, loc, value, seq?}
    undo        {session, seq?}
    render      {session, include_hidden?}
    hover       {session, shape, zone}
    source      {session}
    close       {session}
    stats       {}

**Concurrency contract.**  ``handle`` may be called from many threads at
once: commands for *different* sessions run in parallel, while commands
for the *same* session serialize on its per-session lock, in arrival
order.  A state-changing command may carry ``seq``, a client-side
monotonic sequence number: the server accepts it only when it equals the
session's accepted-operation count plus one (acknowledged-but-queued
``"sync": false`` bursts count as accepted), answering ``stale_seq``
(duplicate or re-ordered, HTTP 409) or ``seq_gap`` (a lost request,
HTTP 409) otherwise — out-of-order drags are *detected*, never silently
applied.  Every state-changing response carries the session's new ``seq``.

``drag`` carries a *burst* of mouse-move samples.  Offsets are cumulative
from the gesture start (the paper's ``τ(dx, dy)``), so a burst coalesces
into a single incremental re-run at its final offset — the program state
after ``[[2,1],[4,2],[6,3]]`` is byte-identical to three separate moves,
but costs one solver pass and one re-evaluation.  With ``"sync": false``
the burst is only *acknowledged* (``{"queued": ..., "pending": ...}``, no
re-run): queued samples accumulate on the session and the next
state-bearing command applies them all as one incremental re-run — the
same coalescing, extended across requests, for clients that stream
mouse-move floods without waiting on each response.

``edit`` replaces the session's source text through the structural differ
(:func:`repro.lang.diff.diff_source`): a value-only edit *re-keys* the
live session in place — the pipeline replays its recorded evaluation and
reuses its Prepare results, never touching the shared
:class:`~repro.serve.cache.CompileCache` — instead of re-seeding a fresh
session from a new compile.  The response reports the classification and
the rewritten locations; a parse error returns ``parse_error`` and leaves
the session untouched.

>>> app = ServeApp()
>>> opened = app.handle({"cmd": "open",
...                      "source": "(def y 20) (svg [(rect 'red' 10 y 30 40)])"})
>>> opened["ok"], opened["shapes"]
(True, 1)
>>> edited = app.handle({"cmd": "edit", "session": opened["session"],
...                      "source": "(def y 80) (svg [(rect 'red' 10 y 30 40)])"})
>>> edited["edit"], edited["changed"]
('value', ['y'])
>>> app.handle({"cmd": "bogus"})["error"]["code"]
'unknown_command'
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..editor.session import EditorError, LiveSession
from ..lang.errors import LittleError, LittleSyntaxError, ResourceExhausted
from .manager import SessionExpired, SessionManager, UnknownSession

__all__ = ["ProtocolError", "ServeApp"]

#: Commands that mutate session state — the ones a forced-budget fault
#: (``budget.force``) refuses and a rolling last-good snapshot follows.
STATE_COMMANDS = frozenset({"drag", "edit", "release", "set_slider",
                            "undo"})


class ProtocolError(Exception):
    """A structured request failure: an error code plus a one-line message."""

    def __init__(self, code: str, message: str, *, status: int = 400):
        super().__init__(message)
        self.code = code
        self.message = message
        #: The HTTP status the transport serves this error with.
        self.status = status

    def to_response(self) -> dict:
        return {"ok": False,
                "error": {"code": self.code, "message": self.message,
                          "status": self.status}}


def _field(request: dict, name: str, kind, *, required: bool = True,
           default=None):
    """Extract + type-check one request field, or raise ``bad_request``."""
    if name not in request:
        if required:
            raise ProtocolError("bad_request",
                                f"missing required field {name!r}")
        return default
    value = request[name]
    if kind is float and isinstance(value, int) \
            and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) \
            and kind is not bool:
        raise ProtocolError(
            "bad_request",
            f"field {name!r} must be {getattr(kind, '__name__', kind)}")
    return value


class ServeApp:
    """The protocol layer: one dict in, one dict out, no exceptions."""

    def __init__(self, manager: Optional[SessionManager] = None, *,
                 max_sessions: int = 64, shards: int = 1,
                 eval_budget=None, faults=None, log=None):
        self.manager = manager if manager is not None \
            else SessionManager(max_sessions=max_sessions, shards=shards,
                                eval_budget=eval_budget, faults=faults,
                                log=log)
        #: The manager's armed fault plan (covers an externally built
        #: manager too) — dispatch-level points fire from here.
        self.faults = self.manager.faults
        self._incident_ids = itertools.count(1)
        self._handlers = {
            "open": self._cmd_open,
            "drag": self._cmd_drag,
            "edit": self._cmd_edit,
            "release": self._cmd_release,
            "set_slider": self._cmd_set_slider,
            "undo": self._cmd_undo,
            "render": self._cmd_render,
            "hover": self._cmd_hover,
            "source": self._cmd_source,
            "close": self._cmd_close,
            "stats": self._cmd_stats,
        }

    # -- dispatch ---------------------------------------------------------------

    def handle(self, request) -> dict:
        """Process one request dict; never raises.

        The final ``except Exception`` is the **shard boundary** of
        fault containment: an unforeseen failure (a bug, or an armed
        ``dispatch.*`` fault) becomes a structured ``internal_error``
        tagged with an incident id, and the target session — whose
        state the dead command may have torn mid-mutation — is
        quarantined (:meth:`~repro.serve.manager.SessionManager
        .quarantine`); its next touch transparently self-heals from
        the last-good snapshot.  One bug never bricks a session id,
        and never takes the server down.
        """
        try:
            if not isinstance(request, dict):
                raise ProtocolError("bad_request",
                                    "request must be a JSON object")
            cmd = _field(request, "cmd", str)
            handler = self._handlers.get(cmd)
            if handler is None:
                raise ProtocolError("unknown_command",
                                    f"unknown command {cmd!r}", status=404)
            if self.faults is not None:
                if cmd in STATE_COMMANDS \
                        and self.faults.should_fire("budget.force"):
                    raise ResourceExhausted(
                        "fuel", 0, "program exceeded its evaluation "
                        "budget: forced by fault injection (budget.force)")
                self.faults.fire(f"dispatch.{cmd}")
            response = handler(request)
            response["ok"] = True
            return response
        except ProtocolError as error:
            return error.to_response()
        except SessionExpired as error:
            return ProtocolError(
                "session_expired",
                f"session {error.args[0]!r} expired from the snapshot "
                f"store; open it again", status=410).to_response()
        except UnknownSession as error:
            return ProtocolError("unknown_session",
                                 f"unknown session {error.args[0]!r}",
                                 status=404).to_response()
        except EditorError as error:
            return ProtocolError("editor_error", str(error)).to_response()
        except LittleSyntaxError as error:
            return ProtocolError("parse_error", str(error)).to_response()
        except ResourceExhausted as error:
            # A failed session command leaves the session as it was, so
            # refusing the command leaves state untouched.
            self.manager.note_limit_error()
            response = ProtocolError("program_limit", str(error),
                                     status=422).to_response()
            response["error"]["kind"] = error.kind
            response["error"]["limit"] = error.limit
            return response
        except LittleError as error:
            return ProtocolError("program_error", str(error)).to_response()
        except Exception as error:      # noqa: BLE001 — the shard boundary
            incident = f"inc{next(self._incident_ids)}"
            self.manager.note_incident()
            sid = request.get("session") if isinstance(request, dict) \
                else None
            if isinstance(sid, str):
                self.manager.quarantine(sid, incident)
            response = ProtocolError(
                "internal_error",
                f"unexpected failure handling {cmd!r} "
                f"(incident {incident}): {error}", status=500).to_response()
            response["error"]["incident"] = incident
            return response

    def _check_seq(self, request: dict, sid: str) -> None:
        """Validate an optional client sequence number against the
        session's accepted-operation count (caller holds the session
        lock).  Duplicates and gaps are rejected, never applied."""
        seq = _field(request, "seq", int, required=False)
        if seq is None:
            return
        expected = self.manager.peek_seq(sid) + 1
        if seq < expected:
            raise ProtocolError(
                "stale_seq",
                f"stale sequence number {seq} for session {sid}; "
                f"expected {expected}", status=409)
        if seq > expected:
            raise ProtocolError(
                "seq_gap",
                f"sequence gap for session {sid}: got {seq}, "
                f"expected {expected}", status=409)

    @staticmethod
    def _state(session: LiveSession) -> dict:
        """The response fields every state-changing command reports."""
        return {"source": session.source(),
                "svg": session.export_svg(),
                "shapes": len(session.canvas),
                "history": len(session.history)}

    def _committed(self, sid: str, session: LiveSession, **fields) -> dict:
        """The response of a command that committed a new session state:
        refresh the last-good snapshot, then report the state, ``fields``
        and the session's new ``seq``."""
        self.manager.update_last_good(sid, session)
        response = self._state(session)
        response.update(session=sid, **fields,
                        seq=self.manager.bump_seq(sid))
        return response

    @staticmethod
    def _slider_state(session: LiveSession) -> list:
        """The slider payload ``open`` and ``edit`` responses share."""
        return [{"loc": slider.loc.display(), "lo": slider.lo,
                 "hi": slider.hi, "value": slider.value}
                for slider in session.sliders.values()]

    # -- commands ---------------------------------------------------------------

    def _cmd_open(self, request: dict) -> dict:
        source = _field(request, "source", str, required=False)
        example = _field(request, "example", str, required=False)
        if (source is None) == (example is None):
            raise ProtocolError("bad_request",
                                "provide exactly one of source or example")
        heuristic = _field(request, "heuristic", str, required=False,
                           default="fair")
        if heuristic not in ("fair", "biased"):
            raise ProtocolError("bad_request",
                                "heuristic must be 'fair' or 'biased'")
        try:
            sid, session, hit = self.manager.open(
                source, example=example, heuristic=heuristic,
                auto_freeze=_field(request, "auto_freeze", bool,
                                   required=False, default=False),
                prelude_frozen=_field(request, "prelude_frozen", bool,
                                      required=False, default=True))
        except KeyError:
            raise ProtocolError("unknown_example",
                                f"unknown example {example!r}", status=404)
        response = self._state(session)
        response.update({
            "session": sid,
            "cache": "hit" if hit else "miss",
            "active_zones": session.active_zone_count(),
            "sliders": self._slider_state(session),
        })
        return response

    def _drag_conflict(self, sid: str, session: LiveSession,
                       shape: int, zone: str) -> None:
        if session.dragging is not None \
                and session.dragging != (shape, zone):
            held_shape, held_zone = session.dragging
            raise ProtocolError(
                "drag_in_progress",
                f"session {sid} is dragging zone {held_zone!r} of shape "
                f"{held_shape}; release it first", status=409)

    def _cmd_drag(self, request: dict) -> dict:
        sid = _field(request, "session", str)
        shape = _field(request, "shape", int)
        zone = _field(request, "zone", str)
        steps = _field(request, "steps", list)
        sync = _field(request, "sync", bool, required=False, default=True)
        if not steps:
            raise ProtocolError("bad_request", "steps must be non-empty")
        for step in steps:
            if (not isinstance(step, (list, tuple)) or len(step) != 2
                    or not all(isinstance(delta, (int, float))
                               and not isinstance(delta, bool)
                               for delta in step)):
                raise ProtocolError(
                    "bad_request", "each step must be a [dx, dy] pair")
        with self.manager.locked(sid) as session:
            self._check_seq(request, sid)
            if not sync:
                # Acknowledge and queue; the next state-bearing command
                # applies all queued samples as one incremental re-run.
                pending = self.manager.pending_drag(sid)
                if pending is not None and pending[:2] != (shape, zone):
                    self.manager.flush_pending(sid, session)
                self._drag_conflict(sid, session, shape, zone)
                if session.dragging is None:
                    # Same rejection start_drag would raise eagerly — an
                    # invalid gesture must fail *now*, not poison the
                    # queue and surface on an unrelated later command.
                    session.check_drag(shape, zone)
                queued = self.manager.queue_drag(sid, shape, zone, steps)
                return {"session": sid, "queued": len(steps),
                        "pending": queued,
                        "seq": self.manager.bump_seq(sid)}
            pending = self.manager.pending_drag(sid)
            superseded = pending is not None and pending[:2] == (shape,
                                                                 zone)
            if not superseded:
                self.manager.flush_pending(sid, session)
            self._drag_conflict(sid, session, shape, zone)
            if session.dragging is None:
                session.start_drag(shape, zone)
            # Offsets are cumulative from the gesture start, so a burst
            # coalesces into one incremental re-run at its final sample
            # — which also supersedes any same-gesture queued backlog,
            # dropped below only once this drag has actually applied.
            dx, dy = steps[-1]
            result = session.drag(float(dx), float(dy))
            if superseded:
                self.manager.drop_pending(sid)
            response = self._state(session)
            response.update({
                "session": sid,
                "coalesced": len(steps),
                "bindings": {loc.display(): value
                             for loc, value in result.bindings.items()},
                "solved": [outcome.loc.display()
                           for outcome in result.outcomes
                           if outcome.solved],
                "unsolved": [outcome.loc.display()
                             for outcome in result.outcomes
                             if not outcome.solved],
                "seq": self.manager.bump_seq(sid),
            })
            return response

    def _cmd_edit(self, request: dict) -> dict:
        sid = _field(request, "session", str)
        source = _field(request, "source", str)
        with self.manager.locked(sid) as session:
            self._check_seq(request, sid)
            self.manager.flush_pending(sid, session)
            # ``edit_source`` parses before touching any session state,
            # so a parse error (surfaced by ``handle`` as
            # ``parse_error``) leaves the session exactly as it was.
            diff = session.edit_source(source)
            self.manager.record_edit(sid, diff.kind)
            return self._committed(
                sid, session, edit=diff.kind,
                structural=diff.change.structural,
                changed=sorted(loc.display() for loc in diff.change.locs),
                active_zones=session.active_zone_count(),
                sliders=self._slider_state(session))

    def _cmd_release(self, request: dict) -> dict:
        sid = _field(request, "session", str)
        with self.manager.locked(sid) as session:
            self._check_seq(request, sid)
            self.manager.flush_pending(sid, session)
            if session.dragging is None:
                raise ProtocolError("no_drag",
                                    f"session {sid} has no drag in flight",
                                    status=409)
            session.release()
            return self._committed(
                sid, session, active_zones=session.active_zone_count())

    def _cmd_set_slider(self, request: dict) -> dict:
        sid = _field(request, "session", str)
        name = _field(request, "loc", str)
        value = _field(request, "value", float)
        with self.manager.locked(sid) as session:
            self._check_seq(request, sid)
            self.manager.flush_pending(sid, session)
            for loc, slider in session.sliders.items():
                if loc.display() == name:
                    session.set_slider(loc, value)
                    break
            else:
                raise ProtocolError(
                    "no_slider", f"no slider named {name!r}; available: "
                    f"{sorted(loc.display() for loc in session.sliders)}",
                    status=404)
            return self._committed(sid, session, loc=name,
                                   value=session.sliders[loc].value)

    def _cmd_undo(self, request: dict) -> dict:
        sid = _field(request, "session", str)
        with self.manager.locked(sid) as session:
            self._check_seq(request, sid)
            self.manager.flush_pending(sid, session)
            if not session.history:
                raise ProtocolError("nothing_to_undo",
                                    f"session {sid} has an empty history",
                                    status=409)
            session.undo()
            return self._committed(sid, session)

    def _cmd_render(self, request: dict) -> dict:
        sid = _field(request, "session", str)
        include_hidden = _field(request, "include_hidden", bool,
                                required=False, default=False)
        with self.manager.locked(sid) as session:
            self.manager.flush_pending(sid, session)
            return {"session": sid,
                    "svg": session.export_svg(
                        include_hidden=include_hidden)}

    def _cmd_hover(self, request: dict) -> dict:
        sid = _field(request, "session", str)
        shape = _field(request, "shape", int)
        zone = _field(request, "zone", str)
        with self.manager.locked(sid) as session:
            self.manager.flush_pending(sid, session)
            if not 0 <= shape < len(session.canvas):
                raise ProtocolError("bad_request",
                                    f"shape {shape} out of range",
                                    status=404)
            if zone not in session.zone_names(shape):
                raise ProtocolError(
                    "bad_request", f"shape {shape} has no zone {zone!r}",
                    status=404)
            info = session.hover(shape, zone)
            return {"session": sid, "active": info.active,
                    "caption": info.caption,
                    "selected": [loc.display() for loc in info.selected],
                    "unselected": [loc.display()
                                   for loc in info.unselected]}

    def _cmd_source(self, request: dict) -> dict:
        sid = _field(request, "session", str)
        with self.manager.locked(sid) as session:
            self.manager.flush_pending(sid, session)
            return {"session": sid, "source": session.source()}

    def _cmd_close(self, request: dict) -> dict:
        sid = _field(request, "session", str)
        self.manager.close(sid)
        return {"session": sid, "closed": True}

    def _cmd_stats(self, request: dict) -> dict:
        return {"stats": self.manager.stats()}
