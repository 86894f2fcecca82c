"""Stdlib HTTP transport for the serve protocol (no third-party deps).

``POST /api`` with a JSON body is dispatched to
:meth:`~repro.serve.protocol.ServeApp.handle`; ``GET /healthz`` and
``GET /stats`` are read-only probes.  The server is a
:class:`~http.server.ThreadingHTTPServer` and requests dispatch
**concurrently**: the protocol layer serializes only commands for the
same session (per-session locks in
:class:`~repro.serve.manager.SessionManager`), so requests for different
sessions execute in parallel on the server threads.

Run it from the CLI (``repro serve --port 8000 --shards 4``) or embed it::

    server = make_server("127.0.0.1", 0, ServeApp())
    threading.Thread(target=server.serve_forever, daemon=True).start()
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from .persist import StatePersister, load_state
from .protocol import ProtocolError, ServeApp

__all__ = ["make_server", "run_server"]

#: Upper bound on request bodies (1 MiB) — little programs are a few KB.
MAX_BODY = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    # Every response is two writes (``end_headers``, then the body).  With
    # Nagle's algorithm the body waits for the client's delayed ACK of the
    # headers, about 40 ms on a keep-alive connection; ``TCP_NODELAY``
    # sends it at once.
    disable_nagle_algorithm = True

    # -- helpers ----------------------------------------------------------------

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, code: str, message: str) -> None:
        # The request body may be partly or wholly unread on these paths;
        # closing keeps a keep-alive client from having its unread bytes
        # parsed as the next request line.
        self.close_connection = True
        self._send_json(status,
                        ProtocolError(code, message,
                                      status=status).to_response())

    # -- verbs ------------------------------------------------------------------

    def do_GET(self) -> None:                   # noqa: N802 (stdlib casing)
        if self.path == "/healthz":
            # Degraded (sessions awaiting healing, persister being
            # rejected by the disk) answers 503 so a load balancer can
            # drain the instance before clients notice.
            health = self.server.app.manager.health()
            self._send_json(200 if health["ok"] else 503, health)
        elif self.path == "/stats":
            response = self.server.app.handle({"cmd": "stats"})
            self._send_json(200, response)
        else:
            self._send_error(404, "not_found", f"no route {self.path!r}")

    def do_POST(self) -> None:                  # noqa: N802 (stdlib casing)
        # The drain waits for every command admitted here before it
        # persists; one that arrives after the drain began is refused
        # instead of acknowledged and then lost at exit.
        if not self.server.admit():
            self._send_error(503, "draining", "the server is shutting down")
            return
        try:
            self._post()
        finally:
            self.server.retire()

    def _post(self) -> None:
        if self.path not in ("/", "/api"):
            self._send_error(404, "not_found", f"no route {self.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if not 0 < length <= MAX_BODY:
            self._send_error(400, "bad_request",
                             "Content-Length required (at most 1 MiB)")
            return
        try:
            request = json.loads(self.rfile.read(length))
        except (ValueError, RecursionError):
            # ValueError covers JSONDecodeError, UnicodeDecodeError and an
            # integer past CPython's digit limit; deep nesting exhausts
            # the decoder's recursion.
            self._send_error(400, "bad_json", "request body is not JSON")
            return
        response = self.server.app.handle(request)
        status = 200
        if not response.get("ok"):
            status = response.get("error", {}).get("status", 400)
        self._send_json(status, response)

    def log_message(self, format: str, *args) -> None:
        if self.server.verbose:
            sys.stderr.write("%s - %s\n" % (self.address_string(),
                                            format % args))


class _Server(ThreadingHTTPServer):
    # An idle keep-alive connection must not hold up exit; the drain
    # waits on admitted commands instead of on handler threads.
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, app: ServeApp, *, verbose: bool = False):
        super().__init__(address, _Handler)
        self.app = app
        self.verbose = verbose
        self._commands = threading.Condition()
        self._in_flight = 0
        self._draining = False

    def admit(self) -> bool:
        """Count one POSTed command in, or refuse it once the drain began."""
        with self._commands:
            if self._draining:
                return False
            self._in_flight += 1
            return True

    def retire(self) -> None:
        """An admitted command has been answered."""
        with self._commands:
            self._in_flight -= 1
            self._commands.notify_all()

    def drain(self) -> None:
        """Refuse every command from now on; :meth:`wait_drained` then
        returns once the admitted ones have answered."""
        with self._commands:
            self._draining = True

    def wait_drained(self) -> None:
        with self._commands:
            self._commands.wait_for(lambda: not self._in_flight)


def make_server(host: str, port: int, app: Optional[ServeApp] = None, *,
                verbose: bool = False) -> _Server:
    """Bind (but do not start) a protocol server; ``port=0`` auto-picks."""
    return _Server((host, port), app if app is not None else ServeApp(),
                   verbose=verbose)


def _setup_failed(what: str, error: OSError) -> int:
    """One line on stderr and exit status 1 for a server that cannot
    start."""
    print(f"repro serve: {what}: {error.strerror or error}",
          file=sys.stderr)
    return 1


def run_server(host: str = "127.0.0.1", port: int = 8000, *,
               max_sessions: int = 64, shards: int = 4,
               verbose: bool = False, state_dir: Optional[str] = None,
               eval_budget=None, faults=None) -> int:
    """The CLI entry point: serve until interrupted.

    With ``state_dir`` the server replays previously spilled sessions on
    boot and attaches a write-behind :class:`StatePersister`, so a
    restart is *warm*: clients resume with their session ids, undo
    histories, sequence numbers, and even mid-flight drags intact.

    A port it cannot bind or a state dir it cannot use ends in one line
    on stderr and exit status 1.

    ``SIGTERM`` drains gracefully — stop accepting, finish in-flight
    requests, persist every session, exit 0 — so a supervisor's routine
    restart never loses state.  From the signal on, a command that
    arrives, even on an open keep-alive connection, answers 503
    ``draining`` and is not applied: every command answered ``ok`` is
    persisted.
    """
    log = (lambda message: sys.stderr.write(f"repro serve: {message}\n")) \
        if verbose else None
    app = ServeApp(max_sessions=max_sessions, shards=shards,
                   eval_budget=eval_budget, faults=faults, log=log)
    persister = None
    if state_dir is not None:
        try:
            persister = StatePersister(state_dir,
                                       app.manager.persist_payload,
                                       faults=faults, log=log)
            payloads, corrupt = load_state(state_dir)
        except OSError as error:
            return _setup_failed(f"cannot use state dir {state_dir}",
                                 error)
        restored = app.manager.load_state(payloads)
        app.manager.attach_persister(persister)
    try:
        server = make_server(host, port, app, verbose=verbose)
    except OSError as error:
        return _setup_failed(f"cannot listen on {host}:{port}", error)
    if persister is not None:
        persister.start()
        if restored or corrupt:
            print(f"repro serve: restored {restored} session(s) from "
                  f"{state_dir}"
                  + (f" ({corrupt} corrupt file(s) skipped)"
                     if corrupt else ""))
    draining = threading.Event()

    def _drain(signum, frame):
        draining.set()
        server.drain()
        # ``shutdown`` blocks until ``serve_forever`` exits; calling it
        # from this handler (which runs *on* the serving thread) would
        # deadlock, so hand it to a helper thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _drain)
    except ValueError:
        pass                        # not the main thread (embedded use)
    bound_host, bound_port = server.server_address[:2]
    nshards = len(app.manager.shards)
    print(f"repro serve: listening on http://{bound_host}:{bound_port}/api "
          f"(max {max_sessions} live sessions over {nshards} shards"
          f"{f', state in {state_dir}' if state_dir else ''}; "
          f"POST JSON, GET /healthz)")
    try:
        server.serve_forever()
        if draining.is_set():
            print("repro serve: draining (SIGTERM)")
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    finally:
        # Handler threads are daemons, so ``server_close`` joins none of
        # them; the flush waits on the commands admitted before the drain
        # instead, and a keep-alive connection's next one answers 503.
        server.drain()
        server.wait_drained()
        server.server_close()
        if persister is not None:
            app.manager.flush_state()
            persister.stop()
            print(f"repro serve: state persisted to {state_dir}")
    return 0
