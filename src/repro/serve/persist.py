"""Durable warm restart: a write-behind persister for session state.

A server restart — deploy, crash, ``kill -TERM`` — used to discard every
live session and snapshot.  With ``repro serve --state-dir DIR`` the
:class:`~repro.serve.manager.SessionManager` attaches a
:class:`StatePersister` that spills one JSON file per session to ``DIR``
and replays them on boot, so clients resume with their session id, undo
history, sequence number and even a mid-flight drag intact.

Design points:

* **Write-behind** — mutations mark the session *dirty*; a background
  thread batches the writes, so the request path pays a set-insert, not
  a disk write.  :meth:`flush` forces the queue empty (used on graceful
  shutdown and by tests); :meth:`backlog` sizes the queue for
  ``/healthz``.
* **Atomic + durable** — each file is written to a temp name, fsynced,
  ``os.replace``\\ d over the final name, and the directory fsynced: a
  crash mid-write leaves the previous good file, never a torn one.
* **Failure-contained** — a failed write (full disk, injected via the
  ``persist.write`` fault point) counts in stats, leaves the session
  dirty for retry, and never surfaces into a request.

>>> import tempfile
>>> with tempfile.TemporaryDirectory() as state_dir:
...     persister = StatePersister(
...         state_dir, lambda sid: {"sid": sid, "snapshot": {}})
...     persister.mark_dirty("s1")
...     pending = persister.flush()
...     payloads, corrupt = load_state(state_dir)
...     (sorted(p["sid"] for p in payloads), corrupt)
(['s1'], 0)
"""

from __future__ import annotations

import json
import os
import threading
from typing import Callable, List, Optional, Tuple

from .faults import FaultPlan, InjectedFault, fail_point

__all__ = ["StatePersister", "load_state"]

#: Seconds the background thread waits between batched flushes.
FLUSH_INTERVAL = 0.25


def _session_path(state_dir: str, session_id: str) -> str:
    return os.path.join(state_dir, f"{session_id}.json")


class StatePersister:
    """Write-behind spiller of per-session payloads to ``state_dir``.

    ``payload_fn(session_id)`` must return the JSON-able payload to
    persist — or ``None`` when the session no longer exists (its file is
    then deleted).  The function is called from the persister thread (or
    a flusher); the manager's implementation takes the session lock, so
    a payload is never read mid-command.
    """

    def __init__(self, state_dir: str,
                 payload_fn: Callable[[str], Optional[dict]], *,
                 faults: Optional[FaultPlan] = None,
                 log: Optional[Callable[[str], None]] = None):
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self._payload_fn = payload_fn
        self._faults = faults
        self._log = log
        self._dirty: set = set()
        self._removed: set = set()
        self._lock = threading.Lock()       # queue state
        self._flush_lock = threading.Lock()  # serializes whole flushes
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.writes = 0
        self.removes = 0
        self.failures = 0
        #: Failures since the last successful write — nonzero means the
        #: disk is currently rejecting us (``/healthz`` degrades on it).
        self.consecutive_failures = 0

    # -- queue ------------------------------------------------------------------

    def mark_dirty(self, session_id: str) -> None:
        """Schedule ``session_id``'s state for (re-)writing."""
        with self._lock:
            self._dirty.add(session_id)
            self._removed.discard(session_id)
        self._wake.set()

    def remove(self, session_id: str) -> None:
        """Schedule ``session_id``'s file for deletion (close/expiry)."""
        with self._lock:
            self._dirty.discard(session_id)
            self._removed.add(session_id)
        self._wake.set()

    def backlog(self) -> int:
        """Queued-but-unwritten work items (the ``/healthz`` signal)."""
        with self._lock:
            return len(self._dirty) + len(self._removed)

    # -- background thread --------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run,
                                        name="repro-persist", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stopping.is_set():
            self._wake.wait(FLUSH_INTERVAL)
            self._wake.clear()
            self.flush()

    def stop(self, *, flush: bool = True) -> None:
        """Stop the background thread; by default drain the queue first
        (the graceful-shutdown path)."""
        self._stopping.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        if flush:
            self.flush()

    # -- writing ------------------------------------------------------------------

    def flush(self) -> int:
        """Drain the queue now; returns items still pending (failed
        writes re-queued for retry)."""
        with self._flush_lock:
            with self._lock:
                dirty = sorted(self._dirty)
                removed = sorted(self._removed)
                self._dirty.clear()
                self._removed.clear()
            for session_id in removed:
                try:
                    os.unlink(_session_path(self.state_dir, session_id))
                    self.removes += 1
                except FileNotFoundError:
                    pass
                except OSError:
                    pass            # directory gone: nothing to durably keep
            failed = []
            for session_id in dirty:
                payload = self._payload_fn(session_id)
                if payload is None:
                    try:
                        os.unlink(_session_path(self.state_dir, session_id))
                    except OSError:
                        pass
                    continue
                try:
                    fail_point(self._faults, "persist.write")
                    self._write(session_id, payload)
                    self.writes += 1
                    self.consecutive_failures = 0
                except (OSError, InjectedFault) as error:
                    self.failures += 1
                    self.consecutive_failures += 1
                    failed.append(session_id)
                    if self._log is not None:
                        self._log(f"persist: write of {session_id} failed: "
                                  f"{error}")
            if failed:
                with self._lock:
                    # A close that raced the failed write wins: don't
                    # resurrect a session the manager asked us to remove.
                    self._dirty.update(sid for sid in failed
                                       if sid not in self._removed)
        return self.backlog()

    def _write(self, session_id: str, payload: dict) -> None:
        final = _session_path(self.state_dir, session_id)
        tmp = final + ".tmp"
        data = json.dumps(payload, separators=(",", ":"))
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        # fsync the directory so the rename itself is durable.
        dir_fd = os.open(self.state_dir, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def stats(self) -> dict:
        return {"writes": self.writes, "removes": self.removes,
                "failures": self.failures,
                "consecutive_failures": self.consecutive_failures,
                "backlog": self.backlog()}


def load_state(state_dir: str) -> Tuple[List[dict], int]:
    """Read every persisted session payload from ``state_dir``.

    Returns ``(payloads, corrupt)`` where ``corrupt`` counts files that
    were unreadable or undecodable — a torn ``.tmp`` left by a crash is
    not counted (the atomic-rename protocol makes it garbage by design,
    and it is cleaned up here).
    """
    payloads: List[dict] = []
    corrupt = 0
    if not os.path.isdir(state_dir):
        return payloads, corrupt
    for name in sorted(os.listdir(state_dir)):
        path = os.path.join(state_dir, name)
        if name.endswith(".tmp"):
            try:
                os.unlink(path)
            except OSError:
                pass
            continue
        if not name.endswith(".json"):
            continue
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict) or "sid" not in payload:
                raise ValueError("not a session payload")
            payloads.append(payload)
        except (OSError, ValueError):
            corrupt += 1
    return payloads, corrupt
