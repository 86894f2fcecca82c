"""One independent slice of the session fleet.

The coordinator (:class:`~repro.serve.manager.SessionManager`) splits its
sessions across N :class:`SessionShard`\\ s — each with **its own lock, its
own LRU budget of live sessions, and its own snapshot store** — so that
bookkeeping for different sessions never contends on one global structure.
A shard knows nothing about other shards, per-session locks, or the
protocol; it is a thread-safe pair of LRU stores:

* ``live``: at most ``budget`` :class:`~repro.editor.session.LiveSession`
  objects, most-recently-touched last;
* ``snapshots``: at most ``snapshot_budget`` JSON-able snapshots of
  evicted sessions, oldest expired first.

Placement is by stable hash of the session id (:func:`shard_index`); the
coordinator records the home shard on each session's entry so it can
*migrate* a session off a hot shard without breaking lookups.

All methods take the shard lock internally and hold it only for dict
operations — never across a parse, an evaluation, or a snapshot restore.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from threading import Lock
from typing import List, Optional

from ..editor.session import LiveSession

__all__ = ["SessionShard", "shard_index"]


def shard_index(session_id: str, nshards: int) -> int:
    """The home shard for ``session_id``: a stable hash, *not* the
    per-process-randomized ``hash()``, so placement is reproducible in
    tests and stable across interpreter restarts.

    >>> shard_index("s1", 4)
    0
    >>> shard_index("s1", 1)
    0
    """
    return zlib.crc32(session_id.encode("utf-8")) % nshards


class SessionShard:
    """A lock + live-session LRU + snapshot LRU, independent of its peers."""

    def __init__(self, index: int, budget: int, snapshot_budget: int):
        self.index = index
        #: Max live sessions before the coordinator migrates or evicts.
        self.budget = budget
        #: Max stored snapshots before the oldest expires.
        self.snapshot_budget = snapshot_budget
        self._lock = Lock()
        self._live: "OrderedDict[str, LiveSession]" = OrderedDict()
        self._snapshots: "OrderedDict[str, dict]" = OrderedDict()
        self.evicted = 0
        self.rehydrated = 0
        self.migrated_in = 0
        self.migrated_out = 0

    # -- live sessions ----------------------------------------------------------

    def touch(self, session_id: str) -> Optional[LiveSession]:
        """The live session, bumped to most-recently-used, else ``None``."""
        with self._lock:
            session = self._live.get(session_id)
            if session is not None:
                self._live.move_to_end(session_id)
            return session

    def admit(self, session_id: str, session: LiveSession) -> int:
        """Install a live session (most-recently-used); returns the live
        count so the coordinator can decide whether to shed load."""
        with self._lock:
            self._live[session_id] = session
            self._live.move_to_end(session_id)
            return len(self._live)

    def remove_live(self, session_id: str) -> Optional[LiveSession]:
        """Detach a live session (for migration or eviction), if present."""
        with self._lock:
            return self._live.pop(session_id, None)

    def peek_live(self, session_id: str) -> Optional[LiveSession]:
        """The live session *without* bumping its LRU position — for
        observers (the persister) that must not distort eviction order."""
        with self._lock:
            return self._live.get(session_id)

    def admit_within_budget(self, session_id: str,
                            session: LiveSession) -> bool:
        """Install a live session only if the shard has headroom — the
        check and the insert are one atomic step, so two concurrent
        migrations cannot both squeeze into the last slot."""
        with self._lock:
            if len(self._live) >= self.budget:
                return False
            self._live[session_id] = session
            self._live.move_to_end(session_id)
            return True

    def lru_live_ids(self) -> List[str]:
        """Live session ids, least-recently-used first."""
        with self._lock:
            return list(self._live)

    def live_count(self) -> int:
        with self._lock:
            return len(self._live)

    def over_budget(self) -> int:
        with self._lock:
            return max(0, len(self._live) - self.budget)

    # -- snapshots --------------------------------------------------------------

    def store_snapshot(self, session_id: str, snapshot: dict) -> List[str]:
        """Store an evicted session's snapshot; returns the ids whose
        snapshots *expired* to keep the store inside its budget (the
        coordinator turns those into tombstones)."""
        expired = []
        with self._lock:
            self._snapshots[session_id] = snapshot
            self._snapshots.move_to_end(session_id)
            while len(self._snapshots) > self.snapshot_budget:
                expired_id, _ = self._snapshots.popitem(last=False)
                expired.append(expired_id)
        return expired

    def pop_snapshot(self, session_id: str) -> Optional[dict]:
        with self._lock:
            return self._snapshots.pop(session_id, None)

    def peek_snapshot(self, session_id: str) -> Optional[dict]:
        """Read a stored snapshot without consuming or reordering it."""
        with self._lock:
            return self._snapshots.get(session_id)

    # -- counters (coordinator-driven events) ------------------------------------

    def note_rehydrated(self) -> None:
        with self._lock:
            self.rehydrated += 1

    def note_evicted(self) -> None:
        with self._lock:
            self.evicted += 1

    def note_migration(self, *, inbound: bool) -> None:
        with self._lock:
            if inbound:
                self.migrated_in += 1
            else:
                self.migrated_out += 1

    # -- lifecycle / introspection ----------------------------------------------

    def forget(self, session_id: str) -> bool:
        """Drop every trace of a session (close); True if it was here."""
        with self._lock:
            in_live = self._live.pop(session_id, None) is not None
            in_snap = self._snapshots.pop(session_id, None) is not None
            return in_live or in_snap

    def stats(self) -> dict:
        with self._lock:
            return {"live": len(self._live),
                    "snapshots": len(self._snapshots),
                    "budget": self.budget,
                    "snapshot_budget": self.snapshot_budget,
                    "evicted": self.evicted,
                    "rehydrated": self.rehydrated,
                    "migrated_in": self.migrated_in,
                    "migrated_out": self.migrated_out}
