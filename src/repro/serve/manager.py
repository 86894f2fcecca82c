"""Session lifecycle for the serve layer: many editors, true concurrency.

A :class:`SessionManager` owns a fleet of
:class:`~repro.editor.session.LiveSession`\\ s behind opaque string ids,
split across N :class:`~repro.serve.shard.SessionShard`\\ s (sessions
placed by stable hash of their id).  The concurrency contract:

* **requests for different sessions run in parallel** — each session has
  its own lock (:meth:`locked`), and shard bookkeeping locks are held
  only for dict operations;
* **requests for the same session are strictly ordered** — the protocol
  layer holds the session lock for the whole command, and an optional
  per-session monotonic sequence number (:meth:`peek_seq`/:meth:`bump_seq`)
  lets clients *detect* duplicated or re-ordered requests instead of
  silently applying them;
* **eviction never tears a session** — a shard over its live budget first
  *migrates* its least-recently-used idle session to the coldest
  under-budget shard, and only snapshots
  (:meth:`~repro.editor.session.LiveSession.snapshot`) when every shard
  is full; a session whose lock is held (mid-drag) is skipped, never
  snapshotted mid-operation;
* a shared single-flight :class:`~repro.serve.cache.CompileCache` —
  concurrent opens of the same source block on **one** parse and one
  recorded evaluation instead of racing.

Snapshots transparently rehydrate on the next touch, mid-gesture drags
included; a session whose snapshot was expired to bound the store is
remembered as a tombstone, so callers get the distinct
:class:`SessionExpired` (HTTP 410) instead of the never-issued
:class:`UnknownSession` (HTTP 404).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from contextlib import contextmanager
from threading import RLock, get_ident
from typing import Dict, List, Optional, Tuple

from ..editor.session import LiveSession
from ..examples.registry import example_source
from ..lang.errors import LittleError
from .cache import CompileCache
from .faults import fail_point
from .shard import SessionShard, shard_index

__all__ = ["SessionManager", "SessionExpired", "UnknownSession"]


class UnknownSession(KeyError):
    """The session id was never issued."""


class SessionExpired(UnknownSession):
    """The session id was issued, but its snapshot was expired to keep
    the eviction store bounded — distinct from a never-issued id."""


class _SessionEntry:
    """Coordinator-side state that survives eviction and migration:
    the per-session lock, sequence number, home shard, queued (not yet
    applied) drag samples, and edit counters."""

    __slots__ = ("lock", "seq", "shard", "pending", "edits", "owner",
                 "depth", "poisoned", "last_good")

    def __init__(self, shard: SessionShard):
        self.lock = RLock()
        self.seq = 0
        self.shard = shard
        #: Incident id of the unexpected dispatch failure that poisoned
        #: this session, or ``None``.  A poisoned session's live object /
        #: stored snapshot are untrusted; the next touch discards them
        #: and self-heals from :attr:`last_good`.
        self.poisoned: Optional[str] = None
        #: Rolling known-good snapshot, refreshed at command boundaries
        #: (open, release, edit, slider, undo) — never mid-gesture.
        self.last_good: Optional[dict] = None
        #: Thread currently inside :meth:`SessionManager.locked` (and
        #: its nesting depth) — lets the evictor refuse a victim whose
        #: RLock it could acquire *re-entrantly* (its own command's
        #: session), which would tear the session it is serving.
        self.owner: Optional[int] = None
        self.depth = 0
        #: ``(shape, zone, count, [dx, dy])`` — acknowledged-but-unapplied
        #: drag samples (cumulative from gesture start).  Only the count
        #: and the *final* sample are kept: the flush re-runs once at the
        #: last cumulative offset, so a client streaming moves for hours
        #: costs O(1) memory, not one stored pair per sample.
        self.pending: Optional[Tuple[int, str, int, list]] = None
        self.edits: Dict[str, int] = {}


class SessionManager:
    """Owns live sessions, their snapshots, and the shared compile cache.

    >>> manager = SessionManager(max_sessions=2)
    >>> sid, session, hit = manager.open(source="(svg [(rect 'red' 1 2 3 4)])")
    >>> hit, len(session.canvas)
    (False, 1)
    >>> manager.get(sid) is session
    True
    """

    def __init__(self, max_sessions: int = 64, *, shards: int = 1,
                 snapshot_limit: int = 1024,
                 eval_budget=None, faults=None, log=None):
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        shards = min(shards, max_sessions)
        self.max_sessions = max_sessions
        self.snapshot_limit = snapshot_limit
        #: Prototype :class:`~repro.lang.eval.EvalBudget`; every session
        #: (and the compile cache's leader evaluation) gets its own clone,
        #: since budget counters are mutable per-run state.
        self.eval_budget = eval_budget
        #: Armed :class:`~repro.serve.faults.FaultPlan`, if any.
        self.faults = faults
        #: ``log(message)`` sink for failure events (``--verbose`` wires
        #: it to stderr; default drops them — the *counters* always count).
        self._log = log if log is not None else (lambda message: None)
        self.cache = CompileCache(budget=eval_budget, faults=faults)
        # Snapshot budgets get a floor of 1 so a small global limit split
        # across shards never silently expires an eviction on the spot
        # (the effective global bound rounds up to at most one per shard).
        self.shards: List[SessionShard] = [
            SessionShard(index,
                         budget=self._split(max_sessions, shards, index),
                         snapshot_budget=max(1, self._split(
                             snapshot_limit, shards, index)))
            for index in range(shards)]
        self._entries: Dict[str, _SessionEntry] = {}
        #: Tombstones of expired ids (bounded FIFO): distinguishes
        #: ``SessionExpired`` from ``UnknownSession``.
        self._expired_ids: "OrderedDict[str, bool]" = OrderedDict()
        self._expired_limit = max(1024, 4 * snapshot_limit)
        self._ids = itertools.count(1)
        self._lock = RLock()        # coordinator bookkeeping only
        self.opened = 0
        self.expired = 0
        self.edits = 0
        self.migrations = 0
        #: Unexpected dispatch failures (``internal_error`` answers, with
        #: or without a session to quarantine), heals performed, sessions
        #: lost because healing had nothing to restore from, and commands
        #: refused over budget.
        self.incidents = 0
        self.healed = 0
        self.heal_failures = 0
        self.limit_errors = 0
        #: Eviction flush/snapshot failures (previously swallowed).
        self.evict_failures = 0
        #: Failed last-good snapshot refreshes (session kept the older one).
        self.snapshot_failures = 0
        #: Drag hot paths specialized to compiled artifacts
        #: (:mod:`repro.lang.compile`), and specializations that failed —
        #: each failure pins its recording to the interpreted fast path
        #: (correctness is never at stake; only the speedup is lost).
        self.specializations = 0
        self.specialize_failures = 0
        #: Attached :class:`~repro.serve.persist.StatePersister`, if any.
        self.persister = None

    @staticmethod
    def _split(total: int, parts: int, index: int) -> int:
        """Distribute ``total`` over ``parts`` shards (first shards take
        the remainder)."""
        return total // parts + (1 if index < total % parts else 0)

    # -- lifecycle --------------------------------------------------------------

    def open(self, source: Optional[str] = None, *,
             example: Optional[str] = None, heuristic: str = "fair",
             auto_freeze: bool = False, prelude_frozen: bool = True
             ) -> Tuple[str, LiveSession, bool]:
        """Create a session, returning ``(session_id, session, cache_hit)``.

        Exactly one of ``source`` / ``example`` must be given; ``example``
        names a program of the bundled corpus
        (:func:`repro.examples.registry.example_names`).
        """
        if (source is None) == (example is None):
            raise ValueError("provide exactly one of source or example")
        if example is not None:
            source = example_source(example)
        compiled, hit = self.cache.compile(source, auto_freeze=auto_freeze,
                                           prelude_frozen=prelude_frozen)
        session = LiveSession(program=compiled.program, heuristic=heuristic,
                              seed=compiled.eval_cache,
                              budget=self._session_budget(),
                              specialize_probe=self._specialize_probe)
        with self._lock:
            sid = f"s{next(self._ids)}"
            shard = self.shards[shard_index(sid, len(self.shards))]
        # Admit before registering the entry: once an entry exists, an
        # entry with no backing store means "expiry in flight", so the
        # stores must never lag behind the entry.
        shard.admit(sid, session)
        with self._lock:
            entry = _SessionEntry(shard)
            self._entries[sid] = entry
            self.opened += 1
        # Every session carries a last-good snapshot from birth, so
        # quarantine can always heal (a fresh session's snapshot is just
        # its source text plus empty overlays).
        entry.last_good = session.snapshot()
        if self.persister is not None:
            self.persister.mark_dirty(sid)
        self._shed(shard, exclude=sid)
        return sid, session, hit

    def _session_budget(self):
        return self.eval_budget.clone() if self.eval_budget is not None \
            else None

    def get(self, session_id: str) -> LiveSession:
        """The live session for ``session_id``, rehydrating if evicted.

        Acquires (and releases) the per-session lock; concurrent callers
        that need the session to *stay* theirs for a whole command use
        :meth:`locked` instead.
        """
        with self.locked(session_id) as session:
            return session

    @contextmanager
    def locked(self, session_id: str):
        """Hold ``session_id``'s lock for a whole command: requests for
        the same session serialize in arrival order; requests for other
        sessions proceed in parallel.  Rehydrates evicted sessions."""
        entry = self._entry(session_id)
        try:
            with entry.lock:
                entry.owner = get_ident()
                entry.depth += 1
                try:
                    yield self._materialize(session_id, entry)
                finally:
                    entry.depth -= 1
                    if entry.depth == 0:
                        entry.owner = None
        finally:
            # A shard can be left over budget when every victim was busy
            # at admit time; completing a request (even a failed one) is
            # the retry point — our own session is fair game again now
            # its lock is free.
            self._shed(entry.shard, exclude=None)

    def close(self, session_id: str) -> None:
        """Forget a session (live or snapshotted)."""
        entry = self._entry(session_id)
        with entry.lock:
            entry.shard.forget(session_id)
            with self._lock:
                self._entries.pop(session_id, None)
        if self.persister is not None:
            self.persister.remove(session_id)

    # -- crash quarantine + self-healing ------------------------------------------

    def quarantine(self, session_id: str, incident: str) -> None:
        """Mark a session poisoned after an unexpected dispatch failure.

        The live object (and any stored snapshot) are no longer trusted —
        the failed command may have died mid-mutation.  They stay in
        place, untouched, until the next command on the session heals it
        from :attr:`_SessionEntry.last_good` (:meth:`_materialize`).
        A second incident on an already-poisoned session keeps the
        *first* incident id (that is the state the healer will report
        having recovered from).
        """
        entry = self._entries.get(session_id)
        if entry is None:
            return                  # closed/expired concurrently: nothing
        # Takes the session lock itself (re-entrant if the caller still
        # holds it): the failed command's ``locked()`` scope has already
        # exited by the time the shard boundary runs this.
        with entry.lock:
            if entry.poisoned is None:
                entry.poisoned = incident
            entry.pending = None    # queued gesture died with the command
        if self.persister is not None:
            # The on-disk state converges onto last-good too.
            self.persister.mark_dirty(session_id)
        self._log(f"quarantine: session {session_id} poisoned "
                  f"(incident {incident})")

    def update_last_good(self, session_id: str,
                         session: LiveSession) -> None:
        """Refresh the rolling known-good snapshot at a command boundary
        (the protocol calls this after successful state-changing commands
        — never mid-gesture).  Caller holds the session lock.  A snapshot
        failure (``snapshot.serialize`` fault point) keeps the previous —
        still correct, just older — snapshot and counts the event."""
        entry = self._held_entry(session_id)
        try:
            fail_point(self.faults, "snapshot.serialize")
            entry.last_good = session.snapshot()
        except Exception as error:
            with self._lock:
                self.snapshot_failures += 1
            self._log(f"last-good snapshot of {session_id} failed: {error}")

    def poisoned_count(self) -> int:
        with self._lock:
            return sum(1 for entry in self._entries.values()
                       if entry.poisoned is not None)

    def note_incident(self) -> None:
        """Count one unexpected dispatch failure (``internal_error``)."""
        with self._lock:
            self.incidents += 1

    def note_limit_error(self) -> None:
        """Count one command refused with ``program_limit`` (422)."""
        with self._lock:
            self.limit_errors += 1

    def record_edit(self, session_id: str, kind: str) -> None:
        """Count one :meth:`~repro.editor.session.LiveSession.edit_source`
        call against ``session_id``, keyed by the differ's classification."""
        entry = self._entry(session_id)
        with self._lock:
            self.edits += 1
            entry.edits[kind] = entry.edits.get(kind, 0) + 1

    # -- per-session ordering ----------------------------------------------------

    def peek_seq(self, session_id: str) -> int:
        """The session's current sequence number: accepted operations
        so far (acknowledged-but-queued drags included)."""
        return self._held_entry(session_id).seq

    def bump_seq(self, session_id: str) -> int:
        """Advance the sequence number for one applied operation.  The
        caller must hold the session lock (:meth:`locked`)."""
        entry = self._held_entry(session_id)
        entry.seq += 1
        if self.persister is not None:
            self.persister.mark_dirty(session_id)
        return entry.seq

    # -- queued drags ------------------------------------------------------------

    def pending_drag(self, session_id: str
                     ) -> Optional[Tuple[int, str, int, list]]:
        return self._held_entry(session_id).pending

    def drop_pending(self, session_id: str) -> None:
        """Discard queued drag samples without applying them — used when
        a newer cumulative sample for the same gesture supersedes them.
        Caller holds the session lock."""
        self._held_entry(session_id).pending = None

    def queue_drag(self, session_id: str, shape: int, zone: str,
                   steps: list) -> int:
        """Acknowledge drag samples without applying them; returns the
        total queued.  Offsets are cumulative from the gesture start, so
        only the count and the final sample are retained.  Caller holds
        the session lock and has checked the gesture matches."""
        entry = self._held_entry(session_id)
        count = len(steps) if entry.pending is None \
            else entry.pending[2] + len(steps)
        entry.pending = (shape, zone, count, list(steps[-1]))
        return count

    def flush_pending(self, session_id: str, session: LiveSession) -> None:
        """Apply queued drag samples as **one** incremental re-run at the
        final cumulative sample.  Caller holds the session lock."""
        entry = self._held_entry(session_id)
        self._flush(entry, session)

    @staticmethod
    def _flush(entry: _SessionEntry, session: LiveSession) -> None:
        if entry.pending is None:
            return
        shape, zone, _count, last = entry.pending
        # Cleared in the finally so a failed apply surfaces its error
        # exactly once (matching an eager client whose drag failed)
        # instead of poisoning every subsequent command.
        try:
            if session.dragging is None:
                session.start_drag(shape, zone)
            dx, dy = last
            session.drag(float(dx), float(dy))
        finally:
            entry.pending = None

    # -- internals --------------------------------------------------------------

    def _entry(self, session_id: str) -> _SessionEntry:
        with self._lock:
            entry = self._entries.get(session_id)
            if entry is not None:
                return entry
            if session_id in self._expired_ids:
                raise SessionExpired(session_id)
            raise UnknownSession(session_id)

    def _held_entry(self, session_id: str) -> _SessionEntry:
        """Entry lookup for the per-session accessors, whose callers
        already hold the session lock (:meth:`locked`): a plain dict
        read suffices — the entry object cannot be swapped while the
        lock is held (ids are never reused) — sparing the coordinator
        lock on every hot-path operation.  Falls back to :meth:`_entry`
        for the precise expired/unknown error when the id is gone."""
        entry = self._entries.get(session_id)
        return entry if entry is not None else self._entry(session_id)

    def _materialize(self, session_id: str, entry: _SessionEntry
                     ) -> LiveSession:
        """Find or rehydrate the session.  Caller holds the session lock,
        so the home shard cannot change underneath us."""
        if entry.poisoned is not None:
            return self._heal(session_id, entry)
        shard = entry.shard
        session = shard.touch(session_id)
        if session is not None:
            return session
        snapshot = shard.pop_snapshot(session_id)
        if snapshot is None:
            # Closed or expired while we waited on the lock.  If the
            # entry is already gone, _entry reports the precise error;
            # if it still exists with no backing store, an expiry
            # (store_snapshot popped us, _expire hasn't tombstoned us
            # yet) is in flight — report it as such, not as a 404.
            self._entry(session_id)
            raise SessionExpired(session_id)
        try:
            session = self._restore(snapshot)
        except LittleError:
            # The stored program no longer runs, and its snapshot is
            # already popped: expire the session (counted, tombstoned)
            # rather than keep an entry with nothing behind it.
            self._expire([session_id])
            raise
        shard.note_rehydrated()
        shard.admit(session_id, session)
        self._shed(shard, exclude=session_id)
        return session

    def _restore(self, snapshot: dict) -> LiveSession:
        fail_point(self.faults, "snapshot.deserialize")
        return LiveSession.restore(snapshot,
                                   compile_fn=self._compile_for_restore,
                                   budget=self._session_budget(),
                                   specialize_probe=self._specialize_probe)

    def _specialize_probe(self, event: str) -> None:
        """Observe drag hot-path specialization from every session we own
        (:func:`repro.lang.compile.ensure_compiled`).  ``"attempt"`` is
        the ``compile.specialize`` fault point — an injected fault aborts
        that one specialization, which the compiler layer converts into a
        permanent interpreter fallback for the recording (never a wrong
        or missing answer); outcomes are counted for ``/stats``."""
        if event == "attempt":
            fail_point(self.faults, "compile.specialize")
        elif event == "compiled":
            with self._lock:
                self.specializations += 1
        elif event == "failed":
            with self._lock:
                self.specialize_failures += 1
            self._log("specialize: compile failed, recording pinned to "
                      "the interpreted fast path")

    def _heal(self, session_id: str, entry: _SessionEntry) -> LiveSession:
        """Self-heal a poisoned session from its last-good snapshot.

        The untrusted live object and any stored snapshot are discarded
        first.  Healing failure (no last-good snapshot, or its restore
        itself fails) forgets the session and tombstones the id — the
        client gets the structured 410, never a wedged or corrupt
        session.  Caller holds the session lock.
        """
        incident = entry.poisoned
        shard = entry.shard
        shard.remove_live(session_id)
        shard.pop_snapshot(session_id)
        try:
            if entry.last_good is None:
                raise ValueError("no last-good snapshot")
            session = self._restore(entry.last_good)
        except Exception as error:
            with self._lock:
                self.heal_failures += 1
                if self._entries.pop(session_id, None) is not None:
                    self._expired_ids[session_id] = True
                    self.expired += 1
            if self.persister is not None:
                self.persister.remove(session_id)
            self._log(f"heal: session {session_id} lost "
                      f"(incident {incident}): {error}")
            raise SessionExpired(session_id)
        entry.poisoned = None
        with self._lock:
            self.healed += 1
        self._log(f"heal: session {session_id} restored from last-good "
                  f"snapshot (incident {incident})")
        shard.admit(session_id, session)
        self._shed(shard, exclude=session_id)
        return session

    def _shed(self, shard: SessionShard, *,
              exclude: Optional[str]) -> None:
        """Bring ``shard`` back inside its live budget: migrate the
        least-recently-used idle session to the coldest under-budget
        shard, else snapshot it.  Sessions whose lock is held (a request
        — or drag — is in flight) are skipped, never torn."""
        while shard.over_budget():
            progressed = False
            for victim_id in shard.lru_live_ids():
                if exclude is not None and victim_id == exclude:
                    continue
                with self._lock:
                    entry = self._entries.get(victim_id)
                if entry is None or entry.shard is not shard:
                    continue
                if entry.owner == get_ident():
                    # Our own in-flight command's session: the RLock
                    # would let us acquire it re-entrantly and tear the
                    # session we are serving.
                    continue
                if not entry.lock.acquire(blocking=False):
                    continue                # mid-request: never evict
                try:
                    session = shard.remove_live(victim_id)
                    if session is None:
                        continue            # touched or closed meanwhile
                    target = self._coldest(exclude=shard)
                    if target is not None \
                            and target.admit_within_budget(victim_id,
                                                           session):
                        entry.shard = target
                        with self._lock:
                            self.migrations += 1
                        shard.note_migration(inbound=False)
                        target.note_migration(inbound=True)
                    elif entry.poisoned is not None:
                        # Never snapshot a poisoned session's broken live
                        # state: store its last-good snapshot, so the
                        # rehydration path *is* the healing path.
                        if entry.last_good is not None:
                            expired = shard.store_snapshot(victim_id,
                                                           entry.last_good)
                            entry.poisoned = None
                            with self._lock:
                                self.healed += 1
                            shard.note_evicted()
                            self._expire(expired)
                        else:
                            with self._lock:
                                self.heal_failures += 1
                            self._expire([victim_id])
                    else:
                        try:
                            self._flush(entry, session)
                            fail_point(self.faults, "snapshot.serialize")
                            snapshot = session.snapshot()
                        except Exception as error:
                            # A failed flush or snapshot must not destroy
                            # the victim or poison the bystander request
                            # that triggered shedding: drop the queued
                            # gesture, put the victim back (as MRU), and
                            # stay over budget until a later request
                            # retries the shed.  Counted and logged — a
                            # silently-ignored failure here previously
                            # hid every snapshot bug until restart.
                            entry.pending = None
                            shard.admit(victim_id, session)
                            with self._lock:
                                self.evict_failures += 1
                            self._log(f"evict: flush/snapshot of "
                                      f"{victim_id} failed: {error}")
                            return
                        expired = shard.store_snapshot(victim_id,
                                                       snapshot)
                        shard.note_evicted()
                        self._expire(expired)
                    progressed = True
                    break
                finally:
                    entry.lock.release()
            if not progressed:
                break                       # everything busy: stay over
                                            # budget until requests drain

    def _coldest(self, *, exclude: SessionShard) -> Optional[SessionShard]:
        """The least-loaded shard with live headroom, if any."""
        best = None
        for shard in self.shards:
            if shard is exclude:
                continue
            count = shard.live_count()
            if count < shard.budget and (best is None or count < best[0]):
                best = (count, shard)
        return best[1] if best else None

    def _expire(self, session_ids: List[str]) -> None:
        if not session_ids:
            return
        expired = []
        with self._lock:
            for sid in session_ids:
                if self._entries.pop(sid, None) is None:
                    # Closed concurrently (the entry is already gone):
                    # a tombstone would resurrect it as "expired" when
                    # the client explicitly forgot it.
                    continue
                self._expired_ids[sid] = True
                self.expired += 1
                expired.append(sid)
            while len(self._expired_ids) > self._expired_limit:
                self._expired_ids.popitem(last=False)
        if self.persister is not None:
            for sid in expired:
                self.persister.remove(sid)

    def _compile_for_restore(self, source: str, **parse_options):
        """The snapshot's main source via the shared cache (the only source
        ``LiveSession.restore`` compiles; older bases are only parsed)."""
        compiled, _hit = self.cache.compile(source, **parse_options)
        return compiled.program, compiled.eval_cache

    # -- durable state (write-behind persister) -----------------------------------

    def attach_persister(self, persister) -> None:
        """Wire a :class:`~repro.serve.persist.StatePersister` (already
        constructed over :meth:`persist_payload`); every currently known
        session is marked dirty so a reattach starts from a full spill."""
        self.persister = persister
        with self._lock:
            ids = list(self._entries)
        for sid in ids:
            persister.mark_dirty(sid)

    def persist_payload(self, session_id: str) -> Optional[dict]:
        """The JSON payload the persister writes for one session, or
        ``None`` when the session is gone (its file is deleted).

        Called from the persister thread: takes the session lock briefly
        so it never observes a command mid-mutation, and reads LRU state
        with non-reordering peeks.  A poisoned session persists its
        last-good snapshot — quarantine survives restarts as an
        already-healed session.
        """
        with self._lock:
            entry = self._entries.get(session_id)
        if entry is None:
            return None
        with entry.lock:
            if session_id not in self._entries:
                return None         # closed while we acquired the lock
            if entry.poisoned is not None:
                snapshot = entry.last_good
            else:
                session = entry.shard.peek_live(session_id)
                if session is not None:
                    try:
                        fail_point(self.faults, "snapshot.serialize")
                        snapshot = session.snapshot()
                    except Exception as error:
                        # Persist the older-but-correct snapshot rather
                        # than nothing (or a torn state).
                        with self._lock:
                            self.snapshot_failures += 1
                        self._log(f"persist: snapshot of {session_id} "
                                  f"failed, keeping last-good: {error}")
                        snapshot = entry.last_good
                else:
                    snapshot = entry.shard.peek_snapshot(session_id) \
                        or entry.last_good
            if snapshot is None:
                return None
            pending = list(entry.pending) if entry.pending is not None \
                else None
            return {"version": 1, "sid": session_id, "seq": entry.seq,
                    "pending": pending, "snapshot": snapshot}

    def load_state(self, payloads: List[dict]) -> int:
        """Replay persisted payloads on boot; returns sessions restored.

        ``payloads`` come from :func:`~repro.serve.persist.load_state`,
        which passes only well-formed ones.

        Sessions are admitted *lazily*: the payload's snapshot goes into
        the home shard's snapshot store and the first touch rehydrates it
        (so a boot over thousands of spilled sessions costs directory
        reads, not evaluations).  The id counter fast-forwards past every
        replayed id so fresh opens can never collide with a restored
        session.
        """
        restored = 0
        max_id = 0
        for payload in payloads:
            sid, snapshot = payload["sid"], payload["snapshot"]
            max_id = max(max_id, int(sid[1:]))
            shard = self.shards[shard_index(sid, len(self.shards))]
            entry = _SessionEntry(shard)
            entry.seq = payload["seq"]
            if payload.get("pending") is not None:
                entry.pending = tuple(payload["pending"])
            entry.last_good = snapshot
            expired = shard.store_snapshot(sid, snapshot)
            with self._lock:
                self._entries[sid] = entry
            self._expire(expired)
            if self.persister is not None:
                self.persister.mark_dirty(sid)
            restored += 1
        if max_id:
            with self._lock:
                next_id = next(self._ids)
                self._ids = itertools.count(max(next_id, max_id + 1))
        return restored

    def flush_state(self) -> None:
        """Persist every known session now — the graceful-shutdown path
        (SIGTERM: stop accepting, finish in-flight, then this)."""
        if self.persister is None:
            return
        with self._lock:
            ids = list(self._entries)
        for sid in ids:
            self.persister.mark_dirty(sid)
        self.persister.flush()

    # -- introspection ----------------------------------------------------------

    def stats(self) -> dict:
        per_shard = [shard.stats() for shard in self.shards]
        persister = self.persister
        persist_stats = persister.stats() if persister is not None else None
        faults = self.faults
        fault_counts = faults.counts() if faults is not None else {}
        with self._lock:
            session_edits = {sid: dict(entry.edits)
                             for sid, entry in self._entries.items()
                             if entry.edits}
            poisoned = sum(1 for entry in self._entries.values()
                           if entry.poisoned is not None)
            return {
                "live_sessions": sum(s["live"] for s in per_shard),
                "snapshotted_sessions": sum(s["snapshots"]
                                            for s in per_shard),
                "max_sessions": self.max_sessions,
                "shards": len(self.shards),
                "opened": self.opened,
                "evicted": sum(s["evicted"] for s in per_shard),
                "rehydrated": sum(s["rehydrated"] for s in per_shard),
                "expired": self.expired,
                "migrations": self.migrations,
                "edits": self.edits,
                "session_edits": session_edits,
                "per_shard": per_shard,
                "compile_cache": self.cache.stats(),
                "incidents": self.incidents,
                "healed": self.healed,
                "heal_failures": self.heal_failures,
                "poisoned_sessions": poisoned,
                "limit_errors": self.limit_errors,
                "evict_failures": self.evict_failures,
                "snapshot_failures": self.snapshot_failures,
                "specializations": self.specializations,
                "specialize_failures": self.specialize_failures,
                "persist": persist_stats,
                "faults": fault_counts,
            }

    def health(self) -> dict:
        """Liveness + degradation signal for ``GET /healthz``.

        ``ok`` is ``False`` — the HTTP layer answers 503 — while any
        session awaits healing or the persister's disk is currently
        rejecting writes, so a load balancer can drain the instance
        before clients notice.  Fault counters and the persist backlog
        ride along for observability without gating.
        """
        poisoned = self.poisoned_count()
        persister = self.persister
        degraded = []
        if poisoned:
            degraded.append("poisoned_sessions")
        persist = None
        if persister is not None:
            persist = persister.stats()
            if persist["consecutive_failures"] > 0:
                degraded.append("persist_failures")
        with self._lock:
            report = {
                "ok": not degraded,
                "degraded": degraded,
                "poisoned_sessions": poisoned,
                "incidents": self.incidents,
                "healed": self.healed,
                "heal_failures": self.heal_failures,
                "limit_errors": self.limit_errors,
                "evict_failures": self.evict_failures,
            }
        report["persist_backlog"] = persist["backlog"] if persist else 0
        report["persist_failures"] = persist["failures"] if persist else 0
        report["faults"] = self.faults.counts() if self.faults else {}
        return report
