"""Deterministic fault injection for the serve layer.

Every recovery path in the fault-contained server — crash quarantine,
snapshot self-healing, persister backoff, budget enforcement — is only
trustworthy if it is *exercised*, and production exercises them rarely
and unreproducibly.  This module plants named **injection points** at
the seams where real failures occur and arms them from configuration,
so the chaos suite (``tests/test_serve_chaos.py``) can replay the exact
same failure schedule on every run and across processes.

Points currently planted (prefix-match with ``*`` to arm a family):

========================  =====================================================
``compile.leader``        the compile-cache leader's evaluation blows up
``compile.specialize``    specializing a recorded evaluation into a
                          compiled drag artifact fails — the recording
                          is pinned to the interpreted fast path
``snapshot.serialize``    taking a session snapshot fails (eviction, persist)
``snapshot.deserialize``  restoring a snapshot fails (admission, healing)
``persist.write``         the write-behind persister hits a full disk
``dispatch.<command>``    an unexpected exception mid-dispatch (one point
                          per protocol command: ``dispatch.drag``, …)
``budget.force``          the command's evaluation budget is reported
                          exhausted without running (the protocol raises
                          :class:`~repro.lang.errors.ResourceExhausted`)
========================  =====================================================

Determinism: each point draws from its own ``random.Random`` seeded with
``(seed, point name)`` — string seeding is processed with SHA-512, so the
schedule is independent of ``PYTHONHASHSEED``, of other points, and of
how threads interleave *draws across different points*.  (Draws within
one point are ordered by a lock; concurrent tests assert invariants, not
exact schedules, while single-threaded tests get bit-stable schedules.)

Configuration comes from explicit arguments or the environment:

* ``REPRO_FAULTS`` — comma-separated ``point:rate`` pairs, e.g.
  ``"dispatch.*:0.1,persist.write:1"`` (rate 1 fires every time);
* ``REPRO_FAULT_SEED`` — integer seed for the schedule (default 0).

>>> plan = FaultPlan("dispatch.*:1,persist.write:0", seed=7)
>>> plan.fire("dispatch.drag")
Traceback (most recent call last):
    ...
repro.serve.faults.InjectedFault: injected fault at 'dispatch.drag'
>>> plan.fire("persist.write")        # armed at rate 0: never fires
>>> plan.fire("compile.leader")       # not armed at all
>>> plan.counts()
{'dispatch.drag': 1}
"""

from __future__ import annotations

import os
import random
import threading
from typing import Dict, Optional

__all__ = ["FaultPlan", "InjectedFault", "fail_point", "plan_from_env"]


class InjectedFault(RuntimeError):
    """The synthetic failure raised by an armed injection point.

    Deliberately *not* a ``LittleError``: the serve layer must treat it
    exactly like an unforeseen bug — quarantine the session, tag the
    incident — rather than as a structured program error.
    """

    def __init__(self, point: str):
        self.point = point
        super().__init__(f"injected fault at {point!r}")


class FaultPlan:
    """An armed, seeded schedule of injection points.

    ``spec`` maps point names (or ``prefix.*`` wildcards) to firing
    rates in ``[0, 1]``; it may also be given as the ``REPRO_FAULTS``
    string form.  An exact point name takes precedence over a wildcard;
    the longest matching wildcard wins otherwise.
    """

    def __init__(self, spec=None, seed: int = 0):
        if isinstance(spec, str):
            spec = self.parse_spec(spec)
        self.seed = seed
        self.rates: Dict[str, float] = dict(spec or {})
        self._rngs: Dict[str, random.Random] = {}
        self._fired: Dict[str, int] = {}
        self._lock = threading.Lock()

    @staticmethod
    def parse_spec(text: str) -> Dict[str, float]:
        """Parse the ``"point:rate,point:rate"`` string form.

        >>> FaultPlan.parse_spec("dispatch.*:0.5, persist.write:1")
        {'dispatch.*': 0.5, 'persist.write': 1.0}
        """
        rates: Dict[str, float] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            point, _, rate = part.rpartition(":")
            if not point:
                raise ValueError(
                    f"fault spec entry {part!r} is not 'point:rate'")
            rates[point.strip()] = float(rate)
        return rates

    def rate_for(self, point: str) -> float:
        """The armed rate for ``point`` (0.0 when not armed)."""
        exact = self.rates.get(point)
        if exact is not None:
            return exact
        best = ""
        rate = 0.0
        for pattern, pattern_rate in self.rates.items():
            if pattern.endswith("*") and point.startswith(pattern[:-1]) \
                    and len(pattern) > len(best):
                best = pattern
                rate = pattern_rate
        return rate

    def should_fire(self, point: str) -> bool:
        """Advance ``point``'s schedule one draw; ``True`` to fail now.

        Counts the hit — callers that get ``True`` are expected to fail
        (raise, or simulate the failure in-place, like the persister's
        disk-full path).
        """
        rate = self.rate_for(point)
        if rate <= 0.0:
            return False
        with self._lock:
            rng = self._rngs.get(point)
            if rng is None:
                rng = random.Random(f"{self.seed}:{point}")
                self._rngs[point] = rng
            fire = rate >= 1.0 or rng.random() < rate
            if fire:
                self._fired[point] = self._fired.get(point, 0) + 1
        return fire

    def fire(self, point: str) -> None:
        """Raise :class:`InjectedFault` if ``point`` fails this draw."""
        if self.should_fire(point):
            raise InjectedFault(point)

    def counts(self) -> Dict[str, int]:
        """Fired-fault counts per point (for ``/stats`` and assertions)."""
        with self._lock:
            return dict(self._fired)


def fail_point(plan: Optional[FaultPlan], point: str) -> None:
    """``plan.fire(point)`` tolerating ``plan=None`` (the common case:
    production runs carry no plan and pay one ``is None`` test)."""
    if plan is not None:
        plan.fire(point)


def plan_from_env(environ=os.environ) -> Optional[FaultPlan]:
    """Build the plan ``REPRO_FAULTS``/``REPRO_FAULT_SEED`` describe,
    or ``None`` when no faults are armed."""
    spec = environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return None
    return FaultPlan(spec, seed=int(environ.get("REPRO_FAULT_SEED", "0")))
