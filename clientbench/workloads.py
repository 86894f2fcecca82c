"""Request scripts for the client-side benchmark.

A *script* is the list of protocol requests a client sends, in order.
Every request is a dict ``{"slot": int, "body": {...}, "check": bool}``:
``slot`` names the client's session (the replayer substitutes the id the
server gave that slot's ``open``), ``body`` is the request without its
``session`` field, and ``check`` marks the state the output check compares
with a from-scratch run of the response's own source text.

The generators drive a *mirror* :class:`~repro.editor.session.LiveSession`
per session, so every emitted request is one the server accepts (mirrors
use the interpreted replay tier, which the compiled one must match step
for step, because it is cheaper on programs whose guards flip), and run
each committed state from scratch (``run_source``) so no state the ground
truth rejects is ever reached.  The from-scratch renders they compute are
kept in an :class:`Expectations` table keyed by source text, which turns
the output check during replay into a dictionary lookup.

What a script costs the server is the same for every seed: which
programs are opened, in which order, which zones are dragged and along
which path, which sessions are visited and when, and what kind of edit
each visit makes are fixed by the constants below and by a hash of each
program's name.  The seed draws which literal a value edit retypes and by
how much, the value a structural edit defines, and small offsets of
slider targets.  The ``drag`` script does not depend on the seed at all:
whether a sample flips a control-flow guard, and so escalates to a full
run, depends on the mouse path, and seeded paths made the number of
escalations, and with it the drag tail, differ from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import random
from typing import Dict, List, Optional

from repro.core.run import run_source
from repro.editor.session import LiveSession
from repro.examples.registry import example_names, example_source
from repro.lang.errors import LittleError
from repro.lang.incremental import record_evaluation, reevaluate
from repro.lang.program import parse_program
from repro.svg.ingest import ingest_text

#: ``drag`` sessions.  A gesture is :data:`GESTURE_SAMPLES` mouse samples,
#: one second at 60 Hz, the gesture ``repro.bench.drag_latency`` times
#: (``DEFAULT_STEPS``), along a Lissajous figure :data:`PATH_PX` pixels
#: wide and high (consecutive samples at most 6 px apart, as a hand moving
#: about 340 px/s).  Samples go one per request, except that every
#: :data:`BURST_EVERY`-th request carries :data:`BURST_SAMPLES` of them,
#: the burst size of ``repro.bench.serve_throughput`` (the server
#: re-runs only a burst's last sample, so a burst costs what one sample
#: does).  Each session drags :data:`ZONES` zones, evenly spaced over its
#: Active zones from an offset fixed by the program's name, and undoes its
#: last gesture.  No trace of editor use sets the path, the zones per
#: session, the burst share or the one undo.  With one zone, drag requests
#: are nine in ten of a session's requests, and a pass over all 81
#: programs takes a few seconds, so a run makes several.
GESTURE_SAMPLES = 60
PATH_PX = (80, 40)
BURST_EVERY = 10
BURST_SAMPLES = 5
ZONES = 1

#: ``edit`` workload: visits per script, the Zipf exponent of session
#: popularity, and the operations of a visit, cycled per session (visit
#: ``v`` of session ``s`` does ``VISIT_KINDS[(s + v) % len(VISIT_KINDS)]``).
#: No trace of editor traffic exists; Zipf(1) is an assumed stand-in
#: under which the hottest of the 81 sessions gets 48 of the 240 visits
#: and 50 get one, so with 64 sessions live, visits to cold sessions
#: rehydrate them.
EDIT_VISITS = 240
ZIPF_S = 1.0
VISIT_KINDS = (("value",), ("value", "undo"), ("value", "value"),
               ("value", "slider"), ("structural",), ("value", "undo"))
#: Slider targets, as fractions of each slider's range, cycled per move;
#: the seed moves each by up to :data:`SLIDER_JITTER` of the range.
SLIDER_FRACTIONS = (0.25, 0.75, 0.5, 0.9, 0.1)
SLIDER_JITTER = 0.02


class Corpus:
    """The programs sessions open: the bundled examples plus the SVG
    documents ingested at set-up (``tests/svg_corpus``).  With a tracer,
    each document's ingestion is traced as its own set-up request."""

    def __init__(self, root: pathlib.Path, tracer=None):
        self.entries: List[dict] = []
        for name in example_names():
            self.entries.append({"name": name, "source": example_source(name),
                                 "open": {"example": name}})
        for path in sorted((root / "tests" / "svg_corpus").glob("*.svg")):
            if tracer is not None:
                tracer.set_request(f"setup:{path.name}")
            try:
                result = ingest_text(path.read_text(encoding="utf-8"),
                                     name=path.name)
            finally:
                if tracer is not None:
                    tracer.set_request(None)
            if not result.ok:
                raise RuntimeError("svg corpus ingestion failed: "
                                   + result.diagnostic())
            self.entries.append({"name": "svg:" + result.name,
                                 "source": result.source,
                                 "open": {"source": result.source}})

    def __len__(self) -> int:
        return len(self.entries)


class Expectations:
    """Ground-truth renders keyed by source text (from-scratch runs)."""

    def __init__(self):
        self.renders: Dict[str, str] = {}

    def expect(self, source: str) -> str:
        """The from-scratch render of ``source``; raises
        :class:`~repro.lang.errors.LittleError` if the ground truth
        rejects it."""
        svg = self.renders.get(source)
        if svg is None:
            svg = run_source(source).render()
            self.renders[source] = svg
        return svg


def _request(slot: int, cmd: str, check: bool = False, **fields) -> dict:
    body = {"cmd": cmd}
    body.update(fields)
    return {"slot": slot, "body": body, "check": check}


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed,) + parts))


def _name_hash(salt: str, name: str) -> int:
    """A fixed hash of a program name, the same in every process."""
    return int(hashlib.sha256(f"{salt}:{name}".encode()).hexdigest(), 16)


def _hash_order(corpus: Corpus, salt: str) -> List[int]:
    """Corpus indices in a fixed pseudo-random order (a hash of the
    program name), the same for every seed: heavy and light programs are
    interleaved, and a run that replays only part of a script covers the
    same programs whatever the seed."""
    return sorted(range(len(corpus)), key=lambda index: _name_hash(
        salt, corpus.entries[index]["name"]))


def _committed(mirror: LiveSession, expectations: Expectations) -> bool:
    """Whether the mirror's committed state agrees with the ground truth;
    records the expected render for the replay's output check."""
    source = mirror.source()
    try:
        return expectations.expect(source) == mirror.export_svg()
    except LittleError:
        return False


def _check_session_end(opened: dict, source: str,
                       expectations: Expectations) -> None:
    """A session that never changed state ends as it opened: check its
    open response instead."""
    expectations.expect(source)
    opened["check"] = True


# ---------------------------------------------------------------------------
# drag
# ---------------------------------------------------------------------------

def _gesture_requests() -> List[List[List[int]]]:
    """The samples of each drag request of a gesture: cumulative offsets
    from the gesture's start."""
    path = [[round(PATH_PX[0] / 2 * math.sin(2 * math.pi * k
                                             / GESTURE_SAMPLES)),
             round(PATH_PX[1] / 2 * math.sin(4 * math.pi * k
                                             / GESTURE_SAMPLES))]
            for k in range(1, GESTURE_SAMPLES + 1)]
    requests = []
    while path:
        size = BURST_SAMPLES if (len(requests) + 1) % BURST_EVERY == 0 \
            else 1
        requests.append(path[:size])
        path = path[size:]
    return requests


def _gesture(slot: int, mirror: LiveSession, key,
             expectations: Expectations) -> List[dict]:
    """hover, the gesture's drag requests and release on one Active
    zone; empty when the gesture could not be committed."""
    shape, zone = key
    requests = [_request(slot, "hover", shape=shape, zone=zone)]
    history = len(mirror.history)
    mirror.start_drag(shape, zone)
    for steps in _gesture_requests():
        try:
            mirror.drag(float(steps[-1][0]), float(steps[-1][1]))
        except LittleError:
            continue            # the server would refuse it: leave it out
        requests.append(_request(slot, "drag", shape=shape, zone=zone,
                                 steps=steps))
    mirror.release()
    if len(requests) == 1:
        return []               # no move accepted: the server has no drag
    if not _committed(mirror, expectations):
        # A state the ground truth rejects would make every replay
        # fail its check: drop the gesture and restore the mirror.
        if len(mirror.history) > history:
            mirror.undo()
        return []
    requests.append(_request(slot, "release", check=True))
    return requests


def _drag_session(entry: dict, slot: int,
                  expectations: Expectations) -> List[dict]:
    """One ``drag`` session's requests, open to close."""
    mirror = LiveSession(entry["source"], compiled=False)
    opened = _request(slot, "open", **entry["open"])
    offset = _name_hash("zones", entry["name"])
    gestures = []
    for gesture in range(ZONES):
        keys = sorted(mirror.triggers)
        # Evenly spaced zones from a fixed offset; a zone whose gesture
        # cannot be committed passes to the next one.
        start = offset + gesture * len(keys) // ZONES
        for tried in range(min(len(keys), 3)):
            requests = _gesture(slot, mirror,
                                keys[(start + tried) % len(keys)],
                                expectations)
            if requests:
                gestures.extend(requests)
                break
    if gestures and mirror.history:
        mirror.undo()
        _committed(mirror, expectations)
        gestures.append(_request(slot, "undo", check=True))
    if not gestures:
        _check_session_end(opened, mirror.source(), expectations)
    return [opened] + gestures + [_request(slot, "close")]


def drag_script(corpus: Corpus, expectations: Expectations) -> List[dict]:
    """Direct-manipulation sessions, one live at a time.

    The script opens every corpus program once, in a fixed order, and
    replays of the script reopen them through the compile cache.  A session is open, then per
    zone a hover, the gesture's drag requests and a release, then an undo
    of the last gesture, then close.
    """
    script: List[dict] = []
    for slot, index in enumerate(_hash_order(corpus, "drag")):
        script.extend(_drag_session(corpus.entries[index], slot,
                                    expectations))
    return script


# ---------------------------------------------------------------------------
# edit
# ---------------------------------------------------------------------------

def _retyped(value: float, rng: random.Random) -> float:
    """A nearby value as a user would type it."""
    unit = 1.0 if abs(value) >= 10 else 0.1
    return round(value + rng.choice((-3, -2, -1, 1, 2, 3)) * unit, 3)


def _value_edit(slot: int, mirror: LiveSession, rng: random.Random,
                expectations: Expectations) -> Optional[dict]:
    """Retype one unfrozen literal, keeping every control-flow guard, as
    ``repro.bench.edit_latency.value_edit_texts`` does: a guard flip
    would escalate to a full run, and which literal the seed draws would
    then decide the edit's cost."""
    program = mirror.program
    locs = [loc for loc in program.user_locs() if not loc.frozen]
    if not locs:
        return None
    try:
        _, guards = record_evaluation(program)
    except LittleError:
        return None
    for _ in range(8):
        loc = rng.choice(locs)
        candidate = program.substitute(
            {loc: _retyped(program.rho0[loc], rng)})
        text = candidate.unparse()
        if text == mirror.source() \
                or reevaluate(guards, candidate.rho0) is None:
            continue
        try:
            expectations.expect(text)
            mirror.edit_source(text)
        except LittleError:
            continue
        if not _committed(mirror, expectations):
            mirror.undo()
            continue
        return _request(slot, "edit", check=True, source=text)
    return None


def _structural_edit(slot: int, mirror: LiveSession, rng: random.Random,
                     expectations: Expectations, serial: int
                     ) -> Optional[dict]:
    name = f"bench_pad{serial}"
    text = f"(def {name} {rng.randint(1, 99)})\n{mirror.source()}"
    try:
        expectations.expect(text)
        mirror.edit_source(text)
    except LittleError:
        return None
    if not _committed(mirror, expectations):
        mirror.undo()
        return None
    return _request(slot, "edit", check=True, source=text)


def _slider_move(slot: int, mirror: LiveSession, rng: random.Random,
                 expectations: Expectations, serial: int) -> Optional[dict]:
    # Anonymous locations are named by a per-process counter, so only
    # sliders with a canonical name can be addressed across processes.
    names: Dict[str, list] = {}
    for loc, slider in mirror.sliders.items():
        names.setdefault(loc.display(), []).append((loc, slider))
    usable = [pairs[0] for name, pairs in sorted(names.items())
              if len(pairs) == 1 and pairs[0][0].name is not None]
    if not usable:
        return None
    loc, slider = usable[serial % len(usable)]
    span = slider.hi - slider.lo
    fraction = SLIDER_FRACTIONS[serial % len(SLIDER_FRACTIONS)]
    value = round(slider.lo + span * (
        fraction + rng.uniform(-SLIDER_JITTER, SLIDER_JITTER)), 1)
    value = max(slider.lo, min(slider.hi, value))
    if value == slider.value:
        return None
    try:
        mirror.set_slider(loc, value)
    except LittleError:
        return None
    if not _committed(mirror, expectations):
        mirror.undo()
        return None
    return _request(slot, "set_slider", check=True, loc=loc.display(),
                    value=value)


def _visit_counts(corpus: Corpus) -> List[int]:
    """Visits per session under Zipf popularity, ranked by a fixed hash
    of the program name and rounded by largest remainder."""
    ranked = _hash_order(corpus, "popularity")
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    shares = [EDIT_VISITS * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(shares)),
                          key=lambda rank: counts[rank] - shares[rank])
    for rank in by_remainder[:EDIT_VISITS - sum(counts)]:
        counts[rank] += 1
    per_slot = [0] * len(corpus)
    for rank, index in enumerate(ranked):
        per_slot[index] = counts[rank]
    return per_slot


def _visit_schedule(corpus: Corpus, counts: List[int]) -> List[int]:
    """The slots to visit, in order: each session's visits spread evenly
    over the script from a fixed phase (a hash of its name)."""
    timed = []
    for slot, count in enumerate(counts):
        phase = _name_hash("phase", corpus.entries[slot]["name"]) % 1000
        timed.extend(((visit + phase / 1000.0) / count, slot)
                     for visit in range(count))
    return [slot for _, slot in sorted(timed)]


def _edit_visits(entry: dict, slot: int, seed: int, count: int,
                 expectations: Expectations) -> List[List[dict]]:
    """One ``edit`` session's ``count`` visits, each a list of requests."""
    rng = _rng(seed, "edit", entry["name"])
    mirror = LiveSession(entry["source"], compiled=False)
    planned = []
    for visit in range(count):
        requests = []
        for kind in VISIT_KINDS[(slot + visit) % len(VISIT_KINDS)]:
            if kind == "value":
                request = _value_edit(slot, mirror, rng, expectations)
            elif kind == "structural":
                request = _structural_edit(slot, mirror, rng, expectations,
                                           visit)
            elif kind == "slider":
                request = _slider_move(slot, mirror, rng, expectations,
                                       visit)
            elif mirror.history:
                mirror.undo()
                _committed(mirror, expectations)
                request = _request(slot, "undo", check=True)
            else:
                request = None
            if request is not None:
                requests.append(request)
        planned.append(requests)
    return planned


def edit_script(corpus: Corpus, seed: int,
                expectations: Expectations) -> List[dict]:
    """The programmatic half: one session per corpus program, all open at
    once under the server's live budget, revisited with skewed popularity.

    A visit makes value edits (an unfrozen literal retyped, guards kept),
    a structural edit (a definition added), a slider move (slider programs
    only) or an undo, in the fixed rotation :data:`VISIT_KINDS`.  The
    script opens every session, replays the visits in a fixed order, and
    closes every session.
    """
    slots = len(corpus)
    counts = _visit_counts(corpus)
    visit_requests = [
        _edit_visits(corpus.entries[slot], slot, seed, counts[slot],
                     expectations) if counts[slot] else []
        for slot in range(slots)]
    open_order = _hash_order(corpus, "edit-open")
    script: List[dict] = []
    for slot in open_order:
        opened = _request(slot, "open", **corpus.entries[slot]["open"])
        if not any(visit_requests[slot]):
            _check_session_end(opened, parse_program(
                corpus.entries[slot]["source"]).unparse(), expectations)
        script.append(opened)
    cursor = [0] * slots
    for slot in _visit_schedule(corpus, counts):
        script.extend(visit_requests[slot][cursor[slot]])
        cursor[slot] += 1
    for slot in open_order:
        script.append(_request(slot, "close"))
    return script


def write_script(path: pathlib.Path, script: List[dict]) -> None:
    """Write the script as JSON lines, one request per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for request in script:
            handle.write(json.dumps(request, sort_keys=True) + "\n")
