"""Edit-latency measurement: text edit → synced canvas, fast vs reopen.

The paper's workflow *alternates* programmatic and direct manipulation;
PRs 1–2 made the direct-manipulation half (drag, release) incremental, and
this module measures the programmatic half: the latency from a source-text
edit to a fully synchronized canvas (run + assignments + triggers +
sliders).

Two paths are compared over identical edit sequences:

* **fast** — :meth:`~repro.editor.session.LiveSession.edit_source`: the
  structural differ classifies the edit and feeds it to the staged
  pipeline, so a value-only edit replays recorded guards and reuses the
  Prepare results instead of recomputing them;
* **naive** — reopen from scratch: a fresh
  :class:`~repro.editor.session.LiveSession` on the new text, which is
  what a text edit cost before the edit path existed (parse + record a
  full evaluation + full Prepare).

Structural edits (which must re-run from scratch by construction) are
timed along the fast path as well, as a floor.  A verification pass locks
the fast path byte-identical to a fresh session at every step: rendered
SVG (hidden shapes included), active zones and their hover captions,
sliders, and the unparsed source.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median
from typing import List, Optional, Sequence

from ..editor.session import LiveSession
from ..examples.registry import example_source
from ..lang.errors import LittleError
from ..lang.incremental import record_evaluation, reevaluate
from ..lang.program import parse_program

#: Examples spanning the cost spectrum: cheap canvases where Parse
#: dominates a reopen up to the 80-polygon tiling where Prepare does.
EDIT_EXAMPLES = (
    "sine_wave_of_boxes",
    "ferris_wheel",
    "chicago_flag",
    "keyboard",
    "us13_flag",
    "tessellation",
)

DEFAULT_EDITS = 24


@dataclass(frozen=True)
class EditLatencyRow:
    name: str
    edits: int
    fast_eps: float          # value-only edits/sec via edit_source
    naive_eps: float         # reopen-from-scratch sessions/sec
    structural_eps: float    # structural edits/sec via edit_source
    value_only: bool         # differ classified every value edit 'value'
    outputs_identical: bool

    @property
    def speedup(self) -> float:
        return self.fast_eps / self.naive_eps if self.naive_eps else 0.0


def value_edit_texts(source: str, count: int) -> List[str]:
    """Up to ``count`` program texts, each differing from its predecessor
    in exactly one numeric literal's value (cycling over every literal).

    Perturbations that crash the program or flip a control-flow guard are
    skipped: the former are not valid edits at all, and the latter cannot
    be incremental *by construction* (the pipeline escalates them to a
    full re-run, exactly like a guard-flipping drag) — the benchmark
    measures the steady-state value-only path, and escalation correctness
    is locked by the equivalence tests instead.
    """
    program = parse_program(source)
    locs = program.user_locs()
    if not locs:
        return []
    try:
        _, guards = record_evaluation(program)
    except LittleError:
        guards = None
    texts: List[str] = []
    index = 0
    for _attempt in range(count * 8):
        if len(texts) >= count:
            break
        loc = locs[index % len(locs)]
        index += 1
        candidate = program.substitute(
            {loc: program.rho0[loc] + (len(texts) % 5) + 1})
        if guards is not None and reevaluate(guards, candidate.rho0) is None:
            continue
        try:
            _, guards = record_evaluation(candidate)
        except LittleError:
            continue
        program = candidate
        texts.append(program.unparse())
    return texts


def structural_edit_texts(source: str, count: int) -> List[str]:
    """``count`` texts each prepending a differently-*named* definition —
    a minimal structural edit whose other literals all survive re-keying."""
    return [f"(def pad_{index} {index + 1})\n{source}"
            for index in range(count)]


def _session_signature(session: LiveSession) -> tuple:
    """Everything a client can observe, in parse-stable coordinates.

    Loc *identities* necessarily differ between an edited session and a
    freshly-opened one (the allocator is global), so anonymous locations
    are labelled by their parse-order position and named ones by their
    canonical name — the rendered output, zones, hover location sets and
    sliders must then agree exactly.
    """
    labels = {loc.ident: (loc.name or f"u{index}")
              for index, loc in enumerate(session.program.user_locs())}

    def label(loc):
        return labels.get(loc.ident, loc.display())     # Prelude: shared

    assignments = session.assignments
    zones = sorted(assignments.chosen)
    hover = []
    for key in zones:
        active, _caption, selected, unselected = assignments.hover_data(*key)
        hover.append((active, tuple(sorted(label(loc) for loc in selected)),
                      tuple(sorted(label(loc) for loc in unselected))))
    sliders = tuple(sorted(
        (label(slider.loc), slider.lo, slider.hi, slider.value)
        for slider in session.sliders.values()))
    return (session.export_svg(include_hidden=True), tuple(zones),
            tuple(hover), sliders, session.source())


def _verify_edits(source: str, texts: Sequence[str]):
    """Apply ``texts`` through one session, checking it against a fresh
    session at every step.  Returns ``(identical, differ kinds)``."""
    session = LiveSession(source)
    kinds = []
    for text in texts:
        kinds.append(session.edit_source(text).kind)
        if _session_signature(session) != \
                _session_signature(LiveSession(text)):
            return False, kinds
    return True, kinds


def _time_edits(source: str, texts: Sequence[str]) -> float:
    session = LiveSession(source)
    start = time.perf_counter()
    for text in texts:
        session.edit_source(text)
    return len(texts) / (time.perf_counter() - start)


def _time_reopens(texts: Sequence[str]) -> float:
    start = time.perf_counter()
    for text in texts:
        LiveSession(text)
    return len(texts) / (time.perf_counter() - start)


def measure_edit_latency(names: Optional[Sequence[str]] = None,
                         edits: int = DEFAULT_EDITS,
                         repeats: int = 2,
                         verify: bool = True) -> List[EditLatencyRow]:
    """Measure fast/naive edit throughput for each example.

    Each path is timed ``repeats`` times and the best rate kept (latency
    is a minimum-cost property; OS noise only adds time).
    """
    rows: List[EditLatencyRow] = []
    for name in names or EDIT_EXAMPLES:
        source = example_source(name)
        value_texts = value_edit_texts(source, edits)
        if not value_texts:
            # Nothing perturbable: report the shortfall instead of a
            # vacuously-passing row of zeros.
            rows.append(EditLatencyRow(name, 0, 0.0, 0.0, 0.0,
                                       False, False))
            continue
        struct_texts = structural_edit_texts(source, len(value_texts))
        if verify:
            value_identical, kinds = _verify_edits(source, value_texts)
            struct_identical, _ = _verify_edits(source, struct_texts)
            identical = value_identical and struct_identical
            value_only = all(kind == "value" for kind in kinds)
        else:
            identical = value_only = True
        fast = max(_time_edits(source, value_texts)
                   for _ in range(repeats))
        naive = max(_time_reopens(value_texts) for _ in range(repeats))
        structural = max(_time_edits(source, struct_texts)
                         for _ in range(repeats))
        rows.append(EditLatencyRow(name, len(value_texts), fast, naive,
                                   structural, value_only, identical))
    return rows


def median_edit_speedup(rows: Sequence[EditLatencyRow]) -> float:
    return median(row.speedup for row in rows)
