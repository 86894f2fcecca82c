"""Bulk SVG → little ingestion with round-trip verification.

The importer (:mod:`repro.svg.importer`) converts one document; this
module is the *pipeline* around it — the ``repro import`` CLI verb and
the scenario-diversity machine ROADMAP open item 5 asks for.  Every
converted document is verified through the one shared run path
(:func:`repro.core.run.run_source`, the same staged pipeline the editor,
CLI and benchmarks run on): the emitted program must **parse**, **run**,
**render**, and expose **draggable zones** — the sequel paper's premise
that imported shapes arrive with usable locations.  A document that
fails any stage is *quarantined*: the result carries a one-line
diagnostic and a failure class (never a traceback, and the caller never
writes a partial program file), and bulk reports count quarantined
documents per class.

>>> result = ingest_text('<svg><circle cx="9" cy="9" r="4"/></svg>',
...                      name='dot.svg')
>>> result.ok, result.shapes, result.zones > 0
(True, 1, True)
>>> bad = ingest_text('<svg><rect x="inf" y="1" width="2" height="3"/>'
...                   '</svg>', name='bad.svg')
>>> bad.ok, bad.failure
(False, 'number')
>>> print(bad.diagnostic())
bad.svg: number: non-finite number in attribute 'x'
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..lang.errors import (LittleError, LittleSyntaxError, ResourceExhausted,
                           SvgError, SvgImportError)
from .importer import svg_to_little

__all__ = ["IngestResult", "IngestReport", "ingest_text", "ingest_file",
           "ingest_directory", "verify_little"]

#: Every failure class a quarantined document can carry: the importer's
#: :class:`~repro.lang.errors.SvgImportError` reasons, plus the
#: verification stages (``emit-parse``/``emit-run``/``emit-render`` name
#: importer bugs — the *emitted program* misbehaved), plus resource and
#: shape/zone guarantees.
FAILURE_CLASSES = ("read", "xml", "not-svg", "string", "number", "path",
                   "points", "transform", "root", "convert", "emit-parse",
                   "emit-run", "emit-render", "limit", "no-shapes",
                   "no-zones", "internal")


@dataclass
class IngestResult:
    """The outcome of ingesting one SVG document."""

    name: str                        #: file name (or label) of the document
    ok: bool
    failure: Optional[str] = None    #: one of :data:`FAILURE_CLASSES`
    message: str = ""                #: one-line detail for quarantines
    source: Optional[str] = None     #: the *verified* little program
    shapes: int = 0
    zones: int = 0
    constants: int = 0

    def diagnostic(self) -> str:
        """The one-line status, à la ``repro check``."""
        if self.ok:
            return (f"{self.name}: ok ({self.shapes} shapes, "
                    f"{self.zones} zones, {self.constants} constants)")
        return f"{self.name}: {self.failure}: {self.message}"


@dataclass
class IngestReport:
    """A bulk ingestion run: per-document results plus counters."""

    results: List[IngestResult] = field(default_factory=list)

    @property
    def ok(self) -> List[IngestResult]:
        return [result for result in self.results if result.ok]

    @property
    def failed(self) -> List[IngestResult]:
        return [result for result in self.results if not result.ok]

    def counters(self) -> Dict[str, int]:
        """Quarantined documents per failure class (only classes that
        occurred), for the summary table and machine consumers."""
        counts: Dict[str, int] = {}
        for result in self.failed:
            counts[result.failure] = counts.get(result.failure, 0) + 1
        return dict(sorted(counts.items()))


def _one_line(error: BaseException) -> str:
    """Collapse an exception message to a single diagnostic line."""
    text = " ".join(str(error).split())
    return text or type(error).__name__


def verify_little(source: str, *, budget=None) -> Tuple[int, int, int]:
    """Round-trip-verify an emitted program through the shared run path.

    Parses, runs (Prepare stages included, so zone assignment really
    happens), renders, and checks the canvas has shapes with at least
    one draggable (Active, chosen) zone.  Returns ``(shapes, zones,
    constants)``; raises the stage's error otherwise — callers classify.
    """
    from ..core.run import run_source

    pipeline = run_source(source, prepare=True, budget=budget)
    pipeline.render()
    shapes = len(pipeline.canvas)
    if shapes == 0:
        raise SvgImportError("document has no importable shapes",
                             reason="no-shapes")
    zones = len(pipeline.assignments.chosen)
    if zones == 0:
        raise SvgImportError("no draggable zones on any imported shape",
                             reason="no-zones")
    return shapes, zones, len(pipeline.program.user_locs())


def ingest_text(xml_text: str, *, name: str = "<svg>",
                budget=None) -> IngestResult:
    """Convert and verify one SVG document held in memory."""
    def quarantine(failure: str, error: BaseException) -> IngestResult:
        return IngestResult(name=name, ok=False, failure=failure,
                            message=_one_line(error))
    try:
        source = svg_to_little(xml_text)
    except SvgImportError as error:
        return quarantine(error.reason, error)
    except SvgError as error:
        return quarantine("convert", error)
    try:
        shapes, zones, constants = verify_little(source, budget=budget)
    except SvgImportError as error:     # no-shapes / no-zones guarantees
        return quarantine(error.reason, error)
    except LittleSyntaxError as error:
        return quarantine("emit-parse", error)
    except ResourceExhausted as error:
        return quarantine("limit", error)
    except SvgError as error:
        return quarantine("emit-render", error)
    except LittleError as error:
        return quarantine("emit-run", error)
    except Exception as error:          # never a traceback to the user
        return quarantine("internal", error)
    return IngestResult(name=name, ok=True, source=source, shapes=shapes,
                        zones=zones, constants=constants)


def ingest_file(path, *, budget=None) -> IngestResult:
    """Convert and verify one ``.svg`` file (read errors quarantine as
    class ``read``)."""
    path = pathlib.Path(path)
    try:
        xml_text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        reason = getattr(error, "strerror", None) or "not valid UTF-8"
        return IngestResult(name=path.name, ok=False, failure="read",
                            message=" ".join(str(reason).split()))
    return ingest_text(xml_text, name=path.name, budget=budget)


def ingest_directory(directory, *, budget=None) -> IngestReport:
    """Ingest every ``*.svg`` file directly under ``directory`` (sorted
    by name; not recursive — quarantine subfolders stay out of the green
    corpus)."""
    directory = pathlib.Path(directory)
    report = IngestReport()
    for path in sorted(directory.glob("*.svg")):
        if path.is_file():
            report.results.append(ingest_file(path, budget=budget))
    return report
