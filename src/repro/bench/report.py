"""Text renderers for the paper's tables, side by side with paper values."""

from __future__ import annotations

from typing import Dict, List

from .equation_stats import EquationTotals
from .loc_stats import LocStatsRow, LocTotals
from .perf import OperationTimes
from .zone_stats import ZoneStatsRow, ZoneTotals

#: Published corpus totals (68 examples) for side-by-side reporting.
PAPER_ZONE_TOTALS = {
    "zones": 14106, "inactive": 991, "inactive_pct": 7,
    "active": 13115, "unambiguous": 4856, "unambiguous_pct": 34,
    "ambiguous": 8259, "ambiguous_pct": 59, "ambiguous_avg": 3.83,
}

PAPER_EQUATION_TOTALS = {
    "total_tuples": 28222, "unique": 4574,
    "outside": 919, "outside_pct": 20, "inside": 3655,
    "unsolved_d1": 194, "unsolved_d1_pct": 4, "solved_d1": 3461,
    "unsolved_d100": 438, "unsolved_d100_pct": 10,
    "solved_d100": 3023, "solved_d100_pct": 66,
    "a_fragment": 778, "b_fragment": 3655, "mean_trace_size": 141.30,
}

PAPER_PERF_MS = {
    "parse": {"min": 9, "med": 53, "avg": 77, "max": 520},
    "eval": {"min": 0.5, "med": 5, "avg": 12, "max": 165},
    "prepare": {"min": 1, "med": 13, "avg": 200, "max": 6789},
    "solve": {"min": 0.1, "med": 0.5, "avg": 0.5, "max": 14},
}


def format_zone_table(totals: ZoneTotals) -> str:
    """The §5.2.1 summary table, ours vs. paper."""
    paper = PAPER_ZONE_TOTALS
    lines = [
        "Zone statistics (paper Section 5.2.1)",
        f"{'':24s}{'ours':>10s}  {'ours %':>7s}   {'paper':>10s}  "
        f"{'paper %':>8s}",
        f"{'Zones':24s}{totals.zones:>10d}  {'':>7s}   "
        f"{paper['zones']:>10d}",
        f"{'Inactive':24s}{totals.inactive:>10d}  "
        f"{totals.inactive_pct:>6.0f}%   {paper['inactive']:>10d}  "
        f"{paper['inactive_pct']:>7d}%",
        f"{'Active':24s}{totals.active:>10d}  {'':>7s}   "
        f"{paper['active']:>10d}",
        f"{'  Unambiguous':24s}{totals.unambiguous:>10d}  "
        f"{totals.unambiguous_pct:>6.0f}%   {paper['unambiguous']:>10d}  "
        f"{paper['unambiguous_pct']:>7d}%",
        f"{'  Ambiguous':24s}{totals.ambiguous:>10d}  "
        f"{totals.ambiguous_pct:>6.0f}%   {paper['ambiguous']:>10d}  "
        f"{paper['ambiguous_pct']:>7d}%",
        f"{'  (avg candidates)':24s}{totals.ambiguous_avg:>10.2f}  "
        f"{'':>7s}   {paper['ambiguous_avg']:>10.2f}",
    ]
    return "\n".join(lines)


def format_equation_table(totals: EquationTotals) -> str:
    """The §5.2.2 pre-equation table, ours vs. paper."""
    paper = PAPER_EQUATION_TOTALS
    lines = [
        "Pre-equation solvability (paper Section 5.2.2)",
        f"{'':28s}{'ours':>8s}  {'ours %':>7s}   {'paper':>8s}  "
        f"{'paper %':>8s}",
        f"{'(shape,zone,attr) tuples':28s}{totals.total_tuples:>8d}"
        f"  {'':>7s}   {paper['total_tuples']:>8d}",
        f"{'Unique pre-equations':28s}{totals.unique:>8d}  {'':>7s}   "
        f"{paper['unique']:>8d}",
        f"{'Outside fragment':28s}{totals.outside:>8d}  "
        f"{totals.pct(totals.outside):>6.0f}%   {paper['outside']:>8d}  "
        f"{paper['outside_pct']:>7d}%",
        f"{'Inside fragment':28s}{totals.inside:>8d}  {'':>7s}   "
        f"{paper['inside']:>8d}",
        f"{'  No solution for d=1':28s}{totals.unsolved_d1:>8d}  "
        f"{totals.pct(totals.unsolved_d1):>6.0f}%   "
        f"{paper['unsolved_d1']:>8d}  {paper['unsolved_d1_pct']:>7d}%",
        f"{'  Solution for d=1':28s}{totals.solved_d1:>8d}  {'':>7s}   "
        f"{paper['solved_d1']:>8d}",
        f"{'  No solution for d=100':28s}{totals.unsolved_d100:>8d}  "
        f"{totals.pct(totals.unsolved_d100):>6.0f}%   "
        f"{paper['unsolved_d100']:>8d}  {paper['unsolved_d100_pct']:>7d}%",
        f"{'  Solution for d=100':28s}{totals.solved_d100:>8d}  "
        f"{totals.pct(totals.solved_d100):>6.0f}%   "
        f"{paper['solved_d100']:>8d}  {paper['solved_d100_pct']:>7d}%",
        "",
        f"{'SolveA fragment':28s}{totals.a_fragment:>8d}  {'':>7s}   "
        f"{paper['a_fragment']:>8d}",
        f"{'SolveB fragment':28s}{totals.b_fragment:>8d}  {'':>7s}   "
        f"{paper['b_fragment']:>8d}",
        f"{'Mean trace size (nodes)':28s}{totals.mean_trace_size:>8.2f}"
        f"  {'':>7s}   {paper['mean_trace_size']:>8.2f}",
    ]
    return "\n".join(lines)


def format_perf_table(times: Dict[str, OperationTimes]) -> str:
    """The §5.2.3 performance table, ours vs. paper (ms)."""
    lines = [
        "Performance (paper Section 5.2.3), milliseconds",
        f"{'Operation':10s}{'Min':>9s}{'Med':>9s}{'Avg':>9s}{'Max':>10s}"
        f"   {'paper (min/med/avg/max)':>28s}",
    ]
    for op in ("parse", "eval", "prepare", "solve"):
        measured = times[op]
        paper = PAPER_PERF_MS[op]
        lines.append(
            f"{op.capitalize():10s}{measured.min_ms:>9.2f}"
            f"{measured.median_ms:>9.2f}{measured.avg_ms:>9.2f}"
            f"{measured.max_ms:>10.2f}   "
            f"{paper['min']:>6g}/{paper['med']:>4g}/{paper['avg']:>4g}/"
            f"{paper['max']:>5g}")
    return "\n".join(lines)


def format_drag_latency_table(rows) -> str:
    """Before/after table for the incremental live-sync hot path: drag
    steps per second, naive (pre-optimization) vs. fast (incremental)
    vs. compiled (trace-compiled replay); ``c-gain`` is compiled over
    fast — the trace compiler's own tier."""
    from .drag_latency import median_compiled_speedup, median_speedup

    lines = [
        "Drag latency: live-sync steps/sec over a "
        f"{rows[0].steps if rows else 0}-step gesture",
        f"{'Example':28s}{'naive/s':>10s}{'fast/s':>10s}{'speedup':>9s}"
        f"{'compiled/s':>12s}{'c-gain':>8s}{'identical':>11s}",
    ]
    for row in rows:
        lines.append(
            f"{row.name:28s}{row.naive_sps:>10.1f}{row.fast_sps:>10.1f}"
            f"{row.speedup:>8.2f}x{row.compiled_sps:>12.1f}"
            f"{row.compiled_speedup:>7.2f}x"
            f"{'yes' if row.outputs_identical else 'NO':>11s}")
    if rows:
        lines.append(f"{'median speedup':28s}{'':>10s}{'':>10s}"
                     f"{median_speedup(rows):>8.2f}x{'':>12s}"
                     f"{median_compiled_speedup(rows):>7.2f}x")
    return "\n".join(lines)


def format_release_latency_table(rows) -> str:
    """Before/after table for the incremental Prepare: releases (assign +
    trigger + sliders) per second, from-scratch vs. change-set-driven."""
    from .drag_latency import median_release_speedup

    lines = [
        "Release latency: Prepare operations/sec over "
        f"{rows[0].releases if rows else 0} drag-release gestures",
        f"{'Example':28s}{'naive/s':>10s}{'fast/s':>10s}{'speedup':>9s}"
        f"{'identical':>11s}",
    ]
    for row in rows:
        lines.append(
            f"{row.name:28s}{row.naive_rps:>10.1f}{row.fast_rps:>10.1f}"
            f"{row.speedup:>8.2f}x"
            f"{'yes' if row.outputs_identical else 'NO':>11s}")
    if rows:
        lines.append(f"{'median speedup':28s}{'':>10s}{'':>10s}"
                     f"{median_release_speedup(rows):>8.2f}x")
    return "\n".join(lines)


def format_edit_latency_table(rows) -> str:
    """Before/after table for the edit path: source edits applied per
    second via ``LiveSession.edit_source`` (value-only and structural)
    vs. reopening a fresh session on the new text."""
    from .edit_latency import median_edit_speedup

    lines = [
        "Edit latency: text edit -> synced canvas, "
        f"{rows[0].edits if rows else 0} edits per example",
        f"{'Example':28s}{'reopen/s':>10s}{'value/s':>10s}{'speedup':>9s}"
        f"{'struct/s':>10s}{'identical':>11s}",
    ]
    for row in rows:
        lines.append(
            f"{row.name:28s}{row.naive_eps:>10.1f}{row.fast_eps:>10.1f}"
            f"{row.speedup:>8.2f}x{row.structural_eps:>10.1f}"
            f"{'yes' if row.outputs_identical else 'NO':>11s}")
    if rows:
        lines.append(f"{'median speedup':28s}{'':>10s}{'':>10s}"
                     f"{median_edit_speedup(rows):>8.2f}x")
    return "\n".join(lines)


def format_serve_throughput_table(rows) -> str:
    """Load-generator table for the serve layer: protocol requests/sec at
    1/8/64 concurrent sessions, responses verified byte-identical to a
    direct :class:`~repro.editor.session.LiveSession`."""
    burst = rows[0].steps_per_burst if rows else 0
    lines = [
        "Serve throughput: JSON protocol, drag bursts of "
        f"{burst} samples coalesced per request",
        f"{'sessions':>9s}{'opens/s':>10s}{'drag-ev/s':>11s}"
        f"{'requests':>10s}{'identical':>11s}",
    ]
    for row in rows:
        lines.append(
            f"{row.concurrency:>9d}{row.opens_per_sec:>10.1f}"
            f"{row.drag_events_per_sec:>11.1f}{row.requests:>10d}"
            f"{'yes' if row.responses_identical else 'NO':>11s}")
    return "\n".join(lines)


def format_serve_scaling_table(rows) -> str:
    """Concurrent-scaling table: drag-events/s from N real worker
    threads on disjoint sessions — per-session locks with eager re-runs
    vs per-session locks + cross-request burst coalescing."""
    lines = [
        "Serve scaling: drag-events/s, N worker threads on disjoint "
        "sessions",
        f"{'workers':>8s}{'shard/s':>11s}"
        f"{'coalesce/s':>12s}{'speedup':>9s}{'identical':>11s}",
    ]
    for row in rows:
        lines.append(
            f"{row.workers:>8d}{row.shard_eps:>11.1f}"
            f"{row.coalesce_eps:>12.1f}{row.speedup:>8.2f}x"
            f"{'yes' if row.responses_identical else 'NO':>11s}")
    lines.append("(shard = per-session locks, eager re-runs; coalesce = "
                 "queued bursts applied as one re-run)")
    return "\n".join(lines)


def format_ingest_table(report) -> str:
    """Summary table for a bulk SVG ingestion run
    (:class:`repro.svg.ingest.IngestReport`): per-document verification
    outcomes plus per-failure-class quarantine counters."""
    results = report.results
    lines = [
        "SVG ingestion: emitted programs verified "
        "parse -> run -> render -> zones",
        f"{'Document':32s}{'status':>12s}{'shapes':>8s}{'zones':>7s}"
        f"{'constants':>11s}",
    ]
    for result in results:
        if result.ok:
            lines.append(f"{result.name:32s}{'ok':>12s}"
                         f"{result.shapes:>8d}{result.zones:>7d}"
                         f"{result.constants:>11d}")
        else:
            lines.append(f"{result.name:32s}"
                         f"{'quarantined':>12s}  [{result.failure}]")
    ok = len(report.ok)
    lines.append(f"{'Totals':32s}{ok:>3d} ok, {len(report.failed)} "
                 f"quarantined of {len(results)}")
    for failure, count in report.counters().items():
        lines.append(f"  quarantined[{failure}]: {count}")
    return "\n".join(lines)


def format_perf_rows(rows) -> str:
    """Appendix G per-example timing table (median ms per operation)."""
    lines = [
        "Per-example timings (paper Appendix G, timing table; median ms)",
        f"{'Example':28s}{'LOC':>5s}{'Parse':>9s}{'Eval':>9s}"
        f"{'Prepare':>9s}",
    ]
    for row in rows:
        lines.append(f"{row.name:28s}{row.loc:>5d}{row.parse_ms:>9.2f}"
                     f"{row.eval_ms:>9.2f}{row.prepare_ms:>9.2f}")
    return "\n".join(lines)


def format_zone_rows(rows: List[ZoneStatsRow]) -> str:
    """Appendix G table 1 (per-example zone counts)."""
    lines = [
        "Per-example zones (paper Appendix G, table 1)",
        f"{'Example':28s}{'Shapes':>7s}{'Zones':>7s}{'0':>6s}{'1':>6s}"
        f"{'>1 (avg)':>12s}",
    ]
    for row in rows:
        avg = f"{row.ambiguous} ({row.ambiguous_avg:.2f})" \
            if row.ambiguous else "0"
        lines.append(f"{row.name:28s}{row.shape_count:>7d}"
                     f"{row.zone_count:>7d}{row.inactive:>6d}"
                     f"{row.unambiguous:>6d}{avg:>12s}")
    totals = (sum(r.shape_count for r in rows),
              sum(r.zone_count for r in rows),
              sum(r.inactive for r in rows),
              sum(r.unambiguous for r in rows),
              sum(r.ambiguous for r in rows))
    lines.append(f"{'Totals':28s}{totals[0]:>7d}{totals[1]:>7d}"
                 f"{totals[2]:>6d}{totals[3]:>6d}{totals[4]:>12d}")
    return "\n".join(lines)


def format_loc_rows(rows: List[LocStatsRow], totals: LocTotals) -> str:
    """Appendix G table 2 (per-example location assignment counts)."""
    lines = [
        "Per-example locations (paper Appendix G, table 2)",
        f"{'Example':28s}{'OutLocs':>8s}{'Unfroz':>7s}{'Unassig':>8s}"
        f"{'Assigned':>9s}{'avg times':>11s}{'avg rate':>10s}",
    ]
    for row in rows:
        lines.append(f"{row.name:28s}{row.output_locs:>8d}"
                     f"{row.unfrozen:>7d}{row.unassigned:>8d}"
                     f"{row.assigned:>9d}{row.avg_times:>11.1f}"
                     f"{row.avg_rate:>9.0f}%")
    lines.append(f"{'Totals':28s}{totals.output_locs:>8d}"
                 f"{totals.unfrozen:>7d}{totals.unassigned:>8d}"
                 f"{totals.assigned:>9d}")
    return "\n".join(lines)
