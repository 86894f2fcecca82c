"""Measurement harness regenerating the paper's tables (§5.2, Appendix G)."""

from .corpus import PreparedExample, prepare_corpus, prepare_example
from .drag_latency import (DEFAULT_EXAMPLES as DRAG_LATENCY_EXAMPLES,
                           RELEASE_EXAMPLES, DragLatencyRow,
                           ReleaseLatencyRow, measure_drag_latency,
                           measure_release_latency,
                           median_compiled_speedup, median_release_speedup,
                           median_speedup, naive_prepare, prepare_equal)
from .edit_latency import (EDIT_EXAMPLES, EditLatencyRow,
                           measure_edit_latency, median_edit_speedup,
                           structural_edit_texts, value_edit_texts)
from .equation_stats import (EquationTotals, PreEquation, equation_totals,
                             extract_pre_equations)
from .interactivity import (InteractivityTotals, format_interactivity,
                            interactivity_stats)
from .loc_stats import (LocStatsRow, LocTotals, corpus_loc_stats, loc_stats,
                        loc_totals)
from .perf import (OperationTimes, PerfRow, measure_corpus,
                   measure_example, measure_rows, measure_solve)
from .report import (PAPER_EQUATION_TOTALS, PAPER_PERF_MS, PAPER_ZONE_TOTALS,
                     format_drag_latency_table, format_edit_latency_table,
                     format_equation_table, format_ingest_table,
                     format_loc_rows, format_perf_rows, format_perf_table,
                     format_release_latency_table,
                     format_serve_scaling_table,
                     format_serve_throughput_table, format_zone_rows,
                     format_zone_table)
from .serve_throughput import (SERVE_CONCURRENCY, SERVE_EXAMPLES,
                               SERVE_WORKERS, ServeScalingRow,
                               ServeThroughputRow, measure_serve_scaling,
                               measure_serve_throughput)
from .zone_stats import (ZoneStatsRow, ZoneTotals, corpus_zone_stats,
                         zone_stats, zone_totals)

__all__ = [
    "PreparedExample", "prepare_corpus", "prepare_example",
    "DRAG_LATENCY_EXAMPLES", "DragLatencyRow", "measure_drag_latency",
    "median_speedup", "median_compiled_speedup",
    "format_drag_latency_table",
    "RELEASE_EXAMPLES", "ReleaseLatencyRow", "measure_release_latency",
    "median_release_speedup", "naive_prepare", "prepare_equal",
    "format_release_latency_table",
    "EDIT_EXAMPLES", "EditLatencyRow", "measure_edit_latency",
    "median_edit_speedup", "structural_edit_texts", "value_edit_texts",
    "format_edit_latency_table",
    "SERVE_CONCURRENCY", "SERVE_EXAMPLES", "SERVE_WORKERS",
    "ServeThroughputRow", "ServeScalingRow", "measure_serve_throughput",
    "measure_serve_scaling", "format_serve_throughput_table",
    "format_serve_scaling_table",
    "EquationTotals", "PreEquation", "equation_totals",
    "extract_pre_equations",
    "InteractivityTotals", "format_interactivity", "interactivity_stats",
    "LocStatsRow", "LocTotals", "corpus_loc_stats", "loc_stats",
    "loc_totals",
    "OperationTimes", "PerfRow", "measure_corpus", "measure_example",
    "measure_rows", "measure_solve",
    "PAPER_EQUATION_TOTALS", "PAPER_PERF_MS", "PAPER_ZONE_TOTALS",
    "format_equation_table", "format_ingest_table", "format_loc_rows",
    "format_perf_rows",
    "format_perf_table", "format_zone_rows", "format_zone_table",
    "ZoneStatsRow", "ZoneTotals", "corpus_zone_stats", "zone_stats",
    "zone_totals",
]
