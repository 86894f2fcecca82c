"""Run-time traces, substitutions and value-trace equations (paper §3)."""

from .trace import (OpTrace, Trace, all_locs, count_loc_occurrences,
                    eval_trace, format_trace, is_addition_only, locs,
                    occurrences, postorder, trace_key, trace_size)

__all__ = [
    "OpTrace", "Trace", "all_locs", "count_loc_occurrences", "eval_trace",
    "format_trace", "is_addition_only", "locs", "occurrences", "postorder",
    "trace_key", "trace_size",
]
