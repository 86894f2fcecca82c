"""Run-time traces, substitutions and value-trace equations (paper §3)."""

# The evaluator in ``repro.lang`` builds its traces from this package's
# ``trace`` module, which reads ``repro.lang.ast``: initialise the language
# package first, so the cycle resolves in that order whichever is imported
# first.
from .. import lang as _lang  # noqa: F401  (import order only)
from .trace import (OpTrace, Trace, all_locs, count_loc_occurrences,
                    eval_trace, format_trace, is_addition_only, locs,
                    occurrences, postorder, trace_key, trace_size)

__all__ = [
    "OpTrace", "Trace", "all_locs", "count_loc_occurrences", "eval_trace",
    "format_trace", "is_addition_only", "locs", "occurrences", "postorder",
    "trace_key", "trace_size",
]
