"""Edit-latency benchmark: the edit path vs reopen-from-scratch.

The paper's workflow alternates programmatic and direct manipulation, so
a source-text edit must be as live as a drag.  This table measures the
edit→synced-canvas latency of ``LiveSession.edit_source`` — value-only
edits (the differ re-expresses the edit as a substitution and the staged
pipeline reuses its caches) and structural edits (full re-run with
re-keyed locations) — against reopening a fresh session on the new text,
with the fast path verified byte-identical to a fresh session at every
step.
"""

from repro.bench import (EDIT_EXAMPLES, format_edit_latency_table,
                         measure_edit_latency, median_edit_speedup,
                         value_edit_texts)
from repro.bench.edit_latency import DEFAULT_EDITS
from repro.editor import LiveSession
from repro.examples import example_source


def test_value_edit_texts_handles_literal_free_programs():
    assert value_edit_texts("(svg [])", 4) == []


def test_bench_value_edit(benchmark):
    """A single value-only source edit through the live session."""
    source = example_source("ferris_wheel")
    texts = value_edit_texts(source, 256)
    session = LiveSession(source)
    counter = [0]

    def one_edit():
        session.edit_source(texts[counter[0] % len(texts)])
        counter[0] += 1

    benchmark(one_edit)
    assert session.active_zone_count() > 0


def test_edit_latency_speedup(request, write_table):
    """E9 — the edit-latency table: >=3x median edit throughput over
    reopen-from-scratch for value-only edits, fast-path state locked
    byte-identical to a fresh session (SVG, zones, captions, sliders,
    source) at every step."""
    rows = measure_edit_latency()
    assert [row.name for row in rows] == list(EDIT_EXAMPLES)
    # Every example must yield its full edit sequence — a truncated one
    # would make the equivalence flags below vacuous.
    assert all(row.edits == DEFAULT_EDITS for row in rows)
    assert all(row.value_only for row in rows)
    assert all(row.outputs_identical for row in rows)
    # The wall-clock target only binds when benchmarks run in timing mode;
    # under --benchmark-disable (CI correctness sweeps on noisy shared
    # runners) the equivalence checks above are the point.
    if not request.config.getoption("benchmark_disable"):
        assert median_edit_speedup(rows) >= 3.0
    write_table("edit_latency", format_edit_latency_table(rows))
