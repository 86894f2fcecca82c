"""E2 — the §5.2.1 zone-statistics table (Active/Inactive/ambiguity)."""

from repro.bench import (corpus_zone_stats, format_zone_table, zone_totals)
from repro.bench.corpus import prepare_example
from repro.zones.assignment import assign_canvas


def test_bench_prepare_assignments(benchmark):
    """Benchmark the Prepare-time assignment pass on the running example."""
    example = prepare_example("sine_wave_of_boxes")
    result = benchmark(assign_canvas, example.canvas, "fair")
    assert len(result.chosen) == 108


def test_zone_table(corpus, write_table):
    rows = corpus_zone_stats(corpus)
    totals = zone_totals(rows)
    # The qualitative claims of §5.2.1 must hold on our corpus:
    # most zones Active, ambiguity frequent.
    assert totals.active / totals.zones > 0.85          # paper: 93%
    assert totals.ambiguous / totals.zones > 0.40       # paper: 59%
    assert 2.0 < totals.ambiguous_avg < 20.0            # paper: 3.83
    write_table("zone_table", format_zone_table(totals))
