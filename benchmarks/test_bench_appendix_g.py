"""E5/E6 — the Appendix G per-example tables: shape/zone counts with
candidate splits, and output-location assignment statistics."""

from repro.bench import (corpus_loc_stats, corpus_zone_stats,
                         format_loc_rows, format_perf_rows,
                         format_zone_rows, loc_totals, measure_rows,
                         zone_stats)
from repro.bench.corpus import prepare_example


def test_bench_zone_stats_computation(benchmark):
    example = prepare_example("tessellation")
    row = benchmark(zone_stats, example)
    assert row.zone_count > 500


def test_appendix_g_zone_rows(corpus, write_table):
    rows = corpus_zone_stats(corpus)
    by_name = {row.name: row for row in rows}
    # Spot-check the running example against the paper's Wave Boxes row
    # (12 shapes, 108 zones, 0/36/72 with 2.67 avg candidates).
    wave = by_name["sine_wave_of_boxes"]
    assert (wave.shape_count, wave.zone_count) == (12, 108)
    assert (wave.inactive, wave.unambiguous, wave.ambiguous) == (0, 36, 72)
    assert abs(wave.ambiguous_avg - 2.67) < 0.01
    write_table("appendix_g_zones", format_zone_rows(rows))


def test_appendix_g_perf_rows(corpus, write_table):
    rows = measure_rows(corpus, runs=2)
    # Median per-example times stay interactive-scale across the corpus.
    assert all(row.eval_ms < 2000 for row in rows)
    write_table("appendix_g_perf", format_perf_rows(rows))


def test_appendix_g_loc_rows(corpus, write_table):
    rows = corpus_loc_stats(corpus)
    totals = loc_totals(rows)
    # Structural invariant of the table: assigned + unassigned = unfrozen.
    assert totals.assigned + totals.unassigned == totals.unfrozen
    # Most unfrozen locations reaching the output get assigned somewhere
    # (the paper's totals: 975 of 1440).
    assert totals.assigned / totals.unfrozen > 0.5
    write_table("appendix_g_locs", format_loc_rows(rows, totals))
