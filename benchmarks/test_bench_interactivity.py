"""§5.2's end-to-end notion of a successful user action: zone Active +
solver computes an update + update applies and re-evaluates."""

from repro.bench import format_interactivity, interactivity_stats
from repro.bench.corpus import prepare_example


def test_bench_interactivity_sweep(benchmark):
    example = prepare_example("three_boxes")
    totals = benchmark(interactivity_stats,
                       {"three_boxes": example})
    assert totals.zones == 27


def test_interactivity_table(corpus, write_table):
    totals = interactivity_stats(corpus)
    # The headline claim: the vast majority of user actions succeed fully
    # at small offsets, and d=100 breaks strictly more than d=1 (§5.2.2).
    assert totals.success_rate(1.0) > 0.70
    assert totals.full[100.0] <= totals.full[1.0]
    assert totals.zones == totals.inactive + totals.active
    for delta in (1.0, 100.0):
        assert (totals.full[delta] + totals.partial[delta]
                + totals.none[delta]) == totals.active
    write_table("interactivity_table", format_interactivity(totals))
