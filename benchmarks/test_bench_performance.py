"""E4 — the §5.2.3 performance table (Parse / Eval / Prepare / Solve).

Micro-benchmarks (pytest-benchmark) cover each operation on the running
example; the corpus-wide Min/Med/Avg/Max table mirrors the paper's.
"""

from repro.bench import format_perf_table, measure_corpus
from repro.bench.corpus import prepare_example
from repro.examples import example_source
from repro.lang.parser import parse_top_level
from repro.svg import Canvas
from repro.zones import assign_canvas, compute_triggers


def test_bench_parse(benchmark):
    source = example_source("sine_wave_of_boxes")
    benchmark(parse_top_level, source)


def test_bench_eval(benchmark):
    example = prepare_example("sine_wave_of_boxes")
    benchmark(example.program.evaluate)


def test_bench_prepare(benchmark):
    example = prepare_example("sine_wave_of_boxes")

    def prepare():
        canvas = Canvas.from_value(example.program.evaluate())
        assignments = assign_canvas(canvas)
        return compute_triggers(canvas, assignments, example.program.rho0)

    triggers = benchmark(prepare)
    assert triggers


def test_bench_live_drag_cycle(benchmark):
    """One full live-synchronization step: trigger -> substitute ->
    re-evaluate -> rebuild canvas (the §4.1 inner loop)."""
    from repro.editor import LiveSession
    session = LiveSession(example_source("sine_wave_of_boxes"))
    session.start_drag(0, "INTERIOR")
    counter = [0]

    def one_step():
        counter[0] += 1
        return session.drag(float(counter[0] % 50), 0.0)

    result = benchmark(one_step)
    assert result.bindings


def test_perf_table(corpus, write_table):
    times = measure_corpus(corpus, runs=3, solve_repeats=1)
    # The reproducible shape of §5.2.3: Solve is the cheapest operation
    # and Prepare the most expensive on average.
    assert times["solve"].avg_ms < times["eval"].avg_ms
    assert times["solve"].avg_ms < times["parse"].avg_ms
    assert times["prepare"].avg_ms > times["eval"].avg_ms
    write_table("perf_table", format_perf_table(times))
