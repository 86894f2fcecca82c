"""E4 — the §5.2.3 performance table (Parse / Eval / Prepare / Solve).

Micro-benchmarks (pytest-benchmark) cover each operation on the running
example; the corpus-wide Min/Med/Avg/Max table mirrors the paper's.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from statistics import median

from repro.bench import format_perf_table, measure_corpus
from repro.bench.corpus import prepare_example
from repro.examples import example_source
from repro.lang.eval import EvalBudget, budget_scope
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


def test_fresh_thread_evaluates_like_a_warm_one(corpus, request,
                                                write_table):
    """A thread that never installed an evaluation budget (a server
    handler thread under ``--eval-budget 0``, say) must evaluate the
    corpus within noise of one that has run a ``budget_scope``: what the
    evaluator costs cannot depend on a thread's history.  Reading the
    budget from a thread-local on every node once made the fresh thread
    1.7-2.2x slower, each read raising and swallowing an
    ``AttributeError``.  Two long-lived worker threads time the corpus
    in interleaved pairs, alternating which goes first, so a slow spell
    of the host lands on one pair or on both halves of it; the median
    fresh/warm ratio estimates the real difference.  The bound is 25%."""
    programs = [example.program for example in corpus.values()]

    def corpus_seconds():
        start = time.perf_counter()
        for program in programs:
            program.evaluate()
        return time.perf_counter() - start

    def arm_budget():
        with budget_scope(EvalBudget()):
            programs[0].evaluate()

    with ThreadPoolExecutor(max_workers=1) as fresh, \
            ThreadPoolExecutor(max_workers=1) as warm:
        warm.submit(arm_budget).result()
        fresh_times, warm_times, ratios = [], [], []
        for pair in range(9):
            if pair % 2 == 0:
                fresh_times.append(fresh.submit(corpus_seconds).result())
                warm_times.append(warm.submit(corpus_seconds).result())
            else:
                warm_times.append(warm.submit(corpus_seconds).result())
                fresh_times.append(fresh.submit(corpus_seconds).result())
            ratios.append(fresh_times[-1] / warm_times[-1])
    ratio = median(ratios)
    write_table("fresh_thread_eval", "\n".join([
        f"Corpus evaluate ({len(programs)} examples) by thread history, "
        f"{len(ratios)} interleaved pairs",
        f"{'thread':34s}{'best ms':>10s}{'median ms':>11s}",
        f"{'fresh (never installed a budget)':34s}"
        f"{1000 * min(fresh_times):>10.1f}"
        f"{1000 * median(fresh_times):>11.1f}",
        f"{'warm (has run a budget_scope)':34s}"
        f"{1000 * min(warm_times):>10.1f}"
        f"{1000 * median(warm_times):>11.1f}",
        f"{'median fresh/warm ratio':34s}{ratio:>9.2f}x"]))
    if not request.config.getoption("benchmark_disable"):
        assert ratio <= 1.25, \
            f"a fresh thread evaluates {ratio:.2f}x slower than a warm one"
