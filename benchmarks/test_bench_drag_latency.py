"""Drag-latency benchmark: the live-sync hot path, fast vs. naive.

The paper's load-bearing property is that the run-solve-rerun loop is
interactive (§4.1, §5.2.3).  This benchmark drives a 60-step drag gesture
through the corpus along the incremental session path, the
pre-optimization (full rebuild + full re-evaluation) path, and the
trace-compiled replay (:mod:`repro.lang.compile`), asserting that the
fast path is at least 5x faster than naive at the median — and the
compiled path at least 2x faster again — while producing bit-identical
outputs.
"""

import time
from statistics import median

from repro.bench import (DRAG_LATENCY_EXAMPLES, format_drag_latency_table,
                         measure_drag_latency, median_compiled_speedup,
                         median_speedup)
from repro.bench.drag_latency import _gesture, _start
from repro.editor import LiveSession
from repro.examples import example_source
from repro.lang.eval import EvalBudget


def test_bench_drag_step(benchmark):
    """Single incremental drag step on the running example."""
    session = _start("sine_wave_of_boxes")
    offsets = _gesture(60)
    index = [0]

    def step():
        dx, dy = offsets[index[0] % len(offsets)]
        index[0] += 1
        session.drag(dx, dy)

    benchmark(step)
    session.release()
    assert len(session.canvas) == 12


def test_bench_drag_gesture(benchmark):
    """A full 60-step gesture (start + drags + release)."""

    def gesture():
        session = _start("three_boxes")
        for dx, dy in _gesture(60):
            session.drag(dx, dy)
        session.release()
        return session

    session = benchmark(gesture)
    assert len(session.canvas) == 3


def test_drag_latency_speedup(request, write_table):
    """E7 — the before/after table: >=5x median drag-step throughput with
    outputs locked bit-identical between the paths, and the trace
    compiler worth >=2x on top of the incremental interpreter."""
    rows = measure_drag_latency()
    assert [row.name for row in rows] == list(DRAG_LATENCY_EXAMPLES)
    assert len(rows) >= 5
    # Identical values, traces and rendered SVG at every gesture step,
    # interpreter and compiled replay alike.
    assert all(row.outputs_identical for row in rows)
    # The wall-clock targets only bind when benchmarks run in timing mode;
    # under --benchmark-disable (CI correctness sweeps on noisy shared
    # runners) the equivalence checks above are the point.
    if not request.config.getoption("benchmark_disable"):
        assert median_speedup(rows) >= 5.0
        assert median_compiled_speedup(rows) >= 2.0, \
            [(row.name, row.compiled_speedup) for row in rows]
    write_table("drag_latency", format_drag_latency_table(rows))


def test_drag_budget_overhead(request, write_table):
    """The evaluation-budget accounting (fuel per interpreter step,
    depth per frame, size per allocation) must not tax drag throughput
    with the default caps armed — the fault containment a server
    enables by default cannot cost the hot path.  Swept over both hot
    paths: the interpreted replay and the trace-compiled one (which
    charges the same coarse guard fuel).  The two configs are timed in
    *paired* 10-step chunks — plain then budget on the same chunk,
    back to back — so multi-second noise epochs (CPU frequency shifts,
    noisy neighbors on a shared host) tax both sides of every pair
    equally instead of landing on one separately-timed pass.  The
    floor is 10%: the true accounting cost measures ~0-2%, and a
    *structural* regression (charging per statement instead of per
    replay, re-arming per step) costs far more than 10%."""
    name = "sine_wave_of_boxes"
    offsets = _gesture(60)
    chunk = 10

    def start(budget, compiled):
        session = LiveSession(example_source(name), budget=budget,
                              compiled=compiled)
        key = next(iter(session.triggers))
        session.start_drag(*key)
        return session

    def run_paired(compiled):
        """One paired gesture: fastest-chunk steps/sec for the no-budget
        and default-budget sessions, plus the per-pair cost ratios
        (budget/plain).  Pairing is the noise shield: a preemption or
        frequency shift lands on one pair (or both halves of it), while
        a real accounting cost shifts *every* pair — so the median
        ratio estimates the true overhead."""
        plain = start(None, compiled)
        budget = start(EvalBudget(), compiled)
        cost = {id(plain): float("inf"), id(budget): float("inf")}
        ratios = []
        for pair, index in enumerate(range(0, len(offsets), chunk)):
            block = offsets[index:index + chunk]
            # Alternate which session goes first so warm-cache advantage
            # doesn't systematically favor one side of the pair.
            first, second = ((plain, budget) if pair % 2 == 0
                             else (budget, plain))
            begin = time.perf_counter()
            for dx, dy in block:
                first.drag(dx, dy)
            middle = time.perf_counter()
            for dx, dy in block:
                second.drag(dx, dy)
            end = time.perf_counter()
            pair_cost = {id(first): (middle - begin) / len(block),
                         id(second): (end - middle) / len(block)}
            cost[id(first)] = min(cost[id(first)], pair_cost[id(first)])
            cost[id(second)] = min(cost[id(second)], pair_cost[id(second)])
            ratios.append(pair_cost[id(budget)] / pair_cost[id(plain)])
        plain.release()
        budget.release()
        assert plain.export_svg() == budget.export_svg()
        # accounting never alters output (checked above)
        return 1.0 / cost[id(plain)], 1.0 / cost[id(budget)], ratios

    lines = ["Budget overhead: drag steps/sec, default caps armed",
             f"{'config':26s}{'steps/s':>10s}"]
    for compiled in (False, True):
        path = "compiled" if compiled else "interp"
        plain_best = budget_best = 0.0
        ratio = float("inf")
        for _ in range(5):
            plain_sps, budget_sps, pass_ratios = run_paired(compiled)
            plain_best = max(plain_best, plain_sps)
            budget_best = max(budget_best, budget_sps)
            # Median-per-pass defeats preemptions hitting single pairs;
            # min-across-passes defeats per-run memory-layout bias (each
            # pass allocates fresh sessions, so placement re-rolls).  A
            # real accounting cost inflates every pass's median.
            ratio = min(ratio, median(pass_ratios))
        overhead_pct = 100.0 * (ratio - 1.0)
        lines += [f"{path + ', no budget':26s}{plain_best:>10.1f}",
                  f"{path + ', default budget':26s}{budget_best:>10.1f}",
                  f"{path + ' overhead':26s}{overhead_pct:>9.1f}%"]
        if not request.config.getoption("benchmark_disable"):
            assert ratio <= 1.10, \
                f"budget accounting costs {overhead_pct:.1f}% (>10%) " \
                f"on the {path} path at the median paired chunk"
    write_table("drag_budget_overhead", "\n".join(lines))
