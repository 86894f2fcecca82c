"""E3/E7 — the §5.2.2 pre-equation solvability table and the Appendix G
solver-fragment table."""

import pytest

from repro.bench import (equation_totals, extract_pre_equations,
                         format_equation_table)
from repro.bench.corpus import prepare_example
from repro.lang.errors import SolverFailure
from repro.synthesis import solve_one


def test_bench_solve_pre_equations(benchmark):
    """Benchmark solving every unique pre-equation of the running example
    with d=1 (the <1ms/solve claim of §5.2.3)."""
    example = prepare_example("sine_wave_of_boxes")
    _, equations = extract_pre_equations(example)
    rho = example.program.rho0

    def solve_all():
        solved = 0
        for eq in equations:
            try:
                solve_one(rho, eq.loc, eq.value + 1.0, eq.trace)
                solved += 1
            except SolverFailure:
                pass
        return solved

    solved = benchmark(solve_all)
    assert solved > 0


def test_solvability_table(corpus, write_table):
    totals = equation_totals(corpus)
    # Qualitative §5.2.2 claims:
    # (1) the great majority of pre-equations are in the solver fragment;
    assert totals.inside / totals.unique > 0.70         # paper: 80%
    # (2) almost everything in the fragment solves at d=1;
    assert totals.solved_d1 / totals.inside > 0.90      # paper: 95%
    # (3) d=100 breaks strictly more equations than d=1 (bounded
    #     functions like cos; §5.2.2 discusses rotation angles).
    assert totals.solved_d100 <= totals.solved_d1
    # (4) nothing outside the fragment is solvable.
    write_table("solvability_table", format_equation_table(totals))
