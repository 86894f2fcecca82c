"""Pre-equation extraction and solvability — paper §5.2.2 and the Appendix G
solver-fragment table.

For every Active zone with chosen assignment γ, each controlled attribute
'k' contributes a tuple (ρ, v, ζ, ℓ, n, t) where ℓ = γ(v)(ζ)('k').  Tuples
identical modulo (v, ζ) are deduplicated into unique *pre-equations*
(ρ, ℓ, n, t), each classified by solver fragment and tested for solvability
with the concrete offsets d = 1 and d = 100 (the paper's two probes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..lang.ast import Loc
from ..lang.errors import SolverFailure
from ..synthesis.solver import (in_a_fragment, in_b_fragment, solve_one)
from ..trace.trace import Trace, trace_key, trace_size
from .corpus import PreparedExample

PROBE_DELTAS = (1.0, 100.0)


@dataclass
class PreEquation:
    example: str
    loc: Loc
    value: float
    trace: Trace
    in_a: bool
    in_b: bool
    solved: Dict[float, bool]

    @property
    def in_fragment(self) -> bool:
        return self.in_a or self.in_b

    @property
    def size(self) -> int:
        return trace_size(self.trace)


def extract_pre_equations(example: PreparedExample
                          ) -> Tuple[int, List[PreEquation]]:
    """Return (total tuple count, unique pre-equations) for one example."""
    rho = example.program.rho0
    total = 0
    unique: Dict[Tuple, PreEquation] = {}
    for assignment in example.assignments.chosen.values():
        shape = example.canvas[assignment.zone.shape_index]
        for feature, loc in zip(assignment.zone.features, assignment.theta):
            if loc is None:      # uncontrolled attribute
                continue
            number = shape.get_num(feature.ref)
            total += 1
            key = (loc.ident, trace_key(number.trace))
            if key in unique:
                continue
            equation = PreEquation(
                example=example.name,
                loc=loc,
                value=number.value,
                trace=number.trace,
                in_a=in_a_fragment(number.trace, loc),
                in_b=in_b_fragment(number.trace, loc),
                solved={},
            )
            for delta in PROBE_DELTAS:
                equation.solved[delta] = _try_solve(
                    rho, loc, number.value + delta, number.trace)
            unique[key] = equation
    return total, list(unique.values())


def _try_solve(rho, loc: Loc, target: float, trace: Trace) -> bool:
    try:
        solve_one(rho, loc, target, trace)
    except SolverFailure:
        return False
    return True


@dataclass(frozen=True)
class EquationTotals:
    """Corpus-wide §5.2.2 / Appendix G numbers."""

    total_tuples: int
    unique: int
    outside: int
    inside: int
    unsolved_d1: int       # inside the fragment but unsolvable at d=1
    solved_d1: int
    unsolved_d100: int     # solvable at d=1 but not at d=100
    solved_d100: int
    a_fragment: int
    a_solved_d1: int
    a_solved_d100: int
    b_fragment: int
    b_solved_d1: int
    b_solved_d100: int
    mean_trace_size: float

    def pct(self, count: int) -> float:
        return 100.0 * count / self.unique if self.unique else 0.0


def equation_totals(corpus: Dict[str, PreparedExample]) -> EquationTotals:
    total_tuples = 0
    equations: List[PreEquation] = []
    for example in corpus.values():
        example_total, example_equations = extract_pre_equations(example)
        total_tuples += example_total
        equations.extend(example_equations)

    inside = [eq for eq in equations if eq.in_fragment]
    solved_d1 = [eq for eq in inside if eq.solved[1.0]]
    solved_d100 = [eq for eq in solved_d1 if eq.solved[100.0]]
    a_fragment = [eq for eq in equations if eq.in_a]
    b_fragment = [eq for eq in equations if eq.in_b]
    sizes = [eq.size for eq in equations]
    return EquationTotals(
        total_tuples=total_tuples,
        unique=len(equations),
        outside=len(equations) - len(inside),
        inside=len(inside),
        unsolved_d1=len(inside) - len(solved_d1),
        solved_d1=len(solved_d1),
        unsolved_d100=len(solved_d1) - len(solved_d100),
        solved_d100=len(solved_d100),
        a_fragment=len(a_fragment),
        a_solved_d1=sum(1 for eq in a_fragment if eq.solved[1.0]),
        a_solved_d100=sum(1 for eq in a_fragment if eq.solved[100.0]),
        b_fragment=len(b_fragment),
        b_solved_d1=sum(1 for eq in b_fragment if eq.solved[1.0]),
        b_solved_d100=sum(1 for eq in b_fragment if eq.solved[100.0]),
        mean_trace_size=(sum(sizes) / len(sizes)) if sizes else 0.0,
    )
