"""Mouse triggers: from assignments to real-time program updates (§4.1).

``ComputeTrigger(kind, ρ, γ, v)`` returns a function ``τ(dx, dy) → ρ′`` that
solves one univariate value-trace equation per controlled attribute — using
the location chosen by γ — and composes the resulting bindings.  The
composition is order-dependent and therefore *plausible*, not faithful:
"we simply apply the individual substitutions in an arbitrary
(implementation-specific) order" (§4.1, Recap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..lang.ast import Loc
from ..lang.errors import SolverFailure
from ..svg.canvas import Canvas, Shape
from ..synthesis.solver import compile_solve_one
from ..trace.trace import Trace
from .assignment import Assignment, CanvasAssignments
from .zones import Feature, X_AXIS


@dataclass(frozen=True)
class FeatureOutcome:
    """Per-attribute result of firing a trigger."""

    feature: Feature
    loc: Loc
    target: float
    solution: Optional[float]
    error: Optional[str] = None

    @property
    def solved(self) -> bool:
        return self.solution is not None


@dataclass(frozen=True)
class TriggerResult:
    """The substitution computed by one trigger firing plus diagnostics.

    ``bindings`` holds only the *changed* locations; the caller applies them
    to the original program ("this substitution is then applied to the
    original program, the new program is run, and the new output is
    rendered", §4.1).
    """

    bindings: Dict[Loc, float]
    outcomes: Tuple[FeatureOutcome, ...]

    @property
    def all_solved(self) -> bool:
        return all(outcome.solved for outcome in self.outcomes)

    @property
    def any_solved(self) -> bool:
        return any(outcome.solved for outcome in self.outcomes)


class MouseTrigger:
    """τ = λ(dx, dy). ρ ⊕ (ℓ → SolveOne(…)) ⊕ …"""

    def __init__(self, shape: Shape, assignment: Assignment,
                 rho: Mapping[Loc, float]):
        self.shape = shape
        self.assignment = assignment
        self.rho = rho
        # Pre-read attribute values and traces once per Prepare (§4.1
        # computes triggers before any user action).  Uncontrolled
        # attributes (theta entry None) are skipped.
        self._features: List[Tuple[Feature, Loc, float, Trace]] = []
        for feature, loc in zip(assignment.zone.features, assignment.theta):
            if loc is None:
                continue
            number = shape.get_num(feature.ref)
            self._features.append((feature, loc, number.value, number.trace))
        # Per-feature solver closures, specialized on first firing: the
        # equation's structure and ρ are fixed for the trigger's
        # lifetime, only the target moves with the mouse.
        self._solvers = None

    def __call__(self, dx: float, dy: float) -> TriggerResult:
        solvers = self._solvers
        if solvers is None:
            solvers = self._solvers = [
                compile_solve_one(self.rho, loc, trace)
                for _, loc, _, trace in self._features]
        bindings: Dict[Loc, float] = {}
        outcomes: List[FeatureOutcome] = []
        for (feature, loc, value, trace), solver in zip(self._features,
                                                        solvers):
            delta = dx if feature.axis == X_AXIS else dy
            target = value + feature.sign * delta
            try:
                solution = solver(target)
            except SolverFailure as failure:
                outcomes.append(FeatureOutcome(feature, loc, target, None,
                                               str(failure)))
                continue
            # Later bindings shadow earlier ones (plausible updates).
            bindings[loc] = solution
            outcomes.append(FeatureOutcome(feature, loc, target, solution))
        return TriggerResult(bindings, tuple(outcomes))


def compute_triggers(canvas: Canvas, assignments: CanvasAssignments,
                     rho: Mapping[Loc, float]
                     ) -> Dict[Tuple[int, str], MouseTrigger]:
    """Build a trigger for every Active zone — the editor's Prepare step
    ("once mouse triggers have been computed for all shapes, the editor is
    prepared to respond to any user action", §4.1)."""
    triggers: Dict[Tuple[int, str], MouseTrigger] = {}
    for key, assignment in assignments.chosen.items():
        shape = canvas[assignment.zone.shape_index]
        triggers[key] = MouseTrigger(shape, assignment, rho)
    return triggers
