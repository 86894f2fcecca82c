"""Ad hoc synchronization (paper §7.2, goal (c)).

Live synchronization reconciles after *every* mouse move; ad hoc
synchronization instead lets the user "temporarily break the relationship
between program and output so that larger changes can be made, and then
reconcile these changes with the original program".

:class:`AdHocSession` accumulates any number of direct edits to the
output's numbers, then ``reconcile()`` runs trace-based synthesis over the
full system of value-trace equations (§3) and *ranks* the candidates —
realizing §3's remark that "in a setting where multiple updates are
synthesized, ranking functions could be used to optimize for soft
constraints":

1. more hard constraints satisfied (the user's edits) is better;
2. more soft constraints preserved (untouched output values) is better;
3. fewer changed locations is better (smaller updates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..lang.errors import LittleError
from ..lang.program import Program
from ..trace.context import numeric_leaves, similar
from ..trace.equation import Equation
from ..trace.substitution import Substitution
from .synthesize import synthesize_plausible

#: Ranked updates :meth:`AdHocSession.reconcile` returns at most.
MAX_RESULTS = 10


@dataclass(frozen=True)
class RankedUpdate:
    """One reconciliation candidate with its ranking evidence."""

    substitution: Substitution
    program: Program
    hard_satisfied: int       # edited values matched
    hard_total: int
    soft_preserved: int       # untouched values unchanged
    soft_total: int
    changed_locs: Tuple

    @property
    def faithful(self) -> bool:
        return self.hard_satisfied == self.hard_total

    @property
    def rank_key(self):
        return (-self.hard_satisfied, -self.soft_preserved,
                len(self.changed_locs))

    def describe(self) -> str:
        names = ", ".join(sorted(loc.display()
                                 for loc in self.changed_locs))
        return (f"changes {{{names}}}: {self.hard_satisfied}/"
                f"{self.hard_total} edits matched, "
                f"{self.soft_preserved}/{self.soft_total} other values "
                f"preserved")


class AdHocSession:
    """Accumulate output edits, then reconcile them at once."""

    def __init__(self, program: Program):
        self.program = program
        self.output = program.evaluate()
        self.leaves = numeric_leaves(self.output)
        self.edits: Dict[int, float] = {}

    def edit(self, leaf_index: int, new_value: float) -> None:
        """Record that output number ``leaf_index`` should become
        ``new_value`` (the w′ of §3)."""
        if not 0 <= leaf_index < len(self.leaves):
            raise IndexError(f"output has {len(self.leaves)} numbers; "
                             f"index {leaf_index} is out of range")
        self.edits[leaf_index] = new_value

    def edit_value(self, old_value: float, new_value: float) -> int:
        """Convenience: edit the first output number equal to
        ``old_value``; returns its index."""
        for index, leaf in enumerate(self.leaves):
            if leaf.value == old_value:
                self.edit(index, new_value)
                return index
        raise ValueError(f"no output number equals {old_value}")

    def reconcile(self) -> List[RankedUpdate]:
        """Synthesize and rank candidate updates for all recorded edits;
        the best :data:`MAX_RESULTS`."""
        if not self.edits:
            return []
        equations = [Equation(value, self.leaves[index].trace)
                     for index, value in sorted(self.edits.items())]
        candidates = synthesize_plausible(self.program.rho0, equations)
        ranked = []
        seen = set()
        for candidate in candidates:
            changes = candidate.substitution.changes_from(self.program.rho0)
            key = frozenset(changes.items())
            if key in seen:
                continue
            seen.add(key)
            update = self._score(dict(changes))
            if update is not None:
                ranked.append(update)
        ranked.sort(key=lambda update: update.rank_key)
        return ranked[:MAX_RESULTS]

    def _score(self, changes: Dict) -> Optional[RankedUpdate]:
        try:
            new_program = self.program.substitute(changes)
            new_output = new_program.evaluate()
        except LittleError:
            return None
        if not similar(self.output, new_output):
            return None
        new_leaves = numeric_leaves(new_output)
        hard = soft = 0
        soft_total = len(self.leaves) - len(self.edits)
        for index, leaf in enumerate(self.leaves):
            new_value = new_leaves[index].value
            if index in self.edits:
                if math.isclose(new_value, self.edits[index],
                                rel_tol=1e-9, abs_tol=1e-6):
                    hard += 1
            elif math.isclose(new_value, leaf.value,
                              rel_tol=1e-9, abs_tol=1e-6):
                soft += 1
        return RankedUpdate(
            substitution=Substitution(self.program.rho0).concat(changes),
            program=new_program,
            hard_satisfied=hard,
            hard_total=len(self.edits),
            soft_preserved=soft,
            soft_total=soft_total,
            changed_locs=tuple(changes),
        )

    def apply(self, update: RankedUpdate) -> Program:
        """Commit a ranked update; the session restarts from the new
        program (further edits start fresh)."""
        self.program = update.program
        self.output = self.program.evaluate()
        self.leaves = numeric_leaves(self.output)
        self.edits = {}
        return self.program
