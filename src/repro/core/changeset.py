"""Change sets: the currency of incremental re-computation.

Every program edit in the live-sync loop (§4.1) is a substitution ρ over
numeric literals.  A :class:`ChangeSet` records *which* locations a step
actually rewrote, so the pipeline can tell a value-only step — the Run
stage replays the recorded evaluation, or skips it when nothing changed,
and Assign keeps its assignments — from one it must recompute from scratch.

The contract:

* ``locs`` — the substituted :class:`~repro.lang.ast.Loc`s.  A non-structural
  change set promises that the program differs from its predecessor *only*
  in the values of these literals; the AST shape, every run-time trace, and
  therefore every zone's candidate location sets are unchanged **provided**
  the re-evaluation's control-flow guards still hold.
* ``structural`` — set when that promise cannot be made: the initial run, a
  guard flip during re-evaluation (a branch, clamp or list length changed),
  a program edit, or an unknown provenance.  A structural change invalidates
  every per-shape cache.

``FULL_CHANGE`` (structural, no loc information) and ``EMPTY_CHANGE``
(nothing changed) are the two distinguished values.

>>> bool(EMPTY_CHANGE), bool(FULL_CHANGE)
(False, True)
>>> EMPTY_CHANGE.union(FULL_CHANGE) is FULL_CHANGE
True
>>> from repro.lang.program import parse_program
>>> program = parse_program("(def x 10) (svg [(rect 'red' x 20 30 40)])")
>>> moved = program.substitute({program.user_locs()[0]: 50.0})
>>> moved.last_change
ChangeSet({x})
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Iterable

if TYPE_CHECKING:                       # runtime import would be circular:
    from ..lang.ast import Loc          # lang.program records ChangeSets

__all__ = ["ChangeSet", "FULL_CHANGE", "EMPTY_CHANGE"]


class ChangeSet:
    """An immutable description of one program-update step."""

    __slots__ = ("locs", "structural")

    def __init__(self, locs: Iterable["Loc"] = (), *,
                 structural: bool = False):
        self.locs: FrozenSet["Loc"] = frozenset(locs)
        self.structural = structural

    @classmethod
    def of(cls, locs: Iterable["Loc"]) -> "ChangeSet":
        """A value-only change of exactly ``locs``."""
        return cls(locs)

    def union(self, other: "ChangeSet") -> "ChangeSet":
        """Combine two consecutive steps (e.g. the drags of one gesture)."""
        if self.structural or other.structural:
            return FULL_CHANGE
        if not other.locs:
            return self
        if not self.locs:
            return other
        return ChangeSet(self.locs | other.locs)

    def __bool__(self) -> bool:
        return self.structural or bool(self.locs)

    def __repr__(self) -> str:
        if self.structural:
            return "ChangeSet(structural)"
        names = sorted(loc.display() for loc in self.locs)
        return f"ChangeSet({{{', '.join(names)}}})"


#: The pessimistic change set: everything may have changed.
FULL_CHANGE = ChangeSet(structural=True)

#: Nothing changed at all.
EMPTY_CHANGE = ChangeSet()
