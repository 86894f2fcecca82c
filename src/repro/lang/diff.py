"""Structural program differ: text edits as :class:`ChangeSet`s (§4.1).

The paper's headline workflow *alternates* programmatic and direct
manipulation: the user drags a shape, then edits the source text, then
drags again — against one live artifact.  Direct manipulation already
flows through the incremental pipeline as value-only change sets
(``Program.substitute`` records exactly the rewritten locations); this
module gives *text edits* the same currency.

:func:`diff_source` parses the new text and aligns it against the current
program's AST, classifying the edit:

* **identity** — the new text parses to the very same program (formatting,
  comments): nothing to recompute, the session merely adopts the text;
* **value** — only numeric literal values changed: the edit is re-expressed
  as ``old.substitute(ρ)``, so every surviving literal keeps its
  :class:`~repro.lang.ast.Loc` and the pipeline's Run/Assign/Trigger/Slider
  stages reuse their caches exactly as a drag step does (and, like a drag,
  it keeps ``old.source``: the new values are overlays on that base);
* **structural** — the shape changed somewhere, but literals in aligned
  regions survive: their fresh :class:`Loc`s are *re-keyed* back to the old
  ones, keeping names and identities stable across the reparse (the change
  set is still structural — every cache is rebuilt, correctly);
* **full** — nothing aligned; the fresh parse is used as-is.

Alignment is strict about everything the pipeline's caches key on: node
kinds, operators, variable names, patterns, string/boolean values,
freeze/thaw annotations and slider ranges.  Only a numeric literal's
*value* may differ under a value-only classification.

>>> from repro.lang.program import parse_program
>>> program = parse_program("(def x 10) (svg [(rect 'red' x 20 30 40)])")
>>> diff = diff_source(program, "(def x 99) (svg [(rect 'red' x 20 30 40)])")
>>> diff.kind, diff.change
('value', ChangeSet({x}))
>>> diff.program.user_locs() == program.user_locs()   # Locs survive
True
>>> diff_source(program, program.unparse()).kind      # identity is free
'identity'
>>> bigger = diff_source(
...     program, "(def x 10) (svg [(rect 'red' x 20 30 40) "
...              "(circle 'blue' 5 6 7)])")
>>> bigger.kind, bigger.rekeyed, bigger.fresh
('structural', 4, 3)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.changeset import ChangeSet, FULL_CHANGE
from .ast import (ECase, ECons, ELambda, ELet, ENil, ENum, EOp, EStr, EVar,
                  EApp, EBool, Expr, Loc, iter_numbers)
from .parser import parse_top_level
from .prelude import prelude_rho0
from .program import Program

__all__ = ["SourceDiff", "diff_source", "diff_programs",
           "IDENTITY", "VALUE", "STRUCTURAL", "FULL"]

#: The edit produced the same program (possibly different text).
IDENTITY = "identity"
#: Only numeric literal values changed — a non-structural ChangeSet.
VALUE = "value"
#: The AST shape changed, but surviving literals were re-keyed.
STRUCTURAL = "structural"
#: Nothing aligned; a from-scratch program.
FULL = "full"


@dataclass(frozen=True)
class SourceDiff:
    """The result of diffing a program against edited source text.

    ``program`` is the program the new text denotes, expressed so that
    surviving literals keep their old :class:`~repro.lang.ast.Loc`s, and
    ``change`` is the :class:`~repro.core.changeset.ChangeSet` to feed the
    staged pipeline (non-structural exactly when ``kind`` is ``'value'``
    or ``'identity'``).
    """

    kind: str
    program: Program
    change: ChangeSet
    #: Literals whose locations survived the reparse.
    rekeyed: int = 0
    #: Literals that received brand-new locations.
    fresh: int = 0


# ---------------------------------------------------------------------------
# Strict alignment: value-only detection
# ---------------------------------------------------------------------------

def _align(old: Expr, new: Expr, rho: dict) -> bool:
    """Lockstep-walk two ASTs; collect differing literal values into ρ.

    Returns ``True`` iff the trees are identical in everything but numeric
    literal values — same kinds, operators, names, patterns, annotations,
    slider ranges, and the same ``def``/``if`` sugar (so the unparse of the
    surviving AST matches what the user now sees).
    """
    stack = [(old, new)]
    while stack:
        a, b = stack.pop()
        kind = type(a)
        if kind is not type(b):
            return False
        if kind is ENum:
            if a.ann != b.ann or a.range_ann != b.range_ann:
                return False
            if b.value != a.value:
                rho[a.loc] = b.value
        elif kind is EStr or kind is EBool:
            if a.value != b.value:
                return False
        elif kind is EVar:
            if a.name != b.name:
                return False
        elif kind is ENil:
            pass
        elif kind is ECons:
            stack.append((a.head, b.head))
            stack.append((a.tail, b.tail))
        elif kind is ELambda:
            if a.pattern != b.pattern:
                return False
            stack.append((a.body, b.body))
        elif kind is EApp:
            stack.append((a.fn, b.fn))
            stack.append((a.arg, b.arg))
        elif kind is EOp:
            if a.op != b.op or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
        elif kind is ELet:
            if (a.pattern != b.pattern or a.rec != b.rec
                    or a.from_def != b.from_def):
                return False
            stack.append((a.bound, b.bound))
            stack.append((a.body, b.body))
        else:                           # ECase
            if (len(a.branches) != len(b.branches)
                    or a.from_if != b.from_if):
                return False
            if any(pa != pb for (pa, _), (pb, _)
                   in zip(a.branches, b.branches)):
                return False
            stack.append((a.scrutinee, b.scrutinee))
            stack.extend((ba, bb) for (_, ba), (_, bb)
                         in zip(a.branches, b.branches))
    return True


# ---------------------------------------------------------------------------
# Tolerant re-keying: localized structural edits
# ---------------------------------------------------------------------------

def _count_fresh(expr: Expr) -> int:
    return sum(1 for _ in iter_numbers(expr))


def _let_spine(expr: Expr):
    """Flatten a chain of ``ELet``s into ``([(pattern, bound), ...], tail)``."""
    bindings = []
    while type(expr) is ELet:
        bindings.append((expr.pattern, expr.bound))
        expr = expr.body
    return bindings, expr


def _match_bindings(a_spine, b_spine):
    """Longest common subsequence of two binding spines, anchored on
    binder *patterns* — so inserting or deleting a ``def`` does not shift
    every later pairing (classic DP; spines are short)."""
    rows = len(a_spine) + 1
    cols = len(b_spine) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(len(a_spine) - 1, -1, -1):
        for j in range(len(b_spine) - 1, -1, -1):
            if a_spine[i][0] == b_spine[j][0]:
                table[i][j] = table[i + 1][j + 1] + 1
            else:
                table[i][j] = max(table[i + 1][j], table[i][j + 1])
    pairs = []
    i = j = 0
    while i < len(a_spine) and j < len(b_spine):
        if a_spine[i][0] == b_spine[j][0]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif table[i + 1][j] >= table[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


def _rekey(old: Expr, new: Expr, changed: set, stats: list) -> None:
    """Walk the trees tolerantly, re-keying aligned literals in place.

    Wherever both sides have the same node kind the walk descends, even
    through renamed bindings and changed operators; an aligned pair of
    literals with the same annotation hands the *old* :class:`Loc` to the
    new ``ENum`` (adopting the fresh canonical name if the binding was
    renamed).  A kind mismatch ends the descent: literals below it keep
    their fresh locations.  ``stats`` is ``[rekeyed, fresh]``.
    """
    stack = [(old, new)]
    while stack:
        a, b = stack.pop()
        kind = type(a)
        if kind is not type(b):
            stats[1] += _count_fresh(b)
            continue
        if kind is ENum:
            if a.ann != b.ann:
                # The freeze/thaw mode lives on the Loc; a re-key would
                # smuggle the old mode past the solver.
                stats[1] += 1
                continue
            if b.loc.name != a.loc.name:
                # Rename-only edits keep the location *identity* but show
                # the new canonical name.  Loc equality/hashing is by
                # ident, so a fresh carrier object renames the edited
                # program without mutating the old one — the undo history
                # (and a rolled-back failed edit) keeps its old names.
                b.loc = Loc(a.loc.ident, b.loc.name, a.loc.frozen,
                            a.loc.in_prelude)
            else:
                b.loc = a.loc
            stats[0] += 1
            if b.value != a.value:
                changed.add(a.loc)
        elif kind is ECons:
            stack.append((a.head, b.head))
            stack.append((a.tail, b.tail))
        elif kind is ELambda:
            stack.append((a.body, b.body))
        elif kind is EApp:
            stack.append((a.fn, b.fn))
            stack.append((a.arg, b.arg))
        elif kind is EOp:
            stack.extend(zip(a.args, b.args))
            for extra in b.args[len(a.args):]:
                stats[1] += _count_fresh(extra)
        elif kind is ELet:
            a_spine, a_tail = _let_spine(a)
            b_spine, b_tail = _let_spine(b)
            if len(a_spine) == len(b_spine):
                # Same binding count: pair positionally, so a *renamed*
                # binding still hands its literal the old Loc.
                stack.extend((ba, bb) for (_, ba), (_, bb)
                             in zip(a_spine, b_spine))
            else:
                # Insertion or deletion: anchor pairs on equal binder
                # patterns so the rest of the spine does not shift —
                # prepending a def must not scramble every later Loc.
                matched_b = set()
                for i, j in _match_bindings(a_spine, b_spine):
                    matched_b.add(j)
                    stack.append((a_spine[i][1], b_spine[j][1]))
                for j, (_, bound) in enumerate(b_spine):
                    if j not in matched_b:
                        stats[1] += _count_fresh(bound)
            stack.append((a_tail, b_tail))
        elif kind is ECase:
            stack.append((a.scrutinee, b.scrutinee))
            stack.extend((ba, bb) for (_, ba), (_, bb)
                         in zip(a.branches, b.branches))
            for _, extra in b.branches[len(a.branches):]:
                stats[1] += _count_fresh(extra)
        # EStr / EBool / EVar / ENil: leaves without locations.


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def diff_programs(old: Program, new_ast: Expr, new_source: str) -> SourceDiff:
    """Diff ``old`` against an already-parsed replacement AST (a value
    edit keeps ``old.source``; every other kind installs ``new_source``)."""
    rho: dict = {}
    if _align(old.user_ast, new_ast, rho):
        program = old.substitute(rho)
        change = program.last_change
        if not change:
            # An identity edit is not a *step*: the program still differs
            # from its undo-history predecessor exactly as ``old`` did, so
            # preserve that relation (undo reads ``last_change``) while
            # reporting the edit itself as empty; its text is the new base.
            program.source = new_source
            program.last_change = old.last_change
            return SourceDiff(IDENTITY, program, change,
                              rekeyed=len(program.user_locs()))
        return SourceDiff(VALUE, program, change,
                          rekeyed=len(program.user_locs()))
    changed: set = set()
    stats = [0, 0]
    _rekey(old.user_ast, new_ast, changed, stats)
    program = Program(new_ast, source=new_source,
                      prelude_frozen=old.prelude_frozen,
                      auto_freeze=old.auto_freeze)
    if old.prelude_modified:
        # The session rewrote Prelude literals (only possible when the
        # Prelude is thawed); a structural edit must not silently reset
        # them — carry the overlays onto the fresh program.
        baseline = prelude_rho0(old.prelude_frozen)
        overlays = {loc: value for loc, value in old.rho0.items()
                    if loc.in_prelude and baseline.get(loc) != value}
        if overlays:
            program = program.substitute(overlays)
            program.last_change = FULL_CHANGE
    if stats[0]:
        return SourceDiff(STRUCTURAL, program,
                          ChangeSet(changed, structural=True),
                          rekeyed=stats[0], fresh=stats[1])
    return SourceDiff(FULL, program, FULL_CHANGE, fresh=stats[1])


def diff_source(old: Program, new_source: str) -> SourceDiff:
    """Diff ``old`` against edited source text.

    Parses ``new_source`` under ``old``'s parse options and classifies the
    edit (see the module docstring).  A syntax error propagates as
    :class:`~repro.lang.errors.LittleSyntaxError` before any state is
    touched, so callers can reject bad edits without losing the session.
    """
    new_ast = parse_top_level(new_source, auto_freeze=old.auto_freeze)
    return diff_programs(old, new_ast, new_source)
