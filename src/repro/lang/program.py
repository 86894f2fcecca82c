"""Programs: user source + Prelude, with the machinery of §2–§3.

A :class:`Program` bundles the parsed user AST, the Prelude, the combined
expression that actually evaluates, and ρ0 — "the substitution that records
location-value mappings from the source program" (§2.1).

The live-sync hot path (drag → substitute → evaluate, §4.1) is incremental:

* the Prelude is evaluated **once** per freeze mode into a cached
  environment (:func:`~repro.lang.prelude.prelude_env`), so ``evaluate``
  only runs the user AST;
* Prelude ρ0 is computed once and merged by dict-update instead of
  re-walking the combined AST in the constructor;
* ``substitute`` maintains a ``Loc → ENum`` index over the user AST and
  shares every unmodified subtree copy-on-write — and the rewrite itself
  is deferred until some consumer actually reads ``user_ast``, so a drag
  step pays only for the ρ0/index dict merges.

Substituting a Prelude location (possible when ``prelude_frozen=False``)
leaves the shared caches untouched: such programs carry their own combined
AST and evaluate it from scratch.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.changeset import ChangeSet, FULL_CHANGE
from .ast import ELet, ENum, Expr, Loc, iter_numbers, substitute
from .eval import evaluate
from .parser import collect_rho0, parse_top_level
from .prelude import prelude_bindings, prelude_env, prelude_rho0
from .unparser import unparse
from .values import Value


class Program:
    """A parsed little program, ready to evaluate and synthesize against."""

    __slots__ = ("_user_ast", "_lazy_base", "_lazy_rho", "source",
                 "prelude_frozen", "auto_freeze", "rho0", "last_change",
                 "_ast", "_num_index", "_prelude_modified")

    def __init__(self, user_ast: Expr, *, source: str = "",
                 prelude_frozen: bool = True, auto_freeze: bool = False):
        self._user_ast = user_ast
        self._lazy_base: Optional[Expr] = None
        self._lazy_rho: Optional[Dict[Loc, float]] = None
        #: Text of the program's structure (it parses to this AST up to
        #: literal values): substitutions keep it, overlaying new values.
        self.source = source
        self.prelude_frozen = prelude_frozen
        #: The parse mode that produced ``user_ast`` from ``source`` — kept
        #: so a snapshot (``LiveSession.snapshot``) can re-parse the same
        #: program later.
        self.auto_freeze = auto_freeze
        self._ast: Optional[Expr] = None
        self._num_index: Optional[Dict[Loc, ENum]] = None
        self._prelude_modified = False
        #: How this program differs from its predecessor (the ChangeSet
        #: contract of repro.core): a freshly parsed/constructed program has
        #: no predecessor, so everything downstream must be (re)computed.
        self.last_change: ChangeSet = FULL_CHANGE
        self.rho0 = dict(prelude_rho0(prelude_frozen))
        self.rho0.update(collect_rho0(user_ast))

    # -- the user AST (rewritten lazily; the drag loop never reads it) ---------

    @property
    def user_ast(self) -> Expr:
        """The user AST with every substitution applied.

        The drag loop only consumes ρ0 and the change set — the tree
        itself is read by the full-evaluation fallback, ``unparse``, and
        structural edits.  ``substitute``'s fast path therefore defers the
        copy-on-write rewrite, recording ``(base AST, accumulated ρ)``;
        the walk happens here, on first access.
        """
        if self._user_ast is None:
            self._user_ast = substitute(self._lazy_base, self._lazy_rho)
            self._lazy_base = None
            self._lazy_rho = None
        return self._user_ast

    # -- the combined AST (built lazily; the fast paths never need it) ---------

    @property
    def ast(self) -> Expr:
        """User AST wrapped in the Prelude's ``ELet`` spine."""
        if self._ast is None:
            ast = self.user_ast
            for pattern, bound, rec in reversed(
                    prelude_bindings(self.prelude_frozen)):
                ast = ELet(pattern, bound, ast, rec=rec, from_def=True)
            self._ast = ast
        return self._ast

    def _index(self) -> Dict[Loc, ENum]:
        """Loc → ENum index over the user AST (parse order preserved)."""
        if self._num_index is None:
            self._num_index = {num.loc: num
                               for num in iter_numbers(self.user_ast)}
        return self._num_index

    # -- core operations -----------------------------------------------------

    def evaluate(self, *, naive: bool = False) -> Value:
        """Evaluate the program.

        The fast path runs only the user AST in the cached Prelude
        environment; ``naive=True`` forces the from-scratch evaluation of
        the full combined ``ELet`` spine (used by benchmarks and as the
        fallback once Prelude literals have been substituted).
        """
        if naive or self._prelude_modified:
            return evaluate(self.ast)
        return evaluate(self.user_ast, prelude_env(self.prelude_frozen))

    def substitute(self, rho: Dict[Loc, float]) -> "Program":
        """Apply a local update ρ, yielding the new program ρe (§2.2)."""
        touches_prelude = any(loc.in_prelude for loc in rho)
        if touches_prelude or self._prelude_modified:
            return self._substitute_full(rho)
        # Fast path: ρ only touches user literals.  Use the Loc → ENum
        # index to drop no-op entries and update rho0/index by dict-merge —
        # the Prelude is never walked, and the user-AST rewrite itself is
        # deferred (see :attr:`user_ast`): the drag loop reads only ρ0 and
        # ``last_change``, so per-step the walk never runs at all.
        index = self._index()
        effective = {loc: value for loc, value in rho.items()
                     if loc in index}
        replaced: Dict[Loc, ENum] = {}
        for loc, value in effective.items():
            num = index[loc]
            if value != num.value:      # the no-op check substitute applies
                replaced[loc] = ENum(value, loc, num.ann, num.range_ann)
        program = Program.__new__(Program)
        if not replaced:
            program._user_ast = self._user_ast
            program._lazy_base = self._lazy_base
            program._lazy_rho = self._lazy_rho
        else:
            program._user_ast = None
            changed = {loc: num.value for loc, num in replaced.items()}
            if self._user_ast is not None:
                program._lazy_base = self._user_ast
                program._lazy_rho = changed
            else:                       # compose with our own pending ρ
                merged = dict(self._lazy_rho)
                merged.update(changed)
                program._lazy_base = self._lazy_base
                program._lazy_rho = merged
        program.source = self.source
        program.prelude_frozen = self.prelude_frozen
        program.auto_freeze = self.auto_freeze
        program._ast = None
        program._prelude_modified = False
        # Only the literals actually rewritten (no-op entries were dropped
        # above) — the change set downstream stages key on.
        program.last_change = ChangeSet.of(replaced)
        program.rho0 = dict(self.rho0)
        if replaced:
            # The rewritten values only, so ρ0 stays what the literals say:
            # a no-op entry can still differ in bits (-0.0 for 0.0).
            program.rho0.update(changed)
        new_index = dict(index)
        new_index.update(replaced)
        program._num_index = new_index
        return program

    def _substitute_full(self, rho: Dict[Loc, float]) -> "Program":
        """Slow path: ρ may touch Prelude literals, so the combined AST is
        rewritten and the program stops relying on the shared caches."""
        program = Program.__new__(Program)
        program._user_ast = substitute(self.user_ast, rho)
        program._lazy_base = None
        program._lazy_rho = None
        program.source = self.source
        program.prelude_frozen = self.prelude_frozen
        program.auto_freeze = self.auto_freeze
        program.last_change = ChangeSet.of(rho)
        program._ast = substitute(self.ast, rho)
        program._prelude_modified = True
        program._num_index = None
        program.rho0 = dict(self.rho0)
        program.rho0.update(rho)
        return program

    def restructured(self, user_ast: Expr, source: str) -> "Program":
        """A fresh program for a new user AST (a structural edit, a drawn
        shape), parsed like this one, that keeps the Prelude literals this
        one rewrote instead of silently resetting them.  Its change is
        :data:`~repro.core.changeset.FULL_CHANGE`, like any fresh
        program's."""
        program = Program(user_ast, source=source,
                          prelude_frozen=self.prelude_frozen,
                          auto_freeze=self.auto_freeze)
        overlays = self.prelude_overlays()
        if overlays:
            program = program.substitute(overlays)
            program.last_change = FULL_CHANGE
        return program

    def unparse(self) -> str:
        """The user-visible program text (Prelude not shown, as in the
        reference editor)."""
        return unparse(self.user_ast)

    # -- queries ---------------------------------------------------------------

    @property
    def prelude_modified(self) -> bool:
        """Whether a substitution has rewritten a Prelude literal (only
        possible when ``prelude_frozen=False``).  Such programs carry their
        own combined AST instead of the shared Prelude caches."""
        return self._prelude_modified

    def prelude_overlays(self) -> Dict[Loc, float]:
        """The Prelude literals a substitution rewrote, with their current
        values (empty unless :attr:`prelude_modified`)."""
        if not self._prelude_modified:
            return {}
        baseline = prelude_rho0(self.prelude_frozen)
        return {loc: value for loc, value in self.rho0.items()
                if loc.in_prelude and baseline.get(loc) != value}

    def user_locs(self):
        """Locations of literals in the user program (not the Prelude).

        The list is in parse order, which is stable across re-parses of the
        same source — the coordinate system snapshots use to name literals.
        """
        return list(self._index())

    def user_values(self):
        """Current values of the user literals, in parse order.

        Together with :meth:`user_locs` this gives a serializable picture
        of the program state: ``source`` (text) plus ``user_values()``
        (floats) reconstructs any program reached by substitutions, because
        a substitution never changes the AST shape.

        >>> program = parse_program("(def x 10) (svg [(rect 'red' x 0 5 5)])")
        >>> program.user_values()
        [10.0, 0.0, 5.0, 5.0]
        >>> moved = program.substitute({program.user_locs()[0]: 42.0})
        >>> moved.user_values()
        [42.0, 0.0, 5.0, 5.0]
        """
        return [num.value for num in self._index().values()]

    def range_annotations(self):
        """(loc, lo, hi, current) for every range-annotated literal — the
        built-in sliders of §2.4."""
        sliders = []
        for num in self._index().values():
            if num.range_ann is not None:
                lo, hi = num.range_ann
                sliders.append((num.loc, lo, hi, num.value))
        return sliders


def parse_program(source: str, *, prelude_frozen: bool = True,
                  auto_freeze: bool = False) -> Program:
    """Parse little source (``(def …)* expr``) into a :class:`Program`.

    ``auto_freeze`` freezes every user literal except those thawed with ``?``
    (the alternative mode of Appendix C, "Thawing and Freezing Constants").
    """
    user_ast = parse_top_level(source, auto_freeze=auto_freeze)
    return Program(user_ast, source=source, prelude_frozen=prelude_frozen,
                   auto_freeze=auto_freeze)
