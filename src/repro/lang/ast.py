"""Abstract syntax for the ``little`` language (paper Figure 2 + Appendix A).

Expressions are plain immutable-by-convention dataclasses.  The one deliberate
exception is :class:`Loc`: the canonical-naming pass (paper §2.1) assigns a
variable name to a location *after* parsing, so ``Loc`` exposes a mutable
``name`` field while identity (equality and hashing) is by integer id only.

Every numeric literal carries:

* a location ``loc`` — the ℓ of the paper, inserted by the parser,
* an annotation ``ann`` — ``""`` (none), ``"!"`` (frozen) or ``"?"`` (thawed),
* an optional ``range_ann`` — the ``{lo-hi}`` slider range of §2.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union


class Loc:
    """A source-code location ℓ identifying one numeric literal.

    Identity is the integer ``ident``; ``name`` is the canonical display name
    ("when a number n is immediately bound to a variable x, we choose the
    canonical name x for the location", §2.1).  ``frozen`` marks literals the
    synthesizer must not change; ``in_prelude`` marks Prelude literals, which
    are frozen by default (§2.2).
    """

    __slots__ = ("ident", "name", "frozen", "in_prelude")

    def __init__(self, ident: int, name: Optional[str] = None,
                 frozen: bool = False, in_prelude: bool = False):
        self.ident = ident
        self.name = name
        self.frozen = frozen
        self.in_prelude = in_prelude

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Loc) and self.ident == other.ident

    def __hash__(self) -> int:
        return hash(self.ident)

    def __repr__(self) -> str:
        label = self.name if self.name is not None else f"`{self.ident}"
        flags = "!" if self.frozen else ""
        return f"Loc({label}{flags})"

    def display(self) -> str:
        """Human-readable name used in captions and reports."""
        return self.name if self.name is not None else f"loc{self.ident}"


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class PNum:
    value: float


@dataclass(frozen=True)
class PStr:
    value: str


@dataclass(frozen=True)
class PBool:
    value: bool


@dataclass(frozen=True)
class PNil:
    pass


@dataclass(frozen=True)
class PCons:
    head: "Pattern"
    tail: "Pattern"


Pattern = Union[PVar, PNum, PStr, PBool, PNil, PCons]


def plist(elements, tail: Pattern = PNil()) -> Pattern:
    """Build the cons-pattern for ``[p1 ... pm | tail]``."""
    pat = tail
    for element in reversed(list(elements)):
        pat = PCons(element, pat)
    return pat


def pattern_vars(pat: Pattern) -> list:
    """All variable names bound by ``pat``, left to right."""
    if isinstance(pat, PVar):
        return [pat.name]
    if isinstance(pat, PCons):
        return pattern_vars(pat.head) + pattern_vars(pat.tail)
    return []


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class ENum:
    value: float
    loc: Loc
    ann: str = ""                       # "", "!" or "?"
    range_ann: Optional[Tuple[float, float]] = None


@dataclass
class EStr:
    value: str


@dataclass
class EBool:
    value: bool


@dataclass
class ENil:
    pass


@dataclass
class ECons:
    head: "Expr"
    tail: "Expr"


@dataclass
class EVar:
    name: str


@dataclass
class ELambda:
    pattern: Pattern
    body: "Expr"


@dataclass
class EApp:
    fn: "Expr"
    arg: "Expr"


@dataclass
class EOp:
    op: str
    args: Tuple["Expr", ...]


@dataclass
class ELet:
    pattern: Pattern
    bound: "Expr"
    body: "Expr"
    rec: bool = False
    from_def: bool = False              # remembers (def ...) sugar for unparsing


@dataclass
class ECase:
    scrutinee: "Expr"
    branches: Tuple[Tuple[Pattern, "Expr"], ...]
    from_if: bool = False               # remembers (if ...) sugar for unparsing


Expr = Union[ENum, EStr, EBool, ENil, ECons, EVar, ELambda, EApp, EOp,
             ELet, ECase]


def elist(elements, tail: Expr = None) -> Expr:
    """Build the cons-expression for ``[e1 ... em | tail]``."""
    expr = ENil() if tail is None else tail
    for element in reversed(list(elements)):
        expr = ECons(element, expr)
    return expr


# ---------------------------------------------------------------------------
# Primitive operators (paper Figure 2)
# ---------------------------------------------------------------------------

OPS0 = frozenset({"pi"})
OPS1 = frozenset({
    "not", "cos", "sin", "arccos", "arcsin", "round", "floor", "ceiling",
    "sqrt", "abs", "neg", "toString",
})
OPS2 = frozenset({
    "+", "-", "*", "/", "<", ">", "<=", ">=", "=", "mod", "pow",
})

OP_ARITY = {op: 0 for op in OPS0}
OP_ARITY.update({op: 1 for op in OPS1})
OP_ARITY.update({op: 2 for op in OPS2})

ALL_OPS = frozenset(OP_ARITY)

#: Operators whose (numeric) results carry expression traces.  Comparison
#: operators produce booleans, which are traceless (§2.1, "dataflow-only").
NUMERIC_OPS = ALL_OPS - {"not", "<", ">", "<=", ">=", "=", "toString"}


# ---------------------------------------------------------------------------
# Generic traversals
# ---------------------------------------------------------------------------

def iter_numbers(expr: Expr):
    """Yield every :class:`ENum` in ``expr`` in parse order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ENum):
            yield node
        elif isinstance(node, ECons):
            stack.append(node.tail)
            stack.append(node.head)
        elif isinstance(node, ELambda):
            stack.append(node.body)
        elif isinstance(node, EApp):
            stack.append(node.arg)
            stack.append(node.fn)
        elif isinstance(node, EOp):
            stack.extend(reversed(node.args))
        elif isinstance(node, ELet):
            stack.append(node.body)
            stack.append(node.bound)
        elif isinstance(node, ECase):
            for _, branch in reversed(node.branches):
                stack.append(branch)
            stack.append(node.scrutinee)


def substitute(expr: Expr, rho) -> Expr:
    """Apply a substitution ρ (mapping :class:`Loc` → number) to ``expr``.

    Returns a new expression; subtrees without substituted literals are
    shared with the input.  This is the "apply ρ to the original program"
    step of §2.2 — locations, annotations and structure are preserved so the
    result stays manipulable.
    """
    if isinstance(expr, ENum):
        if expr.loc in rho:
            new_value = rho[expr.loc]
            if new_value != expr.value:
                return ENum(new_value, expr.loc, expr.ann, expr.range_ann)
        return expr
    if isinstance(expr, ECons):
        head = substitute(expr.head, rho)
        tail = substitute(expr.tail, rho)
        if head is expr.head and tail is expr.tail:
            return expr
        return ECons(head, tail)
    if isinstance(expr, ELambda):
        body = substitute(expr.body, rho)
        return expr if body is expr.body else ELambda(expr.pattern, body)
    if isinstance(expr, EApp):
        fn = substitute(expr.fn, rho)
        arg = substitute(expr.arg, rho)
        if fn is expr.fn and arg is expr.arg:
            return expr
        return EApp(fn, arg)
    if isinstance(expr, EOp):
        args = tuple(substitute(a, rho) for a in expr.args)
        if all(new is old for new, old in zip(args, expr.args)):
            return expr
        return EOp(expr.op, args)
    if isinstance(expr, ELet):
        bound = substitute(expr.bound, rho)
        body = substitute(expr.body, rho)
        if bound is expr.bound and body is expr.body:
            return expr
        return ELet(expr.pattern, bound, body, expr.rec, expr.from_def)
    if isinstance(expr, ECase):
        scrutinee = substitute(expr.scrutinee, rho)
        branches = tuple((pat, substitute(branch, rho))
                         for pat, branch in expr.branches)
        if scrutinee is expr.scrutinee and all(
                new[1] is old[1] for new, old in zip(branches, expr.branches)):
            return expr
        return ECase(scrutinee, branches, expr.from_if)
    return expr
