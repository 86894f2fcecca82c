"""Run-time traces (paper §2.1 and Figure 2).

``t ::= ℓ | (op t1 … tm)``

A trace leaf is a :class:`~repro.lang.ast.Loc` object itself; compound traces
are :class:`OpTrace` nodes built by the evaluator's E-OP-NUM rule.  Traces
record *data flow but not control flow* (§2.1, "Dataflow-Only Traces").

A value the program reuses shares its trace, so a trace is a DAG: its full
expansion can be exponentially larger than its distinct nodes, and a loop
makes it as deep as its step count.  No reader here recurses, and every one
visits each distinct node once — through :func:`postorder`, or the seen-set
walk of the set queries — except :func:`format_trace`, whose result is the
expansion itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple, Union

from ..lang.ast import Loc
from ..lang.ops import apply_numeric_op


@dataclass(frozen=True, slots=True)
class OpTrace:
    op: str
    args: Tuple["Trace", ...]


Trace = Union[Loc, OpTrace]


def postorder(roots: Sequence[Trace]) -> List[Trace]:
    """The distinct nodes of ``roots`` (by identity), each after its
    arguments, arguments left to right: the order in which evaluating the
    fully expanded traces first reaches each node."""
    order: List[Trace] = []
    seen = set()
    for root in roots:
        if id(root) in seen:
            continue
        seen.add(id(root))
        if type(root) is Loc:
            order.append(root)
            continue
        stack = [(root, iter(root.args))]
        while stack:
            node, args = stack[-1]
            for arg in args:
                if id(arg) not in seen:
                    seen.add(id(arg))
                    if type(arg) is not Loc:
                        stack.append((arg, iter(arg.args)))
                        break
                    order.append(arg)
            else:
                order.append(stack.pop()[0])
    return order


def eval_trace(trace: Trace, rho) -> float:
    """``ρt``: evaluate a trace under a substitution giving every location a
    value.  Raises ``KeyError`` for unmapped locations and
    :class:`~repro.lang.errors.LittleRuntimeError` on domain errors, the
    first that evaluating the expanded trace would meet."""
    values: Dict[int, float] = {}
    for node in postorder((trace,)):
        values[id(node)] = rho[node] if type(node) is Loc else \
            apply_numeric_op(node.op, [values[id(arg)] for arg in node.args])
    return values[id(trace)]


def _locations(roots: Sequence[Trace], frozen: bool) -> FrozenSet[Loc]:
    """The locations in ``roots``, frozen ones too if ``frozen``.  Keeping
    no order, this walk is cheaper than a :func:`postorder`."""
    found = set()
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if type(node) is Loc:
            if frozen or not node.frozen:
                found.add(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.args)
    return frozenset(found)


def locs(trace: Trace) -> FrozenSet[Loc]:
    """``Locs(t)``: the non-frozen locations appearing in ``trace`` (§4.1).

    Frozen constants (``!`` annotations and Prelude literals) are excluded —
    the synthesizer never changes them (§2.2).
    """
    return _locations((trace,), False)


def all_locs(*traces: Trace) -> FrozenSet[Loc]:
    """All locations in ``traces``, frozen or not."""
    return _locations(traces, True)


def is_addition_only(trace: Trace) -> bool:
    """True when the only operator in ``trace`` is ``+`` — the syntactic
    fragment of SolveA (Appendix B.2)."""
    return all(type(node) is Loc or node.op == "+"
               for node in postorder((trace,)))


def _expanded(roots: Sequence[Trace]) -> Tuple[Dict[Loc, int], int]:
    """How many times each location occurs in the fully expanded ``roots``,
    and how many operation nodes they expand to: the count of paths from
    the roots to each node, pushed down the reversed :func:`postorder`."""
    order = postorder(roots)
    paths = dict.fromkeys(map(id, order), 0)
    for root in roots:
        paths[id(root)] += 1
    counts: Dict[Loc, int] = {}
    operations = 0
    for node in reversed(order):
        count = paths[id(node)]
        if type(node) is Loc:
            counts[node] = counts.get(node, 0) + count
        else:
            operations += count
            for arg in node.args:
                paths[id(arg)] += count
    return counts, operations


def occurrences(trace: Trace, loc: Loc) -> int:
    """How many times ``loc`` occurs in ``trace`` (counting repeats)."""
    return _expanded((trace,))[0].get(loc, 0)


def count_loc_occurrences(traces: Sequence[Trace]) -> Dict[Loc, int]:
    """Occurrence counts of every location across ``traces`` — the
    ``Count(ℓ)`` of the biased heuristic (Appendix B.1)."""
    return _expanded(traces)[0]


def trace_size(trace: Trace) -> int:
    """Number of tree nodes — the "Mean Trace Size" statistic of Appendix G."""
    counts, operations = _expanded((trace,))
    return operations + sum(counts.values())


def trace_key(trace: Trace) -> Tuple:
    """A hashable structural key, used to deduplicate pre-equations (§5.2.2:
    "we filter out tuples that are identical modulo v and ζ").

    Two keys are equal exactly when the fully expanded traces are.  A key
    lists each distinct subtree structure once, in the order the expanded
    postorder first meets it, ending with the root's: a location as
    ``("loc", ident)``, an operation as its name followed by the positions
    of its arguments' entries."""
    positions: Dict[Tuple, int] = {}        # entry -> position, in order
    position_of: Dict[int, int] = {}        # node id -> its entry's
    for node in postorder((trace,)):
        if type(node) is Loc:
            entry = ("loc", node.ident)
        else:
            entry = (node.op,) + tuple(position_of[id(arg)]
                                       for arg in node.args)
        position_of[id(node)] = positions.setdefault(entry, len(positions))
    return tuple(positions)


def format_trace(trace: Trace) -> str:
    """Render a trace in the paper's prefix notation, e.g.
    ``(+ x0 (* i sep))``: the expansion, written without recursion."""
    parts: List[str] = []
    stack: List = [trace]
    while stack:
        node = stack.pop()
        if type(node) is str:
            parts.append(node)
        elif isinstance(node, Loc):
            parts.append(node.display())
        else:
            parts.append(f"({node.op}")
            stack.append(")")
            for arg in reversed(node.args):
                stack.append(arg)
                stack.append(" ")
    return "".join(parts)
