"""The trace readers against the walks they replaced.

Every reader in ``repro.trace.trace`` and the solver now visits each
distinct node of a trace once, without recursion (one postorder, or one
seen-set walk for the set queries); ``format_trace`` writes the expansion
without recursion.  The walks below are the earlier definitions, which
expand the trace as a tree, several of them recursively.  They are kept as
reference oracles: on small traces with sharing, every query must return
the same value (floats bit for bit) or raise the same exception type, and
``trace_key`` must tell two traces apart exactly when the old key does.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.lang.ast import Loc
from repro.lang.errors import LittleRuntimeError, SolverFailure
from repro.lang.ops import apply_numeric_op
from repro.synthesis.solver import (_REL_TOL, _ABS_TOL, _apply_inverses,
                                    _invert_binary_left,
                                    _invert_binary_right, _invert_unary,
                                    compile_solve_one,
                                    solve_single_occurrence, walk_plus)
from repro.trace import (OpTrace, all_locs, count_loc_occurrences,
                         eval_trace, format_trace, is_addition_only, locs,
                         occurrences, postorder, trace_key, trace_size)

# --------------------------------------------------------------------------
# The replaced walks (reference oracles)
# --------------------------------------------------------------------------


def old_locs(trace):
    found = set()
    stack = [trace]
    while stack:
        node = stack.pop()
        if isinstance(node, Loc):
            if not node.frozen:
                found.add(node)
        else:
            stack.extend(node.args)
    return frozenset(found)


def old_all_locs(trace):
    found = set()
    stack = [trace]
    while stack:
        node = stack.pop()
        if isinstance(node, Loc):
            found.add(node)
        else:
            stack.extend(node.args)
    return frozenset(found)


def old_occurrences(trace, loc):
    count = 0
    stack = [trace]
    while stack:
        node = stack.pop()
        if isinstance(node, Loc):
            if node == loc:
                count += 1
        else:
            stack.extend(node.args)
    return count


def old_count_loc_occurrences(traces):
    counts = {}
    for trace in traces:
        stack = [trace]
        while stack:
            node = stack.pop()
            if isinstance(node, Loc):
                counts[node] = counts.get(node, 0) + 1
            else:
                stack.extend(node.args)
    return counts


def old_trace_size(trace):
    size = 0
    stack = [trace]
    while stack:
        node = stack.pop()
        size += 1
        if isinstance(node, OpTrace):
            stack.extend(node.args)
    return size


def old_is_addition_only(trace):
    stack = [trace]
    while stack:
        node = stack.pop()
        if isinstance(node, OpTrace):
            if node.op != "+":
                return False
            stack.extend(node.args)
    return True


def old_eval_trace(trace, rho):
    if isinstance(trace, Loc):
        return rho[trace]
    args = [old_eval_trace(arg, rho) for arg in trace.args]
    return apply_numeric_op(trace.op, args)


def old_trace_key(trace):
    if isinstance(trace, Loc):
        return ("loc", trace.ident)
    return (trace.op,) + tuple(old_trace_key(arg) for arg in trace.args)


def old_format_trace(trace):
    if isinstance(trace, Loc):
        return trace.display()
    inner = " ".join(old_format_trace(arg) for arg in trace.args)
    return f"({trace.op} {inner})" if inner else f"({trace.op})"


def unshared(trace):
    """A copy of ``trace`` whose operation nodes are all distinct."""
    if isinstance(trace, Loc):
        return trace
    return OpTrace(trace.op, tuple(unshared(arg) for arg in trace.args))


def old_walk_plus(rho, loc, trace):
    if isinstance(trace, Loc):
        if trace == loc:
            return (1.0, 0.0)
        try:
            return (0.0, rho[trace])
        except KeyError as exc:
            raise SolverFailure(f"location {trace.display()} has no value "
                                "in rho") from exc
    if trace.op != "+":
        raise SolverFailure("trace is not addition-only")
    count1, sum1 = old_walk_plus(rho, loc, trace.args[0])
    count2, sum2 = old_walk_plus(rho, loc, trace.args[1])
    return (count1 + count2, sum1 + sum2)


def old_eval_known(rho, trace):
    try:
        return old_eval_trace(trace, rho)
    except KeyError as exc:
        raise SolverFailure("no value in rho") from exc
    except LittleRuntimeError as exc:
        raise SolverFailure(f"known subtrace failed: {exc}") from exc


def old_single_occurrence_steps(rho, loc, trace):
    """SolveB's descent, re-walking the left subtree at every level."""
    if old_occurrences(trace, loc) != 1:
        raise SolverFailure("must occur exactly once")
    steps = []
    node = trace
    while not isinstance(node, Loc):
        if len(node.args) == 1:
            steps.append((_invert_unary, node.op, None))
            node = node.args[0]
        elif len(node.args) == 2:
            left, right = node.args
            if old_occurrences(left, loc) == 1:
                steps.append((_invert_binary_right, node.op,
                              old_eval_known(rho, right)))
                node = left
            else:
                steps.append((_invert_binary_left, node.op,
                              old_eval_known(rho, left)))
                node = right
        else:
            raise SolverFailure("no inverse")
    if node != loc:
        raise SolverFailure("descended to the wrong location")
    return steps


def old_solve_one(rho, loc, trace, target):
    """``compile_solve_one(rho, loc, trace)(target)`` over the old walks."""
    steps = None
    try:
        count, partial = old_walk_plus(rho, loc, trace)
        if count == 0:
            raise SolverFailure("does not occur")
    except SolverFailure:
        steps = old_single_occurrence_steps(rho, loc, trace)
    if steps is None:
        solution = (target - partial) / count
    else:
        solution = _apply_inverses(steps, target)
    if not math.isfinite(solution):
        raise SolverFailure("non-finite solution")
    check = dict(rho)
    check[loc] = solution
    try:
        value = old_eval_trace(trace, check)
    except LittleRuntimeError as exc:
        raise SolverFailure(f"solution does not evaluate: {exc}") from exc
    if not math.isclose(value, target, rel_tol=_REL_TOL, abs_tol=_ABS_TOL):
        raise SolverFailure("solution check failed")
    return solution


# --------------------------------------------------------------------------
# Small traces with sharing
# --------------------------------------------------------------------------

OPS = ("+", "-", "*", "/", "sqrt", "neg")
VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e308])


@st.composite
def shared_traces(draw):
    """``(leaves, roots, rho)``: a random DAG over at most four locations,
    some frozen; every operation draws its arguments from all earlier
    nodes, so subtraces are shared.  ``rho`` may miss some locations."""
    leaves = [Loc(ident, f"l{ident}", frozen=draw(st.booleans()))
              for ident in range(draw(st.integers(1, 4)))]
    nodes = list(leaves)
    for _ in range(draw(st.integers(0, 10))):
        op = draw(st.sampled_from(OPS))
        arity = 1 if op in ("sqrt", "neg") else 2
        nodes.append(OpTrace(op, tuple(draw(st.sampled_from(nodes))
                                       for _ in range(arity))))
    roots = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3))
    rho = {leaf: draw(VALUES) for leaf in leaves
           if draw(st.integers(0, 5))}
    return leaves, roots, rho


def outcome(fn, *args):
    """What ``fn(*args)`` returns (floats by their exact repr) or the type
    of what it raises."""
    try:
        value = fn(*args)
    except Exception as error:
        return ("raise", type(error))
    if isinstance(value, float):
        return ("value", repr(value))
    if isinstance(value, tuple):
        return ("value", tuple(map(repr, value)))
    return ("value", value)


class TestSameResultsAsTheOldWalks:
    @settings(max_examples=300, deadline=None)
    @given(shared_traces())
    def test_set_and_count_queries(self, case):
        leaves, roots, _ = case
        for trace in roots:
            assert locs(trace) == old_locs(trace)
            assert all_locs(trace) == old_all_locs(trace)
            assert is_addition_only(trace) == old_is_addition_only(trace)
            assert trace_size(trace) == old_trace_size(trace)
            for loc in leaves + [Loc(99)]:
                assert occurrences(trace, loc) == old_occurrences(trace, loc)
        assert count_loc_occurrences(roots) == \
            old_count_loc_occurrences(roots)

    @settings(max_examples=300, deadline=None)
    @given(shared_traces())
    def test_keys_and_formatting(self, case):
        _, roots, _ = case
        for trace in roots:
            assert format_trace(trace) == old_format_trace(trace)
            assert trace_key(unshared(trace)) == trace_key(trace)
            for other in roots:
                assert (trace_key(trace) == trace_key(other)) == \
                    (old_trace_key(trace) == old_trace_key(other))

    @settings(max_examples=300, deadline=None)
    @given(shared_traces(), VALUES)
    def test_evaluation_and_solver(self, case, target):
        leaves, roots, rho = case
        for trace in roots:
            assert outcome(eval_trace, trace, rho) == \
                outcome(old_eval_trace, trace, rho)
            for loc in leaves:
                assert outcome(walk_plus, rho, loc, postorder([trace])) == \
                    outcome(old_walk_plus, rho, loc, trace)
                assert outcome(solve_single_occurrence, rho, loc, target,
                               trace) == \
                    outcome(lambda: _apply_inverses(
                        old_single_occurrence_steps(rho, loc, trace),
                        target))
                assert outcome(compile_solve_one(rho, loc, trace), target) \
                    == outcome(old_solve_one, rho, loc, trace, target)


class TestHostileShapes:
    """A trace the old walks expand to 2**60 nodes, and one 30,000 levels
    deep: each reader answers from the distinct nodes."""

    def test_doubling_and_deep_chain(self):
        a = Loc(1, "a")
        k = Loc(2, "k", frozen=True)
        doubled = a
        for _ in range(60):
            doubled = OpTrace("+", (doubled, doubled))
        deep = a
        for _ in range(30000):
            deep = OpTrace("*", (deep, k))
        assert occurrences(doubled, a) == 2 ** 60
        assert trace_size(doubled) == 2 ** 61 - 1
        assert count_loc_occurrences([doubled, deep]) == \
            {a: 2 ** 60 + 1, k: 30000}
        assert locs(deep) == all_locs(doubled) == {a}
        assert is_addition_only(doubled) and not is_addition_only(deep)
        rho = {a: 1.0, k: 1.0}
        assert eval_trace(doubled, rho) == 2.0 ** 60
        assert walk_plus(rho, a, postorder([doubled])) == (2.0 ** 60, 0.0)
        assert compile_solve_one(rho, a, doubled)(2.0 ** 61) == 2.0
        assert compile_solve_one(rho, a, deep)(5.0) == 5.0
        assert len(trace_key(doubled)) == 61
        assert len(trace_key(deep)) == 30002
        assert format_trace(deep) == "(* " * 30000 + "a" + " k)" * 30000
