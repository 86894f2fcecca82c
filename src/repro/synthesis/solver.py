"""Value-trace equation solvers (paper §5.1 and Appendix B.2, Figure 6).

Three design principles (Appendix B.2):

  (I)   solve only one equation at a time;
  (II)  solve only univariate equations;
  (III) solve equations only in simple, stylized forms.

``SolveA`` handles *addition-only* equations (the only operator is ``+``) by
counting occurrences of the unknown and dividing the residual.  ``SolveB``
handles *single-occurrence* equations top-down using inverses of primitive
operations.  ``solve_one`` tries A then B, exactly as Figure 6's overall
solver.  "In practice, SolveB subsumes SolveA on virtually all equations
encountered in our examples."  It is :func:`compile_solve_one`, the form
a drag trigger stages once per ``(ρ, ℓ, t)``, applied to one target, so
the statistics measure the same code the live drag runs.

``solve_linear`` is a strictly-more-general helper used by the Figure 1D
enumeration, where the paper exhibits candidate updates (ρ4 = [ℓ1 → 1.75])
whose traces are linear but multi-occurrence and not addition-only.  It is
*not* used by the live-synchronization pipeline or the §5.2.2 statistics,
which measure the paper's own solver.
"""

from __future__ import annotations

import math
from typing import Mapping, Tuple

from ..lang.ast import Loc
from ..lang.errors import LittleRuntimeError, SolverFailure
from ..lang.ops import apply_numeric_op
from ..trace.trace import (Trace, eval_trace, is_addition_only, occurrences,
                           postorder)

_REL_TOL = 1e-9
_ABS_TOL = 1e-6


# ---------------------------------------------------------------------------
# Fragment classification (§5.2.2)
# ---------------------------------------------------------------------------

def in_a_fragment(trace: Trace, loc: Loc) -> bool:
    """Equation lies in SolveA's addition-only fragment."""
    return is_addition_only(trace) and occurrences(trace, loc) >= 1


def in_b_fragment(trace: Trace, loc: Loc) -> bool:
    """Equation lies in SolveB's single-occurrence fragment."""
    return occurrences(trace, loc) == 1


def in_solver_fragment(trace: Trace, loc: Loc) -> bool:
    """Inside the syntactic fragment handled by the combined solver;
    equations outside it "are guaranteed not to be solvable" (§5.2.2)."""
    return in_a_fragment(trace, loc) or in_b_fragment(trace, loc)


# ---------------------------------------------------------------------------
# SolveA: addition-only equations
# ---------------------------------------------------------------------------

def walk_plus(rho: Mapping[Loc, float], loc: Loc,
              order) -> Tuple[float, float]:
    """``WalkPlus(ρ, ℓ, t) = (c, s)``: occurrence count of ℓ and the partial
    sum of everything else (Figure 6A), from the :func:`postorder` of t."""
    count, known, cone, additions = _split(rho, loc, order)
    if not additions:
        raise SolverFailure("trace is not addition-only")
    if not cone:
        return 0.0, known[id(order[-1])]
    return float(count), _reevaluate(known, cone, 0.0)


def _split(rho: Mapping[Loc, float], loc: Loc, order):
    """Split a trace's :func:`postorder` at ℓ: how many times ℓ occurs in
    the trace, the value of each node without ℓ by ``id``, the *cone* (the
    nodes with ℓ, in postorder) and whether ``+`` is the only operator."""
    counts, known, cone, additions = {}, {}, [], True
    try:
        for node in order:
            if type(node) is Loc:
                if node.ident != loc.ident:   # ``node != loc``, inlined
                    known[id(node)] = rho[node]
                    continue
                count = 1
            else:
                additions = additions and node.op == "+"
                count = 0
                for arg in node.args:
                    count += counts.get(id(arg), 0)
                if not count:
                    known[id(node)] = apply_numeric_op(
                        node.op, [known[id(arg)] for arg in node.args])
                    continue
            counts[id(node)] = count
            cone.append(node)
    except (KeyError, LittleRuntimeError) as exc:
        raise SolverFailure(f"known subtrace failed to evaluate: {exc!r}") \
            from exc
    return counts.get(id(order[-1]), 0), known, cone, additions


def _reevaluate(values: dict, cone, x: float) -> float:
    """The trace's value with ``x`` for ℓ: evaluates the cone into
    ``values``, which holds the value of every other node."""
    for node in cone:
        values[id(node)] = x if type(node) is Loc else apply_numeric_op(
            node.op, [values[id(arg)] for arg in node.args])
    return values[id(cone[-1])]


def solve_addition_only(rho: Mapping[Loc, float], loc: Loc, target: float,
                        trace: Trace) -> float:
    """``SolveA(ρ, ℓ, n = t) = (n − s)/c`` (Figure 6A)."""
    count, partial_sum = walk_plus(rho, loc, postorder((trace,)))
    if count == 0:
        raise SolverFailure(f"{loc.display()} does not occur in the trace")
    return (target - partial_sum) / count


# ---------------------------------------------------------------------------
# SolveB: single-occurrence equations via inverse operations
# ---------------------------------------------------------------------------

def solve_single_occurrence(rho: Mapping[Loc, float], loc: Loc,
                            target: float, trace: Trace) -> float:
    """``SolveB`` (Figure 6B): peel operators off the trace, applying
    inverse operations, until the unknown location remains."""
    order = postorder((trace,))
    count, known, _, _ = _split(rho, loc, order)
    return _apply_inverses(
        _compile_single_occurrence(loc, order[-1], count, known), target)


def _compile_single_occurrence(loc: Loc, node, count: int, known):
    """The descent of SolveB from the root ``node``, in which ℓ occurs
    ``count`` times, as data: a list of ``(inverse, op, known)`` steps to
    apply to the target in order."""
    if count != 1:
        raise SolverFailure(f"{loc.display()} must occur exactly once")
    steps = []
    while type(node) is not Loc:
        if len(node.args) == 1:
            steps.append((_invert_unary, node.op, None))
            node = node.args[0]
        elif len(node.args) == 2:
            left, right = node.args
            if id(right) in known:
                steps.append((_invert_binary_right, node.op, known[id(right)]))
                node = left
            else:
                steps.append((_invert_binary_left, node.op, known[id(left)]))
                node = right
        else:
            raise SolverFailure(f"operator {node.op!r} has no inverse")
    return steps


def _apply_inverses(steps, target: float) -> float:
    """Solve for the unknown by applying SolveB's steps to ``target``."""
    for invert, op, known in steps:
        target = invert(op, target) if known is None \
            else invert(op, known, target)
    return target


def _invert_unary(op: str, n: float) -> float:
    """``Inv(op)(n)`` (Figure 6): solve ``n = (op x)`` for x."""
    if op == "cos":
        if not -1.0 <= n <= 1.0:
            raise SolverFailure("cos equation has no solution "
                                "(target outside [-1, 1])")
        return math.acos(n)
    if op == "sin":
        if not -1.0 <= n <= 1.0:
            raise SolverFailure("sin equation has no solution "
                                "(target outside [-1, 1])")
        return math.asin(n)
    if op == "arccos":
        return math.cos(n)
    if op == "arcsin":
        return math.sin(n)
    if op == "sqrt":
        if n < 0:
            raise SolverFailure("sqrt result cannot be negative")
        return n * n
    if op == "neg":
        return -n
    raise SolverFailure(f"operator {op!r} has no inverse")


def _invert_binary_right(op: str, n2: float, n: float) -> float:
    """``InvR(op, n2)(n)``: solve ``n = (op x n2)`` for x."""
    if op == "+":
        return n - n2
    if op == "-":
        return n + n2
    if op == "*":
        if n2 == 0:
            raise SolverFailure("cannot divide by zero (x * 0 = n)")
        return n / n2
    if op == "/":
        return n * n2
    if op == "pow":
        return _inverse_pow_base(n, n2)
    raise SolverFailure(f"operator {op!r} has no inverse")


def _invert_binary_left(op: str, n1: float, n: float) -> float:
    """``InvL(op, n1)(n)``: solve ``n = (op n1 x)`` for x."""
    if op == "+":
        return n - n1
    if op == "-":
        return n1 - n
    if op == "*":
        if n1 == 0:
            raise SolverFailure("cannot divide by zero (0 * x = n)")
        return n / n1
    if op == "/":
        if n == 0:
            raise SolverFailure("cannot solve n1 / x = 0")
        return n1 / n
    if op == "pow":
        return _inverse_pow_exponent(n, n1)
    raise SolverFailure(f"operator {op!r} has no inverse")


def _inverse_pow_base(n: float, exponent: float) -> float:
    """Solve ``x ** exponent = n`` for x."""
    if exponent == 0:
        raise SolverFailure("x ** 0 is constant")
    if n > 0:
        return n ** (1.0 / exponent)
    if n == 0:
        if exponent > 0:
            return 0.0
        raise SolverFailure("0 target with non-positive exponent")
    if exponent == int(exponent) and int(exponent) % 2 == 1:
        return -((-n) ** (1.0 / exponent))
    raise SolverFailure("negative target with even/non-integer exponent")


def _inverse_pow_exponent(n: float, base: float) -> float:
    """Solve ``base ** x = n`` for x."""
    if base <= 0 or base == 1 or n <= 0:
        raise SolverFailure("logarithm undefined for these values")
    return math.log(n) / math.log(base)


# ---------------------------------------------------------------------------
# Combined solver (Figure 6O)
# ---------------------------------------------------------------------------

def solve_one(rho: Mapping[Loc, float], loc: Loc, target: float,
              trace: Trace) -> float:
    """``Solve(ρ, ℓ, n = t)``: SolveA, falling back to SolveB.

    The solution is substituted back into the trace and checked against
    the target — guarding against inverse-branch mismatches (e.g. arccos
    picking the wrong branch).
    """
    return compile_solve_one(rho, loc, trace)(target)


def compile_solve_one(rho: Mapping[Loc, float], loc: Loc, trace: Trace):
    """Specialize :func:`solve_one` for a fixed ``(ρ, ℓ, t)``: returns a
    ``target → solution`` closure.

    During a drag, a trigger solves the *same* equation once per mouse
    sample with only the target changing; the occurrence counts, the
    descent path through the trace and the value of every node without ℓ
    are functions of ``(ρ, ℓ, t)`` alone.  This hoists all of that to one
    pass over the trace's postorder, leaving per-sample work of a few
    arithmetic inverse steps, plus the back-substitution check, which
    re-evaluates only the nodes with ℓ.  Failures that do not
    depend on the target (wrong occurrence count, unknown locations,
    non-invertible operators) are raised per call, verbatim, by the
    returned closure; target-dependent ones (trig range, division by a
    zero target, the verification itself) stay inside it.
    """
    order = postorder((trace,))
    try:
        count, values, cone, additions = _split(rho, loc, order)
        if cone and additions:
            # SolveA, with walk_plus's (c, s) read off the split
            count, steps = float(count), None
            partial = _reevaluate(values, cone, 0.0)
        else:
            steps = _compile_single_occurrence(loc, order[-1], count, values)
    except SolverFailure as failure:
        # A fresh exception per call: re-raising one instance would grow
        # its traceback, and keep every caller's frame alive, call by call.
        message = str(failure)

        def failing(target: float) -> float:
            raise SolverFailure(message)
        return failing

    def solve(target: float) -> float:
        if steps is None:
            solution = (target - partial) / count
        else:
            solution = _apply_inverses(steps, target)
        _verify(values, cone, target, solution)
        return solution

    return solve


def solve_linear(rho: Mapping[Loc, float], loc: Loc, target: float,
                 trace: Trace) -> float:
    """Solve equations whose trace is *linear* in ℓ, regardless of
    occurrence count — used only by the candidate-enumeration experiment
    (Figure 1D); see the module docstring."""
    if occurrences(trace, loc) == 0:
        raise SolverFailure(f"{loc.display()} does not occur in the trace")
    probe = dict(rho)

    def evaluate_at(x: float) -> float:
        probe[loc] = x
        try:
            return eval_trace(trace, probe)
        except LittleRuntimeError as exc:
            raise SolverFailure(f"trace not defined at probe point: {exc}") \
                from exc

    f0 = evaluate_at(0.0)
    f1 = evaluate_at(1.0)
    f2 = evaluate_at(2.0)
    slope = f1 - f0
    if not math.isclose(f2 - f1, slope, rel_tol=1e-9, abs_tol=1e-9):
        raise SolverFailure("trace is not linear in the unknown")
    if slope == 0:
        raise SolverFailure("trace does not depend on the unknown")
    solution = (target - f0) / slope
    if not math.isfinite(solution):
        raise SolverFailure(f"non-finite solution {solution}")
    _check(evaluate_at(solution), target)
    return solution


def _verify(values: dict, cone, target: float, solution: float) -> None:
    """Substitute ``solution`` for ℓ, re-evaluate the cone and check the
    trace against the target."""
    if not math.isfinite(solution):
        raise SolverFailure(f"non-finite solution {solution}")
    try:
        value = _reevaluate(values, cone, solution)
    except LittleRuntimeError as exc:
        raise SolverFailure(f"solution does not evaluate: {exc}") from exc
    _check(value, target)


def _check(value: float, target: float) -> None:
    """The back-substitution check: the solution reproduces the target."""
    if not math.isclose(value, target, rel_tol=_REL_TOL, abs_tol=_ABS_TOL):
        raise SolverFailure(
            f"solution check failed: got {value}, wanted {target}")
