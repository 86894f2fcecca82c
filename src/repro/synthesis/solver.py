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
from ..trace.trace import Trace, eval_trace, is_addition_only, occurrences

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
              trace: Trace) -> Tuple[float, float]:
    """``WalkPlus(ρ, ℓ, t) = (c, s)``: occurrence count of ℓ and the partial
    sum of everything else (Figure 6A)."""
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
    count1, sum1 = walk_plus(rho, loc, trace.args[0])
    count2, sum2 = walk_plus(rho, loc, trace.args[1])
    return (count1 + count2, sum1 + sum2)


def solve_addition_only(rho: Mapping[Loc, float], loc: Loc, target: float,
                        trace: Trace) -> float:
    """``SolveA(ρ, ℓ, n = t) = (n − s)/c`` (Figure 6A)."""
    count, partial_sum = walk_plus(rho, loc, trace)
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
    return _apply_inverses(_compile_single_occurrence(rho, loc, trace),
                           target)


def _compile_single_occurrence(rho: Mapping[Loc, float], loc: Loc,
                               trace: Trace):
    """The descent of SolveB as data: a list of ``(inverse, op, known)``
    steps to apply to the target in order."""
    if occurrences(trace, loc) != 1:
        raise SolverFailure(f"{loc.display()} must occur exactly once")
    steps = []
    node = trace
    while not isinstance(node, Loc):
        if len(node.args) == 1:
            steps.append((_invert_unary, node.op, None))
            node = node.args[0]
        elif len(node.args) == 2:
            left, right = node.args
            if occurrences(left, loc) == 1:
                steps.append((_invert_binary_right, node.op,
                              _eval_known(rho, right)))
                node = left
            else:
                steps.append((_invert_binary_left, node.op,
                              _eval_known(rho, left)))
                node = right
        else:
            raise SolverFailure(f"operator {node.op!r} has no inverse")
    if node != loc:
        raise SolverFailure("descended to the wrong location")
    return steps


def _apply_inverses(steps, target: float) -> float:
    """Solve for the unknown by applying SolveB's steps to ``target``."""
    for invert, op, known in steps:
        target = invert(op, target) if known is None \
            else invert(op, known, target)
    return target


def _eval_known(rho: Mapping[Loc, float], trace: Trace) -> float:
    try:
        return eval_trace(trace, rho)
    except KeyError as exc:
        raise SolverFailure("trace mentions a location with no value "
                            "in rho") from exc
    except LittleRuntimeError as exc:
        raise SolverFailure(f"known subtrace failed to evaluate: {exc}") \
            from exc


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
    descent path through the trace and every known subtrace value are
    functions of ``(ρ, ℓ, t)`` alone.  This hoists all of that to one
    up-front walk, leaving per-sample work of a few arithmetic inverse
    steps (plus the back-substitution check).  Failures that do not
    depend on the target (wrong occurrence count, unknown locations,
    non-invertible operators) are raised per call, verbatim, by the
    returned closure; target-dependent ones (trig range, division by a
    zero target, the verification itself) stay inside it.
    """
    steps = None
    try:
        count, partial = walk_plus(rho, loc, trace)
        if count == 0:
            raise SolverFailure(
                f"{loc.display()} does not occur in the trace")
    except SolverFailure:
        try:
            steps = _compile_single_occurrence(rho, loc, trace)
        except SolverFailure as failure:
            def failing(target: float, _failure=failure) -> float:
                raise _failure
            return failing
    check = dict(rho)

    def solve(target: float) -> float:
        if steps is None:
            solution = (target - partial) / count
        else:
            solution = _apply_inverses(steps, target)
        _verify(check, loc, target, trace, solution)
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
    _verify(probe, loc, target, trace, solution)
    return solution


def _verify(check: dict, loc: Loc, target: float, trace: Trace,
            solution: float) -> None:
    """Substitute ``solution`` back into the trace and check it against the
    target.  ``check`` is a scratch copy of ρ owned by the caller (its
    ``loc`` entry is overwritten)."""
    if not math.isfinite(solution):
        raise SolverFailure(f"non-finite solution {solution}")
    check[loc] = solution
    try:
        value = eval_trace(trace, check)
    except LittleRuntimeError as exc:
        raise SolverFailure(f"solution does not evaluate: {exc}") from exc
    if not math.isclose(value, target, rel_tol=_REL_TOL, abs_tol=_ABS_TOL):
        raise SolverFailure(
            f"solution check failed: got {value}, wanted {target}")
