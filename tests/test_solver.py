"""Tests for SolveA / SolveB / the combined solver (§5.1, Appendix B.2)."""

import math
import traceback

import pytest

from repro.lang.ast import Loc
from repro.lang.errors import SolverFailure
from repro.synthesis import (in_a_fragment, in_b_fragment,
                             in_solver_fragment, solve_addition_only,
                             solve_linear, solve_one,
                             solve_single_occurrence, walk_plus)
from repro.synthesis.solver import compile_solve_one
from repro.trace import OpTrace, eval_trace, postorder


@pytest.fixture
def env():
    a = Loc(1, "a")
    b = Loc(2, "b")
    c = Loc(3, "c")
    rho = {a: 2.0, b: 10.0, c: 4.0}
    return a, b, c, rho


def plus(*traces):
    result = traces[-1]
    for trace in reversed(traces[:-1]):
        result = OpTrace("+", (trace, result))
    return result


class TestWalkPlus:
    def test_single_occurrence(self, env):
        a, b, _, rho = env
        count, total = walk_plus(rho, a, postorder([plus(a, b)]))
        assert (count, total) == (1.0, 10.0)

    def test_multiple_occurrences(self, env):
        a, b, _, rho = env
        count, total = walk_plus(rho, a, postorder([plus(a, a, b)]))
        assert (count, total) == (2.0, 10.0)

    def test_absent_location(self, env):
        a, b, c, rho = env
        count, total = walk_plus(rho, c, postorder([plus(a, b)]))
        assert count == 0.0 and total == 12.0

    def test_non_plus_rejected(self, env):
        a, b, _, rho = env
        with pytest.raises(SolverFailure):
            walk_plus(rho, a, postorder([OpTrace("*", (a, b))]))


class TestSolveA:
    def test_simple(self, env):
        a, b, _, rho = env
        # a + b = 15 with b=10 -> a = 5
        assert solve_addition_only(rho, a, 15.0, plus(a, b)) == 5.0

    def test_repeated_unknown(self, env):
        a, b, _, rho = env
        # a + a + b = 20 -> a = 5
        assert solve_addition_only(rho, a, 20.0, plus(a, a, b)) == 5.0

    def test_unknown_missing_fails(self, env):
        a, b, c, rho = env
        with pytest.raises(SolverFailure):
            solve_addition_only(rho, c, 15.0, plus(a, b))


class TestSolveB:
    def test_leaf(self, env):
        a, _, _, rho = env
        assert solve_single_occurrence(rho, a, 7.0, a) == 7.0

    @pytest.mark.parametrize("op,known_side,target,expected", [
        ("+", "right", 15.0, 5.0),     # x + 10 = 15
        ("+", "left", 15.0, 5.0),      # 10 + x = 15
        ("-", "right", 3.0, 13.0),     # x - 10 = 3
        ("-", "left", 3.0, 7.0),       # 10 - x = 3
        ("*", "right", 30.0, 3.0),     # x * 10 = 30
        ("*", "left", 30.0, 3.0),      # 10 * x = 30
        ("/", "right", 3.0, 30.0),     # x / 10 = 3
        ("/", "left", 2.0, 5.0),       # 10 / x = 2
    ])
    def test_binary_inverses(self, env, op, known_side, target, expected):
        a, b, _, rho = env
        if known_side == "right":
            trace = OpTrace(op, (a, b))
        else:
            trace = OpTrace(op, (b, a))
        assert solve_single_occurrence(rho, a, target, trace) == \
            pytest.approx(expected)

    def test_unary_cos(self, env):
        a, _, _, rho = env
        solution = solve_single_occurrence(rho, a, 0.5, OpTrace("cos", (a,)))
        assert math.cos(solution) == pytest.approx(0.5)

    def test_unary_sin(self, env):
        a, _, _, rho = env
        solution = solve_single_occurrence(rho, a, 0.5, OpTrace("sin", (a,)))
        assert math.sin(solution) == pytest.approx(0.5)

    def test_cos_out_of_range_fails(self, env):
        a, _, _, rho = env
        with pytest.raises(SolverFailure):
            solve_single_occurrence(rho, a, 2.0, OpTrace("cos", (a,)))

    def test_arccos_inverse(self, env):
        a, _, _, rho = env
        solution = solve_single_occurrence(rho, a, 1.0,
                                           OpTrace("arccos", (a,)))
        assert math.acos(solution) == pytest.approx(1.0)

    def test_sqrt_inverse(self, env):
        a, _, _, rho = env
        assert solve_single_occurrence(rho, a, 4.0,
                                       OpTrace("sqrt", (a,))) == 16.0

    def test_sqrt_negative_target_fails(self, env):
        a, _, _, rho = env
        with pytest.raises(SolverFailure):
            solve_single_occurrence(rho, a, -1.0, OpTrace("sqrt", (a,)))

    def test_neg_inverse(self, env):
        a, _, _, rho = env
        assert solve_single_occurrence(rho, a, 4.0,
                                       OpTrace("neg", (a,))) == -4.0

    def test_pow_base(self, env):
        a, b, _, rho = env
        rho = {**rho, b: 2.0}
        assert solve_single_occurrence(rho, a, 9.0,
                                       OpTrace("pow", (a, b))) == \
            pytest.approx(3.0)

    def test_pow_exponent(self, env):
        a, b, _, rho = env
        # 10 ** x = 1000
        assert solve_single_occurrence(rho, a, 1000.0,
                                       OpTrace("pow", (b, a))) == \
            pytest.approx(3.0)

    def test_floor_has_no_inverse(self, env):
        a, _, _, rho = env
        with pytest.raises(SolverFailure):
            solve_single_occurrence(rho, a, 4.0, OpTrace("floor", (a,)))

    def test_mod_has_no_inverse(self, env):
        a, b, _, rho = env
        with pytest.raises(SolverFailure):
            solve_single_occurrence(rho, a, 1.0, OpTrace("mod", (a, b)))

    def test_multi_occurrence_rejected(self, env):
        a, b, _, rho = env
        with pytest.raises(SolverFailure):
            solve_single_occurrence(rho, a, 1.0, plus(a, a, b))

    def test_division_by_zero_known_side_fails(self, env):
        a, b, _, rho = env
        rho = {**rho, b: 0.0}
        with pytest.raises(SolverFailure):
            solve_single_occurrence(rho, a, 5.0, OpTrace("*", (a, b)))

    def test_deep_nesting(self, env):
        a, b, c, rho = env
        # ((a * b) - c) / 2-ish chain: ((x*10)-4) = 26 -> x = 3
        trace = OpTrace("-", (OpTrace("*", (a, b)), c))
        assert solve_single_occurrence(rho, a, 26.0, trace) == \
            pytest.approx(3.0)


class TestCombinedSolver:
    def test_paper_example_x0(self, env):
        # 155 = x0 + ((1 + (1 + 0)) * sep): solve for x0 with sep=30.
        x0 = Loc(10, "x0")
        sep = Loc(11, "sep")
        l0 = Loc(12, "l0")
        l1 = Loc(13, "l1")
        rho = {x0: 50.0, sep: 30.0, l0: 0.0, l1: 1.0}
        index = OpTrace("+", (l1, OpTrace("+", (l1, l0))))
        trace = OpTrace("+", (x0, OpTrace("*", (index, sep))))
        assert solve_one(rho, x0, 155.0, trace) == pytest.approx(95.0)
        assert solve_one(rho, sep, 155.0, trace) == pytest.approx(52.5)
        assert solve_one(rho, l0, 155.0, trace) == pytest.approx(1.5)

    def test_paper_example_l1_needs_linear(self, env):
        # l1 occurs twice in a non-addition-only trace: the paper's solver
        # fails, but the Fig-1D linear extension finds 1.75.
        x0, sep = Loc(10, "x0"), Loc(11, "sep")
        l0, l1 = Loc(12, "l0"), Loc(13, "l1")
        rho = {x0: 50.0, sep: 30.0, l0: 0.0, l1: 1.0}
        index = OpTrace("+", (l1, OpTrace("+", (l1, l0))))
        trace = OpTrace("+", (x0, OpTrace("*", (index, sep))))
        with pytest.raises(SolverFailure):
            solve_one(rho, l1, 155.0, trace)
        assert solve_linear(rho, l1, 155.0, trace) == pytest.approx(1.75)

    def test_unsolvable_sep_when_multiplied_by_zero(self, env):
        # Appendix B.2: no solution for
        # SolveOne(rho, sep, 155 = (+ x0 (* l0 sep))) when l0 = 0.
        x0, sep, l0 = Loc(10, "x0"), Loc(11, "sep"), Loc(12, "l0")
        rho = {x0: 50.0, sep: 30.0, l0: 0.0}
        trace = OpTrace("+", (x0, OpTrace("*", (l0, sep))))
        with pytest.raises(SolverFailure):
            solve_one(rho, sep, 155.0, trace)

    def test_verification_catches_branch_mismatch(self, env):
        a, _, _, rho = env
        # sin(x) = 1 at x = pi/2; plug-back verification accepts it.
        assert solve_one(rho, a, 1.0, OpTrace("sin", (a,))) == \
            pytest.approx(math.pi / 2)

    def test_failing_calls_do_not_grow_the_traceback(self, env):
        # x occurs twice under *: outside both fragments, so the staged
        # solver fails on every call.  Re-raising one stored exception
        # would prepend each call's frames to its traceback and keep them.
        a, _, _, rho = env
        solve = compile_solve_one(rho, a, OpTrace("*", (a, a)))
        lengths = set()
        for _ in range(5):
            with pytest.raises(SolverFailure) as failure:
                solve(9.0)
            lengths.add(len(traceback.extract_tb(failure.tb)))
        assert len(lengths) == 1

    def test_solve_one_tries_a_then_b(self, env):
        a, b, _, rho = env
        # a+a+b is in the A fragment but not B.
        assert solve_one(rho, a, 20.0, plus(a, a, b)) == 5.0
        # (a*b) is in the B fragment but not A.
        assert solve_one(rho, a, 40.0, OpTrace("*", (a, b))) == 4.0


class TestSolveLinear:
    def test_rejects_nonlinear(self, env):
        a, _, _, rho = env
        with pytest.raises(SolverFailure):
            solve_linear(rho, a, 9.0, OpTrace("*", (a, a)))

    def test_rejects_constant(self, env):
        a, b, _, rho = env
        with pytest.raises(SolverFailure):
            solve_linear(rho, a, 9.0, OpTrace("*", (b, Loc(99, "z"))))

    def test_multi_occurrence_linear(self, env):
        a, b, _, rho = env
        # a*10 + a = 33 -> a = 3
        trace = plus(OpTrace("*", (a, b)), a)
        assert solve_linear(rho, a, 33.0, trace) == pytest.approx(3.0)


class TestFragments:
    def test_a_fragment(self, env):
        a, b, _, _ = env
        assert in_a_fragment(plus(a, a, b), a)
        assert not in_a_fragment(OpTrace("*", (a, b)), a)
        assert not in_a_fragment(plus(b, b), a)

    def test_b_fragment(self, env):
        a, b, _, _ = env
        assert in_b_fragment(OpTrace("*", (a, b)), a)
        assert not in_b_fragment(plus(a, a), a)

    def test_combined_fragment(self, env):
        a, b, _, _ = env
        assert in_solver_fragment(plus(a, a), a)          # A only
        assert in_solver_fragment(OpTrace("*", (a, b)), a)  # B only
        assert not in_solver_fragment(
            OpTrace("*", (a, OpTrace("*", (a, b)))), a)   # neither


class TestSolutionsSatisfyEquations:
    @pytest.mark.parametrize("target", [-100.0, -1.0, 0.0, 2.5, 1000.0])
    def test_plug_back(self, env, target):
        a, b, c, rho = env
        trace = OpTrace("-", (OpTrace("*", (a, b)), c))
        try:
            solution = solve_one(rho, a, target, trace)
        except SolverFailure:
            return
        check = dict(rho)
        check[a] = solution
        assert eval_trace(trace, check) == pytest.approx(target)
