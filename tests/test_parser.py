"""Unit tests for the little parser and desugaring."""

import pytest

from repro.lang import (ECase, ECons, ELambda, ELet, ENil, ENum, EOp, EStr,
                        EVar, EApp, EBool, PBool, PCons, PNil, PNum, PVar,
                        parse_expr, parse_top_level)
from repro.lang.errors import LittleSyntaxError
from repro.lang.parser import (MAX_NESTING, collect_rho0,
                               parse_definition_sequence)


class TestAtoms:
    def test_number(self):
        expr = parse_expr("42")
        assert isinstance(expr, ENum) and expr.value == 42.0

    def test_number_has_fresh_location(self):
        a = parse_expr("1")
        b = parse_expr("1")
        assert a.loc != b.loc

    def test_frozen_number(self):
        assert parse_expr("3!").loc.frozen

    def test_unfrozen_by_default(self):
        assert not parse_expr("3").loc.frozen

    def test_range_annotation(self):
        assert parse_expr("12{3-30}").range_ann == (3.0, 30.0)

    def test_string(self):
        expr = parse_expr("'rect'")
        assert isinstance(expr, EStr) and expr.value == "rect"

    def test_true(self):
        expr = parse_expr("true")
        assert isinstance(expr, EBool) and expr.value is True

    def test_false(self):
        expr = parse_expr("false")
        assert isinstance(expr, EBool) and expr.value is False

    def test_variable(self):
        expr = parse_expr("x0")
        assert isinstance(expr, EVar) and expr.name == "x0"


class TestLists:
    def test_empty(self):
        assert isinstance(parse_expr("[]"), ENil)

    def test_singleton(self):
        expr = parse_expr("[1]")
        assert isinstance(expr, ECons)
        assert isinstance(expr.tail, ENil)

    def test_multi_element(self):
        expr = parse_expr("[1 2 3]")
        values = []
        while isinstance(expr, ECons):
            values.append(expr.head.value)
            expr = expr.tail
        assert values == [1.0, 2.0, 3.0]

    def test_cons_tail(self):
        expr = parse_expr("[1|rest]")
        assert isinstance(expr, ECons)
        assert isinstance(expr.tail, EVar)

    def test_multi_with_tail(self):
        expr = parse_expr("[1 2|rest]")
        assert isinstance(expr.tail, ECons)
        assert isinstance(expr.tail.tail, EVar)


class TestLambda:
    def test_single_var(self):
        expr = parse_expr("(\\x x)")
        assert isinstance(expr, ELambda)
        assert expr.pattern == PVar("x")

    def test_multi_arg_sugar_curries(self):
        expr = parse_expr("(\\(x y) x)")
        assert isinstance(expr, ELambda)
        assert isinstance(expr.body, ELambda)
        assert expr.pattern == PVar("x")
        assert expr.body.pattern == PVar("y")

    def test_list_pattern_param(self):
        expr = parse_expr("(\\[a b] a)")
        assert isinstance(expr, ELambda)
        assert isinstance(expr.pattern, PCons)

    def test_unicode_lambda(self):
        expr = parse_expr("(λx x)")
        assert isinstance(expr, ELambda)

    def test_pattern_in_multi_arg_list(self):
        expr = parse_expr("(\\([i x] acc) acc)")
        assert isinstance(expr.pattern, PCons)
        assert expr.body.pattern == PVar("acc")


class TestApplicationAndOps:
    def test_application_curries(self):
        expr = parse_expr("(f a b)")
        assert isinstance(expr, EApp)
        assert isinstance(expr.fn, EApp)
        assert expr.fn.fn == EVar("f")

    def test_op_plus(self):
        expr = parse_expr("(+ 1 2)")
        assert isinstance(expr, EOp) and expr.op == "+"
        assert len(expr.args) == 2

    def test_op_pi_nullary(self):
        expr = parse_expr("(pi)")
        assert isinstance(expr, EOp) and expr.args == ()

    def test_op_unary(self):
        expr = parse_expr("(sin x)")
        assert isinstance(expr, EOp) and expr.op == "sin"

    def test_op_arity_error(self):
        with pytest.raises(LittleSyntaxError):
            parse_expr("(+ 1)")

    def test_op_arity_error_nullary(self):
        with pytest.raises(LittleSyntaxError):
            parse_expr("(pi 1)")

    def test_zero_arg_application_rejected(self):
        with pytest.raises(LittleSyntaxError):
            parse_expr("(f)")


class TestLetAndCase:
    def test_let(self):
        expr = parse_expr("(let x 1 x)")
        assert isinstance(expr, ELet) and not expr.rec

    def test_letrec(self):
        expr = parse_expr("(letrec f (\\x (f x)) f)")
        assert isinstance(expr, ELet) and expr.rec

    def test_let_list_pattern(self):
        expr = parse_expr("(let [a b] [1 2] a)")
        assert isinstance(expr.pattern, PCons)

    def test_case(self):
        expr = parse_expr("(case xs ([] 0) ([x|rest] x))")
        assert isinstance(expr, ECase)
        assert len(expr.branches) == 2
        assert expr.branches[0][0] == PNil()

    def test_case_literal_patterns(self):
        expr = parse_expr("(case n (0 'zero') (other 'other'))")
        assert expr.branches[0][0] == PNum(0.0)
        assert expr.branches[1][0] == PVar("other")

    def test_if_desugars_to_case(self):
        expr = parse_expr("(if b 1 2)")
        assert isinstance(expr, ECase) and expr.from_if
        assert expr.branches[0][0] == PBool(True)
        assert expr.branches[1][0] == PBool(False)

    def test_case_empty_rejected(self):
        with pytest.raises(LittleSyntaxError):
            parse_expr("(case x)")


class TestTopLevel:
    def test_defs_fold_into_lets(self):
        expr = parse_top_level("(def a 1) (def b 2) (+ a b)")
        assert isinstance(expr, ELet) and expr.from_def
        assert isinstance(expr.body, ELet)
        assert isinstance(expr.body.body, EOp)

    def test_defrec(self):
        expr = parse_top_level("(defrec f (\\x (f x))) (f 1)")
        assert expr.rec

    def test_missing_main_expression(self):
        with pytest.raises(LittleSyntaxError):
            parse_top_level("(def a 1)")

    def test_def_after_main_rejected(self):
        with pytest.raises(LittleSyntaxError):
            parse_top_level("1 (def a 2)")

    def test_two_main_expressions_rejected(self):
        with pytest.raises(LittleSyntaxError):
            parse_top_level("1 2")

    @pytest.mark.parametrize("opening, closing", [("[", "]"), ("(id ", ")")])
    def test_nesting_past_the_bound_is_a_syntax_error(self, opening,
                                                      closing):
        def nested(levels):
            return opening * levels + "1" + closing * levels

        parse_top_level("(def id (\\x x)) " + nested(MAX_NESTING))
        with pytest.raises(LittleSyntaxError,
                           match=r"nest more than 2000 levels deep"):
            parse_top_level("(def id (\\x x)) " + nested(MAX_NESTING + 1))

    def test_pattern_nesting_past_the_bound_is_a_syntax_error(self):
        pattern = "[" * (MAX_NESTING + 1) + "x" + "]" * (MAX_NESTING + 1)
        column = len("(def ") + MAX_NESTING + 1     # first bracket too deep
        with pytest.raises(LittleSyntaxError,
                           match=rf"\(line 1, col {column}\)$"):
            parse_top_level(f"(def {pattern} 1) x")

    def test_definition_sequence(self):
        bindings = parse_definition_sequence("(def a 1) (def b 2)")
        assert len(bindings) == 2
        assert bindings[0][0] == PVar("a")


class TestCanonicalNaming:
    def test_simple_def_names_location(self):
        expr = parse_top_level("(def n 12) n")
        assert expr.bound.loc.name == "n"

    def test_parallel_binding_names_locations(self):
        expr = parse_top_level("(def [x0 y0] [50 120]) x0")
        assert expr.bound.head.loc.name == "x0"
        assert expr.bound.tail.head.loc.name == "y0"

    def test_nested_let_names_location(self):
        expr = parse_expr("(let k 7 k)")
        assert expr.bound.loc.name == "k"

    def test_non_literal_binding_unnamed(self):
        expr = parse_expr("(let k (+ 1 2) k)")
        assert isinstance(expr.bound, EOp)
        # the literals inside keep anonymous locations
        assert expr.bound.args[0].loc.name is None


class TestRho0:
    def test_collects_all_literals(self):
        expr = parse_top_level("(def [a b] [1 2]) (+ a (+ b 3))")
        rho0 = collect_rho0(expr)
        assert sorted(rho0.values()) == [1.0, 2.0, 3.0]

    def test_keyed_by_location(self):
        expr = parse_top_level("(def a 5) a")
        rho0 = collect_rho0(expr)
        assert rho0[expr.bound.loc] == 5.0


class TestAutoFreeze:
    def test_auto_freeze_freezes_plain_literals(self):
        expr = parse_expr("7", auto_freeze=True)
        assert expr.loc.frozen

    def test_thaw_overrides_auto_freeze(self):
        expr = parse_expr("7?", auto_freeze=True)
        assert not expr.loc.frozen

    def test_in_prelude_marks_locations(self):
        expr = parse_expr("7", in_prelude=True)
        assert expr.loc.in_prelude
