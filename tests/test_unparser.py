"""Round-trip tests for the pretty-printer."""

import pytest

from repro.lang import (evaluate, parse_expr, parse_top_level, unparse,
                        value_equal)
from repro.lang.unparser import unparse_pattern
from repro.lang.parser import Parser
from repro.lang.lexer import tokenize


def roundtrip(source):
    """unparse(parse(source)) must re-parse to an equivalent program."""
    expr = parse_expr(source)
    printed = unparse(expr)
    reparsed = parse_expr(printed)
    return expr, printed, reparsed


ROUNDTRIP_SOURCES = [
    "42",
    "3.5",
    "-7",
    "3.14!",
    "5?",
    "12!{3-30}",
    "0{-3.14-3.14}",
    "0.00001",
    "100000000000000000",
    "-0.0000123",
    "0.00001!{0-1}",
    "'hello world'",
    "true",
    "false",
    "[]",
    "[1 2 3]",
    "[1|rest]",
    "[1 2|rest]",
    "x0",
    "(\\x x)",
    "(\\(a b) (+ a b))",
    "(\\[i x] x)",
    "(f a b)",
    "(+ 1 2)",
    "(pi)",
    "(sin (* 2 (pi)))",
    "(let x 1 x)",
    "(letrec f (\\x (f x)) f)",
    "(let [a b] [1 2] (+ a b))",
    "(case xs ([] 0) ([x|rest] x))",
    "(if (< a b) a b)",
]


@pytest.mark.parametrize("source", ROUNDTRIP_SOURCES)
def test_roundtrip_evaluable_structure(source):
    expr, printed, reparsed = roundtrip(source)
    # Same printed form again => stable fixpoint after one round.
    assert unparse(reparsed) == printed


@pytest.mark.parametrize("source", [
    "(let x 5 (+ x 1))",
    "(if (< 1 2) 10 20)",
    "((\\(a b) (* a b)) 6 7)",
    "(case [1 2] ([] 0) ([x|rest] x))",
])
def test_roundtrip_preserves_meaning(source):
    expr = parse_expr(source)
    reparsed = parse_expr(unparse(expr))
    assert value_equal(evaluate(expr), evaluate(reparsed))


def test_defs_unparse_as_defs():
    expr = parse_top_level("(def a 1)\n(def b 2)\n(+ a b)")
    printed = unparse(expr)
    assert printed.startswith("(def a 1)")
    assert "(def b 2)" in printed


def test_defrec_unparses_as_defrec():
    expr = parse_top_level("(defrec f (\\x (f x))) (f 1)")
    assert unparse(expr).startswith("(defrec f")


def test_annotations_survive_roundtrip():
    expr = parse_top_level("(def n 12!{3-30}) n")
    printed = unparse(expr)
    assert "12!{3-30}" in printed


def test_number_formatting_integral():
    assert unparse(parse_expr("42")) == "42"


def test_number_formatting_fractional():
    assert unparse(parse_expr("2.5")) == "2.5"


def test_pattern_printing():
    parser = Parser(tokenize("[a [b c]|rest]"))
    pattern = parser.parse_pattern()
    assert unparse_pattern(pattern) == "[a [b c]|rest]"


def test_multiline_lets_indent():
    printed = unparse(parse_expr("(let x 1 (let y 2 (+ x y)))"))
    assert printed.count("\n") >= 1
    assert parse_expr(printed.replace("\n", " ")) is not None
