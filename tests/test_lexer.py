"""Unit tests for the little tokenizer."""

import pytest

from repro.lang.errors import LittleSyntaxError
from repro.lang.lexer import NumberToken, Token, tokenize


def kinds(source):
    return [token.kind for token in tokenize(source)]


def values(source):
    return [token.value for token in tokenize(source)]


class TestPunctuation:
    def test_parens(self):
        assert kinds("()") == ["LPAREN", "RPAREN"]

    def test_brackets(self):
        assert kinds("[]") == ["LBRACK", "RBRACK"]

    def test_bar(self):
        assert kinds("[x|xs]") == ["LBRACK", "SYM", "BAR", "SYM", "RBRACK"]

    def test_nested(self):
        assert kinds("(f [1 2])") == [
            "LPAREN", "SYM", "LBRACK", "NUM", "NUM", "RBRACK", "RPAREN"]


class TestNumbers:
    def test_integer(self):
        token = tokenize("42")[0].value
        assert token == NumberToken(42.0, "", None)

    def test_float(self):
        assert tokenize("3.14")[0].value.value == pytest.approx(3.14)

    def test_negative(self):
        assert tokenize("-7")[0].value.value == -7.0

    def test_negative_float(self):
        assert tokenize("-0.5")[0].value.value == -0.5

    def test_leading_dot(self):
        assert tokenize(".5")[0].value.value == 0.5

    def test_frozen_annotation(self):
        token = tokenize("3.14!")[0].value
        assert token.ann == "!"

    def test_thawed_annotation(self):
        token = tokenize("10?")[0].value
        assert token.ann == "?"

    def test_range_annotation(self):
        token = tokenize("12{3-30}")[0].value
        assert token.range_ann == (3.0, 30.0)

    def test_frozen_range_annotation(self):
        token = tokenize("12!{3-30}")[0].value
        assert token.ann == "!"
        assert token.range_ann == (3.0, 30.0)

    def test_negative_range_bounds(self):
        token = tokenize("0!{-3.14-3.14}")[0].value
        assert token.range_ann == (-3.14, 3.14)

    def test_range_with_float_bounds(self):
        token = tokenize("1{0.5-2.5}")[0].value
        assert token.range_ann == (0.5, 2.5)

    def test_malformed_range_raises(self):
        with pytest.raises(LittleSyntaxError):
            tokenize("12{3-}")

    @pytest.mark.parametrize("source", ["1" + "0" * 400,
                                        "-1" + "0" * 400,
                                        "5{0-1" + "0" * 400 + "}"],
                             ids=["literal", "negative", "range-bound"])
    def test_literal_overflowing_to_infinity_raises(self, source):
        with pytest.raises(LittleSyntaxError, match="out of range"):
            tokenize(source)

    def test_minus_followed_by_space_is_symbol(self):
        assert kinds("(- 3 1)") == ["LPAREN", "SYM", "NUM", "NUM", "RPAREN"]

    def test_minus_attached_to_digits_is_number(self):
        tokens = tokenize("-12")
        assert len(tokens) == 1 and tokens[0].kind == "NUM"


class TestStrings:
    def test_simple(self):
        assert values("'hello'") == ["hello"]

    def test_empty(self):
        assert values("''") == [""]

    def test_with_spaces(self):
        assert values("'a b c'") == ["a b c"]

    def test_unterminated_raises(self):
        with pytest.raises(LittleSyntaxError):
            tokenize("'abc")


class TestSymbols:
    def test_identifier(self):
        assert values("foo") == ["foo"]

    def test_identifier_with_digits(self):
        assert values("x0") == ["x0"]

    def test_identifier_with_prime(self):
        assert values("x0'") == ["x0'"]

    def test_operators(self):
        assert values("+ - * / < > <= >= =") == [
            "+", "-", "*", "/", "<", ">", "<=", ">=", "="]

    def test_lambda_backslash(self):
        assert values("\\x") == ["lambda", "x"]

    def test_lambda_unicode(self):
        assert values("λx") == ["lambda", "x"]


class TestCommentsAndWhitespace:
    def test_comment_to_eol(self):
        assert values("; comment\n42") == [NumberToken(42.0, "", None)]

    def test_comment_at_eof(self):
        assert tokenize("; only a comment") == []

    def test_line_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[1].col == 3

    def test_unexpected_character(self):
        with pytest.raises(LittleSyntaxError):
            tokenize("@")
