"""Tokenizer for ``little`` source text.

Token kinds:

* ``LPAREN`` / ``RPAREN`` — ``(`` and ``)``
* ``LBRACK`` / ``RBRACK`` — ``[`` and ``]``
* ``BAR`` — ``|`` (cons-tail separator in list literals and patterns)
* ``NUM`` — numeric literal with optional freeze/thaw annotation and
  optional ``{lo-hi}`` range annotation; value is a
  :class:`NumberToken`
* ``STR`` — single-quoted string literal
* ``SYM`` — identifier or operator symbol (``+``, ``<=``, ``map``, …)

Comments run from ``;`` to end of line.  ``λ`` and ``\\`` are both accepted
for lambda (paper Figure 2 uses λ; the ASCII implementation uses ``\\``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .errors import LittleSyntaxError


@dataclass(frozen=True)
class NumberToken:
    value: float
    ann: str                                  # "", "!" or "?"
    range_ann: Optional[Tuple[float, float]]  # (lo, hi) or None


@dataclass(frozen=True)
class Token:
    kind: str
    value: object
    line: int
    col: int


_NUMBER = re.compile(r"-?(?:\d+\.\d+|\d+\.?|\.\d+)")
_RANGE = re.compile(
    r"\{\s*(-?(?:\d+\.\d+|\d+\.?|\.\d+))\s*-\s*(-?(?:\d+\.\d+|\d+\.?|\.\d+))\s*\}")
_SYMBOL = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|<=|>=|[+\-*/<>=]")
_WHITESPACE = frozenset(" \t\r\n")
_PUNCT = {"(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
          "|": "BAR"}


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``, raising :class:`LittleSyntaxError` on bad input."""
    return list(iter_tokens(source))


def iter_tokens(source: str) -> Iterator[Token]:
    pos = 0
    line = 1
    line_start = 0
    length = len(source)
    while pos < length:
        char = source[pos]
        if char in _WHITESPACE:
            if char == "\n":
                line += 1
                line_start = pos + 1
            pos += 1
            continue
        if char == ";":
            end = source.find("\n", pos)
            pos = length if end == -1 else end
            continue
        col = pos - line_start + 1
        if char in _PUNCT:
            yield Token(_PUNCT[char], char, line, col)
            pos += 1
            continue
        if char == "'":
            end = source.find("'", pos + 1)
            if end == -1:
                raise LittleSyntaxError("unterminated string literal",
                                        line, col)
            yield Token("STR", source[pos + 1:end], line, col)
            pos = end + 1
            continue
        if char in "\\λ":  # backslash or λ
            yield Token("SYM", "lambda", line, col)
            pos += 1
            continue
        number = _match_number(source, pos)
        if number is not None:
            token, pos = number
            yield Token("NUM", token, line, col)
            continue
        symbol = _SYMBOL.match(source, pos)
        if symbol is not None:
            yield Token("SYM", symbol.group(), line, col)
            pos = symbol.end()
            continue
        raise LittleSyntaxError(f"unexpected character {char!r}", line, col)


def _match_number(source: str, pos: int):
    """Match a numeric literal with annotations, or return None.

    A leading ``-`` is part of the number only when immediately followed by a
    digit or dot *and* the previous non-space token context permits it; the
    parser never needs unary minus as an operator, so we treat ``-4`` as a
    literal whenever ``-`` is directly attached to digits.  A bare ``-``
    (followed by whitespace or a delimiter) is the subtraction symbol.
    """
    char = source[pos]
    if char == "-":
        if pos + 1 >= len(source) or not (source[pos + 1].isdigit()
                                          or source[pos + 1] == "."):
            return None
    elif not (char.isdigit() or char == "."):
        return None
    match = _NUMBER.match(source, pos)
    if match is None or match.group() in ("-", "."):
        return None
    value = float(match.group())
    if math.isinf(value):
        raise _out_of_range(source, pos)
    end = match.end()
    ann = ""
    if end < len(source) and source[end] in "!?":
        ann = source[end]
        end += 1
    range_ann = None
    if end < len(source) and source[end] == "{":
        range_match = _RANGE.match(source, end)
        if range_match is None:
            raise LittleSyntaxError(
                "malformed range annotation (expected {lo-hi})",
                *_line_col(source, end))
        range_ann = (float(range_match.group(1)),
                     float(range_match.group(2)))
        if math.isinf(range_ann[0]) or math.isinf(range_ann[1]):
            raise _out_of_range(source, end)
        end = range_match.end()
    return NumberToken(value, ann, range_ann), end


def _out_of_range(source: str, pos: int) -> LittleSyntaxError:
    """A digit string too long for a float reads as inf."""
    return LittleSyntaxError("number literal out of range",
                             *_line_col(source, pos))


def _line_col(source: str, pos: int) -> Tuple[int, int]:
    line = source.count("\n", 0, pos) + 1
    last_newline = source.rfind("\n", 0, pos)
    return line, pos - last_newline
