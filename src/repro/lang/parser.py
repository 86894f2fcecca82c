"""Parser for ``little`` (paper Figure 2 plus the Appendix A sugar).

The parser produces core AST (:mod:`repro.lang.ast`), desugaring as it goes:

* ``(def p e1) e2``        → ``(let p e1 e2)``        (sequence contexts)
* ``(defrec p e1) e2``     → ``(letrec p e1 e2)``
* ``(if e1 e2 e3)``        → ``(case e1 (true e2) (false e3))``
* ``(λ (p1 … pm) e)``      → ``(λ p1 … (λ pm e))``
* ``(e0 e1 … em)``         → ``(((e0 e1) …) em)``
* ``[e1 … em]``            → cons cells ending in ``[]``
* ``[e1 … em | e0]``       → cons cells ending in ``e0``

Every numeric literal receives a fresh :class:`~repro.lang.ast.Loc`; the
canonical-naming pass then renames locations whose literals are immediately
bound to variables (§2.1: "we choose the canonical name x for the location").
"""

from __future__ import annotations

import itertools
import sys
from typing import Callable, List, Optional, Tuple

from .ast import (ALL_OPS, ECase, ECons, ELambda, ELet, ENil, ENum, EOp,
                  EStr, EVar, EApp, EBool, Expr, Loc, OP_ARITY, PBool, PCons,
                  PNil, PNum, PStr, PVar, Pattern, iter_numbers, plist)
from .errors import LittleSyntaxError
from .lexer import NumberToken, Token, tokenize


class LocAllocator:
    """Issues location identifiers counting up from ``start``.

    User programs share :data:`DEFAULT_ALLOCATOR` (from 1), so their
    locations never collide; the Prelude parses with allocators of its own
    whose ranges lie below it (:mod:`repro.lang.prelude`).
    """

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)

    def fresh(self, frozen: bool, in_prelude: bool) -> Loc:
        return Loc(next(self._counter), None, frozen, in_prelude)


DEFAULT_ALLOCATOR = LocAllocator()

#: How deep brackets may nest in a program.  The parser recurses four
#: Python frames per level, and the evaluator and the unparser a few, so
#: this keeps them inside :data:`RECURSION_LIMIT`; a deeper program is a
#: syntax error (like :data:`repro.svg.node.MAX_NESTING` for its output).
MAX_NESTING = 2000

#: The Python recursion limit the parser, the evaluator and the other
#: recursive readers of a program need.  Every parser raises the limit to
#: it before parsing, so whether a program parses and runs does not depend
#: on what the process ran before.
RECURSION_LIMIT = 20000

_KEYWORDS = frozenset({"lambda", "let", "letrec", "def", "defrec", "case",
                       "if", "true", "false"})


class Parser:
    def __init__(self, tokens: List[Token], *, auto_freeze: bool = False,
                 in_prelude: bool = False,
                 allocator: Optional[LocAllocator] = None):
        self._tokens = tokens
        self._pos = 0
        self._auto_freeze = auto_freeze
        self._in_prelude = in_prelude
        self._allocator = allocator or DEFAULT_ALLOCATOR
        self._depth = 0
        if sys.getrecursionlimit() < RECURSION_LIMIT:
            sys.setrecursionlimit(RECURSION_LIMIT)

    # -- token-stream helpers ------------------------------------------------

    def _peek(self) -> Optional[Token]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise LittleSyntaxError("unexpected end of input")
        self._pos += 1
        return token

    def _expect(self, kind: str) -> Token:
        token = self._next()
        if token.kind != kind:
            raise LittleSyntaxError(
                f"expected {kind}, found {token.value!r}",
                token.line, token.col)
        return token

    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)

    def _error(self, message: str, token: Optional[Token] = None):
        token = token or self._peek()
        if token is None:
            raise LittleSyntaxError(message)
        raise LittleSyntaxError(message, token.line, token.col)

    def _nested(self, token: Token, parse: Callable):
        """``parse()`` what ``token`` opens, one level deeper; past
        :data:`MAX_NESTING` levels, a syntax error at ``token``."""
        if self._depth == MAX_NESTING:
            self._error(f"brackets nest more than {MAX_NESTING} levels deep",
                        token)
        self._depth += 1
        result = parse()
        self._depth -= 1
        return result

    # -- expressions ---------------------------------------------------------

    def parse_expression(self) -> Expr:
        token = self._next()
        if token.kind == "NUM":
            return self._make_number(token.value)
        if token.kind == "STR":
            return EStr(token.value)
        if token.kind == "SYM":
            if token.value == "true":
                return EBool(True)
            if token.value == "false":
                return EBool(False)
            if token.value == "lambda":
                self._error("lambda outside parentheses", token)
            return EVar(token.value)
        if token.kind == "LBRACK":
            return self._nested(token, self._parse_list_literal)
        if token.kind == "LPAREN":
            return self._nested(token, self._parse_form)
        self._error(f"unexpected token {token.value!r}", token)

    def _make_number(self, num: NumberToken) -> ENum:
        frozen = num.ann == "!" or (self._auto_freeze and num.ann != "?")
        loc = self._allocator.fresh(frozen, self._in_prelude)
        return ENum(num.value, loc, num.ann, num.range_ann)

    def _parse_list_literal(self) -> Expr:
        elements: List[Expr] = []
        tail: Optional[Expr] = None
        while True:
            token = self._peek()
            if token is None:
                self._error("unterminated list literal")
            if token.kind == "RBRACK":
                self._next()
                break
            if token.kind == "BAR":
                self._next()
                tail = self.parse_expression()
                self._expect("RBRACK")
                break
            elements.append(self.parse_expression())
        expr: Expr = tail if tail is not None else ENil()
        for element in reversed(elements):
            expr = ECons(element, expr)
        return expr

    def _parse_form(self) -> Expr:
        head = self._peek()
        if head is None:
            self._error("unterminated form")
        if head.kind == "SYM":
            name = head.value
            if name == "lambda":
                self._next()
                return self._finish_lambda()
            if name in ("let", "letrec"):
                self._next()
                return self._finish_let(rec=(name == "letrec"))
            if name in ("def", "defrec"):
                self._error("(def ...) is only allowed at the top level of "
                            "a program or inside another definition "
                            "sequence", head)
            if name == "case":
                self._next()
                return self._finish_case()
            if name == "if":
                self._next()
                return self._finish_if()
            if name in ALL_OPS:
                self._next()
                return self._finish_op(name, head)
        return self._finish_application()

    def _finish_lambda(self) -> Expr:
        token = self._peek()
        if token is None:
            self._error("unterminated lambda")
        if token.kind == "LPAREN":
            # Multi-argument sugar: (λ (p1 … pm) e)
            self._next()
            patterns = []
            while True:
                inner = self._peek()
                if inner is None:
                    self._error("unterminated parameter list")
                if inner.kind == "RPAREN":
                    self._next()
                    break
                patterns.append(self.parse_pattern())
            if not patterns:
                self._error("lambda needs at least one parameter", token)
        else:
            patterns = [self.parse_pattern()]
        body = self.parse_expression()
        self._expect("RPAREN")
        for pattern in reversed(patterns):
            body = ELambda(pattern, body)
        return body

    def _finish_let(self, rec: bool) -> Expr:
        pattern = self.parse_pattern()
        bound = self.parse_expression()
        body = self.parse_expression()
        self._expect("RPAREN")
        return ELet(pattern, bound, body, rec=rec)

    def _finish_case(self) -> Expr:
        scrutinee = self.parse_expression()
        branches: List[Tuple[Pattern, Expr]] = []
        while True:
            token = self._peek()
            if token is None:
                self._error("unterminated case expression")
            if token.kind == "RPAREN":
                self._next()
                break
            self._expect("LPAREN")
            pattern = self.parse_pattern()
            branch = self.parse_expression()
            self._expect("RPAREN")
            branches.append((pattern, branch))
        if not branches:
            self._error("case needs at least one branch")
        return ECase(scrutinee, tuple(branches))

    def _finish_if(self) -> Expr:
        condition = self.parse_expression()
        then_branch = self.parse_expression()
        else_branch = self.parse_expression()
        self._expect("RPAREN")
        return ECase(condition,
                     ((PBool(True), then_branch), (PBool(False), else_branch)),
                     from_if=True)

    def _finish_op(self, name: str, head: Token) -> Expr:
        args: List[Expr] = []
        while True:
            token = self._peek()
            if token is None:
                self._error("unterminated operator application")
            if token.kind == "RPAREN":
                self._next()
                break
            args.append(self.parse_expression())
        arity = OP_ARITY[name]
        if len(args) != arity:
            self._error(f"operator {name} expects {arity} argument(s), "
                        f"got {len(args)}", head)
        return EOp(name, tuple(args))

    def _finish_application(self) -> Expr:
        fn = self.parse_expression()
        args: List[Expr] = []
        while True:
            token = self._peek()
            if token is None:
                self._error("unterminated application")
            if token.kind == "RPAREN":
                self._next()
                break
            args.append(self.parse_expression())
        if not args:
            self._error("application needs at least one argument")
        expr = fn
        for arg in args:
            expr = EApp(expr, arg)
        return expr

    # -- patterns ------------------------------------------------------------

    def parse_pattern(self) -> Pattern:
        token = self._next()
        if token.kind == "SYM":
            if token.value == "true":
                return PBool(True)
            if token.value == "false":
                return PBool(False)
            if token.value in _KEYWORDS or token.value in ALL_OPS:
                self._error(f"{token.value!r} cannot be used as a pattern "
                            "variable", token)
            return PVar(token.value)
        if token.kind == "NUM":
            return PNum(token.value.value)
        if token.kind == "STR":
            return PStr(token.value)
        if token.kind == "LBRACK":
            return self._nested(token, self._parse_list_pattern)
        self._error(f"unexpected token in pattern: {token.value!r}", token)

    def _parse_list_pattern(self) -> Pattern:
        elements: List[Pattern] = []
        tail: Pattern = PNil()
        while True:
            inner = self._peek()
            if inner is None:
                self._error("unterminated list pattern")
            if inner.kind == "RBRACK":
                self._next()
                break
            if inner.kind == "BAR":
                self._next()
                tail = self.parse_pattern()
                self._expect("RBRACK")
                break
            elements.append(self.parse_pattern())
        return plist(elements, tail)

    # -- definition sequences --------------------------------------------------

    def parse_definitions(self) -> List[Tuple[Pattern, Expr, bool]]:
        """Parse a sequence consisting solely of (def …)/(defrec …) forms."""
        bindings = []
        while not self.at_end():
            self._expect("LPAREN")
            keyword = self._expect("SYM")
            if keyword.value not in ("def", "defrec"):
                self._error("expected (def …) or (defrec …)", keyword)
            pattern = self.parse_pattern()
            bound = self.parse_expression()
            self._expect("RPAREN")
            bindings.append((pattern, bound, keyword.value == "defrec"))
        return bindings

    def parse_program_body(self) -> Expr:
        """Parse ``(def …)* expr`` — a top-level definition sequence followed
        by the main expression — into a nested let chain."""
        bindings: List[Tuple[Pattern, Expr, bool]] = []
        main: Optional[Expr] = None
        while not self.at_end():
            token = self._peek()
            if (token.kind == "LPAREN" and self._pos + 1 < len(self._tokens)
                    and self._tokens[self._pos + 1].kind == "SYM"
                    and self._tokens[self._pos + 1].value in ("def", "defrec")):
                if main is not None:
                    self._error("definition after the main expression", token)
                self._next()          # (
                keyword = self._next()  # def / defrec
                pattern = self.parse_pattern()
                bound = self.parse_expression()
                self._expect("RPAREN")
                bindings.append((pattern, bound, keyword.value == "defrec"))
            else:
                if main is not None:
                    self._error("multiple main expressions", token)
                main = self.parse_expression()
        if main is None:
            self._error("program has no main expression")
        for pattern, bound, rec in reversed(bindings):
            main = ELet(pattern, bound, main, rec=rec, from_def=True)
        return main


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def parse_expr(source: str, *, auto_freeze: bool = False,
               in_prelude: bool = False,
               allocator: Optional[LocAllocator] = None) -> Expr:
    """Parse a single ``little`` expression."""
    parser = Parser(tokenize(source), auto_freeze=auto_freeze,
                    in_prelude=in_prelude, allocator=allocator)
    expr = parser.parse_expression()
    if not parser.at_end():
        parser._error("trailing tokens after expression")
    assign_canonical_names(expr)
    return expr


def parse_definition_sequence(source: str, *, auto_freeze: bool = False,
                              in_prelude: bool = False,
                              allocator: Optional[LocAllocator] = None):
    """Parse a pure definition sequence (used for the Prelude)."""
    parser = Parser(tokenize(source), auto_freeze=auto_freeze,
                    in_prelude=in_prelude, allocator=allocator)
    bindings = parser.parse_definitions()
    for pattern, bound, _rec in bindings:
        _name_binding(pattern, bound)
    return bindings


def parse_top_level(source: str, *, auto_freeze: bool = False,
                    in_prelude: bool = False,
                    allocator: Optional[LocAllocator] = None) -> Expr:
    """Parse ``(def …)* expr`` into a single expression."""
    parser = Parser(tokenize(source), auto_freeze=auto_freeze,
                    in_prelude=in_prelude, allocator=allocator)
    expr = parser.parse_program_body()
    assign_canonical_names(expr)
    return expr


# ---------------------------------------------------------------------------
# Canonical location naming (§2.1)
# ---------------------------------------------------------------------------

def assign_canonical_names(expr: Expr) -> None:
    """Name the location of every literal immediately bound to a variable.

    Handles both ``(let x 5 …)`` and the common parallel-binding form
    ``(let [x y] [3 4] …)``.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ELet):
            _name_binding(node.pattern, node.bound)
            stack.append(node.body)
            stack.append(node.bound)
        elif isinstance(node, ECons):
            stack.append(node.tail)
            stack.append(node.head)
        elif isinstance(node, ELambda):
            stack.append(node.body)
        elif isinstance(node, EApp):
            stack.append(node.arg)
            stack.append(node.fn)
        elif isinstance(node, EOp):
            stack.extend(node.args)
        elif isinstance(node, ECase):
            stack.append(node.scrutinee)
            stack.extend(branch for _, branch in node.branches)


def _name_binding(pattern: Pattern, bound: Expr) -> None:
    if isinstance(pattern, PVar) and isinstance(bound, ENum):
        if bound.loc.name is None:
            bound.loc.name = pattern.name
    elif isinstance(pattern, PCons) and isinstance(bound, ECons):
        _name_binding(pattern.head, bound.head)
        _name_binding(pattern.tail, bound.tail)


def collect_rho0(expr: Expr) -> dict:
    """The initial substitution ρ0 mapping every location to its literal
    value in the source program (§2.1)."""
    return {num.loc: num.value for num in iter_numbers(expr)}
