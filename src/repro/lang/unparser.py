"""Pretty-printer for ``little`` ASTs.

``unparse(parse(src))`` re-parses to a structurally identical program (same
literal values, annotations, ranges and binding structure — location ids are
reassigned, as they would be by the reference implementation's parser).

The printer re-sugars the forms the parser recorded: ``(def …)`` sequences,
``(if …)``, multi-argument lambdas and list literals.
"""

from __future__ import annotations

import decimal
import math

from .ast import (ECase, ECons, ELambda, ELet, ENil, ENum, EOp, EStr, EVar,
                  EApp, EBool, Expr, PBool, PCons, PNil, PNum, PStr, PVar,
                  Pattern)


def format_literal(number: float) -> str:
    """Render a finite number as a little literal the lexer reads back
    exactly: integral floats without a decimal point, everything else in
    positional decimal (the lexer has no exponent form), and ``-0.0``
    with its sign."""
    if number == 0.0:
        # float equality folds -0.0 into the integer branch; keep the sign
        # (it is meaningful to arc sweeps and transforms).
        return "-0.0" if math.copysign(1.0, number) < 0.0 else "0"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    text = repr(float(number))
    if "e" in text:
        # Decimal(repr) round-trips the float; "f" expands the exponent.
        text = format(decimal.Decimal(text), "f")
    return text


def unparse(expr: Expr) -> str:
    """Render ``expr`` as little source text."""
    return _unparse(expr, 0)


def unparse_pattern(pat: Pattern) -> str:
    if isinstance(pat, PVar):
        return pat.name
    if isinstance(pat, PNum):
        return format_literal(pat.value)
    if isinstance(pat, PStr):
        return f"'{pat.value}'"
    if isinstance(pat, PBool):
        return "true" if pat.value else "false"
    if isinstance(pat, PNil):
        return "[]"
    if isinstance(pat, PCons):
        elements, tail = _split_pattern(pat)
        inner = " ".join(unparse_pattern(p) for p in elements)
        if isinstance(tail, PNil):
            return f"[{inner}]"
        return f"[{inner}|{unparse_pattern(tail)}]"
    raise TypeError(f"unknown pattern {pat!r}")


def unparse_number(expr: ENum) -> str:
    text = format_literal(expr.value) + expr.ann
    if expr.range_ann is not None:
        lo, hi = expr.range_ann
        text += "{" + format_literal(lo) + "-" + format_literal(hi) + "}"
    return text


def _split_pattern(pat: Pattern):
    elements = []
    while isinstance(pat, PCons):
        elements.append(pat.head)
        pat = pat.tail
    return elements, pat


def _split_cons(expr: Expr):
    elements = []
    while isinstance(expr, ECons):
        elements.append(expr.head)
        expr = expr.tail
    return elements, expr


def _collect_lambda(expr: ELambda):
    patterns = []
    while isinstance(expr, ELambda):
        patterns.append(expr.pattern)
        expr = expr.body
    return patterns, expr


def _collect_app(expr: EApp):
    args = []
    while isinstance(expr, EApp):
        args.append(expr.arg)
        expr = expr.fn
    args.reverse()
    return expr, args


def _unparse(expr: Expr, indent: int) -> str:
    pad = "  " * indent
    if isinstance(expr, ENum):
        return unparse_number(expr)
    if isinstance(expr, EStr):
        return f"'{expr.value}'"
    if isinstance(expr, EBool):
        return "true" if expr.value else "false"
    if isinstance(expr, ENil):
        return "[]"
    if isinstance(expr, ECons):
        elements, tail = _split_cons(expr)
        inner = " ".join(_unparse(e, indent) for e in elements)
        if isinstance(tail, ENil):
            return f"[{inner}]"
        return f"[{inner}|{_unparse(tail, indent)}]"
    if isinstance(expr, EVar):
        return expr.name
    if isinstance(expr, ELambda):
        patterns, body = _collect_lambda(expr)
        if len(patterns) == 1:
            params = unparse_pattern(patterns[0])
        else:
            params = "(" + " ".join(unparse_pattern(p) for p in patterns) + ")"
        return f"(\\{params} {_unparse(body, indent)})"
    if isinstance(expr, EApp):
        fn, args = _collect_app(expr)
        parts = [_unparse(fn, indent)] + [_unparse(a, indent) for a in args]
        return "(" + " ".join(parts) + ")"
    if isinstance(expr, EOp):
        parts = [expr.op] + [_unparse(a, indent) for a in expr.args]
        return "(" + " ".join(parts) + ")"
    if isinstance(expr, ELet):
        if expr.from_def:
            keyword = "defrec" if expr.rec else "def"
            header = (f"({keyword} {unparse_pattern(expr.pattern)} "
                      f"{_unparse(expr.bound, indent + 1)})")
            return header + "\n" + pad + _unparse(expr.body, indent)
        keyword = "letrec" if expr.rec else "let"
        return (f"({keyword} {unparse_pattern(expr.pattern)} "
                f"{_unparse(expr.bound, indent + 1)}\n"
                f"{pad}  {_unparse(expr.body, indent + 1)})")
    if isinstance(expr, ECase):
        if expr.from_if:
            (_, then_branch), (_, else_branch) = expr.branches
            return (f"(if {_unparse(expr.scrutinee, indent)} "
                    f"{_unparse(then_branch, indent + 1)} "
                    f"{_unparse(else_branch, indent + 1)})")
        branches = " ".join(
            f"({unparse_pattern(pat)} {_unparse(branch, indent + 1)})"
            for pat, branch in expr.branches)
        return f"(case {_unparse(expr.scrutinee, indent)} {branches})"
    raise TypeError(f"cannot unparse {expr!r}")
