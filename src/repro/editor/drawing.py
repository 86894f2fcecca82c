"""Adding shapes from the editor — the "Draw" half of prodirect
manipulation.

§6.1: "Our current implementation does not allow new shapes to be added
directly using the GUI"; §7.2 lists "the ability to synthesize program
expressions from output created directly via the user interface" as the
second prodirect-manipulation goal.  This module adds the simplest sound
version: a new shape literal is spliced into the program's output
expression, and its fresh numeric literals immediately become manipulable
locations like any hand-written ones.

The splice wraps the program's final body E (which evaluates to an
``['svg' attrs children]`` node) as::

    (case E ([kind attrs children]
             [kind attrs (append children [ <new-shape-literal> ])]))

which is output-type-directed and works for any program, no matter how E
is computed.
"""

from __future__ import annotations

from ..lang.ast import (ECase, ELet, EVar, EApp, Expr, PVar, elist,
                        iter_numbers, plist)
from ..lang.parser import parse_expr
from ..lang.program import Program
from ..lang.unparser import format_literal, unparse

_SHAPE_TEMPLATES = {
    "rect": ("x", "y", "width", "height"),
    "circle": ("cx", "cy", "r"),
    "ellipse": ("cx", "cy", "rx", "ry"),
    "line": ("x1", "y1", "x2", "y2"),
}


def shape_literal_source(kind: str, fill: str = "gray", **attrs) -> str:
    """little source for a literal shape node, e.g.
    ``shape_literal_source('rect', x=10, y=20, width=30, height=40)``."""
    if kind not in _SHAPE_TEMPLATES:
        raise ValueError(f"cannot draw shapes of kind {kind!r}; "
                         f"supported: {sorted(_SHAPE_TEMPLATES)}")
    expected = _SHAPE_TEMPLATES[kind]
    missing = [name for name in expected if name not in attrs]
    if missing:
        raise ValueError(f"{kind} needs attributes {missing}")
    stroke_attrs = ""
    if kind == "line":
        stroke_attrs = f" ['stroke' '{fill}'] ['stroke-width' 3]"
        fill_attr = ""
    else:
        fill_attr = f" ['fill' '{fill}']"
    pairs = " ".join(f"['{name}' {format_literal(float(attrs[name]))}]"
                     for name in expected)
    return f"['{kind}' [{pairs}{fill_attr}{stroke_attrs}] []]"


def _wrap_final_body(expr: Expr, wrap) -> Expr:
    """Rebuild ``expr`` with its final (non-let) body replaced by
    ``wrap(body)``; the definition spine is preserved."""
    if isinstance(expr, ELet):
        return ELet(expr.pattern, expr.bound,
                    _wrap_final_body(expr.body, wrap),
                    expr.rec, expr.from_def)
    return wrap(expr)


def add_shape(program: Program, kind: str, fill: str = "gray",
              **attrs) -> Program:
    """Return a new program whose output contains one more shape.

    The new literals receive fresh locations, so the added shape is
    directly manipulable in the very next Prepare.  The ``source`` is the
    unparse (drawn literals thawed with ``?`` in ``auto_freeze`` mode).
    """
    literal = parse_expr(shape_literal_source(kind, fill, **attrs))
    if program.auto_freeze:
        for num in iter_numbers(literal):
            num.ann = "?"
    pattern = plist([PVar("kind"), PVar("attrs"), PVar("children")])

    def wrap(body: Expr) -> Expr:
        appended = EApp(
            EApp(EVar("append"), EVar("children")),
            elist([literal]))
        rebuilt = elist([EVar("kind"), EVar("attrs"), appended])
        return ECase(body, ((pattern, rebuilt),))

    new_user = _wrap_final_body(program.user_ast, wrap)
    return Program(new_user, source=unparse(new_user),
                   prelude_frozen=program.prelude_frozen,
                   auto_freeze=program.auto_freeze)
