"""Serialize :class:`~repro.svg.node.SvgNode` trees to SVG/XML text.

Matches the reference implementation's export facility (Appendix C,
"Exporting to SVG"): editor-internal attributes are stripped, ``TEXT``
becomes character data, and hidden helper shapes may optionally be omitted.
"""

from __future__ import annotations

from typing import List

from ..lang.values import VStr
from .attrs import translate_attr
from .node import SvgNode

_XML_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}

#: Canvas size for a program whose 'svg' root sets no width.
DEFAULT_WIDTH, DEFAULT_HEIGHT = 800, 600


def _escape(text: str) -> str:
    for char, escape in _XML_ESCAPES.items():
        text = text.replace(char, escape)
    return text


def render_node(node: SvgNode, *, include_hidden: bool = True,
                indent: int = 0) -> str:
    """Render one node (and its children) as SVG text."""
    pad = "  " * indent
    rendered_attrs: List[str] = []
    text_content = ""
    for key, value in node.attrs:
        if key == "TEXT" and isinstance(value, VStr):
            text_content = _escape(value.value)
            continue
        translated = translate_attr(key, value)
        if translated is None:
            continue
        name, text = translated
        rendered_attrs.append(f'{name}="{_escape(text)}"')
    attr_text = (" " + " ".join(rendered_attrs)) if rendered_attrs else ""
    children = [child for child in node.children
                if include_hidden or not child.hidden]
    if not children and not text_content:
        return f"{pad}<{node.kind}{attr_text}/>"
    lines = [f"{pad}<{node.kind}{attr_text}>"]
    if text_content:
        lines.append(f"{pad}  {text_content}")
    for child in children:
        lines.append(render_node(child, include_hidden=include_hidden,
                                 indent=indent + 1))
    lines.append(f"{pad}</{node.kind}>")
    return "\n".join(lines)


def render_canvas(node: SvgNode, *, include_hidden: bool = False) -> str:
    """Render the canvas ('svg' root) as a standalone SVG document."""
    if node.kind != "svg":
        raise ValueError("render_canvas expects an 'svg' root node")
    if not node.has_attr("width"):
        defaults = (f'xmlns="http://www.w3.org/2000/svg" '
                    f'width="{DEFAULT_WIDTH}" height="{DEFAULT_HEIGHT}"')
    else:
        defaults = 'xmlns="http://www.w3.org/2000/svg"'
    body = render_node(node, include_hidden=include_hidden)
    # Splice the xmlns/size attributes into the root element.
    head, _, rest = body.partition(">")
    if head.endswith("/"):
        head = head[:-1]
        rest = "</svg>"
        return f"{head} {defaults}></svg>"
    return f"{head} {defaults}>{rest}"
