"""The SVG node model: little values → structured nodes (§2, Appendix A).

"An SVG node is represented as a list ``[svgNodeKind attributes children]``
… the intended result of a little program is a node with kind 'svg'."

Attribute values stay as little run-time values, so numbers keep their
traces — the zone machinery reads them through :class:`AttrRef` paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..lang.errors import SvgError
from ..lang.values import VNum, VStr, Value, is_list, to_pylist

#: Shape kinds with dedicated zone tables (Figure 5).
SHAPE_KINDS = frozenset({
    "rect", "circle", "ellipse", "line", "polygon", "polyline", "path",
    "text",
})

#: Non-standard attributes consumed by the editor, stripped when exporting
#: ("we eliminate them when translating to SVG", Appendix A).
EDITOR_ATTRS = frozenset({"ZONES", "HIDDEN", "TEXT"})


@dataclass
class SvgNode:
    kind: str
    attrs: List[Tuple[str, Value]]
    children: List["SvgNode"]

    def attr(self, key: str) -> Optional[Value]:
        """The value of the *last* binding of ``key`` (later attributes
        override earlier ones, as in SVG/XML processing)."""
        found = None
        for name, value in self.attrs:
            if name == key:
                found = value
        return found

    def has_attr(self, key: str) -> bool:
        return any(name == key for name, _ in self.attrs)

    def num(self, key: str) -> VNum:
        value = self.attr(key)
        if not isinstance(value, VNum):
            raise SvgError(f"attribute {key!r} of {self.kind!r} is not "
                           "a number")
        return value

    @property
    def hidden(self) -> bool:
        """Marked with the 'HIDDEN' attribute (helper shapes, §6.3)."""
        return self.has_attr("HIDDEN")


#: How deep SVG nodes may nest in a program's output.  Converting,
#: flattening, rebuilding and rendering the canvas recurse once or twice per
#: level, so this keeps them well inside the recursion limit the parser
#: sets; a deeper output is a program error (the examples nest two levels).
MAX_NESTING = 2000


def value_to_node(value: Value, path: str = "root",
                  depth: int = 0) -> SvgNode:
    """Validate and convert a little value into an :class:`SvgNode` tree,
    ``depth`` levels below the root."""
    if depth > MAX_NESTING:
        raise SvgError(f"SVG nodes nest more than {MAX_NESTING} levels deep")
    if not is_list(value):
        raise SvgError(f"{path}: SVG node must be a list")
    parts = to_pylist(value)
    if len(parts) != 3:
        raise SvgError(f"{path}: SVG node must have exactly 3 elements "
                       f"[kind attrs children], got {len(parts)}")
    kind_value, attrs_value, children_value = parts
    if not isinstance(kind_value, VStr):
        raise SvgError(f"{path}: node kind must be a string")
    kind = kind_value.value
    if not is_list(attrs_value):
        raise SvgError(f"{path}: attributes of {kind!r} must be a list")
    attrs: List[Tuple[str, Value]] = []
    for index, pair in enumerate(to_pylist(attrs_value)):
        if not is_list(pair):
            raise SvgError(f"{path}: attribute {index} of {kind!r} is not "
                           "a [key value] pair")
        pair_parts = to_pylist(pair)
        if len(pair_parts) != 2 or not isinstance(pair_parts[0], VStr):
            raise SvgError(f"{path}: attribute {index} of {kind!r} must be "
                           "a [key value] pair with a string key")
        attrs.append((pair_parts[0].value, pair_parts[1]))
    if not is_list(children_value):
        raise SvgError(f"{path}: children of {kind!r} must be a list")
    children = [value_to_node(child, f"{path}/{kind}[{index}]", depth + 1)
                for index, child in enumerate(to_pylist(children_value))]
    return SvgNode(kind, attrs, children)


def rebuild_node(node: SvgNode, old_value: Value,
                 new_value: Value) -> SvgNode:
    """Rebuild a validated node for a *structurally identical* new value.

    This is the incremental drag path: ``new_value`` came out of
    :func:`repro.lang.incremental.reevaluate`, which only swaps numeric
    leaves inside the structure ``node`` was built (and validated) from,
    sharing every unchanged subtree by identity.  Unchanged subtrees map
    to the existing nodes; changed ones are rebuilt without re-validation.
    """
    if new_value is old_value:
        return node
    # ``node`` was validated by :func:`value_to_node`, so both values are
    # the cons spine ``[kind attrs children]`` with ``len(node.attrs)``
    # attribute pairs and ``len(node.children)`` children — destructure the
    # cells directly rather than materializing python lists on every drag
    # step (this is the hottest part of the incremental canvas rebuild).
    old_rest = old_value.tail
    new_rest = new_value.tail
    old_attrs_value = old_rest.head
    new_attrs_value = new_rest.head
    if new_attrs_value is old_attrs_value:
        attrs = node.attrs
    else:
        attrs = []
        old_cell = old_attrs_value
        new_cell = new_attrs_value
        for entry in node.attrs:
            new_pair = new_cell.head
            if new_pair is old_cell.head:
                attrs.append(entry)
            else:
                attrs.append((entry[0], new_pair.tail.head))
            old_cell = old_cell.tail
            new_cell = new_cell.tail
    old_children_value = old_rest.tail.head
    new_children_value = new_rest.tail.head
    if new_children_value is old_children_value:
        children = node.children
    else:
        children = []
        old_cell = old_children_value
        new_cell = new_children_value
        for child in node.children:
            new_child = new_cell.head
            children.append(child if new_child is old_cell.head
                            else rebuild_node(child, old_cell.head,
                                              new_child))
            old_cell = old_cell.tail
            new_cell = new_cell.tail
    return SvgNode(node.kind, attrs, children)


def parse_canvas(value: Value) -> SvgNode:
    """Convert a program's output into its canvas node, checking the §2
    requirement that the result has kind 'svg'."""
    node = value_to_node(value)
    if node.kind != "svg":
        raise SvgError(
            f"program output must be an 'svg' node, got {node.kind!r}")
    return node
