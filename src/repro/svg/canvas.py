"""The canvas model: a flattened, indexable view of the output shapes.

The editor, zone assignment and statistics all address shapes by canvas
index and read numeric attributes (with traces) through :class:`AttrRef`
paths, which also reach inside structured attributes such as ``'points'``
and path data ``'d'``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..lang.errors import SvgError
from ..lang.values import VNum, Value, is_list, to_pylist
from ..trace.trace import all_locs
from .attrs import path_command_groups
from .node import SvgNode, parse_canvas, rebuild_node


@dataclass(frozen=True)
class AttrRef:
    """A reference to one numeric attribute of a shape.

    ``path`` addresses the number:

    * ``('x',)`` — a plain numeric attribute;
    * ``('points', i, axis)`` — coordinate ``axis`` (0=x, 1=y) of point i;
    * ``('d', i)`` — the i-th number in the path data list.
    """

    name: str
    path: Tuple


class Shape:
    """One manipulable shape on the canvas."""

    def __init__(self, index: int, node: SvgNode):
        self.index = index
        self.node = node
        self.kind = node.kind
        self._path_numbers: Optional[List[VNum]] = None
        self._dep_locs: Optional[frozenset] = None

    def __repr__(self) -> str:
        return f"Shape({self.index}, {self.kind!r})"

    @property
    def hidden(self) -> bool:
        return self.node.hidden

    # -- numeric attribute access ---------------------------------------------

    def get_num(self, ref: AttrRef) -> VNum:
        """Resolve an :class:`AttrRef` to the numeric value it denotes."""
        key = ref.path[0]
        value = self.node.attr(key)
        if value is None:
            raise SvgError(f"shape {self.index} ({self.kind}) has no "
                           f"attribute {key!r}")
        if len(ref.path) == 1:
            if not isinstance(value, VNum):
                raise SvgError(f"attribute {key!r} is not a number")
            return value
        if key == "points":
            _, point_index, axis = ref.path
            points = to_pylist(value)
            coords = to_pylist(points[point_index])
            coord = coords[axis]
            if not isinstance(coord, VNum):
                raise SvgError(f"point {point_index} of shape "
                               f"{self.index} is not numeric")
            return coord
        if key == "d":
            _, number_index = ref.path
            numbers = self.path_numbers()
            return numbers[number_index]
        if key == "transform":
            _, command_index, arg_index = ref.path
            commands = to_pylist(value)
            parts = to_pylist(commands[command_index])
            number = parts[arg_index]
            if not isinstance(number, VNum):
                raise SvgError(f"transform argument {arg_index} of shape "
                               f"{self.index} is not numeric")
            return number
        raise SvgError(f"unsupported attribute path {ref.path!r}")

    def simple_num(self, key: str) -> VNum:
        return self.get_num(AttrRef(key, (key,)))

    def points(self) -> List[Tuple[VNum, VNum]]:
        value = self.node.attr("points")
        if value is None or not is_list(value):
            raise SvgError(f"shape {self.index} has no 'points' list")
        pairs = []
        for point in to_pylist(value):
            coords = to_pylist(point)
            pairs.append((coords[0], coords[1]))
        return pairs

    def path_numbers(self) -> List[VNum]:
        """All numbers in the path data, flattened in order.

        Cached per shape: every ``('d', i)`` AttrRef resolved through
        :meth:`get_num` (zone analysis, trigger construction, hover) hits
        the same parse, which is linear in the path length.
        """
        if self._path_numbers is not None:
            return self._path_numbers
        value = self.node.attr("d")
        if value is None:
            raise SvgError(f"shape {self.index} has no 'd' attribute")
        numbers: List[VNum] = []
        for _command, group in path_command_groups(value):
            numbers.extend(group)
        self._path_numbers = numbers
        return numbers

    # -- loc dependencies (what the incremental Trigger stage tests) ------------

    def attr_traces(self) -> List:
        """Traces of every numeric value in this shape's attributes."""
        traces = []
        for key, value in self.node.attrs:
            traces.extend(_attr_traces(key, value))
        return traces

    def dep_locs(self) -> frozenset:
        """``Loc.ident`` of every location (frozen or not) appearing in any
        attribute trace — "which changes could affect this shape?"."""
        if self._dep_locs is None:
            self._dep_locs = frozenset(
                loc.ident for loc in all_locs(*self.attr_traces()))
        return self._dep_locs

    def path_coordinate_axes(self) -> List[int]:
        """For each number in :meth:`path_numbers`, whether it is an x (0)
        or a y (1) coordinate."""
        value = self.node.attr("d")
        if value is None:
            raise SvgError(f"shape {self.index} has no 'd' attribute")
        axes: List[int] = []
        for command, group in path_command_groups(value):
            letter = command.upper()
            if letter == "H":
                axes.extend([0] * len(group))
            elif letter == "V":
                axes.extend([1] * len(group))
            elif letter == "A":
                # rx ry rot large-arc sweep x y — only the endpoint is a
                # plain coordinate pair; mark the rest as x-like.
                for chunk_start in range(0, len(group), 7):
                    axes.extend([0, 1, 0, 0, 0, 0, 1])
            else:
                for position in range(len(group)):
                    axes.append(position % 2)
        return axes


class Canvas:
    """The flattened list of shapes generated by a program run."""

    def __init__(self, root: SvgNode):
        self.root = root
        self.shapes: List[Shape] = []
        self._flatten(root)

    @classmethod
    def from_value(cls, value: Value) -> "Canvas":
        return cls(parse_canvas(value))

    @classmethod
    def rebuilt(cls, canvas: "Canvas", old_value: Value,
                new_value: Value) -> "Canvas":
        """Incremental rebuild for a *structurally identical* new output
        (see :func:`~repro.svg.node.rebuild_node`).  Traces are preserved,
        so every shape's dependency set (:meth:`Shape.dep_locs`) carries
        over unchanged.

        The flatten order only depends on node kinds, which the rebuild
        preserves, so shapes are paired with their predecessors by
        position: an untouched node keeps its old :class:`Shape` (and
        thereby its lazy caches — both are pure functions of the node), a
        rebuilt one gets a fresh wrapper with the dependency set
        transplanted."""
        new_root = rebuild_node(canvas.root, old_value, new_value)
        new_canvas = cls.__new__(cls)
        new_canvas.root = new_root
        new_canvas.shapes = shapes = []
        old_shapes = canvas.shapes

        def walk(node: SvgNode) -> None:
            for child in node.children:
                if child.kind in ("svg", "g"):
                    walk(child)
                else:
                    old_shape = old_shapes[len(shapes)]
                    if child is old_shape.node:
                        shapes.append(old_shape)
                    else:
                        shape = Shape(len(shapes), child)
                        shape._dep_locs = old_shape._dep_locs
                        shapes.append(shape)

        walk(new_root)
        return new_canvas

    def _flatten(self, node: SvgNode) -> None:
        for child in node.children:
            if child.kind in ("svg", "g"):
                self._flatten(child)
            else:
                self.shapes.append(Shape(len(self.shapes), child))

    def __len__(self) -> int:
        return len(self.shapes)

    def __iter__(self) -> Iterator[Shape]:
        return iter(self.shapes)

    def __getitem__(self, index: int) -> Shape:
        return self.shapes[index]

    def visible_shapes(self) -> List[Shape]:
        return [shape for shape in self.shapes if not shape.hidden]

    def shapes_of_kind(self, kind: str) -> List[Shape]:
        return [shape for shape in self.shapes if shape.kind == kind]

    def all_numeric_traces(self):
        """Traces of every numeric attribute on the canvas — the trace pool
        used by the biased heuristic and the Appendix G "# Output Locs"
        statistic."""
        traces = []
        for shape in self.shapes:
            traces.extend(shape.attr_traces())
        return traces


def _attr_traces(key: str, value: Value):
    if isinstance(value, VNum):
        return [value.trace]
    if key == "points" and is_list(value):
        traces = []
        for point in to_pylist(value):
            if is_list(point):
                for coord in to_pylist(point):
                    if isinstance(coord, VNum):
                        traces.append(coord.trace)
        return traces
    if key in ("d", "fill", "stroke", "transform") and is_list(value):
        traces = []
        stack = list(to_pylist(value))
        while stack:
            item = stack.pop()
            if isinstance(item, VNum):
                traces.append(item.trace)
            elif is_list(item):
                stack.extend(to_pylist(item))
        return traces
    return []
