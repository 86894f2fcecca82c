"""The canvas model: a flattened, indexable view of the output shapes.

The editor, zone assignment and statistics all address shapes by canvas
index and read numeric attributes (with traces) through :class:`AttrRef`
paths, which also reach inside structured attributes such as ``'points'``
and path data ``'d'``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..lang.errors import SvgError
from ..lang.values import VNum, Value, is_list, to_pylist
from ..trace.trace import all_locs
from .attrs import PATH_COMMANDS, path_command_groups
from .node import SvgNode, parse_canvas, rebuild_node


@dataclass(frozen=True)
class AttrRef:
    """A reference to one numeric attribute of a shape.

    ``path`` addresses the number:

    * ``('x',)`` — a plain numeric attribute;
    * ``('points', i, axis)`` — coordinate ``axis`` (0=x, 1=y) of point i;
    * ``('d', i)`` — the i-th number in the path data list;
    * ``('transform', c, a)`` — argument ``a`` of transform command ``c``
      (``a = 0`` is the command's name);
    * ``('fill', i)``, ``('stroke', i)`` — component i of an
      ``[r g b a]`` color.
    """

    name: str
    path: Tuple


class Shape:
    """One manipulable shape on the canvas."""

    def __init__(self, index: int, node: SvgNode):
        self.index = index
        self.node = node
        self.kind = node.kind
        self._numbers: Optional[Dict[Tuple, VNum]] = None
        self._dep_locs: Optional[frozenset] = None

    def __repr__(self) -> str:
        return f"Shape({self.index}, {self.kind!r})"

    @property
    def hidden(self) -> bool:
        return self.node.hidden

    # -- numeric attribute access ---------------------------------------------

    def numbers(self) -> Dict[Tuple, VNum]:
        """Every number in the shape's attributes, keyed by its
        :class:`AttrRef` path.

        Built in one walk of the node's attributes on first use and kept,
        as the node never changes; of a key bound twice, only the last
        binding counts (see :meth:`SvgNode.attr`).  Malformed ``'points'``,
        ``'transform'`` and ``'d'`` lists raise :class:`SvgError`.
        """
        if self._numbers is None:
            numbers: Dict[Tuple, VNum] = {}
            for key, value in dict(self.node.attrs).items():
                numbers.update(_attr_numbers(key, value))
            self._numbers = numbers
        return self._numbers

    def get_num(self, ref: AttrRef) -> VNum:
        """Resolve an :class:`AttrRef` to the numeric value it denotes."""
        number = self.numbers().get(ref.path)
        if number is None:
            key = ref.path[0]
            if self.node.attr(key) is None:
                raise SvgError(f"shape {self.index} ({self.kind}) has no "
                               f"attribute {key!r}")
            raise SvgError(f"attribute {ref.name!r} of shape {self.index} "
                           f"({self.kind}) is not a number")
        return number

    def simple_num(self, key: str) -> VNum:
        return self.get_num(AttrRef(key, (key,)))

    def points(self) -> List[Tuple[VNum, VNum]]:
        """The (x, y) numbers of each point in the 'points' list."""
        value = self.node.attr("points")
        if value is None or not is_list(value):
            raise SvgError(f"shape {self.index} has no 'points' list")
        numbers = self.numbers()
        pairs = []
        for index in range(len(to_pylist(value))):
            x = numbers.get(("points", index, 0))
            y = numbers.get(("points", index, 1))
            if x is None or y is None:
                raise SvgError(f"point {index} of shape {self.index} is "
                               "not numeric")
            pairs.append((x, y))
        return pairs

    # -- loc dependencies (what the incremental Trigger stage tests) ------------

    def attr_traces(self) -> List:
        """Traces of every numeric value in this shape's attributes."""
        return [number.trace for number in self.numbers().values()]

    def dep_locs(self) -> frozenset:
        """``Loc.ident`` of every location (frozen or not) appearing in any
        attribute trace — "which changes could affect this shape?"."""
        if self._dep_locs is None:
            self._dep_locs = frozenset(
                loc.ident for loc in all_locs(*self.attr_traces()))
        return self._dep_locs

    def path_coordinate_axes(self) -> List[int]:
        """For each ``('d', i)`` number, whether it is an x (0) or a y (1)
        coordinate."""
        value = self.node.attr("d")
        if value is None:
            raise SvgError(f"shape {self.index} has no 'd' attribute")
        axes: List[int] = []
        for command, group in path_command_groups(value):
            pattern = PATH_COMMANDS[command.upper()]
            axes.extend(pattern[position % len(pattern)]
                        for position in range(len(group)))
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


def _attr_numbers(key: str, value: Value
                  ) -> Iterator[Tuple[Tuple, VNum]]:
    """``(path, number)`` for each number in one attribute's value."""
    if isinstance(value, VNum):
        yield (key,), value
    elif not is_list(value):
        return
    elif key == "d":
        numbers = (number for _command, group in path_command_groups(value)
                   for number in group)
        for index, number in enumerate(numbers):
            yield ("d", index), number
    elif key in ("points", "transform"):
        for index, item in enumerate(to_pylist(value)):
            for position, number in enumerate(to_pylist(item)):
                if isinstance(number, VNum):
                    yield (key, index, position), number
    elif key in ("fill", "stroke"):
        for index, number in enumerate(to_pylist(value)):
            if isinstance(number, VNum):
                yield (key, index), number
