"""Bounding boxes for canvas shapes.

Used by tests (e.g. checking that a "group box" really spans a design,
§6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.errors import SvgError
from .canvas import Shape


@dataclass(frozen=True)
class BBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self):
        return ((self.x_min + self.x_max) / 2.0,
                (self.y_min + self.y_max) / 2.0)

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def union(self, other: "BBox") -> "BBox":
        return BBox(min(self.x_min, other.x_min),
                    min(self.y_min, other.y_min),
                    max(self.x_max, other.x_max),
                    max(self.y_max, other.y_max))


def shape_bbox(shape: Shape) -> Optional[BBox]:
    """Bounding box of a shape, or None for kinds without box geometry."""
    kind = shape.kind
    try:
        if kind == "rect":
            x = shape.simple_num("x").value
            y = shape.simple_num("y").value
            w = shape.simple_num("width").value
            h = shape.simple_num("height").value
            return BBox(x, y, x + w, y + h)
        if kind == "circle":
            cx = shape.simple_num("cx").value
            cy = shape.simple_num("cy").value
            r = shape.simple_num("r").value
            return BBox(cx - r, cy - r, cx + r, cy + r)
        if kind == "ellipse":
            cx = shape.simple_num("cx").value
            cy = shape.simple_num("cy").value
            rx = shape.simple_num("rx").value
            ry = shape.simple_num("ry").value
            return BBox(cx - rx, cy - ry, cx + rx, cy + ry)
        if kind == "line":
            x1 = shape.simple_num("x1").value
            y1 = shape.simple_num("y1").value
            x2 = shape.simple_num("x2").value
            y2 = shape.simple_num("y2").value
            return BBox(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        if kind in ("polygon", "polyline"):
            points = shape.points()
            xs = [p[0].value for p in points]
            ys = [p[1].value for p in points]
            if not xs:
                return None
            return BBox(min(xs), min(ys), max(xs), max(ys))
        if kind == "path":
            numbers = shape.path_numbers()
            axes = shape.path_coordinate_axes()
            xs = [n.value for n, axis in zip(numbers, axes) if axis == 0]
            ys = [n.value for n, axis in zip(numbers, axes) if axis == 1]
            if not xs or not ys:
                return None
            return BBox(min(xs), min(ys), max(xs), max(ys))
        if kind == "text":
            x = shape.simple_num("x").value
            y = shape.simple_num("y").value
            return BBox(x, y - 12, x + 100, y)   # nominal text extent
    except SvgError:
        return None
    return None


def canvas_bbox(shapes) -> Optional[BBox]:
    """Union of the bounding boxes of ``shapes``."""
    box: Optional[BBox] = None
    for shape in shapes:
        shape_box = shape_bbox(shape)
        if shape_box is None:
            continue
        box = shape_box if box is None else box.union(shape_box)
    return box
