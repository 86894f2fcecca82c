"""Zones: the directly-manipulable areas of each shape kind (Figure 5).

Each zone controls a set of attributes; each controlled attribute varies
covariantly (``+dx``/``+dy``) or contravariantly (``−dx``/``−dy``) with the
mouse offset.  E.g. dragging a rect's BOTLEFTCORNER moves ``x`` with
``+dx``, ``width`` with ``−dx`` and ``height`` with ``+dy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..svg.canvas import AttrRef, Shape

X_AXIS = "x"
Y_AXIS = "y"


@dataclass(frozen=True)
class Feature:
    """One attribute controlled by a zone, with its offset behaviour."""

    ref: AttrRef
    axis: str       # X_AXIS or Y_AXIS: which mouse delta applies
    sign: int       # +1 covariant, -1 contravariant


@dataclass(frozen=True)
class Zone:
    shape_index: int
    name: str
    features: Tuple[Feature, ...]


def _simple(key: str, axis: str, sign: int = 1) -> Feature:
    return Feature(AttrRef(key, (key,)), axis, sign)


def _point_feature(index: int, axis_index: int, axis: str,
                   sign: int = 1) -> Feature:
    name = f"points[{index}].{'x' if axis_index == 0 else 'y'}"
    return Feature(AttrRef(name, ("points", index, axis_index)), axis, sign)


def _rect_zones(shape: Shape) -> List[Zone]:
    i = shape.index
    x_dx = _simple("x", X_AXIS)
    y_dy = _simple("y", Y_AXIS)
    w_dx = _simple("width", X_AXIS)
    w_ndx = _simple("width", X_AXIS, -1)
    h_dy = _simple("height", Y_AXIS)
    h_ndy = _simple("height", Y_AXIS, -1)
    return [
        Zone(i, "INTERIOR", (x_dx, y_dy)),
        Zone(i, "RIGHTEDGE", (w_dx,)),
        Zone(i, "BOTRIGHTCORNER", (w_dx, h_dy)),
        Zone(i, "BOTEDGE", (h_dy,)),
        Zone(i, "BOTLEFTCORNER", (x_dx, w_ndx, h_dy)),
        Zone(i, "LEFTEDGE", (x_dx, w_ndx)),
        Zone(i, "TOPLEFTCORNER", (x_dx, y_dy, w_ndx, h_ndy)),
        Zone(i, "TOPEDGE", (y_dy, h_ndy)),
        Zone(i, "TOPRIGHTCORNER", (y_dy, w_dx, h_ndy)),
    ]


def _line_zones(shape: Shape) -> List[Zone]:
    i = shape.index
    return [
        Zone(i, "POINT1", (_simple("x1", X_AXIS), _simple("y1", Y_AXIS))),
        Zone(i, "POINT2", (_simple("x2", X_AXIS), _simple("y2", Y_AXIS))),
        Zone(i, "EDGE", (_simple("x1", X_AXIS), _simple("y1", Y_AXIS),
                         _simple("x2", X_AXIS), _simple("y2", Y_AXIS))),
    ]


def _circle_zones(shape: Shape) -> List[Zone]:
    i = shape.index
    return [
        Zone(i, "INTERIOR", (_simple("cx", X_AXIS), _simple("cy", Y_AXIS))),
        Zone(i, "RIGHTEDGE", (_simple("r", X_AXIS),)),
        Zone(i, "BOTEDGE", (_simple("r", Y_AXIS),)),
    ]


def _ellipse_zones(shape: Shape) -> List[Zone]:
    i = shape.index
    return [
        Zone(i, "INTERIOR", (_simple("cx", X_AXIS), _simple("cy", Y_AXIS))),
        Zone(i, "RIGHTEDGE", (_simple("rx", X_AXIS),)),
        Zone(i, "BOTEDGE", (_simple("ry", Y_AXIS),)),
    ]


def _poly_zones(shape: Shape, closed: bool) -> List[Zone]:
    i = shape.index
    points = shape.points()
    count = len(points)
    zones: List[Zone] = []
    for index in range(count):
        zones.append(Zone(i, f"POINT{index}",
                          (_point_feature(index, 0, X_AXIS),
                           _point_feature(index, 1, Y_AXIS))))
    edge_count = count if closed else count - 1
    for index in range(edge_count):
        next_index = (index + 1) % count
        zones.append(Zone(i, f"EDGE{index}",
                          (_point_feature(index, 0, X_AXIS),
                           _point_feature(index, 1, Y_AXIS),
                           _point_feature(next_index, 0, X_AXIS),
                           _point_feature(next_index, 1, Y_AXIS))))
    interior = []
    for index in range(count):
        interior.append(_point_feature(index, 0, X_AXIS))
        interior.append(_point_feature(index, 1, Y_AXIS))
    zones.append(Zone(i, "INTERIOR", tuple(interior)))
    return zones


def _path_zones(shape: Shape) -> List[Zone]:
    i = shape.index
    axes = shape.path_coordinate_axes()
    zones: List[Zone] = []
    # Group consecutive (x, y) coordinate pairs into POINT zones; stray
    # single coordinates (H/V commands) get their own single-axis zones.
    point_index = 0
    number_index = 0
    while number_index < len(axes):
        if (number_index + 1 < len(axes) and axes[number_index] == 0
                and axes[number_index + 1] == 1):
            zones.append(Zone(i, f"POINT{point_index}", (
                Feature(AttrRef(f"d[{number_index}]",
                                ("d", number_index)), X_AXIS, 1),
                Feature(AttrRef(f"d[{number_index + 1}]",
                                ("d", number_index + 1)), Y_AXIS, 1),
            )))
            number_index += 2
        else:
            axis = X_AXIS if axes[number_index] == 0 else Y_AXIS
            zones.append(Zone(i, f"POINT{point_index}", (
                Feature(AttrRef(f"d[{number_index}]",
                                ("d", number_index)), axis, 1),
            )))
            number_index += 1
        point_index += 1
    interior = tuple(
        Feature(AttrRef(f"d[{index}]", ("d", index)),
                X_AXIS if axis == 0 else Y_AXIS, 1)
        for index, axis in enumerate(axes))
    if interior:
        zones.append(Zone(i, "INTERIOR", interior))
    return zones


def _text_zones(shape: Shape) -> List[Zone]:
    return [Zone(shape.index, "INTERIOR",
                 (_simple("x", X_AXIS), _simple("y", Y_AXIS)))]


def _rotation_zones(shape: Shape) -> List[Zone]:
    """A built-in ROTATION zone per 'rotate' transform command (§5.2.2
    mentions "separate built-in rotation zones in our implementation").
    Horizontal dragging varies the angle."""
    from ..lang.values import VNum, VStr, is_list, to_pylist
    value = shape.node.attr("transform")
    if value is None or not is_list(value):
        return []
    zones: List[Zone] = []
    for index, command in enumerate(to_pylist(value)):
        if not is_list(command):
            continue
        parts = to_pylist(command)
        if (len(parts) >= 2 and isinstance(parts[0], VStr)
                and parts[0].value == "rotate"
                and isinstance(parts[1], VNum)):
            name = "ROTATION" if not zones else f"ROTATION{index}"
            ref = AttrRef(f"transform[{index}].angle",
                          ("transform", index, 1))
            zones.append(Zone(shape.index, name,
                              (Feature(ref, X_AXIS, 1),)))
    return zones


def _fill_color_zone(shape: Shape) -> List[Zone]:
    """A FILL zone when the fill is a *color number* (Appendix C): "our
    editor displays a slider right next to the object that allows direct
    manipulation control over the 'fill' attribute"."""
    from ..lang.values import VNum
    value = shape.node.attr("fill")
    if isinstance(value, VNum):
        return [Zone(shape.index, "FILL",
                     (Feature(AttrRef("fill", ("fill",)), X_AXIS, 1),))]
    return []


def zones_for_shape(shape: Shape) -> List[Zone]:
    """All zones of ``shape`` per the Figure 5 tables, plus the built-in
    ROTATION and FILL zones of the implementation appendix.

    A shape carrying the non-standard ``['ZONES' 'none']`` attribute opts
    out of direct manipulation entirely (Appendix A)."""
    from ..lang.values import VStr
    zones_attr = shape.node.attr("ZONES")
    if isinstance(zones_attr, VStr) and zones_attr.value == "none":
        return []
    kind = shape.kind
    if kind == "rect":
        zones = _rect_zones(shape)
    elif kind == "line":
        zones = _line_zones(shape)
    elif kind == "circle":
        zones = _circle_zones(shape)
    elif kind == "ellipse":
        zones = _ellipse_zones(shape)
    elif kind == "polygon":
        zones = _poly_zones(shape, closed=True)
    elif kind == "polyline":
        zones = _poly_zones(shape, closed=False)
    elif kind == "path":
        zones = _path_zones(shape)
    elif kind == "text":
        zones = _text_zones(shape)
    else:
        zones = []
    zones.extend(_rotation_zones(shape))
    zones.extend(_fill_color_zone(shape))
    return zones


def zones_for_canvas(canvas) -> List[Zone]:
    zones: List[Zone] = []
    for shape in canvas:
        zones.extend(zones_for_shape(shape))
    return zones
