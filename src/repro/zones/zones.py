"""Zones: the directly-manipulable areas of each shape kind (Figure 5).

Each zone controls a set of attributes; each controlled attribute varies
covariantly (``+dx``/``+dy``) or contravariantly (``−dx``/``−dy``) with the
mouse offset.  E.g. dragging a rect's BOTLEFTCORNER moves ``x`` with
``+dx``, ``width`` with ``−dx`` and ``height`` with ``+dy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..lang.values import VNum, VStr, is_list, to_pylist
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


_X, _Y = _simple("x", X_AXIS), _simple("y", Y_AXIS)
_W, _H = _simple("width", X_AXIS), _simple("height", Y_AXIS)
_NEG_W, _NEG_H = _simple("width", X_AXIS, -1), _simple("height", Y_AXIS, -1)
_CX, _CY = _simple("cx", X_AXIS), _simple("cy", Y_AXIS)
_POINT1 = (_simple("x1", X_AXIS), _simple("y1", Y_AXIS))
_POINT2 = (_simple("x2", X_AXIS), _simple("y2", Y_AXIS))

#: Figure 5 for the shape kinds whose attributes are fixed: each zone, in
#: order, with the features it controls.  Built once; every shape of a
#: kind shares these :class:`Feature` objects.
FIGURE_5 = {
    "rect": {
        "INTERIOR": (_X, _Y),
        "RIGHTEDGE": (_W,),
        "BOTRIGHTCORNER": (_W, _H),
        "BOTEDGE": (_H,),
        "BOTLEFTCORNER": (_X, _NEG_W, _H),
        "LEFTEDGE": (_X, _NEG_W),
        "TOPLEFTCORNER": (_X, _Y, _NEG_W, _NEG_H),
        "TOPEDGE": (_Y, _NEG_H),
        "TOPRIGHTCORNER": (_Y, _W, _NEG_H),
    },
    "line": {"POINT1": _POINT1, "POINT2": _POINT2,
             "EDGE": _POINT1 + _POINT2},
    "circle": {"INTERIOR": (_CX, _CY),
               "RIGHTEDGE": (_simple("r", X_AXIS),),
               "BOTEDGE": (_simple("r", Y_AXIS),)},
    "ellipse": {"INTERIOR": (_CX, _CY),
                "RIGHTEDGE": (_simple("rx", X_AXIS),),
                "BOTEDGE": (_simple("ry", Y_AXIS),)},
    "text": {"INTERIOR": (_X, _Y)},
}

_FILL = (_simple("fill", X_AXIS),)


def _poly_zones(shape: Shape, closed: bool) -> List[Zone]:
    """POINTi, EDGEi and INTERIOR zones; each point's two features are
    built once and shared by the zones that move it."""
    i = shape.index
    points = [
        (Feature(AttrRef(f"points[{index}].x", ("points", index, 0)),
                 X_AXIS, 1),
         Feature(AttrRef(f"points[{index}].y", ("points", index, 1)),
                 Y_AXIS, 1))
        for index in range(len(shape.points()))]
    count = len(points)
    zones = [Zone(i, f"POINT{index}", point)
             for index, point in enumerate(points)]
    edge_count = count if closed else count - 1
    zones.extend(Zone(i, f"EDGE{index}",
                      points[index] + points[(index + 1) % count])
                 for index in range(edge_count))
    zones.append(Zone(i, "INTERIOR",
                      tuple(feature for point in points for feature in point)))
    return zones


def _path_zones(shape: Shape) -> List[Zone]:
    i = shape.index
    features = [Feature(AttrRef(f"d[{index}]", ("d", index)),
                        X_AXIS if axis == 0 else Y_AXIS, 1)
                for index, axis in enumerate(shape.path_coordinate_axes())]
    zones: List[Zone] = []
    # Group consecutive (x, y) coordinate pairs into POINT zones; stray
    # single coordinates (H/V commands) get their own single-axis zones.
    number_index = 0
    while number_index < len(features):
        pair = features[number_index:number_index + 2]
        if len(pair) < 2 or pair[0].axis != X_AXIS or pair[1].axis != Y_AXIS:
            pair = pair[:1]
        zones.append(Zone(i, f"POINT{len(zones)}", tuple(pair)))
        number_index += len(pair)
    if features:
        zones.append(Zone(i, "INTERIOR", tuple(features)))
    return zones


def _rotation_zones(shape: Shape) -> List[Zone]:
    """A built-in ROTATION zone per 'rotate' transform command (§5.2.2
    mentions "separate built-in rotation zones in our implementation").
    Horizontal dragging varies the angle."""
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
    if isinstance(shape.node.attr("fill"), VNum):
        return [Zone(shape.index, "FILL", _FILL)]
    return []


def zones_for_shape(shape: Shape) -> List[Zone]:
    """All zones of ``shape`` per the Figure 5 tables, plus the built-in
    ROTATION and FILL zones of the implementation appendix.

    A shape carrying the non-standard ``['ZONES' 'none']`` attribute opts
    out of direct manipulation entirely (Appendix A)."""
    zones_attr = shape.node.attr("ZONES")
    if isinstance(zones_attr, VStr) and zones_attr.value == "none":
        return []
    kind = shape.kind
    if kind in ("polygon", "polyline"):
        zones = _poly_zones(shape, closed=kind == "polygon")
    elif kind == "path":
        zones = _path_zones(shape)
    else:
        zones = [Zone(shape.index, name, features)
                 for name, features in FIGURE_5.get(kind, {}).items()]
    zones.extend(_rotation_zones(shape))
    zones.extend(_fill_color_zone(shape))
    return zones


def zones_for_canvas(canvas) -> List[Zone]:
    zones: List[Zone] = []
    for shape in canvas:
        zones.extend(zones_for_shape(shape))
    return zones
