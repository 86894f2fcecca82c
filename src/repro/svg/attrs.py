"""Attribute translation ``[wk wv] ↪ svgAttr`` (paper Appendix A).

* strings pass through — "a thin wrapper over the target SVG format";
* numbers print without units (pixels);
* ``'points'`` lists become ``"x1,y1 x2,y2 …"``;
* ``'fill'``/``'stroke'`` given ``[r g b a]`` become ``rgba(…)``;
* ``'fill'``/``'stroke'`` given a *color number* in [0, 500] are mapped onto
  a hue spectrum with a grayscale band (Appendix C, "Color Numbers");
* ``'d'`` command lists become path-data strings;
* ``'transform'`` command lists become ``rotate(…)``/``matrix(…)`` strings;
* ``'ZONES'``/``'HIDDEN'``/``'TEXT'`` are editor-internal and translate to
  nothing.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..lang.errors import SvgError
from ..lang.values import VNum, VStr, Value, format_number, is_list, to_pylist

#: Hues cover color numbers 0–360; 360–500 is the grayscale band.
GRAYSCALE_START = 360.0
COLOR_NUM_MAX = 500.0


def translate_attr(key: str, value: Value) -> Optional[Tuple[str, str]]:
    """Translate one attribute pair to an XML (name, text) pair, or None
    for editor-internal attributes."""
    if key in ("ZONES", "HIDDEN", "TEXT"):
        return None
    if isinstance(value, VStr):
        return (key, value.value)
    if isinstance(value, VNum):
        if key in ("fill", "stroke"):
            return (key, color_number_to_css(value.value))
        return (key, format_number(value.value))
    if is_list(value):
        if key == "points":
            return (key, points_to_string(value))
        if key in ("fill", "stroke"):
            return (key, rgba_to_css(value))
        if key == "d":
            return (key, path_data_to_string(value))
        if key == "transform":
            return (key, transform_to_string(value))
        raise SvgError(f"attribute {key!r} does not accept a list value")
    raise SvgError(f"cannot translate attribute {key!r} "
                   f"({type(value).__name__})")


def points_to_string(value: Value) -> str:
    """``[[x1 y1] [x2 y2] …] ↪ "x1,y1 x2,y2 …"``."""
    rendered: List[str] = []
    for point in to_pylist(value):
        if not is_list(point):
            raise SvgError("'points' entries must be [x y] pairs")
        coords = to_pylist(point)
        if len(coords) != 2 or not all(isinstance(c, VNum) for c in coords):
            raise SvgError("'points' entries must be numeric [x y] pairs")
        rendered.append(f"{format_number(coords[0].value)},"
                        f"{format_number(coords[1].value)}")
    return " ".join(rendered)


def rgba_to_css(value: Value) -> str:
    """``[r g b a] ↪ 'rgba(r, g, b, a)'``."""
    parts = to_pylist(value)
    if len(parts) != 4 or not all(isinstance(p, VNum) for p in parts):
        raise SvgError("color lists must be numeric [r g b a]")
    r, g, b, a = (p.value for p in parts)
    return (f"rgba({format_number(r)},{format_number(g)},"
            f"{format_number(b)},{format_number(a)})")


def color_number_to_css(n: float) -> str:
    """Map a color number in [0, 500] onto the paper's spectrum: hues for
    [0, 360), then grayscale for [360, 500]."""
    n = max(0.0, min(COLOR_NUM_MAX, n))
    if n < GRAYSCALE_START:
        return f"hsl({format_number(round(n, 3))},100%,50%)"
    fraction = (n - GRAYSCALE_START) / (COLOR_NUM_MAX - GRAYSCALE_START)
    level = round(fraction * 255)
    return f"rgb({level},{level},{level})"


#: The path-data grammar: each (upper-case) command letter -> the axis
#: (0 = x, 1 = y) of each number in one parameter group, so a group's
#: length is the command's arity.  Of an arc's ``rx ry rotation large-arc
#: sweep x y``, ``ry`` and ``y`` count as y and the rest as x.
PATH_COMMANDS = {
    "M": (0, 1), "L": (0, 1), "H": (0,), "V": (1,), "C": (0, 1) * 3,
    "S": (0, 1) * 2, "Q": (0, 1) * 2, "T": (0, 1),
    "A": (0, 1, 0, 0, 0, 0, 1), "Z": (),
}


def path_command_groups(value: Value) -> List[Tuple[str, List[VNum]]]:
    """Split a ``'d'`` attribute list into (command, [numbers]) groups,
    validating parameter counts.  Lower-case (relative) commands are kept
    as written."""
    groups: List[Tuple[str, List[VNum]]] = []
    items = to_pylist(value)
    index = 0
    while index < len(items):
        item = items[index]
        if not isinstance(item, VStr):
            raise SvgError("path data must start each group with a "
                           "command letter")
        command = item.value
        axes = PATH_COMMANDS.get(command.upper())
        if axes is None:
            raise SvgError(f"unknown path command {command!r}")
        expected = len(axes)
        numbers: List[VNum] = []
        index += 1
        while (index < len(items) and isinstance(items[index], VNum)):
            numbers.append(items[index])
            index += 1
        if expected and (not numbers or len(numbers) % expected != 0):
            raise SvgError(
                f"path command {command!r} expects groups of {expected} "
                f"numbers, got {len(numbers)}")
        groups.append((command, numbers))
    return groups


def path_data_to_string(value: Value) -> str:
    parts: List[str] = []
    for command, numbers in path_command_groups(value):
        parts.append(command)
        parts.extend(format_number(num.value) for num in numbers)
    return " ".join(parts)


def transform_to_string(value: Value) -> str:
    """``[['rotate' a cx cy] …] ↪ "rotate(a,cx,cy) …"``."""
    rendered: List[str] = []
    for command in to_pylist(value):
        if not is_list(command):
            raise SvgError("'transform' entries must be command lists")
        parts = to_pylist(command)
        if not parts or not isinstance(parts[0], VStr):
            raise SvgError("'transform' commands must start with a name")
        name = parts[0].value
        if name not in ("rotate", "translate", "scale", "matrix"):
            raise SvgError(f"unknown transform command {name!r}")
        numbers = parts[1:]
        if not all(isinstance(n, VNum) for n in numbers):
            raise SvgError(f"transform {name!r} arguments must be numbers")
        args = ",".join(format_number(n.value) for n in numbers)
        rendered.append(f"{name}({args})")
    return " ".join(rendered)
