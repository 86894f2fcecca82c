"""SVG → little importer.

The paper built the Elm logo by hand-"massaging the definition from the
SVG format to the representation in little.  This process will be
automatic once we add support for importing SVG images directly"
(Appendix D).  This module is that importer: it converts an SVG document
into little source whose literal numbers then become manipulable
locations, exactly like the hand-translated logos.

Real-world coverage: group ``transform`` attributes compose onto their
children, ``style="fill:red"`` declarations are promoted to attributes,
``<tspan>`` runs contribute to the text content, the root's
``viewBox``/``width``/``height`` survive, and anything the little
lexer cannot represent raises a typed
:class:`~repro.lang.errors.SvgImportError` (with a ``reason`` failure
class) instead of silently emitting a program that will not parse.

>>> print(svg_to_little('<svg viewBox="0 0 20 20">'
...                     '<g transform="translate(5 5)">'
...                     '<rect x="1" y="2" width="3" height="4" '
...                     'style="fill:teal"/></g></svg>'))
; imported from SVG
['svg' [['viewBox' '0 0 20 20'] ['width' 20] ['height' 20]] [
  ['rect' [['x' 1] ['y' 2] ['width' 3] ['height' 4] ['fill' 'teal'] ['transform' [['translate' 5 5]]]] []]
]]
<BLANKLINE>
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ElementTree
from typing import Dict, List, Optional, Sequence, Tuple

from ..lang.errors import SvgImportError
from ..lang.unparser import format_literal
from .attrs import PATH_COMMANDS

SUPPORTED_SHAPES = ("rect", "circle", "ellipse", "line", "polygon",
                    "polyline", "path", "text")

#: Container elements whose children are imported in place (their
#: ``transform``, if any, composes onto every descendant shape).
_CONTAINER_TAGS = ("svg", "g", "a", "switch")

#: Presentation attributes imported verbatim as strings.
_STRING_ATTRS = ("fill", "stroke", "stroke-width", "opacity",
                 "fill-opacity", "stroke-opacity", "stroke-linecap",
                 "stroke-linejoin", "stroke-dasharray", "fill-rule",
                 "rx", "ry")

#: ``style`` declarations promoted to real attributes (CSS wins over the
#: presentation attribute of the same name, per the cascade).
_STYLE_PROMOTED = frozenset(_STRING_ATTRS)

_NUMERIC_ATTRS = {
    "rect": ("x", "y", "width", "height", "rx", "ry"),
    "circle": ("cx", "cy", "r"),
    "ellipse": ("cx", "cy", "rx", "ry"),
    "line": ("x1", "y1", "x2", "y2"),
    "text": ("x", "y"),
    "polygon": (),
    "polyline": (),
    "path": (),
}

_NUMBER = re.compile(r"-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_TRANSFORM = re.compile(r"([A-Za-z][A-Za-z]*)\s*\(([^)]*)\)")
_TRANSFORM_COMMANDS = frozenset({"rotate", "translate", "scale", "matrix"})
_CSS_URL_QUOTES = re.compile(r"url\(\s*(['\"])(.*?)\1\s*\)")
_PATH_SEPARATORS = frozenset(" \t\r\n,")
#: CSS length units accepted (and stripped) on root width/height; pixel
#: equivalence is assumed, percentages defer to the viewBox.
_LENGTH_UNITS = ("px", "pt", "pc", "mm", "cm", "in", "em", "ex")


def _finite(number: float, context: str) -> float:
    """Reject NaN/infinity with a clean, classified diagnostic."""
    if not math.isfinite(number):
        raise SvgImportError(f"non-finite number in {context}",
                             reason="number")
    return number


def _format(number: float) -> str:
    if not math.isfinite(number):
        raise SvgImportError(f"cannot emit non-finite number {number!r}",
                             reason="number")
    return format_literal(number)


def _strip_namespace(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_points(text: str) -> List[List[float]]:
    """``"x1,y1 x2,y2 …"`` → [[x1, y1], [x2, y2], …]."""
    numbers = [_finite(float(match.group()), "points attribute")
               for match in _NUMBER.finditer(text)]
    if len(numbers) % 2 != 0:
        raise SvgImportError("odd number of coordinates in points attribute",
                             reason="points")
    return [[numbers[i], numbers[i + 1]]
            for i in range(0, len(numbers), 2)]


def parse_path_data(text: str) -> List[object]:
    """``"M 10 20 C …"`` → the little command-list encoding
    (['M' 10 20 'C' …]).

    Arc commands are parsed per the SVG grammar: the 4th and 5th
    parameters of every ``A``/``a`` group are *flags* — single ``0``/``1``
    digits that may be concatenated with the following number
    (``"A5 5 0 011 10"`` is rx=5 ry=5 rot=0 large-arc=0 sweep=1 x=1 y=10,
    not sweep=11).  Parameter-group sizes are validated, so a document
    whose path data cannot mean what it says is rejected here instead of
    surfacing as a corrupt canvas later.

    >>> parse_path_data("A5 5 0 011 10")
    ['A', 5.0, 5.0, 0.0, 0.0, 1.0, 1.0, 10.0]
    """
    items: List[object] = []
    command: Optional[str] = None
    params = 0                       # numbers consumed since the command
    pos = 0
    length = len(text)

    def close_group() -> None:
        if command is None:
            return
        arity = len(PATH_COMMANDS[command.upper()])
        if arity == 0:
            return
        if params == 0 or params % arity != 0:
            raise SvgImportError(
                f"path command {command!r} expects groups of {arity} "
                f"parameters, got {params}", reason="path")

    while pos < length:
        char = text[pos]
        if char in _PATH_SEPARATORS:
            pos += 1
            continue
        if char.isalpha():
            if char.upper() not in PATH_COMMANDS:
                raise SvgImportError(f"unknown path command {char!r}",
                                     reason="path")
            close_group()
            command = char
            params = 0
            items.append(char)
            pos += 1
            continue
        if command is None:
            raise SvgImportError("path data must start with a command "
                                 "letter", reason="path")
        if not PATH_COMMANDS[command.upper()]:
            raise SvgImportError("number after path command 'Z'",
                                 reason="path")
        if command in ("A", "a") and params % 7 in (3, 4):
            # large-arc-flag / sweep-flag: exactly one digit, 0 or 1.
            if char not in "01":
                raise SvgImportError(
                    f"arc flag must be 0 or 1, got {char!r}", reason="path")
            items.append(float(char))
            params += 1
            pos += 1
            continue
        match = _NUMBER.match(text, pos)
        if match is None:
            raise SvgImportError(
                f"unexpected character {char!r} in path data", reason="path")
        items.append(_finite(float(match.group()), "path data"))
        params += 1
        pos = match.end()
    close_group()
    if items and not isinstance(items[0], str):
        raise SvgImportError("path data must start with a command letter",
                             reason="path")
    return items


def parse_transform(text: str) -> List[List[object]]:
    """``"rotate(45 10 10) …"`` → [['rotate' 45 10 10] …].

    Only the transform functions the canvas model understands are
    accepted; an exotic one (``skewX``, CSS ``translateX``) raises — a
    silently dropped transform would import the shape at the wrong
    position.
    """
    commands: List[List[object]] = []
    for name, args in _TRANSFORM.findall(text):
        if name not in _TRANSFORM_COMMANDS:
            raise SvgImportError(f"unsupported transform function {name!r}",
                                 reason="transform")
        numbers = [_finite(float(match.group()), f"transform {name!r}")
                   for match in _NUMBER.finditer(args)]
        commands.append([name] + numbers)
    return commands


def _sanitize_string(key: str, value: str) -> str:
    """Make an attribute string representable as a little string literal.

    The little lexer has no escape sequences — a string runs to the next
    ``'``.  CSS-quoted ``url('#id')`` references are normalized to the
    equivalent unquoted form; any quote that survives is unrepresentable
    and quarantines the document with a clean diagnostic instead of
    emitting a program ``parse_program`` rejects.
    """
    value = _CSS_URL_QUOTES.sub(lambda m: f"url({m.group(2)})", value)
    if "'" in value:
        raise SvgImportError(
            f"attribute {key!r} contains a quote the little lexer cannot "
            f"represent: {value!r}", reason="string")
    return value


def parse_style(text: str) -> Tuple[Dict[str, str], str]:
    """Split a ``style`` attribute into promoted declarations and the
    residual CSS text.

    Declarations naming a supported presentation attribute are promoted
    (the cascade makes them override the attribute of the same name);
    everything else is kept verbatim in the residual ``style`` string so
    rendering stays faithful.

    >>> parse_style("fill: red; cursor: pointer")
    ({'fill': 'red'}, 'cursor:pointer')
    """
    promoted: Dict[str, str] = {}
    residual: List[str] = []
    for declaration in text.split(";"):
        if not declaration.strip():
            continue
        prop, colon, value = declaration.partition(":")
        prop = prop.strip().lower()
        value = value.strip()
        if not colon or not prop or not value:
            continue                 # tolerate sloppy wild CSS
        if prop in _STYLE_PROMOTED:
            promoted[prop] = value
        else:
            residual.append(f"{prop}:{value}")
    return promoted, ";".join(residual)


def _emit_value(value: object) -> str:
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, float):
        return _format(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, list):
        return "[" + " ".join(_emit_value(item) for item in value) + "]"
    raise SvgImportError(f"cannot emit value {value!r}")


def _emit_attr(key: str, value: object) -> str:
    if isinstance(value, str):
        value = _sanitize_string(key, value)
    return f"['{key}' {_emit_value(value)}]"


def _element_text(element: ElementTree.Element) -> str:
    """All character data under a ``<text>`` element — ``<tspan>`` runs
    included — whitespace-normalized the way XML renderers collapse it."""
    return " ".join("".join(element.itertext()).split())


def _import_element(element: ElementTree.Element, lines: List[str],
                    indent: str,
                    inherited: Sequence[List[object]] = ()) -> None:
    tag = _strip_namespace(element.tag)
    if tag in _CONTAINER_TAGS:
        transform = list(inherited)
        raw = element.get("transform")
        if raw is not None:
            transform += parse_transform(raw)
        for child in element:
            _import_element(child, lines, indent, transform)
        return
    if tag not in SUPPORTED_SHAPES:
        return                      # silently skip defs, metadata, etc.
    # Attribute order is preserved; collisions (style promotion) replace
    # in place so the emitted node never carries duplicate keys.
    attrs: Dict[str, object] = {}
    numeric = _NUMERIC_ATTRS.get(tag, ())
    style_promoted: Dict[str, str] = {}
    own_transform: List[List[object]] = []
    for key, raw in element.attrib.items():
        key = _strip_namespace(key)
        if key in numeric:
            try:
                number = float(raw)
            except ValueError:
                pass                # fall through: keep as string
            else:
                attrs[key] = _finite(number, f"attribute {key!r}")
                continue
        if key == "points" and tag in ("polygon", "polyline"):
            attrs["points"] = parse_points(raw)
        elif key == "d" and tag == "path":
            attrs["d"] = parse_path_data(raw)
        elif key == "transform":
            own_transform = parse_transform(raw)
        elif key == "style":
            style_promoted, residual = parse_style(raw)
            if residual:
                attrs["style"] = residual
        elif key in _STRING_ATTRS or key.startswith("data-"):
            attrs[key] = raw
        elif key in ("id", "class"):
            attrs[key] = raw
        # anything else (xmlns, width/height on the root) is dropped
    attrs.update(style_promoted)
    transform = list(inherited) + own_transform
    if transform:
        attrs["transform"] = transform
    if tag == "text":
        content = _element_text(element)
        if content:
            attrs["TEXT"] = content
    attr_text = " ".join(_emit_attr(key, value)
                         for key, value in attrs.items())
    lines.append(f"{indent}['{tag}' [{attr_text}] []]")


def _parse_length(raw: Optional[str]) -> Optional[float]:
    """A root ``width``/``height`` as pixels, or None when absent or
    relative (``100%`` defers to the viewBox)."""
    if raw is None:
        return None
    text = raw.strip().lower()
    for unit in _LENGTH_UNITS:
        if text.endswith(unit):
            text = text[:-len(unit)].strip()
            break
    try:
        return _finite(float(text), "root width/height")
    except ValueError:
        return None


def _root_attrs(root: ElementTree.Element) -> List[str]:
    """The emitted root attributes: ``viewBox`` verbatim plus pixel
    ``width``/``height`` (falling back to the viewBox extent), so an
    icon with ``viewBox="0 0 24 24"`` keeps its coordinate system
    instead of floating in the renderer's default 800×600 canvas."""
    attrs: List[str] = []
    width = _parse_length(root.get("width"))
    height = _parse_length(root.get("height"))
    viewbox = root.get("viewBox")
    if viewbox is not None:
        numbers = [_finite(float(match.group()), "viewBox")
                   for match in _NUMBER.finditer(viewbox)]
        if len(numbers) != 4:
            raise SvgImportError(
                f"viewBox must have 4 numbers, got {len(numbers)}",
                reason="root")
        attrs.append(_emit_attr(
            "viewBox", " ".join(_format(number) for number in numbers)))
        if width is None:
            width = numbers[2]
        if height is None:
            height = numbers[3]
    if width is not None:
        attrs.append(_emit_attr("width", width))
    if height is not None:
        attrs.append(_emit_attr("height", height))
    return attrs


def svg_to_little(xml_text: str) -> str:
    """Convert an SVG document into a little program.

    Every coordinate becomes a literal with its own fresh location — the
    Elm-logo situation: the shapes are manipulable, but "the high-level
    relationships between the shapes are not captured" until the user
    introduces variables (Appendix D).

    >>> print(svg_to_little('<svg><circle cx="9" cy="9" r="4"/></svg>'))
    ; imported from SVG
    ['svg' [] [
      ['circle' [['cx' 9] ['cy' 9] ['r' 4]] []]
    ]]
    <BLANKLINE>
    """
    try:
        root = ElementTree.fromstring(xml_text)
    except ElementTree.ParseError as exc:
        raise SvgImportError(f"not well-formed XML: {exc}",
                             reason="xml") from exc
    if _strip_namespace(root.tag) != "svg":
        raise SvgImportError("root element must be <svg>", reason="not-svg")
    lines: List[str] = []
    transform: List[List[object]] = []
    raw = root.get("transform")
    if raw is not None:
        transform = parse_transform(raw)
    for child in root:
        _import_element(child, lines, "  ", transform)
    root_attrs = " ".join(_root_attrs(root))
    body = "\n".join(lines)
    return (f"; imported from SVG\n['svg' [{root_attrs}] [\n"
            + body + "\n]]\n")


def import_svg_file(path) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return svg_to_little(handle.read())
