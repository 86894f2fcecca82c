"""SVG substrate: node model, attribute translation, canvas, rendering."""

from .attrs import (color_number_to_css, path_command_groups,
                    path_data_to_string, points_to_string, rgba_to_css,
                    transform_to_string, translate_attr)
from .canvas import AttrRef, Canvas, Shape
from .importer import import_svg_file, svg_to_little
from .node import (EDITOR_ATTRS, SHAPE_KINDS, SvgNode, parse_canvas,
                   value_to_node)
from .render import render_canvas, render_node

__all__ = [
    "color_number_to_css", "path_command_groups", "path_data_to_string",
    "points_to_string", "rgba_to_css", "transform_to_string",
    "translate_attr",
    "AttrRef", "Canvas", "Shape",
    "EDITOR_ATTRS", "SHAPE_KINDS", "SvgNode", "parse_canvas",
    "value_to_node",
    "render_canvas", "render_node",
    "import_svg_file", "svg_to_little",
]
