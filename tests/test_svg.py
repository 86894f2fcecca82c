"""Tests for the SVG substrate: node model, attribute translation
(Appendix A), rendering and canvas flattening."""

import pytest

from repro.lang import evaluate, parse_expr, parse_program
from repro.lang.errors import SvgError
from repro.svg import (AttrRef, Canvas, SvgNode, color_number_to_css,
                       parse_canvas, path_data_to_string, points_to_string,
                       render_canvas, render_node, rgba_to_css,
                       transform_to_string, translate_attr, value_to_node)


def node_of(source):
    return value_to_node(evaluate(parse_expr(source)))


def canvas_of(source):
    program = parse_program(source)
    return Canvas.from_value(program.evaluate())


class TestValueToNode:
    def test_basic_shape(self):
        node = node_of("['rect' [['x' 1] ['y' 2]] []]")
        assert node.kind == "rect"
        assert node.attr("x").value == 1.0

    def test_children_recursion(self):
        node = node_of("['svg' [] [['rect' [] []] ['circle' [] []]]]")
        assert [child.kind for child in node.children] == ["rect", "circle"]

    def test_last_attr_binding_wins(self):
        node = node_of("['rect' [['x' 1] ['x' 9]] []]")
        assert node.attr("x").value == 9.0

    def test_hidden_detection(self):
        node = node_of("['rect' [['HIDDEN' '']] []]")
        assert node.hidden

    @pytest.mark.parametrize("bad", [
        "'just a string'",
        "['rect' []]",                     # missing children
        "[1 [] []]",                       # non-string kind
        "['rect' [['x' 1] [2]] []]",       # malformed attr pair
        "['rect' [] 'kids']",              # non-list children
    ])
    def test_malformed_nodes_rejected(self, bad):
        with pytest.raises(SvgError):
            node_of(bad)

    def test_parse_canvas_requires_svg_kind(self):
        with pytest.raises(SvgError):
            parse_canvas(evaluate(parse_expr("['rect' [] []]")))


class TestAttrTranslation:
    def _text(self, source_value, key="points"):
        value = evaluate(parse_expr(source_value))
        return translate_attr(key, value)[1]

    def test_string_passthrough(self):
        value = evaluate(parse_expr("'lightblue'"))
        assert translate_attr("fill", value) == ("fill", "lightblue")

    def test_number_no_units(self):
        value = evaluate(parse_expr("50"))
        assert translate_attr("x", value) == ("x", "50")

    def test_number_fractional(self):
        value = evaluate(parse_expr("52.5"))
        assert translate_attr("x", value) == ("x", "52.5")

    def test_points(self):
        assert self._text("[[0 0] [10 5.5]]") == "0,0 10,5.5"

    def test_points_malformed(self):
        with pytest.raises(SvgError):
            self._text("[[0] [10 5]]")

    def test_rgba(self):
        assert self._text("[255 0 128 0.5]", "fill") == \
            "rgba(255,0,128,0.5)"

    def test_color_number_hue(self):
        value = evaluate(parse_expr("120"))
        name, text = translate_attr("fill", value)
        assert text.startswith("hsl(120")

    def test_color_number_grayscale_band(self):
        assert color_number_to_css(360.0) == "rgb(0,0,0)"
        assert color_number_to_css(500.0) == "rgb(255,255,255)"

    def test_color_number_clamped(self):
        assert color_number_to_css(-10.0).startswith("hsl(0")

    def test_path_data(self):
        assert self._text("['M' 0 0 'L' 10 10 'Z']", "d") == "M 0 0 L 10 10 Z"

    def test_path_data_bad_command(self):
        with pytest.raises(SvgError):
            self._text("['X' 1 2]", "d")

    def test_path_data_bad_arity(self):
        with pytest.raises(SvgError):
            self._text("['C' 1 2 3]", "d")

    def test_transform_rotate(self):
        assert self._text("[['rotate' 45 100 100]]", "transform") == \
            "rotate(45,100,100)"

    def test_transform_unknown_command(self):
        with pytest.raises(SvgError):
            self._text("[['spin' 45]]", "transform")

    @pytest.mark.parametrize("key", ["ZONES", "HIDDEN", "TEXT"])
    def test_editor_attrs_stripped(self, key):
        value = evaluate(parse_expr("'x'"))
        assert translate_attr(key, value) is None


class TestRendering:
    def test_self_closing(self):
        node = node_of("['rect' [['x' 1]] []]")
        assert render_node(node) == '<rect x="1"/>'

    def test_text_content(self):
        node = node_of("['text' [['x' 1] ['TEXT' 'hi']] []]")
        rendered = render_node(node)
        assert ">" in rendered and "hi" in rendered

    def test_escaping(self):
        node = node_of("['text' [['TEXT' 'a<b&c']] []]")
        assert "a&lt;b&amp;c" in render_node(node)

    def test_canvas_has_xmlns(self):
        canvas = canvas_of("(svg [(rect 'red' 1 2 3 4)])")
        rendered = render_canvas(canvas.root)
        assert 'xmlns="http://www.w3.org/2000/svg"' in rendered

    def test_hidden_shapes_excluded_by_default(self):
        canvas = canvas_of("(svg [(ghost (rect 'red' 1 2 3 4))])")
        assert "<rect" not in render_canvas(canvas.root)

    def test_hidden_shapes_included_on_request(self):
        canvas = canvas_of("(svg [(ghost (rect 'red' 1 2 3 4))])")
        assert "<rect" in render_canvas(canvas.root, include_hidden=True)


class TestCanvas:
    def test_flattening_order(self):
        canvas = canvas_of(
            "(svg [(rect 'r' 1 1 1 1) (circle 'c' 2 2 2)])")
        assert [shape.kind for shape in canvas] == ["rect", "circle"]

    def test_nested_svg_flattened(self):
        canvas = canvas_of(
            "(svg [['svg' [] [(rect 'r' 1 1 1 1)]] (circle 'c' 2 2 2)])")
        assert [shape.kind for shape in canvas] == ["rect", "circle"]

    def test_get_num_simple(self):
        canvas = canvas_of("(svg [(rect 'r' 7 8 9 10)])")
        assert canvas[0].get_num(AttrRef("x", ("x",))).value == 7.0

    def test_get_num_point_coordinate(self):
        canvas = canvas_of(
            "(svg [(polygon 'f' 's' 1 [[1 2] [3 4]])])")
        ref = AttrRef("points[1].y", ("points", 1, 1))
        assert canvas[0].get_num(ref).value == 4.0

    def test_get_num_path_number(self):
        canvas = canvas_of(
            "(svg [(path 'f' 's' 1 ['M' 10 20 'L' 30 40])])")
        ref = AttrRef("d[2]", ("d", 2))
        assert canvas[0].get_num(ref).value == 30.0

    def test_get_num_reads_the_last_binding(self):
        canvas = canvas_of("(svg [['rect' [['x' 1] ['y' 2] ['width' 3] "
                           "['height' 4] ['x' 5]] []]])")
        shape = canvas[0]
        assert shape.get_num(AttrRef("x", ("x",))).value == 5.0
        # The overridden binding of x is not among the shape's numbers.
        assert [number.value for number in shape.numbers().values()] == \
            [5.0, 2.0, 3.0, 4.0]
        assert len(shape.attr_traces()) == 4

    def test_path_coordinate_axes(self):
        canvas = canvas_of(
            "(svg [(path 'f' 's' 1 ['M' 1 2 'H' 3 'V' 4 'L' 5 6])])")
        assert canvas[0].path_coordinate_axes() == [0, 1, 0, 1, 0, 1]

    def test_visible_shapes_excludes_ghosts(self):
        canvas = canvas_of(
            "(svg [(ghost (rect 'r' 1 1 1 1)) (circle 'c' 2 2 2)])")
        assert len(canvas.visible_shapes()) == 1

    def test_all_numeric_traces_nonempty(self, sine_canvas):
        traces = sine_canvas.all_numeric_traces()
        # 12 boxes x (x, y, width, height) = 48 numeric attributes
        assert len(traces) == 48
