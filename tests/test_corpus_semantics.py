"""Per-example semantic spot checks: each corpus program produces the
geometry its paper description promises."""

import math

import pytest

from repro.editor import LiveSession
from repro.examples import example_source, load_example
from repro.svg import AttrRef, Canvas


def canvas_of(name):
    return Canvas.from_value(load_example(name).evaluate())


class TestWaveFamilies:
    def test_sine_wave_y_oscillates(self):
        canvas = canvas_of("sine_wave_of_boxes")
        ys = [shape.simple_num("y").value for shape in canvas]
        assert max(ys) > 120 > min(ys)   # oscillates about y0

    def test_sine_wave_equal_spacing(self):
        canvas = canvas_of("sine_wave_of_boxes")
        xs = [shape.simple_num("x").value for shape in canvas]
        gaps = {round(b - a, 9) for a, b in zip(xs, xs[1:])}
        assert gaps == {30.0}

    def test_wave_grid_row_count(self):
        canvas = canvas_of("wave_boxes_grid")
        assert len(canvas) == 5 * 8

    def test_three_boxes_aligned(self):
        canvas = canvas_of("three_boxes")
        assert len({shape.simple_num("y").value for shape in canvas}) == 1


class TestLogos:
    def test_sns_logo_square_plus_three_polygons(self):
        canvas = canvas_of("sketch_n_sketch_logo")
        kinds = [shape.kind for shape in canvas]
        assert kinds.count("polygon") == 3 and kinds.count("rect") == 1

    def test_logo_sizes_three_instances(self):
        canvas = canvas_of("logo_sizes")
        assert len(canvas.shapes_of_kind("polygon")) == 9

    def test_elm_logo_seven_pieces(self):
        canvas = canvas_of("elm_logo")
        assert len(canvas) == 7

    def test_botanic_leaf_is_mirrored(self):
        """Both halves of the leaf derive from the shared width w: the
        path's x extremes are equidistant from the axis cx = 200."""
        canvas = canvas_of("botanic_garden_logo")
        leaf = canvas.shapes_of_kind("path")[0]
        xs = [leaf.get_num(AttrRef(f"d[{index}]", ("d", index))).value
              for index, axis in enumerate(leaf.path_coordinate_axes())
              if axis == 0]
        assert max(xs) - 200 == pytest.approx(200 - min(xs))


class TestFlags:
    def test_chicago_flag_structure(self):
        canvas = canvas_of("chicago_flag")
        assert len(canvas.shapes_of_kind("polygon")) == 4   # stars
        assert len(canvas.shapes_of_kind("rect")) == 3      # box + stripes

    def test_chicago_stars_evenly_spaced(self):
        canvas = canvas_of("chicago_flag")
        stars = canvas.shapes_of_kind("polygon")
        centers = []
        for star in stars:
            xs = [p[0].value for p in star.points()]
            centers.append((max(xs) + min(xs)) / 2)
        gaps = [round(b - a, 6) for a, b in zip(centers, centers[1:])]
        assert len(set(gaps)) == 1

    def test_us13_flag_counts(self):
        canvas = canvas_of("us13_flag")
        assert len(canvas.shapes_of_kind("rect")) == 14     # stripes+canton
        assert len(canvas.shapes_of_kind("polygon")) == 13  # stars

    def test_us50_flag_star_count(self):
        canvas = canvas_of("us50_flag")
        assert len(canvas.shapes_of_kind("polygon")) == 20 + 12


class TestRecursiveDesigns:
    def test_fractal_tree_segment_count(self):
        # depth 5 binary tree: 2^6 - 1 segments.
        canvas = canvas_of("fractal_tree")
        assert len(canvas.shapes_of_kind("line")) == 63

    def test_hilbert_point_count(self):
        # Order-3 Hilbert curve: 4^3 = 64 points.
        canvas = canvas_of("hilbert_curve")
        assert len(canvas[0].points()) == 64

    def test_hilbert_slider_rescales(self):
        session = LiveSession(example_source("hilbert_curve"))
        loc = next(iter(session.sliders))
        session.set_slider(loc, 4)
        assert len(session.canvas[0].points()) == 256

    def test_clique_edge_count(self):
        canvas = canvas_of("clique")
        assert len(canvas.shapes_of_kind("line")) == 6 * 5 // 2
        assert len(canvas.shapes_of_kind("circle")) == 6


class TestWidgetExamples:
    def test_sliders_example_counts(self):
        canvas = canvas_of("sliders")
        # Four widgets x 5 (or 3 for bool) shapes, all hidden.
        assert all(shape.hidden for shape in canvas
                   if shape.index < 16)

    def test_tile_pattern_grid_size(self):
        canvas = canvas_of("tile_pattern")
        visible = canvas.visible_shapes()
        # xySlider current value (4, 3) -> 12 tiles.
        assert len(visible) == 12

    def test_interface_buttons_toggle(self):
        canvas = canvas_of("interface_buttons")
        # b1/b2 true (0.25 < 0.5): grid and frame shown; b3 false: no dots.
        assert len(canvas.shapes_of_kind("line")) >= 6
        assert not any(
            shape.kind == "circle" and not shape.hidden
            and shape.node.attr("fill").value == "indianred"
            for shape in canvas)

    def test_color_picker_swatch_rgba(self):
        session = LiveSession(example_source("color_picker"))
        assert "rgba(200,80,150,1)" in session.export_svg()


class TestColorWheel:
    def test_fill_zones_active(self):
        session = LiveSession(example_source("color_wheel"))
        fills = [key for key in session.triggers if key[1] == "FILL"]
        assert len(fills) == 8

    def test_sector_fill_drag(self):
        session = LiveSession(example_source("color_wheel"))
        before = session.export_svg()
        session.drag_zone(0, "FILL", 100.0, 0.0)
        assert session.export_svg() != before


class TestGeometry:
    def test_pie_chart_wedges_cover_circle(self):
        canvas = canvas_of("pie_chart")
        assert len(canvas.shapes_of_kind("path")) == 5

    def test_solar_system_planets_on_orbits(self):
        canvas = canvas_of("solar_system")
        circles = canvas.shapes_of_kind("circle")
        planets = circles[-4:]
        for index, planet in enumerate(planets):
            cx = planet.simple_num("cx").value
            cy = planet.simple_num("cy").value
            radius = math.hypot(cx - 300, cy - 220)
            assert radius == pytest.approx(46 * (index + 1), abs=1e-6)

    def test_stars_have_increasing_point_counts(self):
        canvas = canvas_of("stars")
        counts = [len(shape.points()) for shape in canvas]
        assert counts == [8, 10, 12, 14, 16]

    def test_matrix_transform_is_rotation(self):
        # [0.8 -0.6; 0.6 0.8] is orthogonal: lengths preserved.
        canvas = canvas_of("matrix_transformations")
        transformed = canvas.shapes_of_kind("polygon")[1]
        points = [(p[0].value, p[1].value) for p in transformed.points()]
        for x, y in points:
            assert math.hypot(x - 220, y - 160) == \
                pytest.approx(math.hypot(60, 60), rel=1e-9)

    def test_group_box_spans_design(self):
        canvas = canvas_of("chicago_flag")
        group_box = canvas[0]
        assert group_box.node.attr("fill").value == "transparent"
        xs, ys = [], []
        for shape in canvas.visible_shapes():
            if shape.kind == "rect":
                x, y, width, height = (shape.simple_num(key).value for key in
                                       ("x", "y", "width", "height"))
                xs += [x, x + width]
                ys += [y, y + height]
            else:
                xs += [point[0].value for point in shape.points()]
                ys += [point[1].value for point in shape.points()]
        center_x = (min(xs) + max(xs)) / 2
        center_y = (min(ys) + max(ys)) / 2
        x, y, width, height = (group_box.simple_num(key).value for key in
                               ("x", "y", "width", "height"))
        assert x <= center_x <= x + width and y <= center_y <= y + height
