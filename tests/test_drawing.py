"""Tests for the Draw extension: adding shapes to a running program."""

import json

import pytest

from repro.editor import LiveSession
from repro.editor.drawing import add_shape, shape_literal_source
from repro.lang import parse_program
from repro.svg import Canvas


@pytest.fixture
def boxes_program():
    return parse_program(
        "(def [x0 sep] [40 110]) "
        "(svg (map (\\i (rect 'lightblue' (+ x0 (mult i sep)) 30 60 120)) "
        "(zeroTo 3!)))")


class TestShapeLiteral:
    def test_rect_source(self):
        source = shape_literal_source("rect", x=1, y=2, width=3, height=4)
        assert source.startswith("['rect'")
        assert "['fill' 'gray']" in source

    def test_line_uses_stroke(self):
        source = shape_literal_source("line", fill="red", x1=0, y1=0,
                                      x2=10, y2=10)
        assert "['stroke' 'red']" in source

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            shape_literal_source("blob", x=1)

    def test_missing_attrs_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            shape_literal_source("circle", cx=1, cy=2)
        assert "r" in str(excinfo.value)


class TestAddShape:
    def test_shape_appended(self, boxes_program):
        new_program = add_shape(boxes_program, "circle", fill="salmon",
                                cx=300, cy=90, r=25)
        canvas = Canvas.from_value(new_program.evaluate())
        assert [shape.kind for shape in canvas] == \
            ["rect", "rect", "rect", "circle"]

    def test_original_program_untouched(self, boxes_program):
        add_shape(boxes_program, "circle", cx=1, cy=2, r=3)
        canvas = Canvas.from_value(boxes_program.evaluate())
        assert len(canvas) == 3

    def test_added_shape_geometry(self, boxes_program):
        new_program = add_shape(boxes_program, "circle", cx=300, cy=90,
                                r=25)
        canvas = Canvas.from_value(new_program.evaluate())
        circle = canvas.shapes_of_kind("circle")[0]
        assert circle.simple_num("cx").value == 300.0

    def test_added_shape_is_manipulable(self, boxes_program):
        """The new literals get fresh locations: the shape drags like any
        hand-written one."""
        new_program = add_shape(boxes_program, "circle", cx=300, cy=90,
                                r=25)
        session = LiveSession(program=new_program)
        circle = session.canvas.shapes_of_kind("circle")[0]
        result = session.drag_zone(circle.index, "INTERIOR", 10.0, -5.0)
        assert result.all_solved
        moved = session.canvas.shapes_of_kind("circle")[0]
        assert moved.simple_num("cx").value == 310.0
        assert moved.simple_num("cy").value == 85.0

    def test_existing_shapes_still_linked(self, boxes_program):
        new_program = add_shape(boxes_program, "circle", cx=300, cy=90,
                                r=25)
        session = LiveSession(program=new_program)
        session.drag_zone(0, "INTERIOR", 20.0, 0.0)
        xs = [shape.simple_num("x").value
              for shape in session.canvas.shapes_of_kind("rect")]
        assert xs == [60.0, 170.0, 280.0]

    def test_add_multiple_shapes(self, boxes_program):
        program = add_shape(boxes_program, "rect", x=1, y=2, width=3,
                            height=4)
        program = add_shape(program, "line", x1=0, y1=0, x2=9, y2=9)
        canvas = Canvas.from_value(program.evaluate())
        assert len(canvas) == 5

    def test_unparses_to_valid_source(self, boxes_program):
        new_program = add_shape(boxes_program, "circle", cx=5, cy=6, r=7)
        reparsed = parse_program(new_program.unparse())
        canvas = Canvas.from_value(reparsed.evaluate())
        assert len(canvas) == 4

    @pytest.mark.parametrize("auto_freeze", [False, True])
    def test_session_on_drawn_program_survives_snapshot(self, auto_freeze):
        program = parse_program("(def x 10) (svg [(rect 'red' x 20 30 40)])",
                                auto_freeze=auto_freeze)
        session = LiveSession(program=add_shape(program, "circle", cx=100,
                                                cy=80, r=25))
        session.drag_zone(1, "INTERIOR", 7.0, -3.0)     # the drawn circle
        restored = LiveSession.restore(
            json.loads(json.dumps(session.snapshot())))
        assert restored.export_svg() == session.export_svg()
        assert restored.source() == session.source()
        assert restored.active_zone_count() == session.active_zone_count()
        restored.undo()
        session.undo()
        assert restored.export_svg() == session.export_svg()
