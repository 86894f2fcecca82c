"""Shared fixtures for the test suite."""

import pytest

from repro.editor import LiveSession
from repro.lang import parse_program
from repro.svg import Canvas

SINE_WAVE_SOURCE = """
(def [x0 y0 w h sep amp] [50 120 20 90 30 60])
(def n 12!{3-30})
(def boxi (\\i
  (let xi (+ x0 (* i sep))
  (let yi (- y0 (* amp (sin (* i (/ twoPi n)))))
  (rect 'lightblue' xi yi w h)))))
(svg (map boxi (zeroTo n)))
"""

THREE_BOXES_SOURCE = """
(def [x0 y0 w h sep] [40 28 60 130 110])
(def boxi (\\i
  (let xi (+ x0 (mult i sep))
    (rect 'lightblue' xi y0 w h))))
(svg (map boxi (zeroTo 3!)))
"""


@pytest.fixture
def sine_source():
    return SINE_WAVE_SOURCE


@pytest.fixture
def sine_program():
    return parse_program(SINE_WAVE_SOURCE)


@pytest.fixture
def sine_canvas(sine_program):
    return Canvas.from_value(sine_program.evaluate())


@pytest.fixture
def sine_session():
    return LiveSession(SINE_WAVE_SOURCE)


@pytest.fixture
def three_boxes_session():
    return LiveSession(THREE_BOXES_SOURCE)


def attr_value(canvas, shape_index, key):
    """Numeric value of attribute `key` on shape `shape_index`."""
    return canvas[shape_index].simple_num(key).value
