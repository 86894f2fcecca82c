"""Shared fixtures for the test suite."""

import os
import pathlib

import pytest

import repro
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
def repro_env():
    """The environment for a ``python -m repro`` subprocess, with this
    checkout's ``src/`` first on ``PYTHONPATH``."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def recordings(monkeypatch):
    """A list that grows by one program per full recorded evaluation, at
    both call sites: the pipeline's Run stage and the compile cache."""
    import repro.core.pipeline as pipeline_module
    import repro.serve.cache as cache_module

    calls = []
    for module in (pipeline_module, cache_module):
        def counting(program, original=module.record_evaluation):
            calls.append(program)
            return original(program)
        monkeypatch.setattr(module, "record_evaluation", counting)
    return calls


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
