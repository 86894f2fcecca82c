"""Value changes leave no cyclic garbage.

A drag step, a release, an undo, a value edit and a served drag each free
what they replace by reference counting alone: with the cyclic collector
off, ``gc.collect()`` afterwards finds nothing to collect.  A reference
cycle per step would keep every replaced canvas, or a trigger's frames,
alive until the next collection, and a full collection over a large heap
is a long pause in the middle of a gesture.
"""

import gc

import pytest

from repro.bench.edit_latency import value_edit_texts
from repro.editor import LiveSession
from repro.examples import example_source
from repro.serve import ServeApp

#: Three large canvases, and a zone with a feature the solver cannot
#: solve (``logo_sizes`` shape 0 ``EDGE1``).
CASES = [("ferris_wheel", None), ("tessellation", None),
         ("us13_flag", None), ("logo_sizes", (0, "EDGE1"))]

STEPS = 30
EDITS = 5


@pytest.fixture
def collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("name, key", CASES)
def test_value_changes_leave_no_cyclic_garbage(name, key, collector_off):
    source = example_source(name)
    session = LiveSession(source)
    key = key or sorted(session.triggers)[0]
    texts = value_edit_texts(source, EDITS)
    app = ServeApp()
    sid = app.handle({"cmd": "open", "example": name})["session"]
    gc.collect()                # only the value changes below count

    session.start_drag(*key)
    for step in range(1, STEPS + 1):
        session.drag(0.5 * step, 0.25 * step)
    assert gc.collect() == 0, "drag steps"
    session.release()
    assert gc.collect() == 0, "release"
    session.undo()
    assert gc.collect() == 0, "undo"
    for text in texts:
        session.edit_source(text)
    assert gc.collect() == 0, "value edits"

    shape, zone = key
    for step in range(1, STEPS + 1):
        assert app.handle({"cmd": "drag", "session": sid, "shape": shape,
                           "zone": zone,
                           "steps": [[0.5 * step, 0.25 * step]]})["ok"]
    assert app.handle({"cmd": "release", "session": sid})["ok"]
    assert gc.collect() == 0, "served drags and release"
