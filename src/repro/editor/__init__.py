"""Headless prodirect-manipulation editor (live synchronization, §4–§5)."""

from ..core.sliders import BuiltinSlider, collect_sliders
from .drawing import add_shape, shape_literal_source
from .session import EditorError, HoverInfo, LiveSession

__all__ = ["EditorError", "HoverInfo", "LiveSession", "BuiltinSlider",
           "collect_sliders", "add_shape", "shape_literal_source"]
