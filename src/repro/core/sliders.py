"""Built-in sliders for range-annotated numbers (§2.4).

"If a number is annotated with a range, written ``n{nmin-nmax}``, then
Sketch-n-Sketch will display a slider in the output pane that can be used to
manipulate the n value between nmin and nmax."

(User-*defined* sliders — §6.3 — are ordinary little shapes and are
manipulated through zones like any other shape.)

This is the Sliders stage of the core pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..lang.ast import Loc
from ..lang.program import Program


@dataclass(frozen=True)
class BuiltinSlider:
    loc: Loc
    lo: float
    hi: float
    value: float

    @property
    def fraction(self) -> float:
        """Handle position in [0, 1]."""
        if self.hi == self.lo:
            return 0.0
        return (self.value - self.lo) / (self.hi - self.lo)

    def caption(self) -> str:
        return (f"{self.loc.display()} = {self.value} "
                f"[{self.lo} .. {self.hi}]")


def collect_sliders(program: Program) -> Dict[Loc, BuiltinSlider]:
    """One slider per range-annotated literal in the user program.

    >>> from repro.lang.program import parse_program
    >>> program = parse_program(
    ...     "(def x 10{0-100}) (svg [(rect 'red' x 0 20 20)])")
    >>> [slider.caption() for slider in collect_sliders(program).values()]
    ['x = 10.0 [0.0 .. 100.0]']
    """
    return {
        loc: BuiltinSlider(loc, lo, hi, value)
        for loc, lo, hi, value in program.range_annotations()
    }
