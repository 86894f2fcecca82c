"""One-shot conveniences over :class:`~repro.core.pipeline.SyncPipeline`.

The CLI ``run`` command, the example renderer and the benchmark corpus all
used to carry their own parse → evaluate → build-canvas → render loops;
they now share this entry point (and, through it, the staged pipeline the
editor runs on).
"""

from __future__ import annotations

from ..lang.program import Program, parse_program
from .pipeline import SyncPipeline

__all__ = ["run_program", "run_source"]


def run_program(program: Program, *, heuristic: str = "fair",
                prepare: bool = False, budget=None) -> SyncPipeline:
    """Run ``program`` through the pipeline once and return it.

    ``prepare=True`` also computes assignments, triggers and sliders (the
    editor's Prepare); the default stops after the Run stage, which is all
    a render needs.  No evaluation guards are recorded: a one-shot run is
    never replayed (the editor's pipeline records them).  ``budget`` caps
    the evaluation (:class:`~repro.lang.eval.EvalBudget`); a runaway program
    raises :class:`~repro.lang.errors.ResourceExhausted` instead of
    spinning.

    >>> from repro.lang.program import parse_program
    >>> pipeline = run_program(
    ...     parse_program("(svg [(circle 'navy' 60 60 25)])"),
    ...     prepare=True)
    >>> len(pipeline.canvas), len(pipeline.assignments.chosen) > 0
    (1, True)
    """
    pipeline = SyncPipeline(program, heuristic=heuristic, record=False,
                            budget=budget)
    if prepare:
        pipeline.run()
    else:
        pipeline.run_stage()
    return pipeline


def run_source(source: str, *, heuristic: str = "fair",
               prepare: bool = False, budget=None,
               **parse_options) -> SyncPipeline:
    """Parse little ``source`` and run it (see :func:`run_program`).

    >>> pipeline = run_source("(svg [(rect 'gold' 10 20 30 40)])")
    >>> print(pipeline.render())
    <svg xmlns="http://www.w3.org/2000/svg" width="800" height="600">
      <rect x="10" y="20" width="30" height="40" fill="gold"/>
    </svg>
    """
    return run_program(
        parse_program(source, **parse_options),
        heuristic=heuristic, prepare=prepare, budget=budget)
