"""Specialization table: what the trace compiler generates for a drag.

A drag step's plan (:mod:`repro.lang.compile`) compiles only the trace
nodes, guards, partials and output spine that the step's moved locations
reach.  This table sets, for every corpus example, the plan for its first
Active zone against the whole recording: statements generated,
milliseconds to specialize, and the memory peak ``tracemalloc`` traces
while one specialization runs.  It carries no timing or memory gate; its
one assertion is that each plan's, and each whole recording's, replay
matches ``reevaluate`` node for node.
"""

from repro.bench import format_specialization_table, measure_specialization
from repro.examples import example_names


def test_specialization_table(write_table):
    rows = measure_specialization()
    assert [row.name for row in rows] == list(example_names())
    assert all(row.identical for row in rows), \
        [row.name for row in rows if not row.identical]
    write_table("specialization", format_specialization_table(rows))
