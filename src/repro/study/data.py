"""The user-study responses (paper Appendix F).

The survey instrument in Appendix F reports, in parentheses, the number of
participants (out of 25) who chose each option of every multiple-choice
question.  Those published counts are embedded here verbatim; the analysis
pipeline (balanced [-2, 2] preference scale, means, bootstrap-t confidence
intervals) re-runs on them, reproducing Figure 9 and the Hypothesis 1/2
tables exactly for the means and closely for the resampled intervals.

Interaction modes (Appendix E):

* (A) sliders + unambiguous direct manipulation;
* (B) direct manipulation with heuristics and freezing;
* (C) manual code edits only.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

N_PARTICIPANTS = 25

TASKS = ("ferris", "keyboard", "tessellation")

#: Five-option balanced scales, low-to-high in paper order.
#: "A vs B": options run from "A much better" (-2) to "B much better" (+2).
#: "C vs A"/"C vs B": from "manual code edits much better" (-2) to
#: "interaction much better" (+2).
A_VS_B: Dict[str, List[int]] = {
    "ferris": [3, 14, 2, 5, 1],
    "keyboard": [0, 5, 3, 10, 7],
    "tessellation": [0, 7, 9, 6, 3],
}

C_VS_A: Dict[str, List[int]] = {
    "ferris": [0, 3, 1, 11, 10],
    "keyboard": [0, 1, 5, 14, 5],
    "tessellation": [1, 0, 8, 11, 5],
}

C_VS_B: Dict[str, List[int]] = {
    "ferris": [1, 3, 4, 9, 8],
    "keyboard": [0, 2, 2, 9, 12],
    "tessellation": [1, 0, 4, 13, 7],
}

#: "How often do you use graphic design applications?"
DESIGN_FREQUENCY = {
    "less than once a year": 0,
    "a few times a year": 9,
    "a few times a month": 11,
    "a few times a week": 5,
    "every day or almost every day": 0,
}

#: "How many years of programming experience do you have?"
PROGRAMMING_YEARS = {
    "<1": 3, "1-2": 6, "3-5": 8, "6-10": 8, "11-20": 0, ">20": 0,
}

#: "Do you plan to try using Sketch-n-Sketch to create graphics?"
PLANS_TO_TRY = {
    "certainly not": 0, "probably not": 2, "maybe": 8, "likely": 12,
    "certainly": 3,
}

#: Scale values for the five options of every comparison question.
SCALE = (-2, -1, 0, 1, 2)

#: Published means and 95% bootstrap-t confidence intervals (§E.2),
#: used by tests and reports for side-by-side comparison.
PAPER_RESULTS: Dict[str, Dict[str, Tuple[float, Tuple[float, float]]]] = {
    "a_vs_b": {
        "ferris": (-0.52, (-0.92, 0.01)),
        "keyboard": (0.76, (0.26, 1.18)),
        "tessellation": (0.20, (-0.20, 0.64)),
    },
    "c_vs_a": {
        "ferris": (1.12, (0.59, 1.47)),
        "keyboard": (0.92, (0.59, 1.21)),
        "tessellation": (0.76, (0.34, 1.10)),
    },
    "c_vs_b": {
        "ferris": (0.80, (0.25, 1.23)),
        "keyboard": (1.24, (0.73, 1.57)),
        "tessellation": (1.00, (0.53, 1.32)),
    },
}

COMPARISONS = {"a_vs_b": A_VS_B, "c_vs_a": C_VS_A, "c_vs_b": C_VS_B}


def expand_counts(counts: List[int]) -> List[int]:
    """Turn histogram counts into individual responses on the [-2, 2]
    scale, e.g. [3, 14, 2, 5, 1] → three -2s, fourteen -1s, …"""
    if len(counts) != len(SCALE):
        raise ValueError(f"expected {len(SCALE)} counts, got {len(counts)}")
    responses: List[int] = []
    for value, count in zip(SCALE, counts):
        responses.extend([value] * count)
    return responses
