"""User-study analysis: Figure 9, Hypotheses 1–3 (paper Appendix E.2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .bootstrap import MeanEstimate, bootstrap_t_mean
from .data import (COMPARISONS, N_PARTICIPANTS, PAPER_RESULTS,
                   PLANS_TO_TRY, PROGRAMMING_YEARS, SCALE, TASKS,
                   expand_counts)


@dataclass(frozen=True)
class ComparisonResult:
    comparison: str          # "a_vs_b" | "c_vs_a" | "c_vs_b"
    task: str
    counts: List[int]
    estimate: MeanEstimate
    paper_mean: float
    paper_interval: tuple


def analyze_comparison(comparison: str, task: str, **bootstrap_kwargs
                       ) -> ComparisonResult:
    counts = COMPARISONS[comparison][task]
    responses = expand_counts(counts)
    estimate = bootstrap_t_mean(responses, **bootstrap_kwargs)
    paper_mean, paper_interval = PAPER_RESULTS[comparison][task]
    return ComparisonResult(comparison, task, counts, estimate,
                            paper_mean, paper_interval)


def analyze_all(**bootstrap_kwargs) -> List[ComparisonResult]:
    return [analyze_comparison(comparison, task, **bootstrap_kwargs)
            for comparison in COMPARISONS
            for task in TASKS]


# -- Hypothesis summaries (§E.2) ----------------------------------------------

def hypothesis1_table(**kwargs) -> List[ComparisonResult]:
    """H1: simple heuristics are sometimes preferable to sliders —
    the (A) vs (B) column."""
    return [analyze_comparison("a_vs_b", task, **kwargs) for task in TASKS]


def hypothesis2_table(**kwargs) -> Dict[str, List[ComparisonResult]]:
    """H2: direct manipulation beats purely programmatic edits —
    the (C) vs (A) and (C) vs (B) columns."""
    return {
        "c_vs_a": [analyze_comparison("c_vs_a", task, **kwargs)
                   for task in TASKS],
        "c_vs_b": [analyze_comparison("c_vs_b", task, **kwargs)
                   for task in TASKS],
    }


def hypothesis2_holds(**kwargs) -> bool:
    """Both interactions preferred (positive mean) on every task."""
    tables = hypothesis2_table(**kwargs)
    return all(result.estimate.mean > 0
               for results in tables.values() for result in results)


# -- Background statistics (§E.2 / Appendix F) ----------------------------------

def experienced_fraction() -> float:
    """Fraction of participants with ≥3 years of programming experience
    (the paper reports 64%)."""
    experienced = (PROGRAMMING_YEARS["3-5"] + PROGRAMMING_YEARS["6-10"]
                   + PROGRAMMING_YEARS["11-20"] + PROGRAMMING_YEARS[">20"])
    return experienced / N_PARTICIPANTS


def plans_to_try_fraction() -> float:
    """Fraction answering 'likely' or 'certainly' to trying the tool."""
    return (PLANS_TO_TRY["likely"] + PLANS_TO_TRY["certainly"]) \
        / N_PARTICIPANTS


# -- Rendering -------------------------------------------------------------------

_HIST_CHAR = "#"


def format_histogram(counts: List[int]) -> str:
    """ASCII histogram of one comparison question (a Figure 9 edge)."""
    lines = []
    for value, count in zip(SCALE, counts):
        label = f"{value:+d}" if value else " 0"
        lines.append(f"  {label} | {_HIST_CHAR * count}{'':1s}({count})")
    return "\n".join(lines)


def format_figure9(**kwargs) -> str:
    """The full Figure 9: per-task histograms plus mean (CI) annotations,
    ours vs. paper."""
    parts: List[str] = ["User study results (paper Figure 9, Appendix E.2)"]
    titles = {"a_vs_b": "(A) Sliders  vs  (B) Heuristics",
              "c_vs_a": "(C) Code only  vs  (A) Sliders",
              "c_vs_b": "(C) Code only  vs  (B) Heuristics"}
    for comparison, title in titles.items():
        parts.append(f"\n== {title} ==")
        for task in TASKS:
            result = analyze_comparison(comparison, task, **kwargs)
            est = result.estimate
            parts.append(f"[{task.capitalize()}]  "
                         f"mean {est.mean:+.2f} "
                         f"({est.low:+.2f}, {est.high:+.2f})   "
                         f"paper {result.paper_mean:+.2f} "
                         f"({result.paper_interval[0]:+.2f}, "
                         f"{result.paper_interval[1]:+.2f})")
            parts.append(format_histogram(result.counts))
    parts.append("")
    parts.append(f"Participants with >=3 years programming: "
                 f"{100 * experienced_fraction():.0f}%  (paper: 64%)")
    parts.append(f"Plan to try the tool (likely/certainly): "
                 f"{100 * plans_to_try_fraction():.0f}%")
    return "\n".join(parts)
