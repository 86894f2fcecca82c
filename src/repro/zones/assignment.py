"""Shape/attribute assignments and disambiguation heuristics (§4.1, App. B.1).

For each zone, every controlled attribute's trace yields a set of candidate
locations (``Locs``); an *attribute assignment* θ picks one location per
attribute, and the *shape assignment* γ picks one θ per zone.  Zones are:

* **Inactive** — zero candidate assignments (some attribute has no
  non-frozen location);
* **Unambiguous** — exactly one candidate;
* **Ambiguous** — more than one (§5.2.1 reports 3.83 candidates on average).

Two heuristics choose among candidates:

* ``fair`` — rotate through location sets, preferring the set assigned to
  the fewest previous zones ("we 'rotate' through each of the four attribute
  assignments", §4.1);
* ``biased`` — prefer location sets whose members occur in few run-time
  traces: ``Score({ℓ1…ℓn}) = Count(ℓ1) × … × Count(ℓn)``, lowest score wins
  (Appendix B.1), with fair rotation breaking ties.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..lang.ast import Loc
from ..svg.canvas import Canvas, Shape
from ..trace.trace import count_loc_occurrences, locs
from .zones import Zone, zones_for_canvas, zones_for_shape

#: Cap on explicitly enumerated candidates per zone (polygon INTERIOR zones
#: can have huge cross products; real location sets are tiny — §5.2.1).
MAX_ENUMERATED = 1024

HEURISTICS = ("fair", "biased")


@dataclass
class ZoneAnalysis:
    """Candidate structure of one zone.

    Features (controlled attributes) are grouped by their location set:
    attributes computed from the same constants make the same choice — the
    essence of a local update is the set of changed constants (§2.3).  A
    candidate assignment θ then picks one location per *distinct* location
    set; e.g. a rect INTERIOR with x-locs {x0, sep} and y-locs {y0, amp}
    has 2 × 2 = 4 candidates (§4.1), while a polygon INTERIOR whose six
    coordinates all share those two locsets also has 4, not 2⁶.
    """

    zone: Zone
    locsets: Tuple[Tuple[Loc, ...], ...]   # per-feature candidate locations
    groups: Tuple[Tuple[Loc, ...], ...]    # distinct non-empty locsets
    feature_group: Tuple[Optional[int], ...]  # feature -> group (or None)
    candidate_count: int                   # product of group sizes

    @property
    def active(self) -> bool:
        """Active iff *some* controlled attribute has a candidate location.
        Attributes whose traces mention no unfrozen location are simply not
        controlled — e.g. a user-defined slider's ball has a frozen 'cy'
        but a draggable 'cx' (§6.3)."""
        return self.candidate_count > 0

    @property
    def ambiguous(self) -> bool:
        return self.candidate_count > 1

    def iter_candidates(self, limit: int = MAX_ENUMERATED):
        """Yield candidate assignments θ as tuples of locations aligned
        with ``zone.features`` (at most ``limit``).  Uncontrolled features
        yield ``None`` entries."""
        if not self.active:
            return
        for group_choice in itertools.islice(
                itertools.product(*self.groups), limit):
            yield tuple(None if group is None else group_choice[group]
                        for group in self.feature_group)


@dataclass
class Assignment:
    """γ(v)(ζ): the chosen attribute assignment for one zone.

    ``theta`` is aligned with ``zone.features``; a ``None`` entry marks an
    uncontrolled attribute (no candidate locations)."""

    zone: Zone
    theta: Tuple[Optional[Loc], ...]

    @property
    def location_set(self) -> FrozenSet[Loc]:
        return frozenset(loc for loc in self.theta if loc is not None)

    def caption(self) -> str:
        """Editor hover caption: the constants that will change (§5)."""
        names = sorted({loc.display() for loc in self.location_set})
        return "Active: changes {" + ", ".join(names) + "}"


@dataclass
class CanvasAssignments:
    """Result of the Prepare step for a whole canvas."""

    analyses: List[ZoneAnalysis]
    chosen: Dict[Tuple[int, str], Assignment]
    heuristic: str

    def lookup(self, shape_index: int, zone_name: str
               ) -> Optional[Assignment]:
        return self.chosen.get((shape_index, zone_name))

    def analysis(self, shape_index: int, zone_name: str
                 ) -> Optional[ZoneAnalysis]:
        for analysis in self.analyses:
            if (analysis.zone.shape_index == shape_index
                    and analysis.zone.name == zone_name):
                return analysis
        return None

    def hover_data(self, shape_index: int, zone_name: str
                   ) -> Tuple[bool, str, Tuple[Loc, ...], Tuple[Loc, ...]]:
        """What the editor shows when hovering a zone (§5): whether it is
        Active, the constants that will change, and the contributing
        constants that were not selected.  Shared by the editor's hover
        caption and the incremental-Prepare equivalence checks."""
        assignment = self.lookup(shape_index, zone_name)
        analysis = self.analysis(shape_index, zone_name)
        if assignment is None or analysis is None:
            return False, "Inactive", (), ()
        selected = tuple(sorted(assignment.location_set,
                                key=lambda loc: loc.ident))
        contributing = set()
        for locset in analysis.locsets:
            contributing.update(locset)
        unselected = tuple(sorted(contributing - set(selected),
                                  key=lambda loc: loc.ident))
        return True, assignment.caption(), selected, unselected


def analyze_zone(canvas: Canvas, zone: Zone) -> ZoneAnalysis:
    """Compute candidate location sets for each feature of ``zone``."""
    locsets: List[Tuple[Loc, ...]] = []
    shape = canvas[zone.shape_index]
    for feature in zone.features:
        number = shape.get_num(feature.ref)
        candidates = tuple(sorted(locs(number.trace),
                                  key=lambda loc: loc.ident))
        locsets.append(candidates)
    groups: List[Tuple[Loc, ...]] = []
    feature_group: List[Optional[int]] = []
    group_index: Dict[Tuple[Loc, ...], int] = {}
    for locset in locsets:
        if not locset:
            feature_group.append(None)     # uncontrolled attribute
            continue
        if locset not in group_index:
            group_index[locset] = len(groups)
            groups.append(locset)
        feature_group.append(group_index[locset])
    if groups:
        count = 1
        for group in groups:
            count *= len(group)
    else:
        count = 0
    return ZoneAnalysis(zone, tuple(locsets), tuple(groups),
                        tuple(feature_group), count)


def analyze_shape(canvas: Canvas, shape: Shape) -> List[ZoneAnalysis]:
    """Per-shape analysis entry point: candidate structure of every zone
    of one shape."""
    return [analyze_zone(canvas, zone) for zone in zones_for_shape(shape)]


def analyze_canvas(canvas: Canvas) -> List[ZoneAnalysis]:
    return [analyze_zone(canvas, zone) for zone in zones_for_canvas(canvas)]


def choose_assignments(canvas: Canvas, analyses: List[ZoneAnalysis],
                       heuristic: str = "fair") -> CanvasAssignments:
    """The selection half of Prepare: pick one assignment per Active zone.

    The choice depends only on the analyses' location sets (and, for the
    biased heuristic, the canvas trace pool) — never on attribute *values*
    — which is what lets the incremental Prepare reuse it wholesale when
    a change leaves every trace structurally intact.
    """
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}; "
                         f"expected one of {HEURISTICS}")
    usage: Dict[FrozenSet[Loc], int] = {}
    scores: Optional[Dict[Loc, int]] = None
    if heuristic == "biased":
        scores = count_loc_occurrences(canvas.all_numeric_traces())
    chosen: Dict[Tuple[int, str], Assignment] = {}
    for analysis in analyses:
        if not analysis.active:
            continue
        theta = _choose(analysis, usage, scores)
        location_set = frozenset(theta)
        usage[location_set] = usage.get(location_set, 0) + 1
        assignment = Assignment(analysis.zone, theta)
        chosen[(analysis.zone.shape_index, analysis.zone.name)] = assignment
    return CanvasAssignments(analyses, chosen, heuristic)


def assign_canvas(canvas: Canvas, heuristic: str = "fair"
                  ) -> CanvasAssignments:
    """The Prepare step: analyze all zones and choose one assignment per
    Active zone using the requested heuristic."""
    return choose_assignments(canvas, analyze_canvas(canvas), heuristic)


def _choose(analysis: ZoneAnalysis, usage: Dict[FrozenSet[Loc], int],
            scores: Optional[Dict[Loc, int]]) -> Tuple[Loc, ...]:
    best: Optional[Tuple[Loc, ...]] = None
    best_key = None
    for position, candidate in enumerate(analysis.iter_candidates()):
        location_set = frozenset(candidate)
        fairness = usage.get(location_set, 0)
        if scores is None:
            key = (fairness, position)
        else:
            score = 1
            for loc in location_set:
                score *= scores.get(loc, 0)
            key = (score, fairness, position)
        if best_key is None or key < best_key:
            best_key = key
            best = candidate
    assert best is not None   # caller checks analysis.active
    return best
