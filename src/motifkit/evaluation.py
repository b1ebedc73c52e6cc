"""Boundary scoring with tolerance and planted-pattern recovery metrics.

A boundary score is one type, `PrfScore`: the integer counts of a maximum
matching, whose `ratio` holds the one precision, recall and F1 rule and
whose exact Fraction views are built from it when read.  Boundaries match
in one sweep of both sorted lists: the tolerance windows have equal widths,
so their ends rise together and the greedy matching is maximum (Glover
1967, convex bipartite graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from motifkit.core import PatternOccurrence, PatternRecord, nearest_index


class PrfScore(NamedTuple):
    """The matching of predicted to truth boundaries, as counts."""

    matches: int
    predicted: int
    truth: int

    def ratio(self, objective: str) -> tuple[int, int]:
        """Precision m/p, recall m/t or F1 2m/(p + t) as (numerator, denominator).

        F1 is 2PR / (P + R) with P = m/p and R = m/t.  Without a match, which
        an empty predicted or truth set implies, every ratio is 0/1.
        """
        m, p, t = self
        if not m:
            return 0, 1
        return {"precision": (m, p), "recall": (m, t), "f1": (2 * m, p + t)}[objective]

    @property
    def precision(self) -> Fraction:
        return Fraction(*self.ratio("precision"))

    @property
    def recall(self) -> Fraction:
        return Fraction(*self.ratio("recall"))

    @property
    def f1(self) -> Fraction:
        return Fraction(*self.ratio("f1"))


@dataclass(frozen=True)
class PlantedResult:
    """Recovery outcome for one planted occurrence."""

    index: int
    best_jaccard: Fraction
    recovered: bool


@dataclass(frozen=True)
class RecoveryReport:
    planted: tuple[PlantedResult, ...]
    spurious_patterns: int

    @property
    def all_recovered(self) -> bool:
        return all(p.recovered for p in self.planted)


def boundary_prf(predicted: Sequence, truth: Sequence, tolerance=1) -> PrfScore:
    """The maximum one-to-one matching of predicted to truth boundary positions
    with |p - t| <= tolerance.

    In ascending order, each prediction takes the least unmatched truth in its
    window; the windows have equal widths, so their ends rise together, no
    later prediction reaches a truth an earlier one passed, and the sweep is
    maximum.  The units of positions and tolerance must agree (grid indices or
    times).  Empty predicted (or truth) sets score 0 precision (recall).
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    truth = sorted(truth)
    matches = j = 0
    for p in sorted(predicted):
        while j < len(truth) and truth[j] < p - tolerance:
            j += 1
        if j < len(truth) and truth[j] <= p + tolerance:
            matches += 1
            j += 1
    return PrfScore(matches, len(predicted), len(truth))


def truth_boundaries(
    annotations: Sequence[PatternRecord],
    origin: int | Fraction = 0,
    resolution: int | Fraction = 1,
) -> tuple[int, ...]:
    """Deduplicated union of span starts and ends, snapped to the grid.

    Starts and ends are pooled without distinction; snapping rounds to the
    nearest grid index with exact halves going to the earlier index.
    """
    return tuple(sorted({
        nearest_index(Fraction(t - origin, resolution))
        for rec in annotations
        for occ in rec.occurrences
        for t in occ.span
    }))


def occurrence_recovery(
    discovered: Sequence[PatternRecord],
    planted: Sequence[PatternOccurrence],
    jaccard_threshold: Fraction = Fraction(4, 5),
) -> RecoveryReport:
    """Score discovered patterns against planted ground-truth occurrences.

    Jaccard overlap is computed on (onset, pitch) coordinate sets.  A
    planted occurrence is recovered when any discovered occurrence reaches
    the threshold; a discovered pattern is spurious when all of its
    occurrences have zero overlap with every planted occurrence.
    """
    if not 0 < jaccard_threshold <= 1:
        raise ValueError("jaccard threshold must be in (0, 1]")
    planted_sets = [occ.coords() for occ in planted]
    found = [[occ.coords() for occ in rec.occurrences] for rec in discovered]
    results = []
    for idx, pset in enumerate(planted_sets):
        overlapping = (o for occurrences in found for o in occurrences if not pset.isdisjoint(o))
        best = max((Fraction(len(pset & o), len(pset | o)) for o in overlapping), default=Fraction(0))
        results.append(PlantedResult(idx, best, recovered=best >= jaccard_threshold))
    spurious = sum(
        all(pset.isdisjoint(o) for o in occurrences for pset in planted_sets)
        for occurrences in found
    )
    return RecoveryReport(planted=tuple(results), spurious_patterns=spurious)
