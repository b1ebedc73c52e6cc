"""Boundary scoring with tolerance and planted-pattern recovery metrics."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from motifkit.core import PatternOccurrence, PatternRecord, nearest_index


@dataclass(frozen=True)
class PrfScore:
    precision: Fraction
    recall: Fraction
    f1: Fraction
    matches: int


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


def _max_matching(predicted: Sequence, truth: Sequence, tolerance) -> int:
    """Maximum one-to-one matching between values within `tolerance`."""
    truth = sorted(truth)  # the matching's size does not depend on the order
    adjacency = [
        range(bisect_left(truth, p - tolerance), bisect_right(truth, p + tolerance))
        for p in predicted
    ]
    match_of_truth: list[int | None] = [None] * len(truth)

    def augment(i: int, seen: set[int]) -> bool:
        for j in adjacency[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_of_truth[j] is None or augment(match_of_truth[j], seen):
                match_of_truth[j] = i
                return True
        return False

    matches = 0
    for i in range(len(predicted)):
        if augment(i, set()):
            matches += 1
    return matches


def boundary_prf(
    predicted: Sequence, truth: Sequence, tolerance=1
) -> PrfScore:
    """Precision/recall/F1 of boundary positions under a matching tolerance.

    Matching is the maximum one-to-one assignment of predicted to truth
    positions with |p - t| <= tolerance.  Empty predicted (or truth) sets
    score 0 precision (recall); the units of positions and tolerance must
    agree (grid indices or times).
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    predicted = list(predicted)
    truth = list(truth)
    matches = _max_matching(predicted, truth, tolerance)
    precision = Fraction(matches, len(predicted)) if predicted else Fraction(0)
    recall = Fraction(matches, len(truth)) if truth else Fraction(0)
    # 2PR / (P + R) with P = m / |predicted| and R = m / |truth|
    f1 = Fraction(2 * matches, len(predicted) + len(truth)) if matches else Fraction(0)
    return PrfScore(precision=precision, recall=recall, f1=f1, matches=matches)


def truth_boundaries(
    annotations: Sequence[PatternRecord],
    origin: Fraction = Fraction(0),
    resolution: Fraction = Fraction(1),
) -> tuple[int, ...]:
    """Deduplicated union of span starts and ends, snapped to the grid.

    Starts and ends are pooled without distinction; snapping rounds to the
    nearest grid index with exact halves going to the earlier index.
    """
    return tuple(sorted({
        nearest_index((t - origin) / resolution)
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
    results = []
    for idx, pset in enumerate(planted_sets):
        best = Fraction(0)
        for rec in discovered:
            for occ in rec.occurrences:
                oset = occ.coords()
                inter = len(pset & oset)
                if inter:
                    j = Fraction(inter, len(pset | oset))
                    if j > best:
                        best = j
        results.append(
            PlantedResult(index=idx, best_jaccard=best, recovered=best >= jaccard_threshold)
        )
    spurious = 0
    for rec in discovered:
        overlap = any(
            occ.coords() & pset for occ in rec.occurrences for pset in planted_sets
        )
        if not overlap:
            spurious += 1
    return RecoveryReport(planted=tuple(results), spurious_patterns=spurious)
