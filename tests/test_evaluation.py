import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from motifkit.core import PatternOccurrence, PatternRecord, Point, PointSet
from motifkit.evaluation import (
    boundary_prf,
    occurrence_recovery,
    truth_boundaries,
)

import _oracles

F = Fraction


def occ(*coords):
    return PatternOccurrence(tuple(Point(F(o), p) for o, p in coords))


def span_occ(start, length, pitch=60):
    return occ(*((start + i, pitch) for i in range(length)))


class TestBoundaryPrf:
    def test_perfect_within_tolerance(self):
        prf = boundary_prf([0, 4, 9], [0, 5, 8], 1)
        assert (prf.precision, prf.recall, prf.f1, prf.matches) == (1, 1, 1, 3)

    def test_partial_recall(self):
        prf = boundary_prf([0], [0, 8], 1)
        assert prf.precision == 1
        assert prf.recall == F(1, 2)
        assert prf.f1 == F(2, 3)

    def test_empty_predictions(self):
        prf = boundary_prf([], [1, 2], 1)
        assert (prf.precision, prf.recall, prf.f1) == (0, 0, 0)

    def test_empty_truth(self):
        prf = boundary_prf([1], [], 1)
        assert (prf.precision, prf.recall, prf.f1) == (0, 0, 0)

    def test_symmetry_swaps_precision_recall(self):
        rng = random.Random(0)
        for _ in range(40):
            a = sorted(rng.sample(range(20), rng.randrange(0, 6)))
            b = sorted(rng.sample(range(20), rng.randrange(0, 6)))
            ab = boundary_prf(a, b, 1)
            ba = boundary_prf(b, a, 1)
            assert ab.precision == ba.recall
            assert ab.recall == ba.precision
            assert ab.f1 == ba.f1

    @settings(max_examples=200, deadline=None)
    @given(
        predicted=st.lists(st.integers(0, 12), max_size=8),
        truth=st.lists(st.integers(0, 12), max_size=8),
        tolerance=st.integers(0, 5),
        unit=st.sampled_from([F(1), F(1, 2), F(1, 3)]),
    )
    def test_unsorted_fractional_positions(self, predicted, truth, tolerance, unit):
        """Matching on unsorted, repeated times and dense windows; F1 is 2PR / (P + R)."""
        predicted = [x * unit for x in predicted]
        truth = [x * unit for x in truth]
        prf = boundary_prf(predicted, truth, tolerance * unit)
        assert prf.matches == _oracles.brute_max_matching(predicted, truth, tolerance * unit)
        p, r = prf.precision, prf.recall
        assert prf.f1 == (2 * p * r / (p + r) if p + r else 0)

    @settings(max_examples=200, deadline=None)
    @given(
        predicted=st.lists(st.integers(0, 12), max_size=8),
        truth=st.lists(st.integers(0, 12), max_size=8),
        tolerance=st.integers(0, 3),
    )
    @example(predicted=[], truth=[3, 5], tolerance=1)
    @example(predicted=[3], truth=[], tolerance=0)
    @example(predicted=[], truth=[], tolerance=2)
    def test_counts_ratio_is_the_score(self, predicted, truth, tolerance):
        """The score is the matching's counts, and each objective's integer pair is its
        exact view: m/p, m/t and 2m/(p + t), or 0."""
        prf = boundary_prf(predicted, truth, tolerance)
        m, p, t = prf.matches, prf.predicted, prf.truth
        assert prf == (_oracles.brute_max_matching(predicted, truth, tolerance), len(predicted), len(truth))
        want = {
            "precision": F(m, p) if p else 0,
            "recall": F(m, t) if t else 0,
            "f1": F(2 * m, p + t) if m else 0,
        }
        for objective, score in want.items():
            num, den = prf.ratio(objective)
            assert F(num, den) == getattr(prf, objective) == score

    def test_tolerance_zero_is_set_intersection(self):
        rng = random.Random(1)
        for _ in range(40):
            a = sorted(rng.sample(range(15), rng.randrange(0, 6)))
            b = sorted(rng.sample(range(15), rng.randrange(0, 6)))
            prf = boundary_prf(a, b, 0)
            assert prf.matches == len(set(a) & set(b))

    def test_matches_brute_force(self):
        rng = random.Random(2)
        for _ in range(200):
            a = sorted(rng.sample(range(12), rng.randrange(0, 7)))
            b = sorted(rng.sample(range(12), rng.randrange(0, 7)))
            tol = rng.randrange(0, 3)
            prf = boundary_prf(a, b, tol)
            assert prf.matches == _oracles.brute_max_matching(a, b, tol)

    def test_beats_naive_greedy_case(self):
        # a nearest-first greedy that gives the tied truth 4 to 5 strands 3;
        # the sorted sweep gives 4 to 3 and 6 to 5
        prf = boundary_prf([3, 5], [4, 6], 1)
        assert prf.matches == 2

    def test_f1_identity(self):
        rng = random.Random(3)
        for _ in range(40):
            a = sorted(rng.sample(range(15), rng.randrange(0, 7)))
            b = sorted(rng.sample(range(15), rng.randrange(0, 7)))
            prf = boundary_prf(a, b, 1)
            if prf.precision + prf.recall > 0:
                assert prf.f1 == 2 * prf.precision * prf.recall / (prf.precision + prf.recall)
            else:
                assert prf.f1 == 0

    def test_fractional_positions(self):
        prf = boundary_prf([F(1, 2)], [F(3, 2)], F(1))
        assert prf.matches == 1

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            boundary_prf([1], [1], -1)

    def test_long_chain(self):
        assert boundary_prf(range(5000), range(5000), 1).matches == 5000


class TestTruthBoundaries:
    def test_single_occurrence(self):
        rec = PatternRecord("t", "p", (span_occ(2, 4),))
        assert truth_boundaries([rec]) == (2, 6)

    def test_shared_boundary_deduplicated(self):
        rec = PatternRecord("t", "p", (span_occ(2, 4), span_occ(6, 3)))
        assert truth_boundaries([rec]) == (2, 6, 9)

    def test_empty(self):
        assert truth_boundaries([]) == ()

    def test_snapping_ties_earlier(self):
        rec = PatternRecord("t", "p", (occ((F(5, 2), 60)),))
        # span [5/2, 7/2): both ends snap with the half-down rule
        assert truth_boundaries([rec]) == (2, 3)

    @pytest.mark.parametrize("origin", [0, 1, -(2**61)])
    @pytest.mark.parametrize("offset", [0, 1, 3, 5, 6])
    def test_int_grid_past_float_precision(self, origin, offset):
        """Int times, origin and resolution divide exactly, where a float quotient would not."""
        t = 2**60 + offset
        rec = PatternRecord("t", "p", (PatternOccurrence((Point(t, 60, 1),)),))
        # an odd t - origin lies on an exact half, which goes to the lower index
        expected = tuple(sorted({(s - origin) // 2 for s in (t, t + 1)}))
        assert truth_boundaries([rec], origin=origin, resolution=2) == expected

    def test_exact_half_past_float_precision(self):
        rec = PatternRecord("t", "p", (PatternOccurrence((Point(2**60 + 3, 60, 1),)),))
        # [2**60 + 3, 2**60 + 4) over 2: 2**59 + 3/2 snaps down, 2**59 + 2 is on the grid
        assert truth_boundaries([rec], origin=0, resolution=2) == (2**59 + 1, 2**59 + 2)


    @given(
        grid=st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(1), F(3, 2)]),
        steps=st.integers(-20, 40),
        offset=st.sampled_from([F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 5), F(4, 5)]),
    )
    def test_snaps_like_quantize(self, grid, steps, offset):
        """Onsets k*grid + offset*grid, exact halves included, go to one grid point."""
        t = (steps + offset) * grid
        rec = PatternRecord("t", "p", (occ((t, 60)),))
        snapped = _oracles.quantize(PointSet.build([Point(t, 60)]), grid).points[0].onset
        assert truth_boundaries([rec], resolution=grid)[0] * grid == snapped


class TestOccurrenceRecovery:
    def test_exact_recovery(self):
        planted = [span_occ(0, 5), span_occ(10, 5)]
        discovered = [PatternRecord("alg", "p", tuple(planted))]
        report = occurrence_recovery(discovered, planted, F(1))
        assert report.all_recovered
        assert report.spurious_patterns == 0

    def test_extra_point_threshold(self):
        planted = [span_occ(0, 20)]
        bigger = PatternOccurrence(planted[0].points + (Point(F(25), 70),))
        discovered = [PatternRecord("alg", "p", (bigger,))]
        high = occurrence_recovery(discovered, planted, F(1))
        low = occurrence_recovery(discovered, planted, F(9, 10))
        assert high.planted[0].best_jaccard == F(20, 21)
        assert not high.planted[0].recovered
        assert low.planted[0].recovered

    def test_spurious_pattern_counted(self):
        planted = [span_occ(0, 5)]
        stray = PatternRecord("alg", "q", (span_occ(50, 3, pitch=99),))
        report = occurrence_recovery([stray], planted, F(1, 2))
        assert report.spurious_patterns == 1
        assert not report.planted[0].recovered

    def test_jaccard_matches_oracle(self):
        rng = random.Random(4)
        for _ in range(30):
            planted = [span_occ(rng.randrange(0, 5), rng.randrange(2, 6))]
            disc_occ = span_occ(rng.randrange(0, 8), rng.randrange(2, 6))
            report = occurrence_recovery(
                [PatternRecord("a", "p", (disc_occ,))], planted, F(1, 2)
            )
            want = _oracles.brute_jaccard(
                [p.coord for p in planted[0].points],
                [p.coord for p in disc_occ.points],
            )
            assert report.planted[0].best_jaccard == want

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            occurrence_recovery([], [], F(0))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), threshold=st.sampled_from([F(1, 3), F(4, 5), F(1)]))
    def test_equals_reference(self, data, threshold):
        """The earlier scorer's report on random, overlapping and repeated coordinate sets."""
        coord = st.tuples(st.integers(0, 6).map(lambda k: F(k, 2)), st.integers(60, 62))
        pool = data.draw(st.lists(st.lists(coord, min_size=1, max_size=5).map(lambda c: occ(*c)),
                                  min_size=1, max_size=6))
        planted = data.draw(st.lists(st.sampled_from(pool), max_size=4))
        records = st.lists(st.sampled_from(pool), min_size=1, max_size=3).map(
            lambda occs: PatternRecord("a", "p", tuple(occs)))
        discovered = data.draw(st.lists(records, max_size=4))
        assert occurrence_recovery(discovered, planted, threshold) == (
            _oracles.occurrence_recovery(discovered, planted, threshold))
