import random
from fractions import Fraction

import pytest

from motifkit.core import PatternOccurrence, PatternRecord, Point
from motifkit.polling import (
    PollingCurve,
    PpParams,
    boundary_trace,
    derivatives,
    extract_boundaries,
    polling_curve,
    savgol_smooth,
    train_pp,
)

import _oracles

F = Fraction


def occ(start, end, pitch=60):
    # contiguous crotchets filling [start, end)
    return PatternOccurrence(
        tuple(Point(F(start + i), pitch) for i in range(end - start))
    )


def rec(alg, *spans):
    return PatternRecord(alg, "p", tuple(occ(s, e) for s, e in spans))


def curve_of(values):
    return PollingCurve(F(0), F(1), tuple(F(v) for v in values))


class TestPollingCurve:
    def test_two_algorithms_overlap(self):
        records = [rec("a", (0, 4)), rec("b", (2, 6))]
        curve = polling_curve(records, piece_span=(F(0), F(8)))
        assert curve.values == (1, 1, 2, 2, 1, 1, 0, 0)

    def test_no_records(self):
        curve = polling_curve([], piece_span=(F(0), F(4)))
        assert curve.values == (0, 0, 0, 0)

    def test_weighted(self):
        curve = polling_curve(
            [rec("a", (0, 2))], weights={"a": 2}, piece_span=(F(0), F(4))
        )
        assert curve.values == (2, 2, 0, 0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative weight"):
            polling_curve([rec("a", (0, 2))], weights={"a": -1})

    def test_span_violation_rejected(self):
        with pytest.raises(ValueError, match="outside piece span"):
            polling_curve([rec("a", (0, 6))], piece_span=(F(0), F(4)))

    def test_fractional_resolution(self):
        curve = polling_curve(
            [rec("a", (0, 1))], resolution=F(1, 2), piece_span=(F(0), F(2))
        )
        assert curve.values == (1, 1, 0, 0)

    def test_linearity_random(self):
        rng = random.Random(0)
        for _ in range(30):
            recs_a = [rec(f"a{i}", (rng.randrange(0, 6), rng.randrange(6, 12))) for i in range(2)]
            recs_b = [rec(f"b{i}", (rng.randrange(0, 6), rng.randrange(6, 12))) for i in range(2)]
            span = (F(0), F(12))
            va = polling_curve(recs_a, piece_span=span).values
            vb = polling_curve(recs_b, piece_span=span).values
            vab = polling_curve(recs_a + recs_b, piece_span=span).values
            assert vab == tuple(x + y for x, y in zip(va, vb))

    def test_weight_scaling_doubles_values(self):
        records = [rec("a", (0, 3)), rec("b", (1, 5))]
        span = (F(0), F(6))
        v1 = polling_curve(records, {"a": 1, "b": 1}, piece_span=span).values
        v2 = polling_curve(records, {"a": 2, "b": 2}, piece_span=span).values
        assert v2 == tuple(2 * x for x in v1)

    def test_normalize_option(self):
        records = [rec("a", (0, 2)), rec("b", (0, 2))]
        curve = polling_curve(records, {"a": 3, "b": 1}, piece_span=(F(0), F(2)), normalize=True)
        assert curve.values == (1, 1)


class TestSavgol:
    def test_parabola_unchanged(self):
        c = curve_of([0, 1, 4, 9, 16])
        assert savgol_smooth(c, 5, 2).values == c.values

    def test_constant_unchanged(self):
        c = curve_of([3] * 7)
        for window in (3, 5, 7):
            for order in range(1, window):
                assert savgol_smooth(c, window, order).values == c.values

    def test_spike_window3_order1(self):
        c = curve_of([0, 0, 3, 0, 0])
        assert savgol_smooth(c, 3, 1).values == (0, 1, 1, 1, 0)

    def test_window_longer_than_curve(self):
        with pytest.raises(ValueError, match="window"):
            savgol_smooth(curve_of([1, 2, 3]), 5, 2)

    def test_matches_float_oracle(self):
        rng = random.Random(1)
        for _ in range(25):
            n = rng.randrange(5, 15)
            values = [rng.randrange(-5, 10) for _ in range(n)]
            window = rng.choice([w for w in (3, 5, 7) if w <= n])
            order = rng.randrange(1, window)
            got = savgol_smooth(curve_of(values), window, order).floats()
            want = _oracles.float_savgol(values, window, order)
            assert max(abs(g - w) for g, w in zip(got, want)) < 1e-9

    def test_polynomial_reproduction_interior(self):
        rng = random.Random(2)
        for window in (5, 7, 9):
            for order in range(1, window):
                coeffs = [F(rng.randrange(-3, 4)) for _ in range(min(order, 4) + 1)]
                values = [
                    sum(c * F(t) ** e for e, c in enumerate(coeffs)) for t in range(12)
                ]
                smoothed = savgol_smooth(curve_of(values), window, order).values
                half = window // 2
                assert smoothed[half:-half] == tuple(values[half:-half])


class TestDerivatives:
    def test_example(self):
        p1, p2 = derivatives(curve_of([0, 1, 3, 3, 2]))
        assert p1 == (1, 2, 0, -1)
        assert p2 == (1, -2, -1)

    def test_constant(self):
        p1, p2 = derivatives(curve_of([5, 5, 5, 5]))
        assert p1 == (0, 0, 0)
        assert p2 == (0, 0)

    def test_linear(self):
        p1, p2 = derivatives(curve_of([0, 2, 4, 6]))
        assert p1 == (2, 2, 2)
        assert p2 == (0, 0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            derivatives(curve_of([1, 2]))

    def test_cumulative_sum_inverts(self):
        rng = random.Random(3)
        for _ in range(20):
            values = [F(rng.randrange(0, 9)) for _ in range(rng.randrange(3, 12))]
            c = curve_of(values)
            p1, _ = derivatives(c)
            acc = [values[0]]
            for d in p1:
                acc.append(acc[-1] + d)
            assert tuple(acc) == c.values


class TestExtractBoundaries:
    def test_plateau_curve_both_derivatives(self):
        # crossings of P' = [0,2,0,-2,0] and P'' land on the plateau edges
        c = curve_of([0, 0, 2, 2, 0, 0])
        params = PpParams(window=3, order=2, lam=F(1))
        assert extract_boundaries(c, params) == (2, 4)

    def test_monotone_curve_first_derivative_silent(self):
        c = curve_of([0, 1, 2, 3, 4, 5])
        params = PpParams(window=3, order=2, lam=F(0), use_first=True, use_second=False)
        assert extract_boundaries(c, params) == ()

    def test_huge_lambda_filters_all(self):
        c = curve_of([0, 0, 2, 2, 0, 0])
        params = PpParams(window=3, order=2, lam=F(10**9))
        assert extract_boundaries(c, params) == ()

    def test_sorted_unique_in_range(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randrange(4, 30)
            c = curve_of([rng.randrange(0, 5) for _ in range(n)])
            params = PpParams(window=3, order=rng.choice([1, 2]), lam=F(0))
            got = extract_boundaries(c, params)
            assert boundary_trace(c, params).boundaries == got
            assert list(got) == sorted(set(got))
            assert all(0 <= i <= n for i in got)

    def test_scale_invariance_at_lambda_zero(self):
        rng = random.Random(5)
        for _ in range(30):
            spans = [(s, s + rng.randrange(2, 6)) for s in [1, 8, 15]]
            records = [rec("a", *spans)]
            span = (F(0), F(25))
            params = PpParams(window=3, order=1, lam=F(0))
            c1 = polling_curve(records, {"a": 1}, piece_span=span)
            c9 = polling_curve(records, {"a": 9}, piece_span=span)
            assert extract_boundaries(c1, params) == extract_boundaries(c9, params)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PpParams(window=4, order=1)
        with pytest.raises(ValueError):
            PpParams(window=3, order=3)
        with pytest.raises(ValueError):
            PpParams(window=3, order=1, lam=F(-1))


class TestTrainPp:
    def make_pieces(self):
        pieces = []
        for k in range(4):
            records = [rec("a", (2, 8), (12 + k, 18 + k))]
            truth = sorted({2, 8, 12 + k, 18 + k})
            pieces.append((records, truth))
        return pieces

    def test_single_candidate_returned(self):
        pieces = self.make_pieces()
        only = PpParams(window=3, order=1, lam=F(0))
        assert train_pp(pieces, [only], k_folds=2) == only

    def test_lambda_zero_beats_huge_lambda(self):
        pieces = self.make_pieces()
        grid = [
            PpParams(window=3, order=1, lam=F(0)),
            PpParams(window=3, order=1, lam=F(5)),
        ]
        best = train_pp(pieces, grid, objective="f1", k_folds=2)
        assert best.lam == 0

    def test_too_few_pieces(self):
        with pytest.raises(ValueError, match="pieces"):
            train_pp(self.make_pieces()[:1], [PpParams()], k_folds=2)

    def test_objectives_can_disagree(self):
        # frozen regression: high lambda keeps precision perfect but hurts
        # recall on a piece with one weak and one strong boundary cluster
        records = [rec("a", (2, 6)), rec("b", (2, 6)), rec("c", (10, 14))]
        truth = [2, 6, 10, 14]
        pieces = [(records, truth), (records, truth)]
        grid = [
            PpParams(window=3, order=1, lam=F(0), use_first=False),
            PpParams(window=3, order=1, lam=F(1), use_first=False),
        ]
        best_p = train_pp(pieces, grid, objective="precision", k_folds=2)
        best_r = train_pp(pieces, grid, objective="recall", k_folds=2)
        assert best_r.lam == 0
        assert best_p.lam == best_r.lam or best_p.lam == 1
