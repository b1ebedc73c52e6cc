import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from motifkit import polling
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


class TestPollingCurveOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        spans=st.lists(st.tuples(st.integers(0, 12), st.integers(1, 5)), min_size=0, max_size=6),
        weights=st.tuples(st.sampled_from([F(1), F(1, 3), F(5, 2), F(0)]),
                          st.sampled_from([F(2, 7), F(1), F(3, 2)])),
        resolution=st.sampled_from([F(1), F(1, 2), F(1, 3), F(2)]),
        normalize=st.booleans(),
        extra=st.integers(0, 3),
    )
    def test_equals_per_cell_sum(self, spans, weights, resolution, normalize, extra):
        """The difference array gives every cell the sum of its covering weights."""
        records = [rec(alg, *[(s, s + d) for s, d in spans[k::2]])
                   for k, alg in enumerate("ab") if spans[k::2]]
        piece_span = (F(0), F(17 + extra))
        wmap = dict(zip("ab", weights))
        curve = polling_curve(records, wmap, resolution, piece_span, normalize=normalize)
        want = _oracles.brute_polling_curve(records, wmap, resolution, piece_span, normalize)
        assert list(curve.values) == want
        assert all(isinstance(v, F) for v in curve.values)


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


_fractions = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 4, 6]))


@st.composite
def _curves(draw):
    """Fractional values, often with runs of equal samples at either end."""
    body = draw(st.lists(_fractions, min_size=1, max_size=14))
    head, tail = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return curve_of([body[0]] * head + body + [body[-1]] * tail)


class TestExactSmoothing:
    @settings(max_examples=150, deadline=None)
    @given(curve=_curves(), data=st.data())
    def test_equals_per_window_solve(self, curve, data):
        """Integer kernels and the equal-samples rule give the per-window fit."""
        if len(curve) < 3:
            curve = curve_of(curve.values * 3)
        window = data.draw(st.sampled_from(range(3, len(curve) + 1, 2)))
        order = data.draw(st.integers(1, window - 1))
        got = savgol_smooth(curve, window, order)
        assert list(got.values) == _oracles.brute_savgol(curve.values, window, order)

    @settings(max_examples=40, deadline=None)
    @given(
        spans=st.lists(st.tuples(st.integers(0, 12), st.integers(1, 5)), min_size=1, max_size=5),
        weights=st.tuples(st.sampled_from([F(1), F(1, 3), F(5, 2)]), st.sampled_from([F(2, 7), F(1)])),
        resolution=st.sampled_from([F(1), F(1, 2)]),
        normalize=st.booleans(),
        window=st.sampled_from([3, 5, 7, 9, 15]),
        order=st.integers(1, 4),
    )
    def test_boundary_signal_equals_per_window_solve(
        self, spans, weights, resolution, normalize, window, order
    ):
        """The padded signal of weighted, normalized polls, at any window."""
        records = [rec("a", *[(s, s + d) for s, d in spans[::2]]),
                   rec("b", *[(s, s + d) for s, d in spans[1::2]] or [(0, 1)])]
        curve = polling_curve(records, dict(zip("ab", weights)), resolution,
                              normalize=normalize)
        params = PpParams(window=window, order=min(order, window - 1))
        trace = boundary_trace(curve, params)
        padded = (curve.values[0],) * window + curve.values + (curve.values[-1],) * window
        assert list(trace.smoothed.values) == _oracles.brute_savgol(padded, window, params.order)


    @pytest.mark.parametrize("window, order", [(41, 1), (41, 3), (23, 2), (9, 4)])
    def test_window_longer_than_curve(self, window, order):
        """The end runs' prefix sums, when every window holds all of a short curve."""
        curve = curve_of([F(1, 2), 0, 3, F(-7, 3), 3, 3, F(5, 4)])
        trace = boundary_trace(curve, PpParams(window=window, order=order))
        padded = (curve.values[0],) * window + curve.values + (curve.values[-1],) * window
        assert list(trace.smoothed.values) == _oracles.brute_savgol(padded, window, order)


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


def _as_tuples(trace):
    return [(c.index, c.steepness, c.derivative, c.fate, c.merged_into) for c in trace.crossings]


def _check_against_oracle(curve, params):
    smoothed, p1, p2, crossings, boundaries = _oracles.brute_boundary_trace(
        curve.values, params.window, params.order, params.lam,
        params.use_first, params.use_second,
    )
    trace = boundary_trace(curve, params)
    assert list(trace.smoothed.values) == smoothed
    assert list(trace.p1) == p1 and list(trace.p2) == p2
    assert _as_tuples(trace) == crossings
    assert trace.boundaries == boundaries
    assert extract_boundaries(curve, params) == boundaries


_params = st.tuples(
    st.sampled_from([3, 5, 7, 9]), st.integers(1, 4), st.booleans(), st.booleans()
).map(lambda t: PpParams(window=t[0], order=min(t[1], t[0] - 1), use_first=t[2], use_second=t[3]))


class TestBoundaryOracle:
    @settings(max_examples=120, deadline=None)
    @given(curve=_curves(), params=_params, data=st.data())
    def test_fractional_curves(self, curve, params, data):
        """Fractional values; lambda drawn at a crossing's exact steepness."""
        if len(curve) < 3:
            curve = curve_of(curve.values * 3)
        steeps = [c[1] for c in _oracles.brute_boundary_trace(
            curve.values, params.window, params.order)[3]]
        lam = data.draw(st.sampled_from(steeps + [F(0), F(1, 3)]))
        _check_against_oracle(curve, PpParams(params.window, params.order, lam,
                                              params.use_first, params.use_second))

    @settings(max_examples=60, deadline=None)
    @given(
        spans=st.lists(st.tuples(st.integers(0, 12), st.integers(1, 5)), min_size=1, max_size=6),
        weights=st.tuples(st.sampled_from([F(1), F(1, 3), F(5, 2)]), st.sampled_from([F(2, 7), F(1)])),
        resolution=st.sampled_from([F(1), F(1, 2), F(1, 3)]),
        normalize=st.booleans(),
        params=_params,
        data=st.data(),
    )
    def test_weighted_polls(self, spans, weights, resolution, normalize, params, data):
        records = [rec(alg, *[(s, s + d) for s, d in spans[k::2]])
                   for k, alg in enumerate("ab") if spans[k::2]]
        curve = polling_curve(records, dict(zip("ab", weights)), resolution, normalize=normalize)
        steeps = [c[1] for c in _oracles.brute_boundary_trace(
            curve.values, params.window, params.order)[3]]
        lam = data.draw(st.sampled_from(steeps + [F(0)]))
        _check_against_oracle(curve, PpParams(params.window, params.order, lam,
                                              params.use_first, params.use_second))

    def test_two_crossings_of_one_derivative_at_one_index(self):
        # window 3, order 2 reproduces the curve, so p1 holds 2, -1, 2: both
        # flips sit at the -1 with steepness 3, and the first one is kept
        curve = curve_of([0, 0, 2, 1, 3, 3, 3])
        trace = boundary_trace(curve, PpParams(window=3, order=2, use_second=False))
        at_two = [c for c in trace.crossings if c.index == 2 and c.derivative == 1]
        assert [(c.steepness, c.fate, c.merged_into) for c in at_two] == [
            (3, "kept", None), (3, "merged", 2)]
        for lam in (F(0), F(3), F(7, 2)):
            _check_against_oracle(curve, PpParams(3, 2, lam, True, False))
            _check_against_oracle(curve, PpParams(3, 2, lam))


class TestBoundaryTraceCrossings:
    @settings(max_examples=80, deadline=None)
    @given(curve=_curves(), params=_params, lam=st.sampled_from([F(0), F(1, 4), F(1), F(3)]))
    def test_fates(self, curve, params, lam):
        """Kept crossings are the boundaries; the others say why not."""
        if len(curve) < 3:
            curve = curve_of(curve.values * 3)
        params = PpParams(params.window, params.order, lam, params.use_first, params.use_second)
        trace = boundary_trace(curve, params)
        kept = {c.index: c.steepness for c in trace.crossings if c.fate == "kept"}
        assert tuple(kept) == trace.boundaries
        use = {1: params.use_first, 2: params.use_second}
        for c in trace.crossings:
            assert isinstance(c.steepness, F)
            assert 0 <= c.index <= len(curve)
            if c.fate == "below_lambda":
                assert use[c.derivative] and c.steepness < lam
            elif c.fate == "derivative_off":
                assert not use[c.derivative]
            elif c.fate == "merged":
                assert c.steepness <= kept[c.merged_into]
            else:
                assert c.fate == "kept" and c.merged_into is None and c.steepness >= lam
        assert [(c.index, c.steepness, c.derivative) for c in trace.crossings] == sorted(
            (c.index, c.steepness, c.derivative) for c in trace.crossings)


@st.composite
def _training_sets(draw):
    """Random pieces and a grid of few distinct values, so scores and ranks tie."""
    pieces = []
    for _ in range(draw(st.integers(2, 5))):
        spans = draw(st.lists(st.tuples(st.integers(0, 14), st.integers(1, 6)),
                              min_size=1, max_size=4))
        records = [rec(f"a{j % 2}", (s, s + d)) for j, (s, d) in enumerate(spans)]
        truth = sorted(draw(st.sets(st.integers(0, 20), max_size=5)))
        pieces.append((records, truth))
    params = st.builds(
        PpParams,
        window=st.sampled_from([3, 5, 7]),
        order=st.sampled_from([1, 2]),
        lam=st.sampled_from([F(0), F(1, 2), F(1)]),
        use_first=st.booleans(),
        use_second=st.booleans(),
    )
    return pieces, draw(st.lists(params, min_size=1, max_size=10))


class TestTrainPp:
    @settings(max_examples=60, deadline=None)
    @given(
        case=_training_sets(),
        objective=st.sampled_from(["precision", "recall", "f1"]),
        resolution=st.sampled_from([F(1), F(1, 2)]),
        seed=st.integers(0, 3),
        folds=st.integers(2, 3),
    )
    def test_equals_extracting_every_candidate(self, case, objective, resolution, seed, folds):
        pieces, grid = case
        folds = min(folds, len(pieces))
        kwargs = dict(objective=objective, k_folds=folds, resolution=resolution, seed=seed)
        assert train_pp(pieces, grid, **kwargs) == _oracles.brute_train_pp(pieces, grid, **kwargs)

    @pytest.mark.parametrize("lambdas, flags", [
        ([F(0)], [(True, True)]),
        ([F(0), F(1, 2), F(1), F(3)], [(True, True), (False, True), (True, False)]),
    ])
    def test_smooths_each_piece_once_per_window_and_order(self, monkeypatch, lambdas, flags):
        calls = []
        smooth = polling._smooth

        def counted(ys, window, order):
            calls.append((window, order))
            return smooth(ys, window, order)

        monkeypatch.setattr(polling, "_smooth", counted)
        grid = [
            PpParams(window=w, order=o, lam=lam, use_first=first, use_second=second)
            for w, o in [(3, 1), (3, 2), (5, 1), (7, 3)]
            for lam in lambdas
            for first, second in flags
        ]
        pieces = self.make_pieces()
        train_pp(pieces, grid, k_folds=2)
        assert len(calls) == len(pieces) * 4
        assert set(calls) == {(3, 1), (3, 2), (5, 1), (7, 3)}

    def test_builds_no_polling_curve(self, monkeypatch):
        built = []
        curve_type = polling.PollingCurve

        def counted(*args):
            built.append(args)
            return curve_type(*args)

        monkeypatch.setattr(polling, "PollingCurve", counted)
        grid = [PpParams(window=w, order=1, lam=lam) for w in (3, 5) for lam in (F(0), F(1))]
        train_pp(self.make_pieces(), grid, k_folds=2, resolution=F(1, 2))
        assert built == []

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
