import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from motifkit.core import Point, PointSet
from motifkit.discovery import (
    DEFAULT_ORDER,
    MTP,
    TEC,
    TecQuality,
    Vector2,
    ZERO,
    compactness,
    cosiatec,
    mtps_to_records,
    run_algorithm,
    sia,
    siar,
    siatec,
    siatec_compress,
    tec_quality,
    DiscoveryStats,
    _column_walk,
    _cover,
    _figure,
    _Grid,
    _leading,
    _mtp_table,
    _rank_key,
    _segments,
    _shape,
    _shape_walk,
    _translators,
    _trawled,
)
from motifkit.synthesis import SynthConfig, synthesize

import _oracles

F = Fraction


def pt(onset, pitch, duration=1):
    return Point(F(onset), pitch, F(duration))


def pset(*coords):
    return PointSet.build(pt(o, p) for o, p in coords)


def vec(dt, dp):
    return Vector2(F(dt), dp)


def trawl(pattern, ps, a, b):
    """The pattern's compact segments, as the piece's notes (`_segments` on its grid)."""
    grid = _Grid(ps)
    return [grid.points(s) for s in _segments(list(grid.on_grid(pattern)), grid, a, b)]


def random_pointset(rng, max_points=12, onset_range=8, pitch_range=12):
    n = rng.randrange(2, max_points + 1)
    coords = set()
    while len(coords) < n:
        coords.add((rng.randrange(0, onset_range), 55 + rng.randrange(0, pitch_range)))
    return pset(*sorted(coords))


FOUR = pset((0, 60), (1, 62), (2, 60), (3, 62))


def check_sia(ps):
    """SIA's patterns by vector equal `_oracles.brute_mtps` on exact coordinates."""
    got = {(m.vector.dt, m.vector.dp): frozenset(p.coord for p in m.points) for m in sia(ps)}
    assert got == _oracles.brute_mtps([p.coord for p in ps.points])


class TestSia:
    def test_four_point_example(self):
        mtps = sia(FOUR)
        got = {(m.vector.dt, m.vector.dp): {p.coord for p in m.points} for m in mtps}
        assert got == {
            (1, -2): {(1, 62)},
            (1, 2): {(0, 60), (2, 60)},
            (2, 0): {(0, 60), (1, 62)},
            (3, 2): {(0, 60)},
        }
        assert [(m.vector.dt, m.vector.dp) for m in mtps] == sorted(got)

    def test_single_point(self):
        assert sia(pset((0, 60))) == []

    def test_arithmetic_progression(self):
        mtps = sia(pset(*(((i, 60)) for i in range(4))))
        by_vec = {m.vector.dt: len(m.points) for m in mtps}
        assert by_vec == {1: 3, 2: 2, 3: 1}

    def test_matches_brute_force(self):
        rng = random.Random(0)
        for _ in range(60):
            check_sia(random_pointset(rng))

    def test_fractional_onsets(self):
        ps = PointSet.build([Point(F(1, 2), 60), Point(F(3, 2), 62), Point(F(5, 2), 60)])
        mtps = sia(ps)
        assert Vector2(F(2), 0) in [m.vector for m in mtps]


class TestSiar:
    def test_r1_progression(self):
        mtps = siar(pset(*(((i, 60)) for i in range(4))), 1)
        assert len(mtps) == 1
        assert mtps[0].vector == vec(1, 0)
        assert len(mtps[0].points) == 3

    def test_equals_sia_when_r_large(self):
        rng = random.Random(1)
        for _ in range(20):
            ps = random_pointset(rng, max_points=8)
            assert siar(ps, len(ps)) == sia(ps)
            assert siar(ps, len(ps) - 1) == sia(ps)

    def test_submapping_of_sia(self):
        rng = random.Random(2)
        for _ in range(30):
            ps = random_pointset(rng, max_points=10)
            r = rng.randrange(1, len(ps) + 1)
            full = {m.vector: m.points for m in sia(ps)}
            for m in siar(ps, r):
                assert full[m.vector] == m.points

    def test_r3_on_four_point_example(self):
        assert siar(FOUR, 3) == sia(FOUR)

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            siar(FOUR, 0)


class TestSiatec:
    def test_four_point_example(self):
        tecs = siatec(FOUR)
        by_pattern = {tuple(p.coord for p in t.pattern): t for t in tecs}
        two = by_pattern[((0, 60), (1, 62))]
        assert [(u.dt, u.dp) for u in two.translators] == [(0, 0), (2, 0)]
        assert len(two.covered) == 4
        assert tec_quality(two, FOUR).compression_ratio == F(4, 3)
        singleton = by_pattern[((0, 60),)]
        assert [(u.dt, u.dp) for u in singleton.translators] == [
            (0, 0),
            (1, 2),
            (2, 0),
            (3, 2),
        ]
        assert len(singleton.covered) == 4

    def test_translator_soundness_and_completeness(self):
        rng = random.Random(3)
        for _ in range(40):
            ps = random_pointset(rng, max_points=10)
            coords = [p.coord for p in ps.points]
            cset = set(coords)
            for tec in siatec(ps):
                shape = [p.coord for p in tec.pattern]
                for u in tec.translators:
                    for q in shape:
                        assert (q[0] + u.dt, q[1] + u.dp) in cset
                expected = _oracles.brute_translators(shape, coords)
                got = {(u.dt, u.dp) for u in tec.translators}
                assert got == expected

    def test_zero_translator_present_and_sorted(self):
        for tec in siatec(FOUR):
            assert ZERO in tec.translators
            assert list(tec.translators) == sorted(tec.translators)

    def test_merged_classes_unique_shapes(self):
        rng = random.Random(4)
        for _ in range(20):
            ps = random_pointset(rng)
            shapes = set()
            for tec in siatec(ps):
                base = tec.pattern[0]
                shape = tuple(
                    (p.onset - base.onset, p.pitch - base.pitch) for p in tec.pattern
                )
                assert shape not in shapes
                shapes.add(shape)


class TestCosiatec:
    def test_four_point_example(self):
        tecs = cosiatec(FOUR)
        assert len(tecs) == 1
        assert {p.coord for p in tecs[0].covered} == {p.coord for p in FOUR.points}
        assert tuple(p.coord for p in tecs[0].pattern) == ((0, 60), (1, 62))

    def test_single_point(self):
        tecs = cosiatec(pset((0, 60)))
        assert len(tecs) == 1
        assert tecs[0].translators == (ZERO,)

    def test_two_distant_repeated_pairs(self):
        ps = pset((0, 60), (1, 61), (20, 60), (21, 61), (45, 70), (46, 68), (71, 70), (72, 68))
        tecs = cosiatec(ps)
        assert len(tecs) == 2
        first = {p.coord for p in tecs[0].covered}
        second = {p.coord for p in tecs[1].covered}
        assert first == {(0, 60), (1, 61), (20, 60), (21, 61)}
        assert second == {(45, 70), (46, 68), (71, 70), (72, 68)}

    def test_partition_property(self):
        rng = random.Random(5)
        for _ in range(40):
            ps = random_pointset(rng)
            tecs = cosiatec(ps)
            seen = set()
            for tec in tecs:
                cover = {p.coord for p in tec.covered}
                assert not cover & seen
                seen |= cover
            assert seen == {p.coord for p in ps.points}

    def test_isolated_membership_keeps_whole_occurrence(self):
        # (30, 70) also repeats at the pattern's vector (10, 0), so the MTP
        # for that vector is the pattern plus a far-off stray
        pattern = [(0, 60), (1, 62), (2, 64), (3, 65)]
        copy = [(o + 10, p) for o, p in pattern]
        ps = pset(*pattern, *copy, (30, 70), (40, 70))
        occurrences = {
            tuple(p.coord for p in occ)
            for tec in cosiatec(ps, tie_break=("comp", "size"))
            for occ in tec.occurrences
        }
        assert tuple(pattern) in occurrences
        assert tuple(copy) in occurrences


class TestSiatecCompress:
    def test_four_point_example(self):
        for key in ("cr", "comp", "cov"):
            tecs = siatec_compress(FOUR, key)
            assert len(tecs) == 1
            assert len(tecs[0].covered) == 4

    def test_empty(self):
        assert siatec_compress(PointSet.build([])) == []

    def test_cover_and_new_point_property(self):
        rng = random.Random(6)
        overlap_seen = False
        for _ in range(40):
            ps = random_pointset(rng)
            for key in ("cr", "comp", "cov"):
                tecs = siatec_compress(ps, key)
                covered = set()
                for tec in tecs:
                    cover = {p.coord for p in tec.covered}
                    assert cover - covered, "accepted TEC added no new point"
                    if cover & covered:
                        overlap_seen = True
                    covered |= cover
                assert covered == {p.coord for p in ps.points}
        assert overlap_seen, "expected at least one overlapping accepted TEC"

    def test_invalid_key(self):
        with pytest.raises(ValueError):
            siatec_compress(FOUR, "f1")

    @pytest.mark.parametrize(
        "seed, occurrences", [*((seed, 2) for seed in range(10)), *((seed, 6) for seed in range(3))]
    )
    def test_best_first_equals_exhaustive_walk(self, seed, occurrences):
        ps = synth_piece(seed, occurrences)
        shapes = {_shape(o) for o in _mtp_table(_Grid(ps)).values()}
        for key in ("cr", "comp", "cov"):
            stats = DiscoveryStats()
            assert siatec_compress(ps, key, stats) == _oracles.exhaustive_siatec_compress(ps, key)
            [r] = stats.rounds
            assert r["shapes"] == len(shapes), key
            assert r["scored"] == len(_oracles.walk_scored(ps, key)), key

    def test_ratio_first_searches_few_shapes(self):
        # measured: translators searched for 3,351 (0.72) of 4,663 shapes
        ps = synth_piece(0, 6)
        stats = DiscoveryStats()
        siatec_compress(ps, "cr", stats)
        [r] = stats.rounds
        assert r["scored"] <= 0.8 * r["shapes"]


class TestCompactness:
    def test_full_set(self):
        assert compactness(FOUR.points, FOUR) == 1

    def test_temporal_window(self):
        assert compactness((pt(0, 60), pt(3, 62)), FOUR) == F(1, 2)

    def test_singleton(self):
        assert compactness((pt(0, 60),), FOUR) == 1

    def test_not_subset_rejected(self):
        with pytest.raises(ValueError):
            compactness((pt(9, 99),), FOUR)

    def test_off_grid_point_rejected(self):
        # on this piece's integer grid, (1/4, 0) must not pass for the note
        # (0, 64), whose code 64 is 1/4 * 256 + 0, nor for (0, 0) or (1, 0)
        ps = pset((0, 0), (0, 64), (1, 0))
        with pytest.raises(ValueError, match="not in the point set"):
            compactness((pt(F(1, 4), 0),), ps)


class TestTrawler:
    def test_whole_pattern_survives(self):
        segs = trawl(FOUR.points, FOUR, F(1), 2)
        assert segs == [FOUR.points]

    def test_split_on_interleaved_point(self):
        ps = pset((0, 60), (1, 62), (2, 99), (3, 60), (4, 62))
        pattern = (pt(0, 60), pt(1, 62), pt(3, 60), pt(4, 62))
        segs = trawl(pattern, ps, F(1), 2)
        assert [tuple(p.coord for p in s) for s in segs] == [
            ((0, 60), (1, 62)),
            ((3, 60), (4, 62)),
        ]

    def test_min_size_filters_all(self):
        assert trawl(FOUR.points, FOUR, F(1), 5) == []

    def test_output_satisfies_thresholds(self):
        rng = random.Random(8)
        for _ in range(30):
            ps = random_pointset(rng)
            mtps = sia(ps)
            if not mtps:
                continue
            mtp = rng.choice(mtps)
            a = F(rng.randrange(1, 5), 4)
            b = rng.randrange(1, 4)
            for seg in trawl(mtp.points, ps, a, b):
                assert len(seg) >= b
                assert compactness(seg, ps) >= a

    def test_siarct_builds_one_grid_and_no_mtp(self, monkeypatch):
        """The vector table's columns are trawled on the grid they came from."""
        built = []
        for cls in (_Grid, MTP):
            init = cls.__init__

            def counted(self, *args, _init=init, **kwargs):
                built.append(type(self))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        ps = pset(*[(i, 60 + i % 3) for i in range(12)], (5, 70), (20, 60), (21, 61))
        assert run_algorithm("siarct:2/3,2", ps) and run_algorithm("siarct:1/2,2", ps)
        assert built == [_Grid, _Grid]

    def test_grid_segments_match_brute_trawler(self):
        """Every vector-table column, for a below 1."""
        rng = random.Random(977)  # the criterion-01 small corpus
        for _ in range(200):
            ps = random_pointset(rng)
            grid = _Grid(ps)
            for origins in _mtp_table(grid).values():
                pattern = grid.points(origins)
                for a in (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)):
                    for b in (1, 2, 3):
                        got = [grid.points(s) for s in _segments(origins, grid, a, b)]
                        assert got == _oracles.brute_trawl(pattern, ps.points, a, b)


class TestTecQuality:
    def test_formula(self):
        tecs = siatec(FOUR)
        four_point = [t for t in tecs if len(t.covered) == 4 and len(t.pattern) == 2][0]
        q = tec_quality(four_point, FOUR)
        assert q.compression_ratio == F(4, 3)
        assert q.coverage == 4

    def test_residual_ratio_one(self):
        tec = cosiatec(pset((0, 60)))[0]
        assert tec_quality(tec, pset((0, 60))).compression_ratio == 1

    def test_disjoint_cover_formula(self):
        # n-point pattern, k translators, disjoint covers: ratio nk/(n+k-1)
        ps = pset(*[(i + 10 * j, 60 + i) for j in range(3) for i in range(2)])
        tecs = [t for t in siatec(ps) if len(t.pattern) == 2 and len(t.translators) == 3]
        assert tecs, "expected the planted 2-point/3-translator TEC"
        q = tec_quality(tecs[0], ps)
        assert q.compression_ratio == F(2 * 3, 2 + 3 - 1)


def tec_coords(tecs):
    return [
        (
            tuple(p.coord for p in t.pattern),
            tuple((u.dt, u.dp) for u in t.translators),
            tuple(p.coord for p in t.covered),
        )
        for t in tecs
    ]


# pieces of up to 12 notes whose onsets include thirds or halves
fractional_pieces = st.sets(
    st.tuples(st.integers(0, 11), st.sampled_from([1, 2, 3]), st.integers(58, 63)),
    min_size=1,
    max_size=12,
).map(lambda notes: PointSet.build(Point(F(n, d), p, F(d, 2)) for n, d, p in notes))


# pieces of up to 12 notes on 16 half-beat onsets and 3 pitches: sparse pieces
# rarely hold a shape whose smallest table column has a non-translator
dense_pieces = st.sets(
    st.tuples(st.integers(0, 15), st.integers(60, 62)), min_size=1, max_size=12
).map(lambda notes: PointSet.build(Point(F(n, 2), p) for n, p in notes))

# every leading figure, with and without a bound on it
ORDERS = (
    DEFAULT_ORDER, ("comp", "size"), ("comp>=1", "cov"), ("cov",), ("size", "cr"), ("cr", "size")
)


# pieces at the edges of the grid code: pitches 0, 1, 126 and 127, so vectors
# reach dp = +-127, on onsets in halves from -9 to 9 and in thirds from -6 to 6
edge_pieces = st.sets(
    st.tuples(
        st.integers(-18, 18), st.sampled_from([2, 3]), st.sampled_from([0, 1, 126, 127]),
        st.sampled_from([F(1, 3), F(1), F(3, 2)]),
    ),
    min_size=1,
    max_size=10,
).map(lambda notes: PointSet.build(Point(F(n, d), p, dur) for n, d, p, dur in notes))

# the vector (0, 127) is the greatest with dt = 0; (1/3, -127) and (1/2, -127)
# are the least at their dt
EDGE = PointSet.build(
    Point(F(n, d), p) for n, d, p in ((-1, 3, 127), (0, 1, 0), (0, 1, 127), (1, 2, 0), (1, 2, 127))
)


def synth_piece(seed, occurrences):
    return synthesize(SynthConfig(occurrences_per_template=occurrences, seed=seed)).piece


def check_covers(ps):
    """COSIATEC under every ordering, and SIATECCompress, equal the brute-force covers."""
    coords = [p.coord for p in ps.points]
    for order in ORDERS:
        assert tec_coords(cosiatec(ps, order)) == _oracles.brute_cosiatec(coords, order)
    for key in ("cr", "comp", "cov"):
        assert tec_coords(siatec_compress(ps, key)) == _oracles.brute_siatec_compress(coords, key)


class TestGridRanking:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(fractional_pieces, dense_pieces))
    def test_covers_match_oracle(self, ps):
        assume(_Grid(ps).scale > 1)
        check_covers(ps)

    @pytest.mark.parametrize(
        "seed, occurrences", [*((seed, 2) for seed in range(10)), *((seed, 6) for seed in range(3))]
    )
    def test_best_first_equals_exhaustive_rounds(self, seed, occurrences):
        ps = synth_piece(seed, occurrences)
        for order in ORDERS if occurrences == 2 else (DEFAULT_ORDER, ("cov",)):
            assert cosiatec(ps, order) == _oracles.exhaustive_cosiatec(ps, order), order

    def test_ratio_first_scores_few_shapes(self):
        # measured: the 8 rounds build 1,784 (0.302) and score 348 (0.059) of
        # their 5,898 candidate shapes
        ps = synth_piece(0, 6)
        stats = DiscoveryStats()
        cosiatec(ps, stats=stats)
        assert len(ps) == 288
        shapes = [len(_oracles.grid_shapes(g, t)) for g, t, _ in _oracles.exhaustive_rounds(ps)]
        assert len(shapes) == len(stats.rounds)
        assert all(r["scored"] <= r["shapes"] <= n for r, n in zip(stats.rounds, shapes))
        assert sum(r["scored"] for r in stats.rounds) <= 0.15 * sum(shapes)
        assert sum(r["shapes"] for r in stats.rounds) <= 0.31 * sum(shapes)

    def test_full_tie_goes_to_least_pattern(self):
        # both pairs: ratio 4/3, compactness 1, coverage 4, size 2; the later
        # pair has the smaller shape, the earlier one the smaller pattern
        ps = pset((0, 60), (1, 62), (10, 60), (11, 62), (20, 70), (21, 71), (35, 70), (36, 71))
        coords = [p.coord for p in ps.points]
        for tecs, expected in (
            (cosiatec(ps), _oracles.brute_cosiatec(coords)),
            (siatec_compress(ps), _oracles.brute_siatec_compress(coords)),
        ):
            assert tec_coords(tecs) == expected
            assert tecs[0].pattern == (pt(0, 60), pt(1, 62))

    def test_grid_score_equals_tec_quality(self):
        rng = random.Random(12)
        for _ in range(40):
            ps = PointSet.build(
                pt(F(rng.randrange(0, 16), rng.choice([1, 2, 4])), 55 + rng.randrange(0, 8))
                for _ in range(rng.randrange(2, 14))
            )
            grid = _Grid(ps)
            table = _mtp_table(grid)
            for origins in table.values():
                for shape in {_shape(origins)} | {_shape(s) for s in _segments(origins, grid, 1, 2)}:
                    c = _oracles.score(shape, grid, table)
                    size, count = len(c.shape), len(c.translators)
                    assert TecQuality(
                        compression_ratio=F(c.coverage, size + count - 1),
                        compactness=F(size, c.window),
                        coverage=c.coverage,
                    ) == tec_quality(grid.tec(c.shape, c.translators), ps)
                    assert c.compresses() == (c.coverage > size + count - 1)


def check_round_work(ps):
    """Under every ordering, each round builds the shapes of the columns whose size
    bound reaches its best leading figure, and scores the candidate shapes whose own
    bound does; a compactness-led ordering has no bound, so it builds and scores all."""
    for order in ORDERS:
        stats = DiscoveryStats()
        cosiatec(ps, order, stats)
        rounds = list(_oracles.exhaustive_rounds(ps, order))
        assert len(stats.rounds) == len(rounds)
        for r, (grid, table, best) in zip(stats.rounds, rounds):
            figure = _oracles.leading_figure(best, order)
            assert r["shapes"] == len(_oracles.built_shapes(grid, table, order, figure)), order
            assert r["scored"] == len(_oracles.bounded_shapes(grid, table, order, figure)), order


class TestColumnBound:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(fractional_pieces, dense_pieces))
    def test_built_and_scored_shapes_match_bounds(self, ps):
        check_round_work(ps)

    @pytest.mark.parametrize("seed, occurrences", [(1, 2), (2, 3), (1, 6)])
    def test_synthetic_pieces(self, seed, occurrences):
        check_round_work(synth_piece(seed, occurrences))

    def test_coverage_led_round_skips_columns(self):
        """A coverage-led round bounds a column of k >= 2 origins by the longest
        column, not by the remaining points, so it skips some columns."""
        ps = synth_piece(0, 6)
        stats = DiscoveryStats()
        cosiatec(ps, ("cov",), stats)
        grid = _Grid(ps)
        every = _oracles.grid_shapes(grid, _mtp_table(grid))
        assert [r["shapes"] for r in stats.rounds] == [3744] and len(every) == 4682


def exact(grid, coords):
    """Grid codes back on the piece's exact (onset, pitch) pairs."""
    return [(v.dt, v.dp) for v in map(grid.vector, coords)]


class TestTableTranslators:
    @settings(max_examples=120, deadline=None)
    @given(st.one_of(fractional_pieces, dense_pieces))
    def test_equal_brute_force_scan(self, ps):
        grid = _Grid(ps)
        table = _mtp_table(grid)
        coords = [p.coord for p in ps.points]
        shapes = _oracles.grid_shapes(grid, table) | {(0,)}
        for shape in shapes:
            got = _translators(shape, grid, table)
            assert list(got) == sorted(got)
            assert set(exact(grid, got)) == _oracles.brute_translators(exact(grid, shape), coords)

    def test_one_point_shape_fits_everywhere(self):
        grid = _Grid(FOUR)
        table = _mtp_table(grid)
        assert (0,) in {_shape(o) for o in table.values()}
        assert _translators((0,), grid, table) == tuple(grid.coords)


def brute_order(grid, candidates, order, coords):
    """The candidates' patterns sorted by the oracle's Fraction figures."""
    triples = [tec_coords([grid.tec(c.shape, c.translators)])[0] for c in candidates]
    return [t[0] for t in sorted(triples, key=_oracles._brute_rank_key(order, coords))]


def integer_order(grid, candidates, order, n):
    """The candidates' patterns sorted by the library's integer keys."""
    ranked = sorted(candidates, key=_rank_key(order, n))
    return [tuple(p.coord for p in grid.tec(c.shape, c.translators).pattern) for c in ranked]


RANK_ORDERS = (
    ("cr", "comp", "cov", "size"), ("comp", "size"), ("cov",), ("size", "cr"),
    ("comp>=1", "cov"), ("comp>=2/3", "cr"),
)


class TestIntegerRanking:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(fractional_pieces, dense_pieces))
    def test_order_equals_fraction_order(self, ps):
        grid = _Grid(ps)
        table = _mtp_table(grid)
        candidates = [_oracles.score(s, grid, table) for s in _oracles.grid_shapes(grid, table)]
        coords = [p.coord for p in ps.points]
        for order in RANK_ORDERS:
            got = integer_order(grid, candidates, order, len(ps))
            assert got == brute_order(grid, candidates, order, coords)

    def test_threshold_at_exact_compactness(self):
        # the pair (0, 60) (2, 62) has (1, 70) inside its span: compactness 2/3
        ps = pset((0, 60), (1, 70), (2, 62), (10, 60), (11, 71), (12, 62))
        grid = _Grid(ps)
        table = _mtp_table(grid)
        c = _oracles.score((0, 2 * 256 + 2), grid, table)  # the grid codes of (0, 0) and (2, 2)
        assert F(len(c.shape), c.window) == F(2, 3)
        m = 4 * len(ps) ** 2
        assert _figure("comp>=2/3")(c, m) == 1
        assert _figure("comp>=0.6667")(c, m) == 0
        assert _figure("comp>=0.6666")(c, m) == 1
        candidates = [_oracles.score(s, grid, table) for s in _oracles.grid_shapes(grid, table)]
        coords = [p.coord for p in ps.points]
        for order in (("comp>=2/3", "cov"), ("comp>=0.6667", "cov"), ("comp", "cov")):
            got = integer_order(grid, candidates, order, len(ps))
            assert got == brute_order(grid, candidates, order, coords)


def check_drained(walk, candidates, key, shapes):
    """The whole walk gives every candidate, least `key` first, each with its cover, and by
    its end has built `shapes` and searched the translators of all of them."""
    drained = list(walk)
    assert [c for c, _, _ in drained] == sorted(candidates, key=key)
    assert all(cover == _cover(c.shape, c.translators) for c, cover, _ in drained)
    assert drained[-1][2] == len(shapes) == len(candidates)


def check_walks(ps):
    """COSIATEC's first round under every ordering, and SIATECCompress under every
    key, drained, equal sorting every candidate they rank (`_oracles.score`)."""
    grid = _Grid(ps)
    table = _mtp_table(grid)
    candidates = [_oracles.score(s, grid, table) for s in _oracles.grid_shapes(grid, table)]
    for order in dict.fromkeys((*ORDERS, *RANK_ORDERS)):
        key = _rank_key(order, len(ps))
        walk, built = _column_walk(grid, table, key, _leading(order, len(ps)))
        check_drained(walk, candidates, key, built)
    shapes = {_shape(o) for o in table.values()}
    candidates = [_oracles.score(s, grid, table) for s in shapes]
    for sort_key in ("cr", "comp", "cov"):
        walk, walked = _shape_walk(grid, table, sort_key)
        assert walked == shapes
        check_drained(walk, candidates, _rank_key((sort_key,), len(ps)), shapes)


class TestBestFirstWalk:
    @pytest.mark.parametrize("seed", range(4))
    def test_synthetic_pieces(self, seed):
        check_walks(synth_piece(seed, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(fractional_pieces, dense_pieces))
    def test_small_pieces(self, ps):
        assume(len(ps) >= 2)
        check_walks(ps)


class TestTrawlOracle:
    @settings(max_examples=150, deadline=None)
    @given(ps=st.one_of(fractional_pieces, dense_pieces), data=st.data())
    def test_equals_brute_trawler(self, ps, data):
        """Below-1 thresholds, on exact onsets."""
        pattern = data.draw(st.lists(st.sampled_from(ps.points), min_size=1, unique=True))
        a = data.draw(st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]))
        b = data.draw(st.integers(1, 3))
        got = trawl(pattern, ps, a, b)
        assert got == _oracles.brute_trawl(pattern, ps.points, a, b)


class TestCompactnessOracle:
    @settings(max_examples=150, deadline=None)
    @given(ps=st.one_of(fractional_pieces, dense_pieces), data=st.data())
    def test_equals_brute_compactness(self, ps, data):
        """Shared and fractional onsets, the pattern in any order."""
        pattern = data.draw(st.lists(st.sampled_from(ps.points), min_size=1, unique=True))
        assert compactness(pattern, ps) == _oracles.brute_compactness(pattern, ps.points)


# the points (0, 60, 1) (1, 62, 1) (4, 60, 1) (5, 62, 3): the pair repeats at
# (4, 0), and its second occurrence ends in the dotted minim
DOTTED = PointSet.build([pt(0, 60), pt(1, 62), pt(4, 60), pt(5, 62, 3)])
SECOND = (pt(4, 60), pt(5, 62, 3))

# pieces of up to 12 notes with fractional onsets and varied durations
varied_pieces = st.lists(
    st.tuples(
        st.integers(0, 11), st.sampled_from([1, 2, 3]), st.integers(58, 63),
        st.sampled_from([F(1, 3), F(1, 2), F(1), F(3, 2), F(4)]),
    ),
    min_size=1,
    max_size=12,
).map(lambda notes: PointSet.build(Point(F(n, d), p, dur) for n, d, p, dur in notes))

ALL_SPECS = (
    "sia", "siar:2", "siatec", "cosiatec", "cosiatec:comp,size",
    "siatec-compress:cr", "siatec-compress:comp", "siatec-compress:cov", "siarct:1/2,2",
)


class TestOccurrencesAreRealNotes:
    def test_siatec_and_covers(self):
        for tecs in (siatec(DOTTED), cosiatec(DOTTED), siatec_compress(DOTTED)):
            pair = [t for t in tecs if tuple(p.coord for p in t.pattern) == ((0, 60), (1, 62))]
            assert pair[0].occurrences == ((pt(0, 60), pt(1, 62)), SECOND)

    def test_mtp_and_siarct_images(self):
        mtp = {m.vector: m for m in sia(DOTTED)}[vec(4, 0)]
        assert mtp.translated == SECOND
        assert {m.vector: m for m in siar(DOTTED, 2)}[vec(4, 0)].translated == SECOND
        records = run_algorithm("siarct:1,2", DOTTED)
        pairs = [r.occurrences[1].points for r in records if len(r.occurrences[0].points) == 2]
        assert pairs == [SECOND]

    @settings(max_examples=60, deadline=None)
    @given(varied_pieces)
    def test_every_occurrence_is_a_subset_of_the_piece(self, ps):
        notes = set(ps.points)
        for spec in ALL_SPECS:
            for record in run_algorithm(spec, ps):
                for occ in record.occurrences:
                    assert set(occ.points) <= notes, spec


def _compress(key):
    return lambda ps: siatec_compress(ps, key)


TEC_SPECS = {
    "siatec": siatec,
    "cosiatec": cosiatec,
    "cosiatec:comp,size": lambda ps: cosiatec(ps, ("comp", "size")),
    **{f"siatec-compress:{key}": _compress(key) for key in ("cr", "comp", "cov")},
}


def check_tec_occurrences(ps):
    """Each TEC's occurrences, pattern, cover and records follow `_oracles.tec_occurrences`."""
    for spec, run in TEC_SPECS.items():
        tecs = run(ps)
        for tec, record in zip(tecs, run_algorithm(spec, ps), strict=True):
            assert list(tec.occurrences) == _oracles.tec_occurrences(tec, ps), spec
            assert tec.pattern == tec.occurrences[0]
            assert tec.covered == tuple(sorted(set().union(*tec.occurrences)))
            assert tec.translators[0] == ZERO
            assert sorted(o.points for o in record.occurrences) == sorted(tec.occurrences)


class TestOccurrenceOracle:
    """Occurrences built on the grid equal the exact-coordinate rule of `_oracles`."""

    @settings(max_examples=60, deadline=None)
    @given(varied_pieces)
    def test_tec_occurrences(self, ps):
        check_tec_occurrences(ps)

    @settings(max_examples=60, deadline=None)
    @given(varied_pieces)
    def test_second_occurrence_is_the_first_moved_by_the_vector(self, ps):
        """A record orders its two occurrences by span, so they are compared as a pair."""
        notes = {p.coord: p for p in ps.points}
        grid, trawled = _trawled(ps, F(1, 2), 2)
        for spec, found in (
            ("sia", [(m.vector, m.points) for m in sia(ps)]),
            ("siar:2", [(m.vector, m.points) for m in siar(ps, 2)]),
            ("siarct:1/2,2", [(grid.vector(v), grid.points(seg)) for v, seg in trawled]),
        ):
            for (v, pattern), record in zip(found, run_algorithm(spec, ps), strict=True):
                moved = tuple(notes[(p.onset + v.dt, p.pitch + v.dp)] for p in pattern)
                assert sorted(o.points for o in record.occurrences) == sorted([pattern, moved])


class TestEdgeCoordinates:
    """The oracle checks on pitches 0, 1, 126 and 127 and on negative onsets."""

    @settings(max_examples=60, deadline=None)
    @given(edge_pieces)
    @example(EDGE)
    def test_sia(self, ps):
        check_sia(ps)

    @settings(max_examples=40, deadline=None)
    @given(edge_pieces)
    @example(EDGE)
    def test_covers(self, ps):
        check_covers(ps)

    @settings(max_examples=40, deadline=None)
    @given(edge_pieces)
    @example(EDGE)
    def test_tec_occurrences(self, ps):
        check_tec_occurrences(ps)


class TestStats:
    def test_rounds_and_chosen_tecs(self):
        # two rounds take the two pairs; the lone (90, 50) is the residue
        ps = pset(
            (0, 60), (1, 61), (20, 60), (21, 61), (45, 70), (46, 68), (71, 70), (72, 68), (90, 50)
        )
        stats = DiscoveryStats()
        tecs = cosiatec(ps, stats=stats)
        assert tecs == cosiatec(ps)
        chosen = {"size": 2, "translators": 2, "ratio": "4/3", "compactness": "1",
                  "coverage": 4, "emitted": True}
        first = [p.coord for p in ps.points]
        second = [c for c in first if c not in {p.coord for p in tecs[0].covered}]
        assert [{k: v for k, v in r.items() if k not in ("shapes", "scored")}
                for r in stats.rounds] == [
            {
                "points": len(coords),
                "vectors": len(_oracles.brute_mtps(coords)),
                "chosen": chosen,
            }
            for coords in (first, second)
        ]
        for r, coords in zip(stats.rounds, (first, second)):
            assert 1 <= r["scored"] <= r["shapes"] <= len(_oracles._brute_candidates(coords, True))
        check_round_work(ps)
        assert set(stats.seconds) == {"table", "search", "rank", "emit"}

    def test_last_round_that_does_not_compress(self):
        stats = DiscoveryStats()
        cosiatec(pset((0, 60), (1, 62), (3, 61)), stats=stats)
        assert [r["chosen"]["emitted"] for r in stats.rounds] == [False]
        assert stats.rounds[0]["chosen"]["ratio"] == "1"

    def test_one_round_for_single_passes(self):
        # SIATECCompress searches the translators of the shapes whose bound reaches
        # the ratio 4/3 that completes its cover: both pairs, not the single point
        assert len(_oracles.walk_scored(FOUR, "cr")) == 2
        for run, scored in (
            (lambda s: siatec(FOUR, s), 3), (lambda s: siatec_compress(FOUR, "cr", s), 2)
        ):
            stats = DiscoveryStats()
            run(stats)
            assert stats.rounds == [{"points": 4, "vectors": 4, "shapes": 3, "scored": scored}]


class TestPlantedRepeat:
    def test_mtp_contains_planted_subset(self):
        rng = random.Random(9)
        for _ in range(20):
            base = sorted(
                {(rng.randrange(0, 6), 60 + rng.randrange(0, 8)) for _ in range(4)}
            )
            shift = (10 + rng.randrange(0, 4), rng.randrange(-3, 4))
            translated = [(o + shift[0], p + shift[1]) for o, p in base]
            noise = {(rng.randrange(0, 30), 40 + rng.randrange(0, 30)) for _ in range(6)}
            coords = set(base) | set(translated) | noise
            ps = pset(*sorted(coords))
            mtps = {m.vector: {p.coord for p in m.points} for m in sia(ps)}
            v = Vector2(F(shift[0]), shift[1])
            assert set(base) <= mtps[v]


class TestRunAlgorithm:
    def test_grammar(self):
        for spec in (
            "sia", "siatec", "cosiatec", "cosiatec:comp,size", "siatec-compress:comp",
            "siar:2", "siarct:2/3,2",
        ):
            records = run_algorithm(spec, FOUR)
            assert all(r.algorithm_id == spec for r in records)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_algorithm("nope", FOUR)

    def test_bad_argument(self):
        with pytest.raises(ValueError, match="invalid algorithm spec"):
            run_algorithm("siar:x", FOUR)

    @pytest.mark.parametrize("spec, message", [
        ("siarct:0,2", r"compactness threshold must be in \(0, 1\]"),
        ("siarct:3/2,2", r"compactness threshold must be in \(0, 1\]"),
        ("siarct:1,0", "minimum segment size must be >= 1"),
    ])
    def test_bad_siarct_argument(self, spec, message):
        with pytest.raises(ValueError, match=f"invalid algorithm spec .*: {message}"):
            run_algorithm(spec, FOUR)

    @pytest.mark.parametrize("spec", ["sia:junk", "siatec:junk", "sia:"])
    def test_argument_for_argless_algorithm(self, spec):
        with pytest.raises(ValueError, match="invalid algorithm spec .* takes no argument"):
            run_algorithm(spec, FOUR)

    def test_mtp_records_have_both_occurrences(self):
        records = mtps_to_records(sia(FOUR), "sia")
        rec = [r for r in records if len(r.occurrences[0].points) == 2][0]
        first = {p.coord for p in rec.occurrences[0].points}
        second = {p.coord for p in rec.occurrences[1].points}
        assert first != second


class TestSiarct:
    def test_segments_meet_thresholds(self):
        ps = pset((0, 60), (1, 62), (2, 99), (3, 60), (4, 62), (10, 60), (11, 62))
        grid, found = _trawled(ps, F(1), 2)
        for (_, seg), record in zip(found, run_algorithm("siarct:1,2", ps), strict=True):
            assert grid.points(seg) in [o.points for o in record.occurrences]
            assert len(seg) >= 2
            assert compactness(grid.points(seg), ps) >= 1
