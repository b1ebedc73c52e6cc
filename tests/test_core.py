import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from motifkit import core
from motifkit.core import (
    MonophonyViolation,
    ParseError,
    PatternOccurrence,
    PatternRecord,
    Point,
    PointSet,
    SchemaError,
    dump_pattern_json,
    emit_points_csv,
    format_time,
    load_pattern_file,
    parse_midi,
    parse_points_csv,
)
from motifkit.discovery import run_algorithm, siatec
from motifkit.synthesis import PatternTemplate, SynthConfig, synthesize

import _oracles
import _smf
from test_cli import _documents

F = Fraction


def pt(onset, pitch, duration=1):
    return Point(F(onset), pitch, F(duration))


class TestPointsCsv:
    def test_two_points(self):
        ps = parse_points_csv("0,60,1\n1,62,1")
        assert len(ps) == 2
        assert ps.points[0] == pt(0, 60)

    def test_rational_fields(self):
        ps = parse_points_csv("1/2,60,1/2")
        assert ps.points[0] == Point(F(1, 2), 60, F(1, 2))

    def test_zero_duration_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_points_csv("0,60,0")

    def test_non_numeric_field_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_points_csv("0,60,1\n1,sixty,1")

    def test_rest_rows_skipped(self):
        ps = parse_points_csv("0,60,1\n1,R,1\n2,62,1")
        assert [p.pitch for p in ps.points] == [60, 62]

    def test_crlf_and_comments(self):
        ps = parse_points_csv("# header\r\n0,60,1\r\n\r\n1,62,1\r\n")
        assert len(ps) == 2

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(50):
            points = [
                Point(
                    F(rng.randrange(0, 64), rng.choice([1, 2, 4])),
                    rng.randrange(0, 128),
                    F(rng.randrange(1, 9), rng.choice([1, 2, 4])),
                )
                for _ in range(rng.randrange(0, 20))
            ]
            ps = PointSet.build(points)
            assert parse_points_csv(emit_points_csv(ps)) == PointSet.build(ps.points)


class TestPointSet:
    def test_sorted_and_deduplicated(self):
        ps = PointSet.build([pt(1, 60), pt(0, 62), pt(1, 60, 2)])
        assert [p.onset for p in ps.points] == [0, 1]
        assert ps.points[1].duration == 2  # longest duration kept

    def test_monophonic_violation(self):
        with pytest.raises(MonophonyViolation):
            PointSet.build([pt(0, 60, 4), pt(1, 62)], monophonic=True)

    def test_span(self):
        ps = PointSet.build([pt(0, 60), pt(3, 62, 2)])
        assert ps.span() == (0, 5)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(60, 62), st.integers(1, 3)), max_size=8))
    def test_points_order_by_onset_pitch_duration(self, rows):
        points = [Point(F(o, 2), p, F(d, 2)) for o, p, d in rows]
        assert sorted(points) == sorted(points, key=lambda p: (p.onset, p.pitch, p.duration))


class TestOverCommonDenominator:
    def test_no_values_are_over_one(self):
        assert core.over_common_denominator([]) == ((), 1)

    @given(st.lists(st.fractions(max_denominator=12), max_size=5))
    def test_exact_over_the_least_denominator(self, values):
        nums, den = core.over_common_denominator(iter(values))
        assert [F(n, den) for n in nums] == values
        # every smaller positive integer leaves some value off the integers
        assert den == next(d for d in range(1, den + 1) if all(d % v.denominator == 0 for v in values))


class TestQuantize:
    """The grid snapper `test_evaluation` compares `truth_boundaries` against."""

    def test_nearest_multiple(self):
        ps = parse_points_csv("0,60,1\n0.9,62,1\n2.1,64,1")
        q = _oracles.quantize(ps, F(1))
        assert [p.onset for p in q.points] == [0, 1, 2]

    def test_identity_on_grid(self):
        ps = parse_points_csv("0,60,1\n1,62,1\n2,64,1")
        assert _oracles.quantize(ps, F(1)) == ps

    def test_tie_rounds_earlier(self):
        ps = parse_points_csv("0.5,60,1")
        assert _oracles.quantize(ps, F(1)).points[0].onset == 0

    def test_idempotent_random(self):
        rng = random.Random(11)
        for _ in range(50):
            points = [
                Point(F(rng.randrange(0, 100), rng.randrange(1, 8)), rng.randrange(40, 90))
                for _ in range(rng.randrange(1, 15))
            ]
            ps = PointSet.build(points)
            grid = F(1, rng.choice([1, 2, 4]))
            once = _oracles.quantize(ps, grid)
            assert _oracles.quantize(once, grid) == once

    def test_merges_colliding_points(self):
        ps = parse_points_csv("0,60,1\n0.4,60,2")
        q = _oracles.quantize(ps, F(1))
        assert len(q) == 1
        assert q.points[0].duration == 2


class TestOccurrence:
    def test_span_uses_last_note_duration(self):
        occ = PatternOccurrence((pt(0, 60, 4), pt(2, 62, 1)))
        assert occ.span == (0, 3)

    def test_span_computed_once_and_not_compared(self):
        occ = PatternOccurrence((pt(0, 60, 4), pt(2, 62, 1)))
        fresh = PatternOccurrence(occ.points)
        before = repr(occ)
        assert occ.span is occ.span
        assert occ == fresh and hash(occ) == hash(fresh) and repr(occ) == before

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PatternOccurrence(())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 4), st.integers(58, 62), st.integers(1, 4)),
        min_size=1, max_size=8,
    ))
    def test_span_ends_at_the_longest_last_note(self, triples):
        points = [Point(F(o, 2), p, F(d, 2)) for o, p, d in triples]
        first, last = min(p.onset for p in points), max(p.onset for p in points)
        span = PatternOccurrence(tuple(points)).span
        assert span == (first, max(p.end for p in points if p.onset == last))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-4, 4), st.integers(58, 60), st.integers(1, 4), st.sampled_from([1, 2, 3])),
        min_size=1, max_size=8,
    ))
    def test_span_end_equals_and_formats_as_the_fraction_sum(self, rows):
        # an integral end is kept as an int; it must stand for the exact sum everywhere
        points = [Point(F(o, den), p, F(d, den)) for o, p, d, den in rows]
        end = PatternOccurrence(tuple(points)).span[1]
        last = max(p.onset for p in points)
        exact = last + max(p.duration for p in points if p.onset == last)
        assert end == exact and hash(end) == hash(exact)
        assert format_time(end) == format_time(exact) and str(end) == str(exact)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-4, 4), st.integers(58, 60), st.integers(1, 4), st.sampled_from([1, 2, 3])),
        min_size=1, max_size=8,
    ))
    def test_points_sorted_in_point_order(self, rows):
        # integral and fractional times side by side, as the int-or-Fraction sort key sees them
        points = [Point(F(o, den), p, F(d, den)) for o, p, d, den in rows]
        assert PatternOccurrence(tuple(points)).points == tuple(sorted(points))

    def test_record_sorts_occurrences(self):
        a = PatternOccurrence((pt(5, 60),))
        b = PatternOccurrence((pt(0, 60),))
        rec = PatternRecord("alg", "p1", (a, b))
        assert rec.occurrences[0].span[0] == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(58, 60), st.integers(1, 4),
                      st.sampled_from([1, 2, 3])),
            min_size=1, max_size=3,
        ),
        min_size=1, max_size=6,
    ))
    def test_record_sorts_occurrences_as_span_tuples(self, occurrences):
        # integral and fractional spans side by side, equal ones too: the int-or-Fraction
        # span key orders them as the Fraction span tuples do, stably
        occs = tuple(
            PatternOccurrence(tuple(Point(F(o, den), p, F(d, den)) for o, p, d, den in rows))
            for rows in occurrences
        )
        rec = PatternRecord("alg", "p1", occs)
        assert rec.occurrences == tuple(sorted(occs, key=lambda o: o.span))


class TestPatternJson:
    def test_single_record(self):
        text = """
        {"piece": "x", "algorithm": "alg",
         "patterns": [{"id": "p0",
                       "occurrences": [{"points": [["0", 60, "1"], ["1", 62, "1"]]}]}]}
        """
        records = load_pattern_file(text)[1]
        assert len(records) == 1
        assert records[0].algorithm_id == "alg"
        assert records[0].occurrences[0].span == (0, 2)

    def test_empty_occurrlist_rejected(self):
        text = '{"piece":"x","algorithm":"a","patterns":[{"id":"p","occurrences":[]}]}'
        with pytest.raises(SchemaError, match=r"patterns\[0\].occurrences"):
            load_pattern_file(text)[1]

    def test_inconsistent_span_rejected(self):
        text = """
        {"piece":"x","algorithm":"a",
         "patterns":[{"id":"p","occurrences":[
            {"points": [["0",60,"1"]], "span": ["0","5"]}]}]}
        """
        with pytest.raises(SchemaError, match="span"):
            load_pattern_file(text)[1]

    def test_error_names_json_path(self):
        text = '{"piece":"x","algorithm":"a","patterns":[{"id":"p","occurrences":[{"points":[["0","x","1"]]}]}]}'
        with pytest.raises(SchemaError, match=r"patterns\[0\].occurrences\[0\].points\[0\]"):
            load_pattern_file(text)[1]

    def test_dump_load_round_trip(self):
        rec = PatternRecord(
            "alg", "p0", (PatternOccurrence((pt(0, 60), Point(F(1, 2), 62, F(1, 2)))),)
        )
        piece, loaded = load_pattern_file(dump_pattern_json("piece-a", "alg", [rec]))
        assert piece == "piece-a"
        assert loaded == [rec]


    @pytest.mark.parametrize("points, span, path", [
        pytest.param('[[NaN, 60, "1"]]', '["0", "1"]', "points[0][0]", id="nan-onset"),
        pytest.param('[["0", 60, Infinity]]', '["0", "1"]', "points[0][2]", id="infinite-duration"),
        pytest.param('[["0", 60, "1"]]', '["0", 1e400]', "span[1]", id="1e400-span"),
    ])
    def test_non_finite_number_names_its_path(self, points, span, path):
        text = (
            '{"piece": "x", "algorithm": "a", "patterns": [{"id": "p", "occurrences": '
            f'[{{"points": {points}, "span": {span}}}]}}]}}'
        )
        with pytest.raises(SchemaError) as exc:
            load_pattern_file(text)
        assert str(exc.value).startswith(
            f"$.patterns[0].occurrences[0].{path}: not a finite number"
        )

    def test_deeply_nested_json_is_a_parse_error(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            load_pattern_file("[" * 100_000)


# One interchange document the differential test edits: repeated rows, the
# same time as a string, an int and a float, and a padded string.
_LOADER_TEMPLATE = {
    "piece": "x",
    "algorithm": "a",
    "patterns": [
        {"id": "p", "occurrences": [
            {"points": [["0", 60, "1"], ["1", 62, "1/2"], ["0", 60, "1"]], "span": ["0", "3/2"]},
            {"points": [[1, 62, "1/2"], ["1", 62, 0.5], [" 1/2", 64, 1.0]]},
        ]},
        {"id": "q", "occurrences": [{"points": [["1", 62, "1/2"], ["2", 60, 1]]}]},
    ],
}


def _load_outcome(load, text):
    try:
        return repr(load(text))
    except Exception as exc:
        return type(exc), str(exc)


def _loads_as_oracle(text):
    """The loader gives the oracle's records, or raises its exception class and message."""
    return _load_outcome(load_pattern_file, text) == _load_outcome(_oracles.load_pattern_file, text)


class TestLoaderOracle:
    """The memoised loader reads every document as the earlier loader did."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_earlier_loader(self, data):
        doc = data.draw(_documents(_LOADER_TEMPLATE)).decode("utf-8", "surrogateescape")
        assert _loads_as_oracle(doc)

    @pytest.mark.parametrize("row", [
        # 1, 1.0, "1" and true are equal as dict keys; true stays rejected after the others
        [[1, 60, 1], [1.0, 60, 1.0], ["1", 60, "1"], [True, 60, 1]],
        [["1", 60, "1"], [1, 60, True]],
        [["1", 1, "1"], ["1", True, "1"]],
        [["1", 60, "1"], ["1", 60.0, "1"]],
        [[" 1/2", 60, "1"], ["1/2", 60, "1"], ["1/2 ", 60, "1"], ["1/2", 60, " 1"]],
        [["1", 60, "1"], ["1", 60, "1"], ["1", 60, "0"], ["1", 60, "1"]],
        [["1", 60, "1"], ["1", 60, "1"], ["x", 60, "1"]],
        [["1", 60, "1"], ["1", 128, "1"]],
        [["1", 60, "1"], ["1", 60, "1"], ["1", 60]],
        [[0.1, 60, 1e-3], [float("nan"), 60, 1]],
    ])
    def test_mixed_and_repeated_rows(self, row):
        doc = json.dumps(
            {"piece": "x", "algorithm": "a",
             "patterns": [{"id": "p", "occurrences": [{"points": row}, {"points": row[:1]}]}]}
        )
        assert _loads_as_oracle(doc)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(
        st.tuples(st.sampled_from(["0", "1", "1/2", " 1", "1.0", 1, 1.0, True]),
                  st.sampled_from([60, 1, True, 60.0, 1.0]),
                  st.sampled_from(["1", "1/2", 1, 1.0, True, "0"])).map(list),
        min_size=1, max_size=6,
    ), spans=st.lists(st.sampled_from(["0", "1", 1, True, "3/2", "2"]), min_size=2, max_size=2))
    def test_shared_time_values(self, rows, spans):
        doc = json.dumps(
            {"piece": "x", "algorithm": "a",
             "patterns": [{"id": "p", "occurrences": [{"points": rows},
                                                       {"points": rows[::-1], "span": spans}]}]}
        )
        assert _loads_as_oracle(doc)


# Time strings on both sides of `to_time`'s ASCII-digit fast path, and one
# past the interpreter's digit limit for `int` of a string.
_TIME_STRINGS = ["3", "03", "+3", " 3", "3_0", "\u0663", "\uff13", "\u00b2", "", "9" * 5000]


def _time_id(text):
    return ascii(text) if len(text) < 10 else f"{len(text)}-digits"


class TestTimeStrings:
    """Each time string reads as the earlier `to_time`, which sent every string to `Fraction`."""

    @pytest.mark.parametrize("text", _TIME_STRINGS, ids=_time_id)
    def test_pattern_file(self, text):
        doc = json.dumps(
            {"piece": "x", "algorithm": "a",
             "patterns": [{"id": "p", "occurrences": [
                 {"points": [[text, 60, "1"], ["5", 60, text]]}
             ]}]}
        )
        assert _loads_as_oracle(doc)

    @pytest.mark.parametrize("text", _TIME_STRINGS, ids=_time_id)
    def test_points_csv(self, text, monkeypatch):
        csv_text = f"{text},60,1\n5,62,{text}\n"
        outcome = _load_outcome(parse_points_csv, csv_text)
        monkeypatch.setattr(core, "to_time", _oracles.to_time)
        assert outcome == _load_outcome(parse_points_csv, csv_text)

    def test_first_fault_is_reported(self):
        """One pass: the first occurrence's span fault wins over a pitch fault after it."""
        doc = json.dumps(
            {"piece": "x", "algorithm": "a",
             "patterns": [{"id": "p", "occurrences": [
                 {"points": [["1", 60, "1"], ["0", 62, "1"]], "span": ["0", "1"]},
                 {"points": [["0", 60, "1"], ["1", 128, "1"]]},
             ]}]}
        )
        with pytest.raises(SchemaError) as exc:
            load_pattern_file(doc)
        assert exc.value.path == "$.patterns[0].occurrences[0].span"
        assert _loads_as_oracle(doc)


# Ids with quotes, backslashes, control, non-ASCII and astral characters and
# a lone surrogate, beside arbitrary text.
_IDS = st.sampled_from(
    ["", '"', "a\\b", "\x00\n\t\x1f\x7f", "\u00e9\u4e2d", "\U0001d11e", "\ud800", "siarct:1,2"]
) | st.text(max_size=6)
# fractional and negative onsets; dotted (3/2, 3/4, 3/8) and other durations
_ONSETS = st.builds(F, st.integers(-24, 24), st.sampled_from([1, 2, 3, 4, 6]))
_DURATIONS = st.builds(F, st.just(3), st.sampled_from([2, 4, 8])) | st.builds(
    F, st.integers(1, 9), st.integers(1, 6)
)
_OCCURRENCES = st.lists(
    st.builds(Point, _ONSETS, st.sampled_from([0, 127]) | st.integers(0, 127), _DURATIONS),
    min_size=1, max_size=5,
).map(lambda points: PatternOccurrence(tuple(points)))


class TestEmitterOracle:
    """The direct emitter writes the earlier `json.dumps(..., indent=2)` text byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(
        piece=_IDS,
        algorithm=_IDS,
        records=st.lists(
            st.builds(
                PatternRecord, _IDS, _IDS, st.lists(_OCCURRENCES, min_size=1, max_size=3).map(tuple)
            ),
            max_size=4,
        ),
    )
    def test_equals_earlier_emitter(self, piece, algorithm, records):
        assert dump_pattern_json(piece, algorithm, records) == _oracles.dump_pattern_json(
            piece, algorithm, records
        )

    def test_no_records(self):
        assert dump_pattern_json("x", "a", []) == _oracles.dump_pattern_json("x", "a", [])
        assert '"patterns": [],' in dump_pattern_json("x", "a", [])


class TestIngestWork:
    """One load parses each distinct time string once and builds each distinct row once."""

    def counted(self, monkeypatch):
        calls = {"to_time": [], "Point": []}
        to_time, point = core.to_time, core.Point
        monkeypatch.setattr(core, "to_time", lambda v: calls["to_time"].append(v) or to_time(v))
        monkeypatch.setattr(core, "Point", lambda *a: calls["Point"].append(a) or point(*a))
        return calls

    def test_pattern_file(self, monkeypatch):
        rows = [[format_time(F(k % 5, 2)), 60 + k % 3, "1/2" if k % 2 else "1"] for k in range(40)]
        occurrences = [{"points": rows[k:k + 6]} for k in range(0, 40, 2)]
        patterns = [{"id": pid, "occurrences": occurrences} for pid in ("p", "q")]
        text = json.dumps({"piece": "x", "algorithm": "a", "patterns": patterns})
        calls = self.counted(monkeypatch)
        records = load_pattern_file(text)[1]
        monkeypatch.undo()
        assert records == _oracles.load_pattern_file(text)[1]
        times = {r[0] for r in rows} | {r[2] for r in rows}
        assert sorted(calls["to_time"]) == sorted(times)
        assert len(calls["Point"]) == len({tuple(r) for r in rows})

    def test_points_csv(self, monkeypatch):
        text = "".join(f"{k % 4}/2,{60 + k},1\n" for k in range(30))
        calls = self.counted(monkeypatch)
        ps = parse_points_csv(text)
        assert sorted(calls["to_time"]) == sorted({f"{k}/2" for k in range(4)} | {"1"})
        assert len(ps) == 30


class TestParseMidi:
    def test_single_note(self):
        data = _smf.simple_file([(0, 60, 480)])
        ps = parse_midi(data)
        assert ps.points == (pt(0, 60, 1),)

    def test_empty_track(self):
        data = _smf.header(0, 1, 480) + _smf.track(b"")
        assert len(parse_midi(data)) == 0

    def test_dangling_note_off(self):
        events = _smf.note_event(0, 0x90, 60, 0)  # velocity 0 = note-off
        data = _smf.header(0, 1, 480) + _smf.track(events)
        with pytest.raises(ParseError, match="without matching note-on"):
            parse_midi(data)

    def test_smpte_division_rejected(self):
        data = _smf.header(0, 1, 0x8000 | (256 - 25) * 256 + 40) + _smf.track(b"")
        with pytest.raises(ParseError, match="SMPTE"):
            parse_midi(data)

    def test_malformed_header_reports_offset(self):
        with pytest.raises(ParseError, match="byte 0"):
            parse_midi(b"RIFF" + b"\x00" * 10)

    def test_truncated_file(self):
        data = _smf.simple_file([(0, 60, 480)])
        with pytest.raises(ParseError, match="byte"):
            parse_midi(data[:-3])

    def test_densest_track_selected(self):
        sparse = _smf.note_event(0, 0x90, 40, 64) + _smf.note_event(480, 0x80, 40, 0)
        busy = b"".join(
            _smf.note_event(0 if i == 0 else 240, 0x90, 60 + i, 64)
            + _smf.note_event(240, 0x80, 60 + i, 0)
            for i in range(3)
        )
        data = _smf.header(1, 2, 480) + _smf.track(sparse) + _smf.track(busy)
        ps = parse_midi(data)
        assert [p.pitch for p in ps.points] == [60, 61, 62]

    def test_monophony_violation(self):
        data = _smf.simple_file([(0, 60, 960), (480, 62, 960)])
        with pytest.raises(MonophonyViolation):
            parse_midi(data)

    def test_velocity_zero_closes_note(self):
        events = _smf.note_event(0, 0x90, 60, 64) + _smf.note_event(480, 0x90, 60, 0)
        data = _smf.header(0, 1, 480) + _smf.track(events)
        assert parse_midi(data).points == (pt(0, 60, 1),)

    def test_running_status(self):
        events = (
            _smf.note_event(0, 0x90, 60, 64)
            + _smf.varlen(480)
            + bytes([60, 0])  # running status note-on, velocity 0
        )
        data = _smf.header(0, 1, 480) + _smf.track(events)
        assert parse_midi(data).points == (pt(0, 60, 1),)

    def test_sorted_and_unique_random_files(self):
        rng = random.Random(3)
        for _ in range(40):
            notes = []
            tick = 0
            for _ in range(rng.randrange(0, 12)):
                tick += rng.randrange(0, 960)
                length = rng.randrange(1, 960)
                notes.append((tick, rng.randrange(0, 128), tick + length))
                tick += length
            division = rng.choice([96, 480, 960])
            ps = parse_midi(_smf.simple_file(notes, division=division))
            coords = [(p.onset, p.pitch) for p in ps.points]
            assert coords == sorted(coords)
            assert len(set(coords)) == len(coords)


def _one_form(t) -> bool:
    """Whether the exact time `t` is an int when integral and a Fraction otherwise."""
    return type(t) is (int if t.denominator == 1 else Fraction)


def _point_times(points) -> list:
    return [t for p in points for t in (p.onset, p.duration)]


def _span_times(records) -> list:
    return [t for rec in records for occ in rec.occurrences for t in occ.span]


# integral and fractional times, the integral ones as Fractions
_TIMES = st.builds(F, st.integers(0, 24), st.sampled_from([1, 2, 3, 4]))
_LENGTHS = st.builds(F, st.integers(1, 8), st.sampled_from([1, 2, 3, 4]))


@st.composite
def _spelled(draw, t: Fraction) -> str:
    """`t` as one of the spellings a time string may take."""
    k = draw(st.integers(1, 3))
    spellings = [format_time(t), f"{t.numerator * k}/{t.denominator * k}", f" {t} "]
    if 100 % t.denominator == 0:  # a finite decimal
        spellings += [str(t.numerator / t.denominator), f"{t * 100}e-2"]
    return draw(st.sampled_from(spellings))


_ROWS = st.lists(st.tuples(_TIMES, st.integers(0, 127), _LENGTHS), min_size=1, max_size=8)


class TestOneTimeForm:
    """Every time read, built or derived is an int when integral and a Fraction otherwise."""

    @settings(max_examples=100, deadline=None)
    @given(rows=_ROWS, data=st.data())
    def test_points_csv(self, rows, data):
        text = "\n".join(
            f"{data.draw(_spelled(o))},{p},{data.draw(_spelled(d))}" for o, p, d in rows
        )
        ps = parse_points_csv(text)
        assert all(map(_one_form, _point_times(ps.points) + list(ps.span())))

    @settings(max_examples=100, deadline=None)
    @given(rows=_ROWS, data=st.data())
    def test_pattern_file(self, rows, data):
        def field(t):
            plain = [t.numerator] if t.denominator == 1 else []
            if 100 % t.denominator == 0:
                plain.append(t.numerator / t.denominator)  # an exact JSON float
            return data.draw(st.one_of(_spelled(t), *map(st.just, plain)))

        points = [[field(o), p, field(d)] for o, p, d in rows]
        doc = {"piece": "x", "algorithm": "a",
               "patterns": [{"id": "p", "occurrences": [{"points": points}]}]}
        _, records = load_pattern_file(json.dumps(doc))
        occurrence_points = [p for rec in records for occ in rec.occurrences for p in occ.points]
        assert all(map(_one_form, _point_times(occurrence_points) + _span_times(records)))

    @settings(max_examples=60, deadline=None)
    @given(
        notes=st.lists(st.tuples(st.integers(0, 7), st.integers(1, 7), st.integers(0, 127)),
                       max_size=8),
        division=st.sampled_from([1, 2, 3, 4, 6]),
    )
    def test_midi(self, notes, division):
        triples, tick = [], 0
        for gap, length, pitch in notes:
            triples.append((tick + gap, pitch, tick + gap + length))
            tick += gap + length
        ps = parse_midi(_smf.simple_file(triples, division=division))
        assert all(map(_one_form, _point_times(ps.points) + list(ps.span())))

    @given(onset=_TIMES, duration=_LENGTHS)
    def test_point_given_fractions(self, onset, duration):
        p = Point(onset, 60, duration)
        assert (p.onset, p.duration) == (onset, duration)
        assert all(map(_one_form, (p.onset, p.duration, p.end)))

    @settings(max_examples=40, deadline=None)
    @given(
        templates=st.lists(
            st.lists(st.tuples(st.one_of(st.integers(48, 84), st.none()), _LENGTHS),
                     max_size=5).map(lambda rest: ((60, F(1, 2)),) + tuple(rest)),
            min_size=1, max_size=2,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_synthesis(self, templates, seed):
        config = SynthConfig(
            templates=tuple(PatternTemplate(f"T{i}", n) for i, n in enumerate(templates)),
            seed=seed,
        )
        sp = synthesize(config)
        times = _point_times(sp.piece.points) + _span_times(sp.ground_truth)
        assert all(map(_one_form, times + [sp.total_duration, sp.random_duration]))

    @settings(max_examples=60, deadline=None)
    @given(rows=_ROWS)
    def test_discovery(self, rows):
        ps = PointSet.build([Point(o, p, d) for o, p, d in rows])
        dts = [v.dt for tec in siatec(ps) for v in tec.translators]
        spans = [t for alg in ("siatec", "cosiatec", "sia")
                 for t in _span_times(run_algorithm(alg, ps))]
        assert all(map(_one_form, dts + spans))
