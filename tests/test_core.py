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
    quantize,
)

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


class TestQuantize:
    def test_nearest_multiple(self):
        ps = parse_points_csv("0,60,1\n0.9,62,1\n2.1,64,1")
        q = quantize(ps, F(1))
        assert [p.onset for p in q.points] == [0, 1, 2]

    def test_identity_on_grid(self):
        ps = parse_points_csv("0,60,1\n1,62,1\n2,64,1")
        assert quantize(ps, F(1)) == ps

    def test_tie_rounds_earlier(self):
        ps = parse_points_csv("0.5,60,1")
        assert quantize(ps, F(1)).points[0].onset == 0

    def test_idempotent_random(self):
        rng = random.Random(11)
        for _ in range(50):
            points = [
                Point(F(rng.randrange(0, 100), rng.randrange(1, 8)), rng.randrange(40, 90))
                for _ in range(rng.randrange(1, 15))
            ]
            ps = PointSet.build(points)
            grid = F(1, rng.choice([1, 2, 4]))
            once = quantize(ps, grid)
            assert quantize(once, grid) == once

    def test_merges_colliding_points(self):
        ps = parse_points_csv("0,60,1\n0.4,60,2")
        q = quantize(ps, F(1))
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

    def test_record_sorts_occurrences(self):
        a = PatternOccurrence((pt(5, 60),))
        b = PatternOccurrence((pt(0, 60),))
        rec = PatternRecord("alg", "p1", (a, b))
        assert rec.occurrences[0].span[0] == 0


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
        ps = parse_midi(data, monophonic=False)
        assert len(ps) == 2

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
            ps = parse_midi(_smf.simple_file(notes, division=division), monophonic=False)
            coords = [(p.onset, p.pitch) for p in ps.points]
            assert coords == sorted(coords)
            assert len(set(coords)) == len(coords)
