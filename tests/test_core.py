import random
from fractions import Fraction

import pytest

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
    load_pattern_file,
    parse_midi,
    parse_points_csv,
    quantize,
)

import _smf

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
