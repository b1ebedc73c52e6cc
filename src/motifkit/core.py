"""Symbolic music data model and ingestion.

Time is an exact rational number of crotchets (quarter notes) throughout,
so grid alignment and boundary comparisons never suffer float tolerance
problems.  A piece is a lexicographically ordered, duplicate-free set of
(onset, pitch) points with durations; rests are represented only as gaps
in time, never as points.

All types are immutable after construction and every function is pure.
One load of a points CSV or an interchange JSON document parses each
distinct time string once, and a JSON load builds each distinct
`[onset, pitch, duration]` row of two time strings into one `Point`;
nothing is kept from one call to the next.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence


class ParseError(ValueError):
    """Malformed input (MIDI bytes, CSV text, interchange JSON)."""


class SchemaError(ParseError):
    """Interchange JSON violates the schema; `path` names the offending node."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class MonophonyViolation(ValueError):
    """Two notes overlap in time under monophonic mode."""

    def __init__(self, collisions: Sequence[tuple[Fraction, Fraction]]):
        self.collisions = tuple(collisions)
        pairs = ", ".join(f"({a} vs {b})" for a, b in self.collisions[:8])
        more = "" if len(self.collisions) <= 8 else f" and {len(self.collisions) - 8} more"
        super().__init__(f"overlapping notes at onsets {pairs}{more}")


def to_time(value) -> Fraction:
    """Coerce a number or string ('0.5', '1/2', '3') to an exact Time; not a bool."""
    if isinstance(value, bool):
        raise ParseError(f"expected a number or rational string, got {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParseError(f"not a finite number: {value!r}")
        # exact value of the decimal repr, not of the binary float
        return Fraction(repr(value))
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational number: {value!r}") from exc
    raise ParseError(f"expected a number or rational string, got {value!r}")


class _Times(dict):
    """One call's memo of :func:`to_time`: each distinct string is parsed once.

    Only strings are keys, because 1, 1.0 and True are equal as dict keys
    and a JSON true must still be rejected where a 1 is read.
    """

    def __missing__(self, text: str) -> Fraction:
        t = self[text] = to_time(text)
        return t

    def read(self, value) -> Fraction:
        return self[value] if type(value) is str else to_time(value)


def format_time(t: Fraction) -> str:
    """Render a Time as 'num/den' (or 'num' for integers)."""
    return str(t.numerator) if t.denominator == 1 else f"{t.numerator}/{t.denominator}"


@dataclass(frozen=True)
class Point:
    """A note: onset and duration in crotchets, pitch as a MIDI number."""

    onset: Fraction
    pitch: int
    duration: Fraction = Fraction(1)

    def __post_init__(self):
        if not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch {self.pitch} outside MIDI range 0-127")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")

    def __lt__(self, other: "Point") -> bool:
        # lexicographic by (onset, pitch); duration only disambiguates
        return (self.onset, self.pitch, self.duration) < (
            other.onset,
            other.pitch,
            other.duration,
        )

    @property
    def end(self) -> Fraction:
        return self.onset + self.duration

    @property
    def coord(self) -> tuple[Fraction, int]:
        return (self.onset, self.pitch)


@dataclass(frozen=True)
class PointSet:
    """A piece: points strictly increasing by (onset, pitch), no duplicates."""

    points: tuple[Point, ...]
    title: str = ""

    @classmethod
    def build(
        cls,
        points: Iterable[Point],
        title: str = "",
        monophonic: bool = False,
    ) -> "PointSet":
        """Sort, deduplicate and validate.

        Duplicate (onset, pitch) pairs are merged keeping the longest
        duration.  With ``monophonic`` set, any pair of notes overlapping
        in time raises :class:`MonophonyViolation`.
        """
        merged: dict[tuple[Fraction, int], Point] = {}
        for p in points:
            prev = merged.get(p.coord)
            if prev is None or p.duration > prev.duration:
                merged[p.coord] = p
        ordered = tuple(merged[c] for c in sorted(merged))
        if monophonic:
            collisions = [
                (a.onset, b.onset)
                for a, b in zip(ordered, ordered[1:])
                if a.end > b.onset
            ]
            if collisions:
                raise MonophonyViolation(collisions)
        return cls(ordered, title=title)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def coords(self) -> frozenset[tuple[Fraction, int]]:
        return frozenset(p.coord for p in self.points)

    def span(self) -> tuple[Fraction, Fraction]:
        """[min onset, max note end) of the piece; (0, 0) when empty."""
        if not self.points:
            return (Fraction(0), Fraction(0))
        return (self.points[0].onset, max(p.end for p in self.points))


@dataclass(frozen=True)
class PatternOccurrence:
    """One temporally placed instance of a pattern."""

    points: tuple[Point, ...]
    # [start, end): start = min onset, end = max onset + that note's duration;
    # set once at construction, and ignored by equality, hashing and repr
    span: tuple[Fraction, Fraction] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.points:
            raise ValueError("occurrence must contain at least one point")
        points = tuple(sorted(self.points))
        # the points at the last onset are a suffix of the sorted points
        last_onset = points[-1].onset
        k = len(points) - 1
        while k and points[k - 1].onset == last_onset:
            k -= 1
        end = last_onset + max(p.duration for p in points[k:])
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "span", (points[0].onset, end))

    def coords(self) -> frozenset[tuple[Fraction, int]]:
        return frozenset(p.coord for p in self.points)


@dataclass(frozen=True)
class PatternRecord:
    """A named pattern (one analyzer's output unit) with its occurrences."""

    algorithm_id: str
    pattern_id: str
    occurrences: tuple[PatternOccurrence, ...]

    def __post_init__(self):
        if not self.occurrences:
            raise ValueError("pattern record must contain at least one occurrence")
        object.__setattr__(
            self,
            "occurrences",
            tuple(sorted(self.occurrences, key=lambda o: o.span)),
        )


# ---------------------------------------------------------------------------
# Points CSV


def parse_points_csv(text: str, title: str = "", monophonic: bool = False) -> PointSet:
    """Parse `onset,pitch,duration` lines into a PointSet.

    Onset and duration accept decimals or `num/den` rationals; a pitch of
    `R` marks a rest, which occupies time implicitly and produces no point.
    Blank lines and `#` comments are skipped.
    """
    points = []
    times = _Times()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip().rstrip("\r")
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: expected onset,pitch,duration, got {raw!r}")
        onset_s, pitch_s, dur_s = fields
        try:
            onset = times[onset_s]
            duration = times[dur_s]
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if pitch_s.upper() == "R":
            continue
        try:
            pitch = int(pitch_s)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: pitch must be an integer or R, got {pitch_s!r}") from exc
        try:
            points.append(Point(onset, pitch, duration))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return PointSet.build(points, title=title, monophonic=monophonic)


def emit_points_csv(ps: PointSet) -> str:
    """Inverse of :func:`parse_points_csv` (rests are not re-emitted)."""
    lines = [
        f"{format_time(p.onset)},{p.pitch},{format_time(p.duration)}"
        for p in ps.points
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Quantization


def nearest_index(q: Fraction) -> int:
    """The integer nearest to `q`; exact halves go to the lower one."""
    return math.ceil(q - Fraction(1, 2))


def quantize(ps: PointSet, grid: Fraction) -> PointSet:
    """Snap every onset to the nearest grid multiple, merging duplicates."""
    if grid <= 0:
        raise ValueError("grid must be > 0")
    return PointSet.build(
        (Point(nearest_index(p.onset / grid) * grid, p.pitch, p.duration) for p in ps.points),
        title=ps.title,
    )


# ---------------------------------------------------------------------------
# Pattern interchange JSON
#
# {"piece": str, "algorithm": str,
#  "patterns": [{"id": str,
#                "occurrences": [{"points": [[onset, pitch, duration], ...],
#                                 "span": [start, end]   (optional)}]}]}
#
# Onsets/durations are decimal strings or "num/den"; plain JSON numbers are
# also accepted.


def _time_field(value, times: _Times, path: Callable[[], str]) -> Fraction:
    try:
        return times.read(value)
    except ParseError as exc:
        raise SchemaError(path(), str(exc)) from exc


def _point_from_json(row, times: _Times, path: Callable[[], str]) -> Point:
    if not isinstance(row, list) or len(row) != 3:
        raise SchemaError(path(), "point must be [onset, pitch, duration]")
    onset, pitch, duration = row
    onset = _time_field(onset, times, lambda: f"{path()}[0]")
    if type(pitch) is not int:  # a JSON true is a bool, not an int
        raise SchemaError(f"{path()}[1]", "pitch must be an integer")
    duration = _time_field(duration, times, lambda: f"{path()}[2]")
    try:
        return Point(onset, pitch, duration)
    except ValueError as exc:
        raise SchemaError(path(), str(exc)) from exc


def _row_key(row) -> tuple[str, int, str] | None:
    """`row` as a memo key if it is two time strings around an int pitch, else None.

    Other rows stay out of the memo: 1, 1.0 and true are equal as dict keys.
    """
    if type(row) is list and len(row) == 3:
        onset, pitch, duration = row
        if type(onset) is str and type(pitch) is int and type(duration) is str:
            return onset, pitch, duration
    return None


def _occurrence_from_json(
    obj, path: Callable[[], str], times: _Times, points: dict[tuple, Point]
) -> PatternOccurrence:
    """One occurrence, which `path()` names in an error.

    `points` maps each row `_row_key` admits, as read so far, to its Point.
    """
    if not isinstance(obj, dict):
        raise SchemaError(path(), "occurrence must be an object")
    rows = obj.get("points")
    if not isinstance(rows, list) or not rows:
        raise SchemaError(f"{path()}.points", "must be a nonempty array")
    occurrence = []
    for k, row in enumerate(rows):
        key = _row_key(row)
        point = points.get(key)
        if point is None:
            point = _point_from_json(row, times, lambda: f"{path()}.points[{k}]")
            if key is not None:
                points[key] = point
        occurrence.append(point)
    occ = PatternOccurrence(tuple(occurrence))
    if "span" in obj:
        span_json = obj["span"]
        if not isinstance(span_json, list) or len(span_json) != 2:
            raise SchemaError(f"{path()}.span", "span must be [start, end]")
        start = _time_field(span_json[0], times, lambda: f"{path()}.span[0]")
        end = _time_field(span_json[1], times, lambda: f"{path()}.span[1]")
        if (start, end) != occ.span:
            raise SchemaError(
                f"{path()}.span",
                f"inconsistent with points: stated [{start}, {end}), "
                f"computed [{occ.span[0]}, {occ.span[1]})",
            )
    return occ


def load_pattern_file(text: str) -> tuple[str, list[PatternRecord]]:
    """Parse an interchange JSON document; returns (piece id, records).

    Each distinct time string is parsed once, and each distinct all-string
    row becomes one `Point` shared by every occurrence that lists it.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("$", "document must be an object")
    piece = doc.get("piece")
    if not isinstance(piece, str):
        raise SchemaError("$.piece", "must be a string")
    algorithm = doc.get("algorithm")
    if not isinstance(algorithm, str):
        raise SchemaError("$.algorithm", "must be a string")
    patterns = doc.get("patterns")
    if not isinstance(patterns, list):
        raise SchemaError("$.patterns", "must be an array")
    times, points = _Times(), {}
    records = []
    for i, pat in enumerate(patterns):
        if not isinstance(pat, dict):
            raise SchemaError(f"$.patterns[{i}]", "pattern must be an object")
        pid = pat.get("id")
        if not isinstance(pid, str):
            raise SchemaError(f"$.patterns[{i}].id", "must be a string")
        occs_json = pat.get("occurrences")
        if not isinstance(occs_json, list) or not occs_json:
            raise SchemaError(f"$.patterns[{i}].occurrences", "must be a nonempty array")
        occs = [
            _occurrence_from_json(o, lambda: f"$.patterns[{i}].occurrences[{j}]", times, points)
            for j, o in enumerate(occs_json)
        ]
        records.append(PatternRecord(algorithm, pid, tuple(occs)))
    return piece, records


def dump_pattern_json(piece: str, algorithm: str, records: Sequence[PatternRecord]) -> str:
    """Serialize records to the interchange schema (deterministic output)."""
    doc = {
        "piece": piece,
        "algorithm": algorithm,
        "patterns": [
            {
                "id": rec.pattern_id,
                "occurrences": [
                    {
                        "points": [
                            [format_time(p.onset), p.pitch, format_time(p.duration)]
                            for p in occ.points
                        ],
                        "span": [format_time(occ.span[0]), format_time(occ.span[1])],
                    }
                    for occ in rec.occurrences
                ],
            }
            for rec in records
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Standard MIDI File parsing


class _MidiReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def fail(self, message: str):
        raise ParseError(f"byte {self.pos}: {message}")

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            self.fail(f"unexpected end of file (wanted {n} bytes)")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.read(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.read(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.read(4))[0]

    def varlen(self) -> int:
        value = 0
        for _ in range(4):
            byte = self.u8()
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value
        self.fail("variable-length quantity longer than 4 bytes")


def _parse_track(reader: _MidiReader, length: int, tpq: int) -> list[Point]:
    """Parse one MTrk body into points (onsets/durations in crotchets)."""
    end = reader.pos + length
    tick = 0
    running_status = None
    active: dict[tuple[int, int], int] = {}  # (channel, pitch) -> start tick
    notes: list[Point] = []

    def close_note(channel: int, pitch: int, off_tick: int):
        key = (channel, pitch)
        if key not in active:
            reader.fail(f"note-off for pitch {pitch} without matching note-on")
        start = active.pop(key)
        if off_tick <= start:
            reader.fail(f"zero-length note (pitch {pitch} at tick {start})")
        notes.append(
            Point(Fraction(start, tpq), pitch, Fraction(off_tick - start, tpq))
        )

    while reader.pos < end:
        tick += reader.varlen()
        byte = reader.u8()
        if byte < 0x80:
            if running_status is None:
                reader.fail("data byte with no running status")
            status = running_status
            first_data = byte
        else:
            status = byte
            first_data = None
        kind = status & 0xF0
        channel = status & 0x0F
        if status == 0xFF:
            meta_type = reader.u8()
            meta_len = reader.varlen()
            reader.read(meta_len)
            running_status = None
            if meta_type == 0x2F:
                break
        elif status in (0xF0, 0xF7):
            reader.read(reader.varlen())
            running_status = None
        elif kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
            data1 = first_data if first_data is not None else reader.u8()
            data2 = reader.u8()
            running_status = status
            if kind == 0x90 and data2 > 0:
                key = (channel, data1)
                if key in active:
                    reader.fail(f"overlapping note-on for pitch {data1} at tick {tick}")
                active[key] = tick
            elif kind == 0x80 or (kind == 0x90 and data2 == 0):
                close_note(channel, data1, tick)
        elif kind in (0xC0, 0xD0):
            if first_data is None:
                reader.u8()
            running_status = status
        else:
            reader.fail(f"unknown status byte 0x{status:02x}")
    if reader.pos > end:
        reader.fail("event ran past the declared track length")
    if active:
        pitches = sorted(p for _, p in active)
        reader.fail(f"track ended with unterminated notes (pitches {pitches})")
    reader.pos = end
    return notes


def parse_midi(data: bytes, monophonic: bool = True, title: str = "") -> PointSet:
    """Parse the densest track (most notes) of a Standard MIDI File (format 0 or 1).

    Onsets and durations are exact tick ratios against the header's
    ticks-per-quarter.  A note-on with velocity 0 acts as a note-off.
    With `monophonic` set, overlapping notes raise MonophonyViolation.
    """
    reader = _MidiReader(data)
    if reader.read(4) != b"MThd":
        reader.pos = 0
        reader.fail("missing MThd header")
    header_len = reader.u32()
    if header_len < 6:
        reader.fail(f"header length {header_len} < 6")
    fmt = reader.u16()
    ntrks = reader.u16()
    division = reader.u16()
    reader.read(header_len - 6)
    if fmt not in (0, 1):
        raise ParseError(f"unsupported MIDI format {fmt} (only 0 and 1)")
    if division & 0x8000:
        raise ParseError("SMPTE time division is unsupported")
    if division == 0:
        raise ParseError("ticks-per-quarter division must be > 0")

    tracks: list[list[Point]] = []
    for _ in range(ntrks):
        if reader.pos >= len(reader.data):
            reader.fail("fewer tracks than the header declares")
        chunk_id = reader.read(4)
        chunk_len = reader.u32()
        if chunk_id != b"MTrk":
            # unknown chunks are legal and skipped
            reader.read(chunk_len)
            continue
        tracks.append(_parse_track(reader, chunk_len, division))

    chosen = max(tracks, key=len, default=[])
    return PointSet.build(chosen, title=title, monophonic=monophonic)
