"""Synthetic pieces: planted pattern templates concatenated with random filler.

A piece is a shuffled sequence of template placements separated by random
filler: one-crotchet slots, each a crotchet note or a crotchet rest.
Templates keep their own note and rest durations, and all time, filler
lengths and repeat distances included, is counted in crotchets.
Times are ints (`core.as_time`) but where a template's own durations are
fractional.  Ground-truth records carry every placement, and the total
random duration always stays under the configured fraction of the piece.
Generation is a pure function of the config, seed included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from motifkit.core import PatternOccurrence, PatternRecord, Point, PointSet, as_time, subseed

REST = None

GROUND_TRUTH_ID = "ground-truth"

_MAJOR_STEPS = (0, 2, 4, 5, 7, 9, 11)


@dataclass(frozen=True)
class PatternTemplate:
    """A named note sequence; pitches use None for rests."""

    name: str
    notes: tuple[tuple[int | None, int | Fraction], ...]

    def __post_init__(self):
        if not self.pitches():
            raise ValueError(f"template {self.name}: needs at least one pitched note")
        if not all(0 <= p <= 127 for p in self.pitches()):
            raise ValueError(f"template {self.name}: pitches must lie in the MIDI range 0-127")
        if any(d <= 0 for _, d in self.notes):
            raise ValueError(f"template {self.name}: note and rest durations must be > 0")

    @property
    def duration(self) -> int | Fraction:
        return sum(d for _, d in self.notes)

    def pitches(self) -> list[int]:
        return [p for p, _ in self.notes if p is not None]


def template_p1() -> PatternTemplate:
    """Repeated-interval template: 20 crotchets alternating C4 and G#4."""
    notes = tuple((60 if i % 2 == 0 else 68, 1) for i in range(20))
    return PatternTemplate("P1", notes)


def template_p2() -> PatternTemplate:
    """Scale template: 20 crotchets ascending the C major scale from C4."""
    notes = tuple((60 + 12 * (i // 7) + _MAJOR_STEPS[i % 7], 1) for i in range(20))
    return PatternTemplate("P2", notes)


@dataclass(frozen=True)
class SynthConfig:
    templates: tuple[PatternTemplate, ...] = field(
        default_factory=lambda: (template_p1(), template_p2())
    )
    occurrences_per_template: int = 2
    rest_probability: float = 0.2
    random_fraction_cap: Fraction = Fraction(1, 2)
    seed: int = 0
    pitch_range: tuple[int, int] | None = None

    def __post_init__(self):
        if self.occurrences_per_template < 2:
            raise ValueError("a pattern needs at least 2 occurrences")
        if not 0 <= self.rest_probability < 1:
            raise ValueError("rest probability must be in [0, 1)")
        if not 0 < self.random_fraction_cap < 1:
            raise ValueError("random fraction cap must be in (0, 1)")
        if not self.templates:
            raise ValueError("at least one template required")
        names = [t.name for t in self.templates]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"two templates are named {name!r}")
        lo, hi = self.pitch_range or (0, 0)
        if not 0 <= lo <= hi <= 127:
            raise ValueError(f"pitch range {self.pitch_range} must have 0 <= lo <= hi <= 127")

    def effective_pitch_range(self) -> tuple[int, int]:
        if self.pitch_range is not None:
            return self.pitch_range
        pitches = [p for t in self.templates for p in t.pitches()]
        return (min(pitches), max(pitches))


@dataclass(frozen=True)
class SyntheticPiece:
    piece: PointSet
    ground_truth: tuple[PatternRecord, ...]
    seed: int
    total_duration: int | Fraction
    random_duration: int


def sample_random_segment(
    length: int, config: SynthConfig, stream: int = 0
) -> list[int | None]:
    """`length` random one-crotchet slots: a rest with the configured
    probability, else a uniform chromatic pitch in the template range.
    Deterministic in (config.seed, stream)."""
    if length < 0:
        raise ValueError("length must be >= 0")
    rng = random.Random(subseed(config.seed, "segment", stream))
    lo, hi = config.effective_pitch_range()
    out: list[int | None] = []
    for _ in range(length):
        if rng.random() < config.rest_probability:
            out.append(REST)
        else:
            out.append(rng.randint(lo, hi))
    return out


def _repeat_distances(
    placements: list[PatternTemplate], durations: dict[str, int | Fraction], lengths: list[int]
) -> set[int | Fraction]:
    """Distance in crotchets between consecutive same-template placements;
    `durations` holds each template's duration."""
    onset = lengths[0]
    starts: dict[str, list[int | Fraction]] = {}
    for t, gap in zip(placements, lengths[1:]):
        starts.setdefault(t.name, []).append(onset)
        onset += durations[t.name] + gap
    return {b - a for s in starts.values() for a, b in zip(s, s[1:])}


def _segment_lengths(
    config: SynthConfig, placements: list[PatternTemplate]
) -> list[int]:
    """Crotchets in the [lead, inner*, trail] filler segments, cap-clamped.

    Each length is drawn from 1–8, up to 64 times, until no two repeat
    distances coincide, so that no template's repeat vector aliases
    another's; a repeat within one template also counts as a collision.
    If every draw collides, the last one is kept.  Inner segments always
    keep at least one crotchet while the budget allows, so consecutive
    placements never touch; lead and trail are dropped first when the cap
    bites.
    """
    rng = random.Random(subseed(config.seed, "lengths"))
    n_segments = len(placements) + 1
    durations = {t.name: t.duration for t in config.templates}
    expected = (config.occurrences_per_template - 1) * len(durations)
    for _ in range(64):
        lengths = [rng.randint(1, 8) for _ in range(n_segments)]
        if len(_repeat_distances(placements, durations, lengths)) == expected:
            break
    # filler r is under cap × (templates + r) exactly when r < budget,
    # and budget > 0, so shrinking ends by r = 0 at the latest
    cap = config.random_fraction_cap
    budget = cap / (1 - cap) * sum(durations[t.name] for t in placements)
    # shrink order: trail, lead, then inner segments round robin down to 1,
    # finally inner segments to 0
    while sum(lengths) >= budget:
        if lengths[-1] > 0:
            lengths[-1] -= 1
        elif lengths[0] > 0:
            lengths[0] -= 1
        else:
            inner = [i for i in range(1, n_segments - 1) if lengths[i] > 1]
            if inner:
                lengths[max(inner, key=lambda i: lengths[i])] -= 1
            else:
                drop = next(i for i in range(1, n_segments - 1) if lengths[i] > 0)
                lengths[drop] -= 1
    return lengths


def synthesize(config: SynthConfig) -> SyntheticPiece:
    """Generate a piece with planted templates and its ground truth.

    The placement order is a seeded shuffle of every template repeated the
    configured number of times; random one-crotchet slots fill the gaps.
    Onsets run from zero in crotchets: a template note advances by its own
    duration, a filler slot by one.
    """
    placements = [
        t for t in config.templates for _ in range(config.occurrences_per_template)
    ]
    rng = random.Random(subseed(config.seed, "order"))
    rng.shuffle(placements)
    lengths = _segment_lengths(config, placements)

    points: list[Point] = []
    occurrences: dict[str, list[PatternOccurrence]] = {t.name: [] for t in config.templates}
    now = 0
    for i, length in enumerate(lengths):
        for slot, pitch in enumerate(sample_random_segment(length, config, stream=i)):
            if pitch is not REST:
                points.append(Point(now + slot, pitch))
        now += length
        if i == len(placements):
            break
        template = placements[i]
        placed = []
        for pitch, duration in template.notes:
            if pitch is not None:
                placed.append(Point(now, pitch, duration))
            now += duration
        points.extend(placed)
        occurrences[template.name].append(PatternOccurrence(tuple(placed)))

    truth = tuple(
        PatternRecord(GROUND_TRUTH_ID, t.name, tuple(occurrences[t.name]))
        for t in config.templates
    )
    piece = PointSet.build(points, title=f"synthetic-{config.seed}", monophonic=True)
    return SyntheticPiece(
        piece=piece,
        ground_truth=truth,
        seed=config.seed,
        total_duration=as_time(now),
        random_duration=sum(lengths),
    )


def config_to_json_dict(config: SynthConfig) -> dict:
    return {
        "templates": [
            {
                "name": t.name,
                "notes": [
                    ["R" if p is None else p, str(d)] for p, d in t.notes
                ],
            }
            for t in config.templates
        ],
        "occurrences_per_template": config.occurrences_per_template,
        "rest_probability": config.rest_probability,
        "random_fraction_cap": str(config.random_fraction_cap),
        "seed": config.seed,
        "pitch_range": list(config.pitch_range) if config.pitch_range else None,
    }
