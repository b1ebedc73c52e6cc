"""Synthetic pieces: planted pattern templates concatenated with random filler.

A piece is a shuffled sequence of template placements separated by random
segments of notes and rests (crotchet slots only).  Ground-truth records
carry every placement, and the total random duration always stays under
the configured fraction of the piece.  Generation is a pure function of
the config, seed included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from motifkit.core import PatternOccurrence, PatternRecord, Point, PointSet, subseed

REST = None

GROUND_TRUTH_ID = "ground-truth"

_MAJOR_STEPS = (0, 2, 4, 5, 7, 9, 11)


@dataclass(frozen=True)
class PatternTemplate:
    """A named note sequence; pitches use None for rests."""

    name: str
    notes: tuple[tuple[int | None, Fraction], ...]

    def __post_init__(self):
        if not self.notes:
            raise ValueError("template must contain at least one note")

    @property
    def length(self) -> int:
        return len(self.notes)

    @property
    def duration(self) -> Fraction:
        return sum((d for _, d in self.notes), Fraction(0))

    def pitches(self) -> list[int]:
        return [p for p, _ in self.notes if p is not None]


def template_p1() -> PatternTemplate:
    """Repeated-interval template: 20 crotchets alternating C4 and G#4."""
    notes = tuple((60 if i % 2 == 0 else 68, Fraction(1)) for i in range(20))
    return PatternTemplate("P1", notes)


def template_p2() -> PatternTemplate:
    """Scale template: 20 crotchets ascending the C major scale from C4."""
    notes = tuple(
        (60 + 12 * (i // 7) + _MAJOR_STEPS[i % 7], Fraction(1)) for i in range(20)
    )
    return PatternTemplate("P2", notes)


@dataclass(frozen=True)
class SynthConfig:
    templates: tuple[PatternTemplate, ...] = field(
        default_factory=lambda: (template_p1(), template_p2())
    )
    occurrences_per_template: int = 2
    rest_probability: float = 0.2
    random_fraction_cap: Fraction = field(default_factory=lambda: Fraction(1, 2))
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
    total_duration: Fraction
    random_duration: Fraction


def sample_random_segment(
    length: int, config: SynthConfig, stream: int = 0
) -> list[int | None]:
    """Random crotchet slots: rest with the configured probability, else a
    uniform chromatic pitch in the template range.  Deterministic in
    (config.seed, stream)."""
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
    placements: list[PatternTemplate], lengths: list[int]
) -> set[int]:
    """Distance between consecutive same-template placements, in slots."""
    onset = lengths[0]
    starts: dict[str, list[int]] = {}
    for i, t in enumerate(placements):
        starts.setdefault(t.name, []).append(onset)
        onset += t.length + lengths[i + 1]
    return {b - a for s in starts.values() for a, b in zip(s, s[1:])}


def _segment_lengths(
    config: SynthConfig, placements: list[PatternTemplate]
) -> list[int]:
    """Lengths for the [lead, inner*, trail] random segments, cap-clamped.

    Inner segments always keep at least one slot while the budget allows,
    so consecutive placements never touch; lead and trail are dropped
    first when the cap bites.  Inner lengths are redrawn while any two
    templates' repeat distances coincide, keeping each planted pattern's
    repeat vector unique so the patterns cannot alias one another.
    """
    rng = random.Random(subseed(config.seed, "lengths"))
    n_segments = len(placements) + 1
    expected = sum(
        config.occurrences_per_template - 1 for _ in {t.name for t in placements}
    )
    for _ in range(64):
        lengths = [rng.randint(1, 8) for _ in range(n_segments)]
        if len(_repeat_distances(placements, lengths)) == expected:
            break
    template_slots = sum(t.length for t in placements)

    def within_cap(total_random: int) -> bool:
        return Fraction(total_random) < config.random_fraction_cap * (
            template_slots + total_random
        )

    # shrink order: trail, lead, then inner segments round robin down to 1,
    # finally inner segments to 0
    while not within_cap(sum(lengths)) and sum(lengths) > 0:
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
    configured number of times; random segments fill the gaps.  Onsets are
    assigned cumulatively from zero, one crotchet per slot.
    """
    placements = [
        t for t in config.templates for _ in range(config.occurrences_per_template)
    ]
    rng = random.Random(subseed(config.seed, "order"))
    rng.shuffle(placements)
    lengths = _segment_lengths(config, placements)

    points: list[Point] = []
    occurrences: dict[str, list[PatternOccurrence]] = {t.name: [] for t in config.templates}
    now = Fraction(0)
    random_slots = 0

    def emit_random(length: int, stream: int):
        nonlocal now, random_slots
        for pitch in sample_random_segment(length, config, stream=stream):
            if pitch is not REST:
                points.append(Point(now, pitch, Fraction(1)))
            now += 1
            random_slots += 1

    emit_random(lengths[0], stream=0)
    for i, template in enumerate(placements):
        placed = []
        for pitch, duration in template.notes:
            if pitch is not None:
                placed.append(Point(now, pitch, duration))
            now += duration
        points.extend(placed)
        occurrences[template.name].append(PatternOccurrence(tuple(placed)))
        emit_random(lengths[i + 1], stream=i + 1)

    truth = tuple(
        PatternRecord(GROUND_TRUTH_ID, t.name, tuple(occurrences[t.name]))
        for t in config.templates
    )
    piece = PointSet.build(points, title=f"synthetic-{config.seed}", monophonic=True)
    return SyntheticPiece(
        piece=piece,
        ground_truth=truth,
        seed=config.seed,
        total_duration=now,
        random_duration=Fraction(random_slots),
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
