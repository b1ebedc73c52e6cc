import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from motifkit.core import Point
from motifkit.discovery import Vector2, sia
from motifkit.synthesis import (
    PatternTemplate,
    SynthConfig,
    _repeat_distances,
    _segment_lengths,
    sample_random_segment,
    synthesize,
    template_p1,
    template_p2,
)

F = Fraction


class TestTemplates:
    def test_p1_shape(self):
        t = template_p1()
        pitches = [p for p, _ in t.notes]
        assert pitches[:4] == [60, 68, 60, 68]
        assert len(t.notes) == 20
        assert all(d == 1 for _, d in t.notes)

    def test_p2_shape(self):
        t = template_p2()
        pitches = [p for p, _ in t.notes]
        assert pitches[:8] == [60, 62, 64, 65, 67, 69, 71, 72]
        assert len(pitches) == 20
        assert pitches[-1] == 93
        assert all(d == 1 for _, d in t.notes)

    def test_empty_template_rejected(self):
        with pytest.raises(ValueError):
            PatternTemplate("empty", ())

    def test_template_without_pitched_note_rejected(self):
        # synthesize would fail later, on min() of no pitches
        with pytest.raises(ValueError, match="template rests: needs at least one pitched note"):
            PatternTemplate("rests", ((None, F(1)), (None, 2)))

    @pytest.mark.parametrize("pitch", [-1, 128, 200])
    def test_template_pitch_outside_midi_range_rejected(self, pitch):
        # synthesize would fail later, in Point, with a message naming no template
        with pytest.raises(ValueError, match="template hi: pitches must lie in the MIDI range"):
            PatternTemplate("hi", ((pitch, 1), (60, 1)))

    @pytest.mark.parametrize("pitch_range", [(70, 61), (-1, 60), (60, 128)])
    def test_bad_pitch_range_rejected(self, pitch_range):
        # synthesize would fail later, in randrange or on a Point's pitch
        with pytest.raises(ValueError, match=re.escape(f"pitch range {pitch_range} must")):
            SynthConfig(pitch_range=pitch_range)

    @pytest.mark.parametrize("pitch_range", [(0, 127), (64, 64)])
    def test_pitch_range_bounds_accepted(self, pitch_range):
        piece = synthesize(SynthConfig(pitch_range=pitch_range, rest_probability=0.0)).piece
        filler = {p.pitch for p in piece.points} - {p for t in (template_p1(), template_p2())
                                                   for p in t.pitches()}
        assert filler <= set(range(pitch_range[0], pitch_range[1] + 1))

    @pytest.mark.parametrize("notes", [
        ((60, F(1)), (None, F(-1)), (62, F(1))),
        ((60, F(0)),),
        ((60, F(1, 2)), (62, F(-1, 4))),
    ])
    def test_non_positive_durations_rejected(self, notes):
        with pytest.raises(ValueError, match="durations must be > 0"):
            PatternTemplate("bad", notes)


class TestRandomSegment:
    def test_zero_length(self):
        assert sample_random_segment(0, SynthConfig(seed=1)) == []

    def test_no_rests_when_probability_zero(self):
        config = SynthConfig(seed=2, rest_probability=0.0)
        seg = sample_random_segment(200, config)
        assert all(p is not None for p in seg)

    def test_pitches_within_template_range(self):
        config = SynthConfig(seed=3, rest_probability=0.1)
        pitches = [p for p in sample_random_segment(10_000, config) if p is not None]
        assert min(pitches) >= 60
        assert max(pitches) <= 93
        # both extremes actually reached over 10^4 draws
        assert 60 in pitches and 93 in pitches

    def test_deterministic_per_stream(self):
        config = SynthConfig(seed=4)
        assert sample_random_segment(50, config, stream=7) == sample_random_segment(
            50, config, stream=7
        )
        assert sample_random_segment(50, config, stream=7) != sample_random_segment(
            50, config, stream=8
        )


class TestSynthesize:
    def test_default_piece_shape(self):
        piece = synthesize(SynthConfig(seed=42, random_fraction_cap=F(1, 2)))
        assert len(piece.piece) >= 80
        assert piece.random_duration < F(1, 2) * piece.total_duration

    def test_note_count_without_rests(self):
        config = SynthConfig(seed=5, rest_probability=0.0)
        piece = synthesize(config)
        assert len(piece.piece) == 80 + piece.random_duration

    def test_seed_determinism(self):
        a = synthesize(SynthConfig(seed=6))
        b = synthesize(SynthConfig(seed=6))
        assert a.piece == b.piece
        assert a.ground_truth == b.ground_truth

    def test_different_seeds_differ(self):
        assert synthesize(SynthConfig(seed=1)).piece != synthesize(SynthConfig(seed=2)).piece

    def test_ground_truth_matches_templates(self):
        config = SynthConfig(seed=7)
        piece = synthesize(config)
        by_name = {t.name: t for t in config.templates}
        for rec in piece.ground_truth:
            template = by_name[rec.pattern_id]
            assert len(rec.occurrences) == config.occurrences_per_template
            for occ in rec.occurrences:
                start = occ.points[0].onset
                realized = [
                    (p.onset - start, p.pitch, p.duration) for p in occ.points
                ]
                expected = []
                offset = F(0)
                for pitch, duration in template.notes:
                    if pitch is not None:
                        expected.append((offset, pitch, duration))
                    offset += duration
                assert realized == expected

    def test_placements_never_overlap_and_are_separated(self):
        for seed in range(10):
            piece = synthesize(SynthConfig(seed=seed))
            spans = sorted(
                occ.span for rec in piece.ground_truth for occ in rec.occurrences
            )
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 < s2  # a random slot always sits between placements

    def test_cap_respected_for_small_caps(self):
        for cap in (F(1, 100), F(1, 10), F(1, 3)):
            piece = synthesize(SynthConfig(seed=8, random_fraction_cap=cap))
            assert piece.random_duration < cap * piece.total_duration

    def test_tiny_cap_yields_zero_random(self):
        piece = synthesize(SynthConfig(seed=9, random_fraction_cap=F(1, 1000)))
        assert piece.random_duration == 0

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SynthConfig(occurrences_per_template=1)
        with pytest.raises(ValueError):
            SynthConfig(rest_probability=1.0)
        with pytest.raises(ValueError):
            SynthConfig(random_fraction_cap=F(1))

    def test_template_names_unique(self):
        """Ground truth is one record per template name, so two templates cannot share one."""
        twin = PatternTemplate("P1", ((60, 1), (62, 1), (64, 1)))
        with pytest.raises(ValueError, match="two templates are named 'P1'"):
            SynthConfig(templates=(template_p1(), template_p2(), twin), seed=1)

    def test_monophonic_and_sorted(self):
        piece = synthesize(SynthConfig(seed=10)).piece
        onsets = [p.onset for p in piece.points]
        assert onsets == sorted(onsets)
        for a, b in zip(piece.points, piece.points[1:]):
            assert a.end <= b.onset


class TestDiscoveryBridge:
    def test_planted_repeat_guarantee(self):
        # the inter-placement vector's pattern contains the earlier placement
        for seed in range(5):
            piece = synthesize(SynthConfig(seed=seed))
            mtps = {m.vector: {p.coord for p in m.points} for m in sia(piece.piece)}
            for rec in piece.ground_truth:
                occs = rec.occurrences
                for i in range(len(occs)):
                    for j in range(i + 1, len(occs)):
                        dt = occs[j].points[0].onset - occs[i].points[0].onset
                        v = Vector2(dt, 0)
                        planted = {p.coord for p in occs[i].points}
                        assert planted <= mtps[v]


def _template(name, pitch, duration, length):
    return PatternTemplate(name, tuple((pitch + i % 5, duration) for i in range(length)))


_durations = st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(1), F(3, 2), F(2)])
# a template opens with a note, so its first point marks where it was placed
_templates = st.lists(
    st.lists(st.tuples(st.one_of(st.integers(48, 84), st.none()), _durations),
             min_size=0, max_size=7).map(lambda rest: [(60, F(1))] + rest),
    min_size=1, max_size=3,
).map(lambda notes: tuple(PatternTemplate(f"T{i}", tuple(n)) for i, n in enumerate(notes)))


class TestOneClock:
    """Filler, templates, the cap and the repeat distances all count crotchets."""

    @settings(max_examples=120, deadline=None)
    @given(templates=_templates, occurrences=st.integers(2, 4),
           cap=st.sampled_from([F(1, 10), F(1, 3), F(1, 2), F(9, 10)]),
           seed=st.integers(0, 2**32 - 1))
    # semiquaver templates: the cap holds only if it reads their durations
    @example(templates=(_template("A", 60, F(1, 4), 20), _template("B", 70, F(1, 4), 20)),
             occurrences=2, cap=F(1, 2), seed=1)
    # quavers and crotchets: a note counted as one crotchet shares a distance
    @example(templates=(_template("Q", 60, F(1, 2), 20), _template("C", 70, F(1), 10)),
             occurrences=3, cap=F(1, 2), seed=2)
    def test_cap_durations_and_repeat_distances(self, templates, occurrences, cap, seed):
        config = SynthConfig(templates=templates, occurrences_per_template=occurrences,
                             random_fraction_cap=cap, seed=seed)
        sp = synthesize(config)
        assert sp.random_duration < cap * sp.total_duration or sp.random_duration == 0
        assert sp.random_duration == sp.total_duration - occurrences * sum(
            t.duration for t in templates)
        by_name = {t.name: t for t in templates}
        starts = sorted((occ.points[0].onset, rec.pattern_id)
                        for rec in sp.ground_truth for occ in rec.occurrences)
        placements = [by_name[name] for _, name in starts]
        lengths = _segment_lengths(config, placements)
        durations = {t.name: t.duration for t in templates}
        measured = set()
        for rec in sp.ground_truth:
            onsets = sorted(occ.points[0].onset for occ in rec.occurrences)
            measured |= {b - a for a, b in zip(onsets, onsets[1:])}
        assert measured == _repeat_distances(placements, durations, lengths)
