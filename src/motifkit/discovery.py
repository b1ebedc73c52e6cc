"""Geometric repeated-pattern discovery over (onset, pitch) point sets.

Implements the translation-based family: SIA (maximal translatable
patterns), SIATEC (translational equivalence classes), COSIATEC (greedy
cover by best TEC with removal), SIATECCompress (greedy cover without
removal), SIAR (vector table restricted to r lexicographic successors),
and a compactness trawler, together with compression-ratio and
compactness quality measures.

Internally points are rescaled to integer coordinates (the LCM of the
onset denominators) so the hot loops run on plain int tuples.  COSIATEC
and SIATECCompress score and rank their candidate TECs on that grid too;
Points and Fractions appear only in the TECs they emit.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from motifkit.core import (
    PatternOccurrence,
    PatternRecord,
    Point,
    PointSet,
)


@dataclass(frozen=True, order=True)
class Vector2:
    """A translation: time shift in crotchets, pitch shift in semitones."""

    dt: Fraction
    dp: int


ZERO = Vector2(Fraction(0), 0)


@dataclass(frozen=True)
class MTP:
    """Maximal translatable pattern: all points mapped into the set by `vector`."""

    vector: Vector2
    points: tuple[Point, ...]

    @property
    def translated(self) -> tuple[Point, ...]:
        """The second occurrence implied by the vector (duration-less shift)."""
        return tuple(
            Point(p.onset + self.vector.dt, p.pitch + self.vector.dp, p.duration)
            for p in self.points
        )


@dataclass(frozen=True)
class TEC:
    """A pattern with every vector translating it into the source set."""

    pattern: tuple[Point, ...]
    translators: tuple[Vector2, ...]
    covered: tuple[Point, ...]

    def occurrences(self) -> list[tuple[Point, ...]]:
        return [
            tuple(
                Point(p.onset + u.dt, p.pitch + u.dp, p.duration)
                for p in self.pattern
            )
            for u in self.translators
        ]


@dataclass(frozen=True)
class TecQuality:
    compression_ratio: Fraction
    compactness: Fraction
    coverage: int


# ---------------------------------------------------------------------------
# Integer encoding

_Coord = tuple[int, int]


class _Grid:
    """Integer view of a PointSet: onset * scale is always integral."""

    def __init__(self, ps: PointSet):
        self.scale = math.lcm(*(p.onset.denominator for p in ps.points)) if len(ps) else 1
        self.by_coord: dict[_Coord, Point] = {
            (int(p.onset * self.scale), p.pitch): p for p in ps.points
        }
        self._index(list(self.by_coord))

    def _index(self, coords: list[_Coord]) -> None:
        self.coords = coords  # sorted, as the PointSet's points are
        self.coord_set = set(coords)
        # onset -> index of its first point, and one past its last point
        self.first: dict[int, int] = {}
        self.stop: dict[int, int] = {}
        for i, (onset, _) in enumerate(coords):
            self.first.setdefault(onset, i)
            self.stop[onset] = i + 1

    def without(self, gone: set[_Coord]) -> _Grid:
        """The grid of the coordinates not in `gone`, at the same scale."""
        rest = copy.copy(self)
        rest._index([c for c in self.coords if c not in gone])
        return rest

    def window(self, lo: int, hi: int) -> int:
        """Number of set points with onsets in [lo, hi]; both must be set onsets."""
        return self.stop[hi] - self.first[lo]

    def points(self, cs) -> tuple[Point, ...]:
        return tuple(self.by_coord[c] for c in sorted(cs))

    def vector(self, v: _Coord) -> Vector2:
        return Vector2(Fraction(v[0], self.scale), v[1])

    def tec(self, shape: Sequence[_Coord], translators: Sequence[_Coord]) -> TEC:
        """The TEC of a shape, represented by its lexicographically least occurrence.

        `translators` are sorted, so the first one places that occurrence.
        """
        least = translators[0]
        return TEC(
            pattern=self.points(_add(q, least) for q in shape),
            translators=tuple(self.vector(_sub(u, least)) for u in translators),
            covered=self.points(_cover(shape, translators)),
        )


def _sub(a: _Coord, b: _Coord) -> _Coord:
    return (a[0] - b[0], a[1] - b[1])


def _add(a: _Coord, b: _Coord) -> _Coord:
    return (a[0] + b[0], a[1] + b[1])


def _cover(shape: Sequence[_Coord], translators: Sequence[_Coord]) -> set[_Coord]:
    return {_add(q, u) for q in shape for u in translators}


# ---------------------------------------------------------------------------
# SIA / SIAR


def _mtp_table(grid: _Grid) -> dict[_Coord, list[_Coord]]:
    """Group origin coordinates by positive difference vector (the MTPs)."""
    cs = grid.coords
    table: dict[_Coord, list[_Coord]] = {}
    for i, a in enumerate(cs):
        for b in cs[i + 1 :]:
            table.setdefault(_sub(b, a), []).append(a)
    return table


def sia(ps: PointSet) -> list[MTP]:
    """All maximal translatable patterns, one per positive inter-point vector.

    For each distinct vector v > (0, 0) (lexicographically) the pattern is
    {p : p + v in the set}.  Returns MTPs sorted by vector.  Fewer than two
    points yield an empty list.
    """
    if len(ps) < 2:
        return []
    grid = _Grid(ps)
    return [
        MTP(grid.vector(v), grid.points(origins))
        for v, origins in sorted(_mtp_table(grid).items())
    ]


def siar(ps: PointSet, r: int) -> list[MTP]:
    """SIA restricted to vectors between each point and its next `r` successors.

    Every emitted MTP is still the full pattern over the whole set, so the
    result is a subset of :func:`sia`'s (vector, points) mapping; with
    r >= len(ps) - 1 the two coincide.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if len(ps) < 2:
        return []
    grid = _Grid(ps)
    cs = grid.coords
    coord_set = grid.coord_set
    vectors = {
        _sub(cs[j], cs[i])
        for i in range(len(cs))
        for j in range(i + 1, min(i + r + 1, len(cs)))
    }
    out = []
    for v in sorted(vectors):
        origins = [c for c in cs if _add(c, v) in coord_set]
        out.append(MTP(grid.vector(v), grid.points(origins)))
    return out


# ---------------------------------------------------------------------------
# SIATEC


def _translators_of(shape: Sequence[_Coord], grid: _Grid) -> list[_Coord]:
    """All u with shape + u inside the set, sorted; shape[0] is at the origin."""
    coord_set = grid.coord_set
    rest = shape[1:]
    out = []
    for d in grid.coords:
        u = d  # candidate translator mapping shape[0] -> d
        for q in rest:
            if (q[0] + u[0], q[1] + u[1]) not in coord_set:
                break
        else:
            out.append(u)
    return out


def siatec(ps: PointSet) -> list[TEC]:
    """Translational equivalence classes of SIA's patterns.

    Translationally equivalent MTPs are merged before the translator
    search; the representative pattern is the lexicographically least
    occurrence.  Each TEC's translators include the zero vector.  Output
    is sorted by (pattern, translators) for determinism.
    """
    if len(ps) < 2:
        return []
    grid = _Grid(ps)
    tecs = [grid.tec(shape, _translators_of(shape, grid)) for shape in _siatec_shapes(grid)]
    tecs.sort(key=lambda t: (t.pattern, t.translators))
    return tecs


def _shape(origins: Sequence[_Coord]) -> tuple[_Coord, ...]:
    """The pattern translated so that its least point sits at the origin."""
    base = min(origins)
    return tuple(sorted(_sub(c, base) for c in origins))


def _siatec_shapes(grid: _Grid) -> set[tuple[_Coord, ...]]:
    """SIATEC's patterns, translationally equivalent MTPs merged."""
    return {_shape(o) for o in _mtp_table(grid).values()}


def _compact_segments(origins: Sequence[_Coord], grid: _Grid) -> list[tuple[_Coord, ...]]:
    """Maximal runs of >= 2 pattern points that hold every set point in their span.

    Grid form of ``compactness_trawl(pattern, ps, 1, 2)`` in temporal mode:
    a run is compact when its length equals the number of set points whose
    onsets lie between its first and last onset.
    """
    out = []
    segment: list[_Coord] = []
    for c in sorted(origins):
        if segment and len(segment) + 1 == grid.window(segment[0][0], c[0]):
            segment.append(c)
            continue
        if len(segment) >= 2:
            out.append(tuple(segment))
        segment = [c]
    if len(segment) >= 2:
        out.append(tuple(segment))
    return out


# ---------------------------------------------------------------------------
# Quality measures


def compactness(
    pattern: Sequence[Point], ps: PointSet, mode: str = "temporal"
) -> Fraction:
    """Pattern size over the number of set points inside its window.

    ``temporal`` counts set points whose onset lies in the pattern's onset
    range; ``bbox`` additionally restricts to the pattern's pitch range.
    """
    pts = tuple(pattern)
    if not pts:
        raise ValueError("pattern must be nonempty")
    grid = _Grid(ps)
    # an integral Fraction equals and hashes like its int; others match nothing
    scaled = [(p.onset * grid.scale, p.pitch) for p in pts]
    for p, c in zip(pts, scaled):
        if c not in grid.coord_set:
            raise ValueError(f"pattern point {p.coord} not in the point set")
    lo = int(min(c[0] for c in scaled))
    hi = int(max(c[0] for c in scaled))
    if mode == "temporal":
        inside = grid.window(lo, hi)
    elif mode == "bbox":
        plo = min(p.pitch for p in pts)
        phi = max(p.pitch for p in pts)
        inside = sum(
            1 for o, pitch in grid.coords if lo <= o <= hi and plo <= pitch <= phi
        )
    else:
        raise ValueError(f"unknown compactness mode {mode!r}")
    return Fraction(len(pts), inside)


def tec_quality(tec: TEC, ps: PointSet, mode: str = "temporal") -> TecQuality:
    ratio = Fraction(len(tec.covered), len(tec.pattern) + len(tec.translators) - 1)
    return TecQuality(
        compression_ratio=ratio,
        compactness=compactness(tec.pattern, ps, mode=mode),
        coverage=len(tec.covered),
    )


class _Candidate(NamedTuple):
    """A TEC on the grid: `shape` (at the origin) placed at each translator."""

    shape: tuple[_Coord, ...]
    translators: tuple[_Coord, ...]
    quality: TecQuality


def _score(shape: tuple[_Coord, ...], grid: _Grid) -> _Candidate:
    """The shape's TEC with the quality `tec_quality` gives it, in temporal mode."""
    translators = tuple(_translators_of(shape, grid))
    coverage = len(_cover(shape, translators))
    start = translators[0][0]
    return _Candidate(
        shape,
        translators,
        TecQuality(
            compression_ratio=Fraction(coverage, len(shape) + len(translators) - 1),
            compactness=Fraction(len(shape), grid.window(start, start + shape[-1][0])),
            coverage=coverage,
        ),
    )


_QUALITY_KEYS: dict[str, Callable[[TecQuality, int], object]] = {
    "cr": lambda q, size: q.compression_ratio,
    "comp": lambda q, size: q.compactness,
    "cov": lambda q, size: q.coverage,
    "size": lambda q, size: size,
}

DEFAULT_ORDER = ("cr", "comp", "cov", "size")


def _quality_key(name: str) -> Callable[[TecQuality, int], object]:
    if name.startswith("comp>="):
        threshold = Fraction(name[len("comp>=") :])
        return lambda q, size: int(q.compactness >= threshold)
    try:
        return _QUALITY_KEYS[name]
    except KeyError:
        raise ValueError(f"unknown quality key {name!r}") from None


def _rank_key(order: Sequence[str]) -> Callable[[_Candidate], tuple]:
    keys = [_quality_key(k) for k in order]
    keys += [_QUALITY_KEYS[k] for k in DEFAULT_ORDER if k not in order]

    def key(c: _Candidate) -> tuple:
        # descending quality, then ascending least occurrence: that
        # occurrence is shape + translators[0], so comparing (translators[0],
        # shape) orders candidates as comparing their patterns would
        size = len(c.shape)
        return tuple(-k(c.quality, size) for k in keys) + (c.translators[0], c.shape)

    return key


def _residue_tec(points: Sequence[Point]) -> TEC:
    pts = tuple(sorted(points))
    return TEC(pattern=pts, translators=(ZERO,), covered=pts)


def cosiatec(ps: PointSet, tie_break: Sequence[str] = DEFAULT_ORDER) -> list[TEC]:
    """Cover the set by repeatedly taking the best TEC and removing its points.

    The candidates in each round are SIATEC's TECs of the remaining points
    plus the TECs of every MTP's compact segments: its maximal runs of at
    least two points that hold every remaining note in their time span
    (``compactness_trawl(mtp, remaining, 1, 2)``).  An MTP gathers every
    point that happens to repeat at its vector, so a planted occurrence
    can sit in it next to far-off strays (the "isolated membership"
    problem of Collins et al., SIACT, ISMIR 2010); its compact segments
    give the occurrence a TEC of its own.

    The best TEC maximizes the `tie_break` quality ordering (defaults to
    compression ratio, compactness, coverage, pattern size), with
    `tec_quality` measured against the remaining points.  Once no TEC
    compresses (best ratio <= 1) or fewer than two points remain, the
    residue is emitted as a single zero-translator TEC.  Covers partition
    the input exactly.
    """
    key = _rank_key(tie_break)
    grid = _Grid(ps)
    out = []
    while len(grid.coords) >= 2:
        shapes = set()
        for origins in _mtp_table(grid).values():
            shapes.add(_shape(origins))
            if len(origins) > 2:  # a 2-point MTP's only segment is itself
                shapes.update(_shape(seg) for seg in _compact_segments(origins, grid))
        best = min((_score(shape, grid) for shape in shapes), key=key)
        if best.quality.compression_ratio <= 1:
            break
        out.append(grid.tec(best.shape, best.translators))
        grid = grid.without(_cover(best.shape, best.translators))
    if grid.coords:
        out.append(_residue_tec(grid.points(grid.coords)))
    return out


def siatec_compress(ps: PointSet, sort_key: str = "cr") -> list[TEC]:
    """Single SIATEC pass, then greedy selection of TECs that add coverage.

    TECs are ranked by `sort_key` (``cr``, ``comp`` or ``cov``; ties fall
    back to the full quality ordering) and accepted whenever they cover at
    least one not-yet-covered point.  Any uncovered residue is appended as
    a final zero-translator TEC.  Covers may overlap, but their union is
    the whole input.
    """
    if sort_key not in ("cr", "comp", "cov"):
        raise ValueError(f"sort_key must be one of cr|comp|cov, got {sort_key!r}")
    if len(ps) == 0:
        return []
    if len(ps) < 2:
        return [_residue_tec(ps.points)]
    grid = _Grid(ps)
    key = _rank_key((sort_key,))
    ranked = sorted((_score(shape, grid) for shape in _siatec_shapes(grid)), key=key)
    covered: set[_Coord] = set()
    out = []
    for c in ranked:
        if len(covered) == len(grid.coords):
            break
        cover = _cover(c.shape, c.translators)
        if not cover <= covered:
            out.append(grid.tec(c.shape, c.translators))
            covered |= cover
    rest = [c for c in grid.coords if c not in covered]
    if rest:
        out.append(_residue_tec(grid.points(rest)))
    return out


# ---------------------------------------------------------------------------
# Compactness trawler / SIARCT


def compactness_trawl(
    pattern: Sequence[Point],
    ps: PointSet,
    a: Fraction,
    b: int,
    mode: str = "temporal",
) -> list[tuple[Point, ...]]:
    """Split a pattern into maximal left-to-right segments of compactness >= a.

    The scan extends the current segment while its compactness stays at or
    above `a`; a violating point closes the segment and starts a new one.
    Only segments with at least `b` points are kept.
    """
    if not 0 < a <= 1:
        raise ValueError("compactness threshold must be in (0, 1]")
    if b < 1:
        raise ValueError("minimum segment size must be >= 1")
    pts = sorted(pattern)
    out = []

    def close(segment: list[Point]):
        # a freshly seeded singleton can still sit below the threshold
        # when other set points share its onset
        if len(segment) >= b and compactness(segment, ps, mode=mode) >= a:
            out.append(tuple(segment))

    segment: list[Point] = []
    for p in pts:
        candidate = segment + [p]
        if not segment or compactness(candidate, ps, mode=mode) >= a:
            segment = candidate
        else:
            close(segment)
            segment = [p]
    if segment:
        close(segment)
    return out


def siarct(
    ps: PointSet, a: Fraction, b: int, r: int | None = None
) -> list[tuple[Vector2, tuple[Point, ...]]]:
    """SIA(R) patterns filtered through the compactness trawler.

    Each MTP of the (optionally r-restricted) vector table is trawled;
    surviving segments are returned with their source vector, deduplicated
    and sorted.
    """
    mtps = sia(ps) if r is None else siar(ps, r)
    seen = set()
    out = []
    for mtp in mtps:
        for segment in compactness_trawl(mtp.points, ps, a, b):
            key = (mtp.vector, segment)
            if key not in seen:
                seen.add(key)
                out.append(key)
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Record serialization and the algorithm-spec grammar


def mtps_to_records(mtps: Sequence[MTP], algorithm_id: str) -> list[PatternRecord]:
    """Each MTP becomes a record with the pattern and its vector image."""
    return [
        PatternRecord(
            algorithm_id,
            f"mtp-{i:04d}",
            (
                PatternOccurrence(m.points),
                PatternOccurrence(m.translated),
            ),
        )
        for i, m in enumerate(mtps)
    ]


def tecs_to_records(tecs: Sequence[TEC], algorithm_id: str) -> list[PatternRecord]:
    return [
        PatternRecord(
            algorithm_id,
            f"tec-{i:04d}",
            tuple(PatternOccurrence(occ) for occ in t.occurrences()),
        )
        for i, t in enumerate(tecs)
    ]


def run_algorithm(spec: str, ps: PointSet) -> list[PatternRecord]:
    """Run an algorithm given its id string.

    Grammar: ``sia`` | ``siatec`` | ``cosiatec[:<key>,<key>...]``
    | ``siatec-compress:<key>`` | ``siar:<r>`` | ``siarct:<a>,<b>``.
    ``cosiatec``'s keys are its `tie_break` ordering, e.g. ``cosiatec:comp,size``.
    """
    name, _, arg = spec.partition(":")
    try:
        if name == "sia":
            return mtps_to_records(sia(ps), spec)
        if name == "siar":
            return mtps_to_records(siar(ps, int(arg)), spec)
        if name == "siatec":
            return tecs_to_records(siatec(ps), spec)
        if name == "cosiatec":
            order = tuple(arg.split(",")) if arg else DEFAULT_ORDER
            return tecs_to_records(cosiatec(ps, order), spec)
        if name == "siatec-compress":
            return tecs_to_records(siatec_compress(ps, arg or "cr"), spec)
        if name == "siarct":
            a_s, _, b_s = arg.partition(",")
            segments = siarct(ps, Fraction(a_s), int(b_s))
            return [
                PatternRecord(
                    spec,
                    f"seg-{i:04d}",
                    (
                        PatternOccurrence(seg),
                        PatternOccurrence(
                            tuple(
                                Point(p.onset + v.dt, p.pitch + v.dp, p.duration)
                                for p in seg
                            )
                        ),
                    ),
                )
                for i, (v, seg) in enumerate(segments)
            ]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid algorithm spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown algorithm {spec!r}")
