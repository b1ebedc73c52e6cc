"""Geometric repeated-pattern discovery over (onset, pitch) point sets.

Implements the translation-based family: SIA (maximal translatable
patterns), SIATEC (translational equivalence classes), COSIATEC (greedy
cover by best TEC with removal), SIATECCompress (greedy cover without
removal), SIAR (vector table restricted to r lexicographic successors),
and SIARCT (SIA's patterns through a compactness trawler), together with
compression-ratio and compactness quality measures.  Compactness has one
rule: a pattern's size over the set points whose onsets lie in its onset
span, its temporal window (`_Grid.window`).

Internally each point is one int, its grid code ``onset * 256 + pitch``
(onsets as numerators over their least common denominator, by
`core.over_common_denominator`, the rule polling shares).  `Point` keeps
pitches in 0-127, so a vector, a difference of codes, decodes uniquely and
int order is (onset, pitch) order: the hot loops add and hash plain ints.
Translators are read off SIA's vector table (Meredith, Lemstrom & Wiggins
2002), and COSIATEC and SIATECCompress rank candidate TECs in exact integer
arithmetic, with no floats or Fractions, through one best-first walk
(`_best_first`): it gives the TECs of scoring every shape, yet searches
and covers only the shapes whose bounds reach.  One compact-segment rule
(`_segments`, an integer compare per step) splits patterns for COSIATEC's
candidates and SIARCT's alike.  Each occurrence is built once, on the grid,
as the piece's own notes (`_image`), durations included: a TEC holds its
occurrences, and `_records` builds every pattern record.
"""

from __future__ import annotations

import copy
import heapq
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from motifkit.core import (
    PatternOccurrence,
    PatternRecord,
    Point,
    PointSet,
    as_time,
    over_common_denominator,
    to_time,
)


@dataclass(frozen=True, order=True)
class Vector2:
    """A translation: time shift in crotchets, pitch shift in semitones."""

    dt: int | Fraction
    dp: int


ZERO = Vector2(0, 0)


def _image(coords, v: _Coord, notes: Mapping[_Coord, Point]) -> tuple[Point, ...]:
    """The notes at grid codes `coords` + `v`, `notes` being `_Grid.by_coord`.

    Every occurrence discovery emits is built here, once, from the piece's own notes.
    """
    return tuple([notes[c + v] for c in coords])


@dataclass(frozen=True)
class MTP:
    """Maximal translatable pattern: all points mapped into the set by `vector`."""

    vector: Vector2
    points: tuple[Point, ...]
    translated: tuple[Point, ...]  # the piece's notes at points + vector


@dataclass(frozen=True)
class TEC:
    """A pattern at every vector translating it into the source set, built by `_Grid.tec`.

    `occurrences[k]` is the pattern moved by the sorted `translators[k]`, so
    the first, from `ZERO`, is the least: the `pattern`.
    """

    occurrences: tuple[tuple[Point, ...], ...]
    translators: tuple[Vector2, ...]

    @property
    def pattern(self) -> tuple[Point, ...]:
        return self.occurrences[0]

    @property
    def covered(self) -> tuple[Point, ...]:
        """The notes of all occurrences, sorted."""
        return tuple(sorted({p for occ in self.occurrences for p in occ}))


@dataclass(frozen=True)
class TecQuality:
    compression_ratio: Fraction
    compactness: Fraction
    coverage: int


# ---------------------------------------------------------------------------
# Integer encoding

# A grid code: onset numerator * 256 + pitch (a vector: a difference of codes).  Decoded
# only in onset lookups (`>> 8`) and `_Grid.vector`.
_Coord = int
_Table = dict[_Coord, list[_Coord]]  # positive vector -> sorted origins (the MTPs)


class _Grid:
    """Integer view of a PointSet: points as codes ``onset * 256 + pitch``, onsets over `scale`."""

    def __init__(self, ps: PointSet):
        onsets, self.scale = over_common_denominator(p.onset for p in ps.points)
        self.by_coord = {onset * 256 + p.pitch: p for onset, p in zip(onsets, ps.points)}
        self._index(list(self.by_coord))

    def _index(self, coords: list[_Coord]) -> None:
        self.coords = coords  # sorted, as the PointSet's points are
        self.coord_set = set(coords)
        # onset -> index of its first point, and one past its last point
        self.first: dict[int, int] = {}
        self.stop: dict[int, int] = {}
        for i, c in enumerate(coords):
            self.first.setdefault(c >> 8, i)
            self.stop[c >> 8] = i + 1

    def without(self, gone: set[_Coord]) -> _Grid:
        """The grid of the codes not in `gone`, at the same scale."""
        rest = copy.copy(self)
        rest._index([c for c in self.coords if c not in gone])
        return rest

    def window(self, lo: int, hi: int) -> int:
        """Number of set points with onsets in [lo, hi]; both must be set onsets."""
        return self.stop[hi] - self.first[lo]

    def on_grid(self, pattern: Sequence[Point]) -> dict[_Coord, Point]:
        """The pattern's points by grid code, sorted; each must be a set point."""
        notes = {}
        for p in sorted(pattern):
            onset = p.onset * self.scale  # off the grid, it would carry into the pitch bits
            code = onset.numerator * 256 + p.pitch
            if onset.denominator != 1 or code not in self.coord_set:
                raise ValueError(f"pattern point {p.coord} not in the point set")
            notes[code] = p
        return notes

    def points(self, cs: Sequence[_Coord]) -> tuple[Point, ...]:
        """The notes at grid codes `cs`, in their order."""
        return _image(cs, 0, self.by_coord)

    def vector(self, v: _Coord) -> Vector2:
        dt = (v + 128) >> 8  # dp = v - dt * 256 lies in [-127, 127]
        return Vector2(as_time(Fraction(dt, self.scale)), v - dt * 256)

    def tec(self, shape: Sequence[_Coord], translators: Sequence[_Coord]) -> TEC:
        """The TEC of a shape: its occurrence at each of the sorted `translators`.

        `translators` are sorted, so the first places the least occurrence, the pattern.
        """
        least = translators[0]
        occurrences = tuple(_image(shape, u, self.by_coord) for u in translators)
        return TEC(occurrences, tuple(self.vector(u - least) for u in translators))


def _cover(shape: Sequence[_Coord], translators: Sequence[_Coord]) -> set[_Coord]:
    return {q + u for q in shape for u in translators}


# ---------------------------------------------------------------------------
# SIA / SIAR


def _mtp_table(grid: _Grid) -> _Table:
    """Group origin codes by positive difference vector (the MTPs)."""
    cs = grid.coords
    table: _Table = {}
    for i, a in enumerate(cs):
        for b in cs[i + 1 :]:
            table.setdefault(b - a, []).append(a)
    return table


def _columns(grid: _Grid, r: int | None = None) -> list[tuple[_Coord, list[_Coord]]]:
    """SIA's (vector, sorted origins) pairs by vector; with `r`, SIAR's (next r successors)."""
    if r is None:
        return sorted(_mtp_table(grid).items())
    if r < 1:
        raise ValueError("r must be >= 1")
    cs = grid.coords
    vectors = {d - c for i, c in enumerate(cs) for d in cs[i + 1 : i + r + 1]}
    members = grid.coord_set
    return [(v, [c for c in cs if c + v in members]) for v in sorted(vectors)]


def _mtp(grid: _Grid, v: _Coord, origins: list[_Coord]) -> MTP:
    return MTP(grid.vector(v), grid.points(origins), _image(origins, v, grid.by_coord))


def sia(ps: PointSet) -> list[MTP]:
    """All maximal translatable patterns, one per positive inter-point vector.

    For each distinct vector v > (0, 0) (lexicographically) the pattern is
    {p : p + v in the set}.  Returns MTPs sorted by vector.  Fewer than two
    points yield an empty list.
    """
    grid = _Grid(ps)
    return [_mtp(grid, v, origins) for v, origins in _columns(grid)]


def siar(ps: PointSet, r: int) -> list[MTP]:
    """SIA restricted to vectors between each point and its next `r` successors.

    Every emitted MTP is still the full pattern over the whole set, so the
    result is a subset of :func:`sia`'s (vector, points) mapping; with
    r >= len(ps) - 1 the two coincide.
    """
    grid = _Grid(ps)
    return [_mtp(grid, v, origins) for v, origins in _columns(grid, r)]


# ---------------------------------------------------------------------------
# Run statistics


class DiscoveryStats:
    """What a SIATEC, COSIATEC or SIATECCompress call did, for its caller to read.

    `rounds` holds one entry per vector table: the points it was built on,
    its vectors, the distinct candidate shapes built and how many were
    `scored` (translators searched).  SIATEC builds and searches every shape;
    COSIATEC and SIATECCompress build and search only what their best-first
    walk (`_best_first`) reaches, and COSIATEC adds the TEC it took (`chosen`)
    and whether it compressed and so was emitted.  `seconds` holds each
    stage's wall time: the grid and vector table; the search, which in
    COSIATEC and SIATECCompress is the whole walk, every translator search
    included; the ranking, which groups the work for the walk (in COSIATEC,
    the columns by length; in SIATECCompress, every shape built, by size and
    last column); and building the emitted TECs (in COSIATEC, also removing
    their points).  Counts come from lengths at hand once per round, never
    per candidate.
    """

    def __init__(self):
        self.rounds: list[dict] = []
        self.seconds = dict.fromkeys(("table", "search", "rank", "emit"), 0.0)
        self._since = time.perf_counter()

    def lap(self, stage: str) -> None:
        """Charge the time since the previous lap to `stage`."""
        now = time.perf_counter()
        self.seconds[stage] += now - self._since
        self._since = now

    def add_round(
        self, grid: _Grid, table: _Table, shapes: set, scored: int, chosen: _Candidate | None = None
    ):
        entry: dict = {
            "points": len(grid.coords),
            "vectors": len(table),
            "shapes": len(shapes),
            "scored": scored,
        }
        if chosen is not None:
            size, count = len(chosen.shape), len(chosen.translators)
            entry["chosen"] = {
                "size": size,
                "translators": count,
                "ratio": str(Fraction(chosen.coverage, size + count - 1)),
                "compactness": str(Fraction(size, chosen.window)),
                "coverage": chosen.coverage,
                "emitted": chosen.compresses(),
            }
        self.rounds.append(entry)

    def to_json_dict(self) -> dict:
        return {"rounds": len(self.rounds), "per_round": self.rounds, "seconds": self.seconds}


def _started(stats: DiscoveryStats | None) -> DiscoveryStats:
    """The caller's stats, or a throwaway one, with its clock started now."""
    stats = DiscoveryStats() if stats is None else stats
    stats._since = time.perf_counter()
    return stats


# ---------------------------------------------------------------------------
# SIATEC


def _translators(shape: Sequence[_Coord], grid: _Grid, table: _Table) -> tuple[_Coord, ...]:
    """All u with shape + u inside the set, sorted; shape[0] is at the origin.

    u is a translator exactly when it is in `table[q]` for every other
    point q of the shape.  The sorted columns are intersected smallest
    first, testing u + q in the set for a set point u.  A 1-point shape
    fits at every point.
    """
    if len(shape) == 1:
        return tuple(grid.coords)
    first, *rest = sorted(shape[1:], key=lambda q: len(table[q]))
    coord_set = grid.coord_set
    out = []
    for u in table[first]:
        for q in rest:
            if u + q not in coord_set:
                break
        else:
            out.append(u)
    return tuple(out)


def siatec(ps: PointSet, stats: DiscoveryStats | None = None) -> list[TEC]:
    """Translational equivalence classes of SIA's patterns.

    Translationally equivalent MTPs share a shape, so they merge before the
    translator search.  The representative pattern is the lexicographically
    least occurrence, and each TEC's translators include the zero vector.
    Output is sorted by pattern (on the grid, by least translator and shape).
    `stats`, if given, records its one round.
    """
    stats = _started(stats)
    grid = _Grid(ps)
    table = _mtp_table(grid)
    stats.lap("table")
    shapes = {_shape(o) for o in table.values()}
    translators = {s: _translators(s, grid, table) for s in shapes}
    stats.lap("search")
    stats.add_round(grid, table, shapes, len(shapes))
    ordered = sorted(shapes, key=lambda s: (translators[s][0], s))
    tecs = [grid.tec(s, translators[s]) for s in ordered]
    stats.lap("emit")
    return tecs


def _shape(origins: Sequence[_Coord]) -> tuple[_Coord, ...]:
    """The sorted pattern translated so that its least point sits at the origin."""
    b = origins[0]
    return tuple([c - b for c in origins])


def _segments(
    coords: Sequence[_Coord], grid: _Grid, a: Fraction | int, b: int
) -> list[tuple[_Coord, ...]]:
    """Maximal left-to-right runs of the sorted set points `coords` with compactness >= a.

    A run takes the next point while ``(len + 1) * a.denominator >=
    a.numerator * window``, `window` counting the set points in the extended
    run's onset span (`_Grid.window`, inlined); a point that fails starts a
    new run.  Runs of at least `b` points are kept, a one-point run only if
    it passes the same test (other set points can share its onset).
    """
    num, den = a.numerator, a.denominator
    first, stop = grid.first, grid.stop
    out = []
    i, n = 0, len(coords)
    while i < n:  # the run is coords[i:j]
        lo, j = first[coords[i] >> 8], i + 1
        while j < n and (j - i + 1) * den >= num * (stop[coords[j] >> 8] - lo):
            j += 1
        if j - i >= b and (j - i > 1 or den >= num * (stop[coords[i] >> 8] - lo)):
            out.append(tuple(coords[i:j]))
        i = j
    return out


# ---------------------------------------------------------------------------
# Quality measures


def compactness(pattern: Sequence[Point], ps: PointSet) -> Fraction:
    """Pattern size over the number of set points whose onsets lie in its onset range."""
    pts = tuple(pattern)
    if not pts:
        raise ValueError("pattern must be nonempty")
    grid = _Grid(ps)
    cs = list(grid.on_grid(pts))
    return Fraction(len(pts), grid.window(cs[0] >> 8, cs[-1] >> 8))


def tec_quality(tec: TEC, ps: PointSet) -> TecQuality:
    coverage = len(tec.covered)
    return TecQuality(
        compression_ratio=Fraction(coverage, len(tec.pattern) + len(tec.translators) - 1),
        compactness=compactness(tec.pattern, ps),
        coverage=coverage,
    )


class _Candidate(NamedTuple):
    """A TEC on the grid: `shape` (at the origin) placed at each translator.

    Its compression ratio is coverage / (size + translators - 1) and its
    compactness size / window, `window` counting the set points in its span.
    """

    shape: tuple[_Coord, ...]
    translators: tuple[_Coord, ...]
    coverage: int
    window: int

    def compresses(self) -> bool:
        """Whether the compression ratio exceeds 1."""
        return self.coverage > len(self.shape) + len(self.translators) - 1


def _fit(shape: tuple[_Coord, ...], grid: _Grid, table: _Table, rest: int) -> _Candidate:
    """The shape's TEC before its cover: coverage stands at its bound min(s*T, rest).

    s*T counts the shape's s points at each of its T translators, `rest` the
    set's points; the cover (`_cover`) gives the exact coverage.
    """
    translators = _translators(shape, grid, table)
    least = translators[0]  # the least occurrence spans its first and last codes
    window = grid.window(least >> 8, (least + shape[-1]) >> 8)
    return _Candidate(shape, translators, min(len(shape) * len(translators), rest), window)


def _covered(c: _Candidate) -> tuple[_Candidate, set[_Coord]]:
    """A fitted candidate (`_fit`) at its exact coverage, and its cover."""
    cover = _cover(c.shape, c.translators)
    return _Candidate(c.shape, c.translators, len(cover), c.window), cover


# Ratio a/b is keyed a*m//b, m = 4n^2 for n points.  Exact: denominators are
# below 2n, so unequal ratios differ by > 1/m and their keys differ the same way.
_FIGURES: dict[str, Callable[[_Candidate, int], int]] = {
    "cr": lambda c, m: c.coverage * m // (len(c.shape) + len(c.translators) - 1),
    "comp": lambda c, m: len(c.shape) * m // c.window,
    "cov": lambda c, m: c.coverage,
    "size": lambda c, m: len(c.shape),
}

DEFAULT_ORDER = ("cr", "comp", "cov", "size")

# Upper bounds on a leading figure, from a shape's size s, the length t of
# a table column among its points (each column holds every translator), the
# remaining point count and m.  Coverage is at most s*t, and s*t/(s+t-1)
# never falls as t grows.  Capping the ratio's coverage at the point count
# would make it fall as t grows, and the bound fail.  None falls as s or t
# grows, so `_column_walk` queues the columns of k >= 2 origins, whose
# shapes have at least 2 points, at s = k, t = the longest column; a
# one-origin column's single point has every remaining point as a translator.  Once the
# exact translator count T is known, the leading figure of `_fit`'s
# candidate, at coverage min(s*T, rest), is the tighter bound: every figure
# is exact or rises with coverage.
_BOUNDS: dict[str, Callable[[int, int, int, int], int]] = {
    "cr": lambda s, t, rest, m: s * t * m // (s + t - 1),
    "cov": lambda s, t, rest, m: min(s * t, rest),
    "size": lambda s, t, rest, m: s,
}


def _figure(name: str) -> Callable[[_Candidate, int], int]:
    if name.startswith("comp>="):
        t = to_time(name[len("comp>=") :])
        # size / window >= t, cross-multiplied over positive denominators
        return lambda c, m: int(len(c.shape) * t.denominator >= t.numerator * c.window)
    try:
        return _FIGURES[name]
    except KeyError:
        raise ValueError(f"unknown quality key {name!r}") from None


def _rank_key(order: Sequence[str], n: int) -> Callable[[_Candidate], tuple]:
    """Sort key, best first, for candidates from a set of at most n points."""
    figures = [_figure(k) for k in order]
    figures += [_FIGURES[k] for k in DEFAULT_ORDER if k not in order]
    m = 4 * n * n

    def key(c: _Candidate) -> tuple:
        # descending quality, then ascending least occurrence: that
        # occurrence is shape + translators[0], so comparing (translators[0],
        # shape) orders candidates as comparing their patterns would
        return tuple(-f(c, m) for f in figures) + (c.translators[0], c.shape)

    return key


def _leading(
    order: Sequence[str], n: int
) -> tuple[Callable[[_Candidate], int], Callable[[int, int, int], float]]:
    """The leading figure under `_rank_key(order, n)`, as ``figure(c)``, and its
    `_BOUNDS` bound as ``bound(s, t, rest)``: infinite where compactness leads,
    which the table gives no bound."""
    name = (*order, *DEFAULT_ORDER)[0]
    f, b, m = _figure(name), _BOUNDS.get(name, lambda s, t, rest, m: math.inf), 4 * n * n
    return (lambda c: f(c, m)), (lambda s, t, rest: b(s, t, rest, m))


def _best_first(
    heap: list,
    grid: _Grid,
    table: _Table,
    key: Callable,
    leading: tuple,
    build: Callable | None = None,
) -> Iterator[tuple[_Candidate, set[_Coord], int]]:
    """The candidates `heap` leads to, least `key` first, each with its cover and the
    number of shapes whose translators were searched so far.

    The walk is exact branch and bound (Land & Doig 1960).  An entry is (-bound,
    level, item), the bound an exact upper bound on the leading figure
    (`_leading`) of every candidate the item leads to; at an equal bound lower
    levels pop first.  Level 0 is a group of table columns: `build` gives their
    shapes not built before, each queued at its bound, s its size and t its
    smallest table column, which holds every translator (the remaining points
    for a single point); under an infinite bound (compactness leads) they share
    the group's, and no column is looked up.  Level 1 is a group of shapes: each
    has its translators searched (`_fit`) and is queued at its leading figure
    with coverage at the bound min(s*T, rest), T their count, which is tighter:
    every figure is exact or rises with coverage.  Level 2 is a fitted
    candidate: its cover is built (`_covered`) and it is queued at its full key.
    Level 3 is a ranked candidate, and it is yielded.  A candidate reaches the
    head only once no entry left can lead to a better one, so the candidates
    come in the order of scoring every shape and sorting, yet a shape whose
    bound falls below the candidates taken is never searched, nor one whose
    fitted figure does covered.  `_column_walk` (COSIATEC) and `_shape_walk`
    (SIATECCompress) make the first entries.
    """
    figure, bound = leading
    rest = len(grid.coords)
    heapq.heapify(heap)
    scored, up = 0, None  # `up`: the entry just ranked, which may well stay at the head
    while heap or up:
        top, level, item = heapq.heappushpop(heap, up) if up else heapq.heappop(heap)
        up = None
        if level == 3:  # (key, cover, candidate)
            yield item[2], item[1], scored
        elif level == 2:  # a fitted candidate: build its cover
            c, cover = _covered(item)
            c_key = key(c)
            up = c_key[0], 3, (c_key, cover, c)
        elif level == 1:  # shapes: search their translators
            scored += len(item)
            for s in item:
                c = _fit(s, grid, table, rest)
                heapq.heappush(heap, (-figure(c), 2, c))
        elif top == -math.inf:  # table columns: their shapes share the unbounded entry
            heapq.heappush(heap, (top, 1, build(item)))
        else:  # table columns: each shape goes in at its smallest column's bound
            for s in build(item):
                t = min(map(len, map(table.__getitem__, s[1:])), default=rest)
                heapq.heappush(heap, (-bound(len(s), t, rest), 1, (s,)))


def _column_walk(grid: _Grid, table: _Table, key: Callable, leading: tuple) -> tuple[Iterator, set]:
    """A COSIATEC round's walk (`_best_first`), and the shapes it has built so far:
    its table columns' and their compact segments'.

    The columns of k origins share an entry at the `_BOUNDS` bound of s = k points
    and t = the longest column.  The one-origin columns all make one shape, a
    single point, so one of them stands for all, at t = the remaining points.
    """
    groups: dict[int, list[list[_Coord]]] = {}
    for origins in table.values():
        groups.setdefault(len(origins), []).append(origins)
    _, bound = leading
    rest, longest = len(grid.coords), max(groups)
    heap = [
        (-bound(k, longest if k > 1 else rest, rest), 0, cols if k > 1 else cols[:1])
        for k, cols in groups.items()
    ]
    built: set[tuple[_Coord, ...]] = set()

    def build(columns: list[list[_Coord]]) -> list[tuple[_Coord, ...]]:
        new = []
        for origins in columns:
            shapes = [_shape(origins)]
            if len(origins) > 2:  # a 2-point MTP's only segment is itself
                shapes += map(_shape, _segments(origins, grid, 1, 2))
            for s in shapes:
                if s not in built:
                    built.add(s)
                    new.append(s)
        return new

    return _best_first(heap, grid, table, key, leading, build), built


def _shape_walk(grid: _Grid, table: _Table, sort_key: str) -> tuple[Iterator, set]:
    """SIATECCompress's walk (`_best_first`) under `sort_key`, and its shapes: the MTPs'.

    The shapes of one size s and one last point, whose table column's length t
    bounds their translators (the point count for the single point), share an
    entry at the `_BOUNDS` bound of s and t.
    """
    n = len(grid.coords)
    shapes = {_shape(o) for o in table.values()}
    groups: dict[tuple[int, int], list] = {}
    for s in shapes:
        groups.setdefault((len(s), len(table[s[-1]]) if s[-1] else n), []).append(s)
    _, bound = leading = _leading((sort_key,), n)
    heap = [(-bound(k, t, n), 1, group) for (k, t), group in groups.items()]
    return _best_first(heap, grid, table, _rank_key((sort_key,), n), leading), shapes


def _residue_tec(points: tuple[Point, ...]) -> TEC:
    """The sorted `points` as one zero-translator TEC."""
    return TEC(occurrences=(points,), translators=(ZERO,))


def cosiatec(
    ps: PointSet, tie_break: Sequence[str] = DEFAULT_ORDER, stats: DiscoveryStats | None = None
) -> list[TEC]:
    """Cover the set by repeatedly taking the best TEC and removing its points.

    The candidates in each round are SIATEC's TECs of the remaining points
    plus the TECs of every MTP's compact segments: the compactness trawl
    at a = 1, b = 2 (`_segments`), so maximal runs of at least two points
    that hold every remaining note in their time span.  An MTP gathers every
    point that happens to repeat at its vector, so a planted occurrence
    can sit in it next to far-off strays (the "isolated membership"
    problem of Collins et al., SIACT, ISMIR 2010); its compact segments
    give the occurrence a TEC of its own.  Each round reads every
    candidate's translators off one vector table (`_translators`).

    A round takes the first candidate of its best-first walk over the
    table's columns (`_column_walk`).  So ratio- and size-led orderings
    build and search few shapes, coverage-led ones search few,
    compactness-led ones all.

    The best TEC maximizes the `tie_break` quality ordering (defaults to
    compression ratio, compactness, coverage, pattern size): each
    candidate's figures (`_Candidate`) are counted against the remaining
    points and compared in exact integer arithmetic.  Once no TEC
    compresses (best ratio <= 1) or fewer than two points remain, the
    residue is emitted as a single zero-translator TEC.  Covers partition
    the input exactly.  `stats`, if given, records each round and its
    chosen TEC.
    """
    key = _rank_key(tie_break, len(ps))
    leading = _leading(tie_break, len(ps))
    stats = _started(stats)
    grid = _Grid(ps)
    out = []
    while len(grid.coords) >= 2:
        table = _mtp_table(grid)
        stats.lap("table")
        walk, built = _column_walk(grid, table, key, leading)
        stats.lap("rank")
        best, cover, scored = next(walk)
        stats.lap("search")
        stats.add_round(grid, table, built, scored, best)
        if not best.compresses():
            break
        out.append(grid.tec(best.shape, best.translators))
        grid = grid.without(cover)
        stats.lap("emit")
    if grid.coords:
        out.append(_residue_tec(grid.points(grid.coords)))
    stats.lap("emit")
    return out


def siatec_compress(
    ps: PointSet, sort_key: str = "cr", stats: DiscoveryStats | None = None
) -> list[TEC]:
    """Greedy selection, best first, of SIATEC's TECs that add coverage.

    TECs are ranked exactly by `sort_key` (``cr``, ``comp`` or ``cov``; ties
    fall back to the full quality ordering) and accepted whenever they
    cover at least one not-yet-covered point.  Any uncovered residue is
    appended as a final zero-translator TEC.  Covers may overlap, but their
    union is the whole input.

    TECs are taken from a best-first walk over the MTP shapes
    (`_shape_walk`) until every point is covered.  `stats`, if given,
    records the round, ``scored`` counting the translator searches.
    """
    if sort_key not in ("cr", "comp", "cov"):
        raise ValueError(f"sort_key must be one of cr|comp|cov, got {sort_key!r}")
    stats = _started(stats)
    grid = _Grid(ps)
    table = _mtp_table(grid)
    stats.lap("table")
    n = len(grid.coords)
    walk, shapes = _shape_walk(grid, table, sort_key)
    stats.lap("rank")
    covered: set[_Coord] = set()
    chosen, scored = [], 0
    for c, cover, scored in walk:
        if not cover <= covered:
            chosen.append(c)
            covered |= cover
            if len(covered) == n:
                break
    stats.lap("search")
    stats.add_round(grid, table, shapes, scored)
    out = [grid.tec(c.shape, c.translators) for c in chosen]
    rest = [c for c in grid.coords if c not in covered]
    if rest:
        out.append(_residue_tec(grid.points(rest)))
    stats.lap("emit")
    return out


# ---------------------------------------------------------------------------
# SIARCT: SIA's patterns through the compactness trawler


def _trawled(ps: PointSet, a: int | Fraction, b: int) -> tuple[_Grid, list]:
    """SIARCT on the grid: the grid, and its sorted, distinct (vector, segment) pairs.

    Each MTP of the vector table is split into its compact segments (`_segments`).
    """
    if not 0 < a <= 1:
        raise ValueError("compactness threshold must be in (0, 1]")
    if b < 1:
        raise ValueError("minimum segment size must be >= 1")
    grid = _Grid(ps)
    # grid order is the exact order: onsets scale by one positive factor
    found = {(v, s) for v, origins in _columns(grid) for s in _segments(origins, grid, a, b)}
    return grid, sorted(found)


# ---------------------------------------------------------------------------
# Record serialization and the algorithm-spec grammar


def _records(algorithm_id: str, prefix: str, found: Iterable) -> list[PatternRecord]:
    """One record per pattern in `found`, given as its occurrences; ids `<prefix>-0000` on."""
    return [
        PatternRecord(algorithm_id, f"{prefix}-{i:04d}", tuple(map(PatternOccurrence, occs)))
        for i, occs in enumerate(found)
    ]


def mtps_to_records(mtps: Sequence[MTP], algorithm_id: str) -> list[PatternRecord]:
    """Each MTP becomes a record with the pattern and its vector image."""
    return _records(algorithm_id, "mtp", ((m.points, m.translated) for m in mtps))


def tecs_to_records(tecs: Sequence[TEC], algorithm_id: str) -> list[PatternRecord]:
    """Each TEC becomes a record with its occurrences."""
    return _records(algorithm_id, "tec", (t.occurrences for t in tecs))


def run_algorithm(
    spec: str, ps: PointSet, stats: DiscoveryStats | None = None
) -> list[PatternRecord]:
    """Run an algorithm given its id string.

    Grammar: ``sia`` | ``siatec`` | ``cosiatec[:<key>,<key>...]``
    | ``siatec-compress:<key>`` | ``siar:<r>`` | ``siarct:<a>,<b>``.
    ``cosiatec``'s keys are its `tie_break` ordering, e.g. ``cosiatec:comp,size``.
    `stats` is filled by ``siatec``, ``cosiatec`` and ``siatec-compress``;
    the other algorithms refuse it.  `_records` builds every record; a ``siarct``
    segment's image comes from the grid it was trawled on (`_trawled`).
    """
    name, colon, arg = spec.partition(":")
    try:
        if colon and name in ("sia", "siatec"):
            raise ValueError(f"{name} takes no argument")
        if stats is not None and name in ("sia", "siar", "siarct"):
            raise ValueError(f"{name} gathers no stats")
        if name == "sia":
            return mtps_to_records(sia(ps), spec)
        if name == "siar":
            return mtps_to_records(siar(ps, int(arg)), spec)
        if name == "siatec":
            return tecs_to_records(siatec(ps, stats), spec)
        if name == "cosiatec":
            order = tuple(arg.split(",")) if arg else DEFAULT_ORDER
            return tecs_to_records(cosiatec(ps, order, stats), spec)
        if name == "siatec-compress":
            return tecs_to_records(siatec_compress(ps, arg or "cr", stats), spec)
        if name == "siarct":
            a_s, _, b_s = arg.partition(",")
            grid, found = _trawled(ps, to_time(a_s), int(b_s))
            images = ((grid.points(seg), _image(seg, v, grid.by_coord)) for v, seg in found)
            return _records(spec, "seg", images)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid algorithm spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown algorithm {spec!r}")
