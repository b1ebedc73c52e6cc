"""Brute-force reference implementations the library tests check against.

These stay deliberately naive and independent of the library's code paths:
plain set arithmetic over (onset, pitch) tuples and exhaustive searches.
The exceptions, `exhaustive_cosiatec` and `exhaustive_siatec_compress`,
share the library's candidates and scores (`score`) and differ only in how
they find the best candidates, scoring every shape, so that pieces too large
for the brute-force oracles can still be checked.  With the exact bounds,
their rounds (`exhaustive_rounds`) and walk (`exhaustive_walk`) give the
shapes a best-first search must build and score: `built_shapes` and
`bounded_shapes` for COSIATEC, `walk_scored` for SIATECCompress.
`_Tree` is a naive CART that sorts each drawn feature at every node, one
tree at a time, under the forest's draw rule; the forest, which grows all
its trees together one depth at a time, must grow the same trees.
`occurrence_recovery` is the library's earlier scorer, which rebuilds a
discovered occurrence's coordinates for every planted occurrence it meets.
`load_pattern_file` is the library's earlier interchange loader, which
parses every time field (with `to_time`, the library's earlier parser,
which sends every string through `Fraction`'s) and builds every point row
anew.  `dump_pattern_json` is the library's earlier interchange
emitter, which builds the document and hands it to `json.dumps` with an
indent; the library writes that layout directly.  `quantize` is the
library's earlier grid snapper, which `truth_boundaries`' half-down
rounding must agree with.  `tec_occurrences` is the library's earlier
occurrence rule, on exact (onset, pitch) pairs; discovery now builds each
occurrence on its integer grid.  `reference_cross_validate` is the library's
earlier cross-validation, on string labels: it balances and stratifies by
scanning the labels for each class in sorted order, counts confusions one
prediction at a time, and trains the earlier per-class `ReferenceNaiveBayes`
and `ReferenceLda` (and the library's forest, on the string labels).
"""

import json
import math
import random
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Sequence

import numpy as np

from motifkit import discovery, evaluation, polling
from motifkit.analysis import ClassifierCvResult, CvReport, fit_scaler_pca
from motifkit.classifiers import train_classifier
from motifkit.core import (
    ParseError,
    PatternOccurrence,
    PatternRecord,
    Point,
    PointSet,
    SchemaError,
    format_time,
    nearest_index,
    subseed,
)
from motifkit.evaluation import PlantedResult, RecoveryReport


def brute_mtps(coords):
    """{vector: frozenset(origins)} over all positive difference vectors."""
    pts = sorted(coords)
    pset = set(pts)
    table = {}
    for a, b in combinations(pts, 2):
        v = (b[0] - a[0], b[1] - a[1])
        table.setdefault(v, set())
    for v in table:
        table[v] = frozenset(p for p in pts if (p[0] + v[0], p[1] + v[1]) in pset)
    return {v: s for v, s in table.items()}


def brute_translators(shape, coords):
    """All u with shape + u inside coords; shape need not touch the origin."""
    pset = set(coords)
    base = min(shape)
    rel = [(q[0] - base[0], q[1] - base[1]) for q in shape]
    out = set()
    for d in pset:
        u = (d[0] - base[0] - 0, d[1] - base[1] - 0)
        if all((base[0] + r[0] + u[0], base[1] + r[1] + u[1]) in pset for r in rel):
            out.add(u)
    return out


def brute_max_matching(predicted, truth, tolerance):
    """Maximum one-to-one matching size by exhaustive recursion, memoised on (i, used)."""

    @cache
    def recurse(i, used):
        if i == len(predicted):
            return 0
        best = recurse(i + 1, used)
        for j, t in enumerate(truth):
            if j not in used and abs(predicted[i] - t) <= tolerance:
                best = max(best, 1 + recurse(i + 1, used | {j}))
        return best

    return recurse(0, frozenset())


def float_savgol(values, window, order):
    """Savitzky-Golay smoothing via numpy float least squares.

    Each output is the least-squares polynomial through the given samples
    within `window // 2` positions of it, evaluated at its position.  Near
    either end that window holds fewer samples on one side, and the degree
    drops below `order` when it holds too few to fit it.  Padded with
    `window` copies of each end value, every original position has its
    full centred window.
    """
    import numpy as np

    values = [float(v) for v in values]
    n = len(values)
    half = window // 2
    out = []
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n - 1, i + half)
        xs = np.arange(lo - i, hi - i + 1, dtype=float)
        ys = np.array(values[lo : hi + 1])
        deg = min(order, len(xs) - 1)
        design = np.vander(xs, deg + 1, increasing=True)
        beta, *_ = np.linalg.lstsq(design, ys, rcond=None)
        out.append(beta[0])
    return out


def _brute_solve(a, rhs):
    """Gauss-Jordan solve A X = B over Fractions."""
    k = len(a)
    m = [row_a + row_b for row_a, row_b in zip(a, rhs)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(k):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[k:] for row in m]


def brute_savgol(values, window, order, outputs=None):
    """Savitzky-Golay smoothing with one exact least-squares solve per output.

    The outputs of `float_savgol`, in Fractions: every window, near an end
    or not, constant or not, builds its design and normal equations from
    the given samples it holds and solves them for the fitted polynomial's
    value at the output position.  `outputs`, a range of positions
    (default all), names the outputs to solve for.
    """
    values = [Fraction(v) for v in values]
    n = len(values)
    half = window // 2
    out = []
    for i in range(n) if outputs is None else outputs:
        lo = max(0, i - half)
        hi = min(n - 1, i + half)
        xs = range(lo - i, hi - i + 1)
        k = min(order, len(xs) - 1) + 1
        design = [[Fraction(x**e) for e in range(k)] for x in xs]
        normal = [[sum(row[r] * row[c] for row in design) for c in range(k)] for r in range(k)]
        rhs = [[sum(row[r] * y for row, y in zip(design, values[lo : hi + 1]))] for r in range(k)]
        out.append(_brute_solve(normal, rhs)[0][0])
    return out


def _brute_crossings(f):
    """Zero crossings of exact values as (index, steepness) pairs.

    A sign flip between neighbours sits at the smaller magnitude (the later
    index on ties) with steepness |b - a|; a run of zeros between opposite
    signs sits at its center, rounded later, with steepness the change over
    the index span.
    """
    out = []
    i = 0
    while i < len(f) - 1:
        a, b = f[i], f[i + 1]
        if a != 0 and b != 0 and (a < 0) != (b < 0):
            out.append((i if abs(a) < abs(b) else i + 1, abs(b - a)))
            i += 1
        elif b == 0 and a != 0:
            j = i + 1
            while j < len(f) and f[j] == 0:
                j += 1
            if j < len(f) and (a < 0) != (f[j] < 0):
                out.append(((i + j) // 2 + (i + j) % 2, abs(f[j] - a) / (j - i)))
            i = j
        else:
            i += 1
    return out


def brute_boundary_trace(values, window, order, lam=0, use_first=True, use_second=True):
    """Boundary extraction as one all-Fraction pipeline.

    Pads the curve with `window` copies of each edge value, smooths it with
    `brute_savgol`, differences it twice, takes the crossings of both
    differences (mapped to curve indices and clipped to [0, n]), sorts them
    by (index, steepness, derivative), then drops unused derivatives and
    crossings below `lam` and merges the rest within one grid step, keeping
    the steeper.  Returns (smoothed, p1, p2, crossings, boundaries); each
    crossing is (index, steepness, derivative, fate, merged_into).
    """
    values = [Fraction(v) for v in values]
    n = len(values)
    smoothed = brute_savgol([values[0]] * window + values + [values[-1]] * window, window, order)
    p1 = [b - a for a, b in zip(smoothed, smoothed[1:])]
    p2 = [b - a for a, b in zip(p1, p1[1:])]
    found = sorted(
        [(min(max(pos - window, 0), n), steep, 1) for pos, steep in _brute_crossings(p1)]
        + [(min(max(pos + 1 - window, 0), n), steep, 2) for pos, steep in _brute_crossings(p2)]
    )
    use = {1: use_first, 2: use_second}
    fates = []
    groups = []  # [position of the kept crossing, positions of all members]
    for k, (idx, steep, d) in enumerate(found):
        if not use[d]:
            fates.append("derivative_off")
            continue
        if steep < lam:
            fates.append("below_lambda")
            continue
        fates.append(None)
        if groups and idx - found[groups[-1][0]][0] <= 1:
            groups[-1][1].append(k)
            if steep > found[groups[-1][0]][1]:
                groups[-1][0] = k
        else:
            groups.append([k, [k]])
    into = {}
    for kept, members in groups:
        for k in members:
            into[k] = None if k == kept else found[kept][0]
    crossings = [
        (idx, steep, d, fates[k] or ("kept" if into[k] is None else "merged"), into.get(k))
        for k, (idx, steep, d) in enumerate(found)
    ]
    return smoothed, p1, p2, crossings, tuple(found[kept][0] for kept, _ in groups)


def brute_polling_curve(records, weights, resolution, piece_span, normalize=False):
    """Per grid cell, the sum of the weights of the occurrences covering it."""
    wmap = {rec.algorithm_id: Fraction(weights.get(rec.algorithm_id, 1)) for rec in records}
    values = [Fraction(0)] * len(brute_presence(piece_span, piece_span, resolution))
    for rec in records:
        for occ in rec.occurrences:
            for k, hit in enumerate(brute_presence(occ.span, piece_span, resolution)):
                values[k] += hit * wmap[rec.algorithm_id]
    total = sum(wmap.values(), Fraction(0))
    if normalize and total > 0:
        values = [v / total for v in values]
    return values


def brute_train_pp(pieces, grid, objective="f1", k_folds=3, tolerance=1,
                   resolution=Fraction(1), seed=0):
    """`polling.train_pp` as a plain loop: extract and score every candidate on every piece.

    It calls the library's `extract_boundaries`, whose smoothing the tests
    check against `brute_savgol`, so it checks how `train_pp` shares that
    work across candidates.
    """
    order = list(range(len(pieces)))
    random.Random(seed).shuffle(order)
    folds = [order[f::k_folds] for f in range(k_folds)]
    curves = [polling.polling_curve(records, resolution=resolution) for records, _ in pieces]
    best = None
    for params in grid:
        fold_scores = []
        for fold in folds:
            total = Fraction(0)
            for i in fold:
                predicted = polling.extract_boundaries(curves[i], params)
                prf = evaluation.boundary_prf(predicted, pieces[i][1], tolerance)
                total += getattr(prf, objective)
            fold_scores.append(total / len(fold))
        mean = sum(fold_scores, Fraction(0)) / len(fold_scores)
        rank = (-mean, params.window, params.lam, params.order)
        if best is None or rank < best[0]:
            best = (rank, params)
    return best[1]


def brute_compactness(pattern, points):
    """Pattern size over the set points in its onset range."""
    lo, hi = min(p.onset for p in pattern), max(p.onset for p in pattern)
    return Fraction(len(pattern), sum(1 for q in points if lo <= q.onset <= hi))


def brute_trawl(pattern, points, a, b):
    """Left-to-right segments of compactness >= a and >= b points, on exact onsets."""
    out, segment = [], []

    def close():
        if len(segment) >= b and brute_compactness(segment, points) >= a:
            out.append(tuple(segment))

    for p in sorted(pattern):
        if not segment or brute_compactness(segment + [p], points) >= a:
            segment = segment + [p]
        else:
            close()
            segment = [p]
    if segment:
        close()
    return out


def occurrence_recovery(
    discovered: Sequence[PatternRecord],
    planted: Sequence[PatternOccurrence],
    jaccard_threshold: Fraction = Fraction(4, 5),
) -> RecoveryReport:
    """Score discovered patterns against planted ground-truth occurrences.

    Jaccard overlap is computed on (onset, pitch) coordinate sets.  A
    planted occurrence is recovered when any discovered occurrence reaches
    the threshold; a discovered pattern is spurious when all of its
    occurrences have zero overlap with every planted occurrence.
    """
    if not 0 < jaccard_threshold <= 1:
        raise ValueError("jaccard threshold must be in (0, 1]")
    planted_sets = [occ.coords() for occ in planted]
    results = []
    for idx, pset in enumerate(planted_sets):
        best = Fraction(0)
        for rec in discovered:
            for occ in rec.occurrences:
                oset = occ.coords()
                inter = len(pset & oset)
                if inter:
                    j = Fraction(inter, len(pset | oset))
                    if j > best:
                        best = j
        results.append(
            PlantedResult(index=idx, best_jaccard=best, recovered=best >= jaccard_threshold)
        )
    spurious = 0
    for rec in discovered:
        overlap = any(
            occ.coords() & pset for occ in rec.occurrences for pset in planted_sets
        )
        if not overlap:
            spurious += 1
    return RecoveryReport(planted=tuple(results), spurious_patterns=spurious)


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
    # shortened as `check_shape` shortens the values it rejects
    raise ParseError(f"expected a number or rational string, got {reprlib.repr(value)}")


def _time_field(value, path: str) -> Fraction:
    try:
        return to_time(value)
    except ParseError as exc:
        raise SchemaError(path, str(exc)) from exc


def _occurrence_from_json(obj, path: str) -> PatternOccurrence:
    if not isinstance(obj, dict):
        raise SchemaError(path, "occurrence must be an object")
    pts_json = obj.get("points")
    if not isinstance(pts_json, list) or not pts_json:
        raise SchemaError(f"{path}.points", "must be a nonempty array")
    points = []
    for i, row in enumerate(pts_json):
        ppath = f"{path}.points[{i}]"
        if not isinstance(row, list) or len(row) != 3:
            raise SchemaError(ppath, "point must be [onset, pitch, duration]")
        onset = _time_field(row[0], f"{ppath}[0]")
        if isinstance(row[1], bool) or not isinstance(row[1], int):
            raise SchemaError(f"{ppath}[1]", "pitch must be an integer")
        duration = _time_field(row[2], f"{ppath}[2]")
        try:
            points.append(Point(onset, row[1], duration))
        except ValueError as exc:
            raise SchemaError(ppath, str(exc)) from exc
    occ = PatternOccurrence(tuple(points))
    if "span" in obj:
        span_json = obj["span"]
        if not isinstance(span_json, list) or len(span_json) != 2:
            raise SchemaError(f"{path}.span", "span must be [start, end]")
        start = _time_field(span_json[0], f"{path}.span[0]")
        end = _time_field(span_json[1], f"{path}.span[1]")
        if (start, end) != occ.span:
            raise SchemaError(
                f"{path}.span",
                f"inconsistent with points: stated [{start}, {end}), "
                f"computed [{occ.span[0]}, {occ.span[1]})",
            )
    return occ


def load_pattern_file(text: str) -> tuple[str, list[PatternRecord]]:
    """Parse an interchange JSON document; returns (piece id, records)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
    records = []
    for i, pat in enumerate(patterns):
        path = f"$.patterns[{i}]"
        if not isinstance(pat, dict):
            raise SchemaError(path, "pattern must be an object")
        pid = pat.get("id")
        if not isinstance(pid, str):
            raise SchemaError(f"{path}.id", "must be a string")
        occs_json = pat.get("occurrences")
        if not isinstance(occs_json, list) or not occs_json:
            raise SchemaError(f"{path}.occurrences", "must be a nonempty array")
        occs = [
            _occurrence_from_json(o, f"{path}.occurrences[{j}]")
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


def quantize(ps: PointSet, grid: Fraction) -> PointSet:
    """Snap every onset to the nearest grid multiple, merging duplicates."""
    if grid <= 0:
        raise ValueError("grid must be > 0")
    return PointSet.build(
        (Point(nearest_index(p.onset / grid) * grid, p.pitch, p.duration) for p in ps.points),
        title=ps.title,
    )


def brute_jaccard(a, b):
    a, b = set(a), set(b)
    union = len(a | b)
    return Fraction(len(a & b), union) if union else Fraction(0)


# ---------------------------------------------------------------------------
# TEC covers ranked on exact (onset, pitch) coordinates

_DEFAULT_ORDER = ("cr", "comp", "cov", "size")


def _brute_tec(points, coords):
    """(pattern, translators, covered) of a point set, least occurrence first."""
    vectors = sorted(brute_translators(points, coords))
    least = vectors[0]
    pattern = tuple(sorted((p[0] + least[0], p[1] + least[1]) for p in points))
    translators = tuple((u[0] - least[0], u[1] - least[1]) for u in vectors)
    covered = tuple(sorted({(p[0] + u[0], p[1] + u[1]) for p in pattern for u in translators}))
    return pattern, translators, covered


def tec_occurrences(tec, ps):
    """A TEC's pattern at each of its translators, as the piece's notes there.

    The notes are found by exact (onset, pitch) lookups in the whole piece,
    not in the TEC, so the reference does not rest on what it checks.
    """
    notes = {p.coord: p for p in ps.points}
    coords = [p.coord for p in tec.pattern]
    return [tuple(notes[(c[0] + u.dt, c[1] + u.dp)] for c in coords) for u in tec.translators]


def _brute_quality(tec, coords):
    """The figures `tec_quality` gives a TEC, counted by scanning every point."""
    pattern, translators, covered = tec
    lo, hi = pattern[0][0], max(p[0] for p in pattern)
    inside = sum(1 for c in coords if lo <= c[0] <= hi)
    return {
        "cr": Fraction(len(covered), len(pattern) + len(translators) - 1),
        "comp": Fraction(len(pattern), inside),
        "cov": len(covered),
        "size": len(pattern),
    }


def _brute_rank_key(order, coords):
    names = list(order) + [k for k in _DEFAULT_ORDER if k not in order]

    def value(q, name):
        if name.startswith("comp>="):
            return int(q["comp"] >= Fraction(name[len("comp>="):]))
        return q[name]

    def key(tec):
        q = _brute_quality(tec, coords)
        return tuple(-value(q, n) for n in names) + (tec[0],)

    return key


def _brute_segments(origins, coords):
    """Left-to-right maximal runs of >= 2 origins holding every point in their span."""
    out, segment = [], []
    for c in sorted(origins):
        if segment:
            inside = sum(1 for d in coords if segment[0][0] <= d[0] <= c[0])
            if inside == len(segment) + 1:
                segment.append(c)
                continue
        if len(segment) >= 2:
            out.append(segment)
        segment = [c]
    if len(segment) >= 2:
        out.append(segment)
    return out


def _brute_candidates(coords, segments):
    """One TEC per distinct shape among the MTPs (and their compact segments)."""
    groups = list(brute_mtps(coords).values())
    if segments:
        groups += [seg for g in list(groups) for seg in _brute_segments(g, coords)]
    by_shape = {}
    for g in groups:
        base = min(g)
        shape = tuple(sorted((p[0] - base[0], p[1] - base[1]) for p in g))
        by_shape.setdefault(shape, g)
    return [_brute_tec(g, coords) for g in by_shape.values()]


def _residue(coords):
    pts = tuple(sorted(coords))
    return pts, ((0, 0),), pts


def brute_cosiatec(coords, order=_DEFAULT_ORDER):
    """COSIATEC as (pattern, translators, covered) coordinate triples."""
    remaining = sorted(coords)
    out = []
    while len(remaining) >= 2:
        best = min(_brute_candidates(remaining, True), key=_brute_rank_key(order, remaining))
        if _brute_quality(best, remaining)["cr"] <= 1:
            break
        out.append(best)
        remaining = [c for c in remaining if c not in best[2]]
    if remaining:
        out.append(_residue(remaining))
    return out


def grid_shapes(grid, table):
    """Every shape COSIATEC ranks: SIATEC's, and those of every compact segment."""
    shapes = set()
    for origins in table.values():
        shapes.add(discovery._shape(origins))
        shapes.update(discovery._shape(seg) for seg in discovery._segments(origins, grid, 1, 2))
    return shapes


def score(shape, grid, table):
    """The shape's candidate at its exact coverage: translators, window and cover."""
    return discovery._covered(discovery._fit(shape, grid, table, len(grid.coords)))[0]


def exhaustive_rounds(ps, order=discovery.DEFAULT_ORDER):
    """Each COSIATEC round scoring every candidate shape: (grid, table, least-keyed candidate).

    The last round's candidate may not compress; the next round would start
    on the grid without its cover.
    """
    key = discovery._rank_key(order, len(ps))
    grid = discovery._Grid(ps)
    while len(grid.coords) >= 2:
        table = discovery._mtp_table(grid)
        best = min((score(s, grid, table) for s in grid_shapes(grid, table)), key=key)
        yield grid, table, best
        if not best.compresses():
            return
        grid = grid.without(discovery._cover(best.shape, best.translators))


def exhaustive_cosiatec(ps, order=discovery.DEFAULT_ORDER):
    """COSIATEC whose rounds score every candidate shape and take the least key."""
    out, gone = [], set()
    for grid, _, best in exhaustive_rounds(ps, order):
        if best.compresses():
            out.append(grid.tec(best.shape, best.translators))
            gone |= discovery._cover(best.shape, best.translators)
    rest = discovery._Grid(ps).without(gone)
    if rest.coords:
        out.append(discovery._residue_tec(rest.points(rest.coords)))
    return out


def _lead(order):
    return (*order, *_DEFAULT_ORDER)[0]


def leading_figure(candidate, order):
    """The candidate's exact leading figure under `order`; compactness-led orders need none."""
    size, count = len(candidate.shape), len(candidate.translators)
    return {
        "cr": Fraction(candidate.coverage, size + count - 1),
        "cov": candidate.coverage,
        "size": size,
    }.get(_lead(order))


def _exact_bound(order, s, t, rest):
    """The bound on the leading figure of s points with t translators at most, of `rest`.

    Coverage is at most s*t and the remaining points; the ratio at most
    s*t/(s+t-1).  Compactness has no bound: None.
    """
    return {
        "cr": Fraction(s * t, s + t - 1),
        "cov": min(s * t, rest),
        "size": s,
    }.get(_lead(order))


def built_shapes(grid, table, order, figure):
    """The distinct shapes and compact segments of every column whose size bound reaches `figure`.

    A column of k origins yields shapes of at most k points.  For k >= 2 they
    have at least 2 points, so no more translators than the longest column
    holds; a single point has the `rest` remaining points as translators.  So
    the bound is taken at s = k, t = the longest column (`rest` for k = 1).
    """
    rest = len(grid.coords)
    longest = max(map(len, table.values()), default=0)
    shapes = set()
    for origins in table.values():
        bound = _exact_bound(order, len(origins), longest if len(origins) > 1 else rest, rest)
        if bound is None or bound >= figure:
            shapes.add(discovery._shape(origins))
            shapes.update(discovery._shape(seg) for seg in discovery._segments(origins, grid, 1, 2))
    return shapes


def bounded_shapes(grid, table, order, figure):
    """The `grid_shapes` whose exact bound reaches `figure`, t being their smallest column."""
    rest = len(grid.coords)
    out = set()
    for shape in grid_shapes(grid, table):
        t = min((len(table[q]) for q in shape[1:]), default=rest)
        bound = _exact_bound(order, len(shape), t, rest)
        if bound is None or bound >= figure:
            out.add(shape)
    return out


def exhaustive_walk(ps, sort_key="cr"):
    """SIATECCompress scoring every MTP shape, sorted best first by `_rank_key`:
    (grid, table, the candidates it walks until every point is covered)."""
    grid = discovery._Grid(ps)
    table = discovery._mtp_table(grid)
    shapes = {discovery._shape(o) for o in table.values()}
    ranked = sorted(
        (score(s, grid, table) for s in shapes), key=discovery._rank_key((sort_key,), len(ps))
    )
    covered, walked = set(), []
    for c in ranked:
        if len(covered) == len(grid.coords):
            break
        walked.append(c)
        covered |= discovery._cover(c.shape, c.translators)
    return grid, table, walked


def exhaustive_siatec_compress(ps, sort_key="cr"):
    """SIATECCompress that scores every shape, sorts, then walks (`exhaustive_walk`)."""
    grid, _, walked = exhaustive_walk(ps, sort_key)
    out, covered = [], set()
    for c in walked:
        cover = discovery._cover(c.shape, c.translators)
        if not cover <= covered:
            out.append(grid.tec(c.shape, c.translators))
            covered |= cover
    rest = [c for c in grid.coords if c not in covered]
    if rest:
        out.append(discovery._residue_tec(grid.points(rest)))
    return out


def walk_scored(ps, sort_key="cr"):
    """The shapes whose translators SIATECCompress searches: those whose first bound,
    t the column of their last point (every point for a single one), reaches the
    leading figure of the TEC the exhaustive walk completes its cover with."""
    grid, table, walked = exhaustive_walk(ps, sort_key)
    rest = len(grid.coords)
    figure = leading_figure(walked[-1], (sort_key,))
    out = set()
    for shape in {discovery._shape(o) for o in table.values()}:
        t = len(table[shape[-1]]) if len(shape) > 1 else rest
        bound = _exact_bound((sort_key,), len(shape), t, rest)
        if bound is None or bound >= figure:
            out.add(shape)
    return out


def brute_siatec_compress(coords, sort_key="cr"):
    """SIATECCompress as (pattern, translators, covered) coordinate triples."""
    coords = sorted(coords)
    if len(coords) < 2:
        return [_residue(coords)] if coords else []
    ranked = sorted(_brute_candidates(coords, False), key=_brute_rank_key((sort_key,), coords))
    covered, out = set(), []
    for tec in ranked:
        if set(tec[2]) - covered:
            out.append(tec)
            covered |= set(tec[2])
    rest = [c for c in coords if c not in covered]
    if rest:
        out.append(_residue(rest))
    return out


def brute_presence(span, piece_span, resolution):
    """1 where s <= origin + k * resolution < e, for every grid point before the end."""
    (s, e), (origin, end) = span, piece_span
    row = []
    t = origin
    while t < end:
        row.append(1 if s <= t < e else 0)
        t += resolution
    return row


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    prediction: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


class _Tree:
    """CART with the Gini criterion and per-node feature subsampling, grown one depth at a time.

    `rng` is the tree's own stream.  `fit` draws the bootstrap rows from it
    first, then, at each depth, one `random((nodes, d))` block for the nodes
    that split (at least 2 rows, impure) in level order; a node tries the
    first `max_features` columns of its row's stable argsort, sorting each
    feature's values at the node.  Importances add up in level order.
    """

    def __init__(self, n_classes: int, max_features: int, rng: np.random.Generator):
        self.n_classes = n_classes
        self.max_features = max_features
        self.rng = rng
        self.root: _Node | None = None
        self.importances: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_Tree":
        sample = self.rng.integers(0, len(y), size=len(y))
        X, y = X[sample], y[sample]
        self.n_total = len(y)
        self.importances = np.zeros(X.shape[1])
        self.root = _Node()
        level = [(self.root, np.arange(len(y)))]
        while level:
            splitting = []
            for node, idx in level:
                counts = np.bincount(y[idx], minlength=self.n_classes)
                node.prediction = int(np.argmax(counts))
                if idx.size >= 2 and _gini(counts) != 0.0:
                    splitting.append((node, idx))
            if not splitting:
                break
            draws = np.argsort(self.rng.random((len(splitting), X.shape[1])), axis=1, kind="stable")
            level = []
            for (node, idx), draw in zip(splitting, draws):
                level += self._split(X, y, node, idx, draw[: self.max_features])
        return self

    def _split(self, X, y, node: _Node, idx: np.ndarray, features) -> list:
        """Split `node` on its best threshold: its children and their rows, or none."""
        counts = np.bincount(y[idx], minlength=self.n_classes)
        node_gini = _gini(counts)
        best = None  # (weighted_gini, feature, threshold)
        for f in features:
            values = X[idx, f]
            order = np.argsort(values, kind="stable")
            sv = values[order]
            sy = y[idx][order]
            distinct = np.nonzero(sv[:-1] < sv[1:])[0]
            if distinct.size == 0:
                continue
            onehot = np.zeros((idx.size, self.n_classes))
            onehot[np.arange(idx.size), sy] = 1.0
            left_counts = np.cumsum(onehot, axis=0)[distinct]
            nl = distinct + 1.0
            nr = idx.size - nl
            right_counts = counts - left_counts
            gl = 1.0 - np.sum((left_counts / nl[:, None]) ** 2, axis=1)
            gr = 1.0 - np.sum((right_counts / nr[:, None]) ** 2, axis=1)
            weighted = (nl * gl + nr * gr) / idx.size
            k = int(np.argmin(weighted))
            if best is None or weighted[k] < best[0]:
                lo, hi = sv[distinct[k]], sv[distinct[k] + 1]
                threshold = (lo + hi) / 2.0 if (lo + hi) / 2.0 < hi else lo
                best = (float(weighted[k]), int(f), float(threshold))
        if best is None:
            return []
        weighted_gini, f, threshold = best
        mask = X[idx, f] <= threshold
        self.importances[f] += (idx.size / self.n_total) * (node_gini - weighted_gini)
        node.feature, node.threshold = f, threshold
        node.left, node.right = _Node(), _Node()
        return [(node.left, idx[mask]), (node.right, idx[~mask])]

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X), dtype=int)
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out


class ReferenceNaiveBayes:
    """Gaussian naive Bayes fit and scored one class at a time."""

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        k = len(self.classes_)
        self._mean = np.empty((k, X.shape[1]))
        self._var = np.empty((k, X.shape[1]))
        counts = np.empty(k)
        for c, label in enumerate(self.classes_):
            rows = X[y == label]
            counts[c] = len(rows)
            self._mean[c] = rows.mean(axis=0)
            self._var[c] = rows.var(axis=0) + 1e-9
        self._log_prior = np.log((counts + 1) / (counts.sum() + k))
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        scores = np.empty((len(X), len(self.classes_)))
        for c in range(len(self.classes_)):
            ll = -0.5 * (np.log(2 * np.pi * self._var[c]) + (X - self._mean[c]) ** 2 / self._var[c])
            scores[:, c] = self._log_prior[c] + ll.sum(axis=1)
        return self.classes_[np.argmax(scores, axis=1)]


class ReferenceLda:
    """Pooled-covariance LDA, its covariance summed one class at a time."""

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        k = len(self.classes_)
        n, d = X.shape
        means = np.empty((k, d))
        pooled = np.zeros((d, d))
        counts = np.empty(k)
        for c, label in enumerate(self.classes_):
            rows = X[y == label]
            counts[c] = len(rows)
            means[c] = rows.mean(axis=0)
            centered = rows - means[c]
            pooled += centered.T @ centered
        pooled /= max(n - k, 1)
        if np.linalg.matrix_rank(pooled) < d:
            pooled = pooled + 1e-6 * np.eye(d)
        self._coef = np.linalg.solve(pooled, means.T).T
        self._intercept = -0.5 * np.einsum("ij,ij->i", means, self._coef) + np.log(counts / n)
        return self

    def predict(self, X):
        scores = np.asarray(X, dtype=float) @ self._coef.T + self._intercept
        return self.classes_[np.argmax(scores, axis=1)]


def reference_balance(X, labels, seed):
    """Every class downsampled to the minority count, classes drawn in sorted order."""
    classes = sorted(set(labels))
    minority = min(int(np.sum(labels == c)) for c in classes)
    rng = np.random.default_rng(subseed(seed, "balance"))
    keep = []
    for c in classes:
        idx = np.nonzero(labels == c)[0]
        keep.extend(int(i) for i in rng.choice(idx, size=minority, replace=False))
    keep.sort()
    return X[keep], labels[keep]


def reference_folds(labels, folds, rng):
    """Each class's shuffled indices, classes in sorted order, dealt round-robin into folds."""
    buckets = [[] for _ in range(folds)]
    for c in sorted(set(labels)):
        idx = np.nonzero(labels == c)[0]
        rng.shuffle(idx)
        for slot, i in enumerate(idx):
            buckets[slot % folds].append(int(i))
    return [np.array(sorted(b)) for b in buckets]


def reference_cross_validate(dataset, classifiers, folds, repeats, balance, seed, pca_components):
    """`analysis.cross_validate` on string labels, for datasets it accepts."""
    X, labels = dataset.X, np.array(dataset.labels)
    if balance:
        X, labels = reference_balance(X, labels, seed)
    classes = sorted(set(labels))
    class_index = {c: i for i, c in enumerate(classes)}
    k = len(classes)
    accuracies = {name: [] for name in classifiers}
    confusions = {name: [] for name in classifiers}
    for rep in range(repeats):
        rng = np.random.default_rng(subseed(seed, "folds", rep))
        for fold_no, test_idx in enumerate(reference_folds(labels, folds, rng)):
            mask = np.ones(len(labels), dtype=bool)
            mask[test_idx] = False
            X_train, y_train = X[mask], labels[mask]
            X_test, y_test = X[test_idx], labels[test_idx]
            if pca_components is not None:
                model = fit_scaler_pca(X_train, pca_components)
                X_train, X_test = model.transform(X_train), model.transform(X_test)
            for name, params in classifiers.items():
                if name == "rf":
                    params = {"seed": subseed(seed, "rf", rep, fold_no), **params}
                    clf = train_classifier("rf", X_train, y_train, params)
                else:
                    clf = {"nb": ReferenceNaiveBayes, "lda": ReferenceLda}[name]().fit(X_train, y_train)
                pred = clf.predict(X_test)
                accuracies[name].append(float(np.mean(pred == y_test)))
                cm = np.zeros((k, k))
                for p, t in zip(pred, y_test):
                    cm[class_index[p], class_index[t]] += 1
                confusions[name].append(cm)
    results = {}
    for name in classifiers:
        accs = np.array(accuracies[name])
        cms = np.stack(confusions[name])
        results[name] = ClassifierCvResult(
            accuracies=accs,
            accuracy_mean=float(accs.mean()),
            accuracy_variance=float(accs.var(ddof=1)),
            confusion_mean=cms.mean(axis=0),
            confusion_variance=cms.var(axis=0, ddof=1),
            classes=tuple(str(c) for c in classes),
        )
    return CvReport(results=results, folds=folds, repeats=repeats, seed=seed)
