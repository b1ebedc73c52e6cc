"""Brute-force reference implementations the library tests check against.

These stay deliberately naive and independent of the library's code paths:
plain set arithmetic over (onset, pitch) tuples and exhaustive searches.
The one exception, `exhaustive_cosiatec`, shares the library's candidates
and scores and differs only in how a round finds its best candidate, so
that pieces too large for `brute_cosiatec` can still be checked.
`_Tree` is the forest's earlier CART, which sorts each drawn feature at
every node; the count-table tree must grow the same trees.
`occurrence_recovery` is the library's earlier scorer, which rebuilds a
discovered occurrence's coordinates for every planted occurrence it meets.
`load_pattern_file` is the library's earlier interchange loader, which
parses every time field (with the library's `to_time`) and builds every
point row anew.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Sequence

import numpy as np

from motifkit import discovery, evaluation, polling
from motifkit.core import (
    ParseError,
    PatternOccurrence,
    PatternRecord,
    Point,
    SchemaError,
    to_time,
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

    Same contract as the library: centered window, one-sided truncation at
    the edges, evaluation at the output position, effective order reduced
    when the truncated window is small.
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


def brute_savgol(values, window, order):
    """Savitzky-Golay smoothing with one exact least-squares solve per output.

    Same contract as `float_savgol`, in Fractions: every window, edge or
    interior, constant or not, builds its design and normal equations and
    solves them for the fitted polynomial's value at the output position.
    """
    values = [Fraction(v) for v in values]
    n = len(values)
    half = window // 2
    out = []
    for i in range(n):
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


def brute_compactness(pattern, points, mode="temporal"):
    """Pattern size over the set points in its onset range (and pitch range for bbox)."""
    lo, hi = min(p.onset for p in pattern), max(p.onset for p in pattern)
    inside = [q for q in points if lo <= q.onset <= hi]
    if mode == "bbox":
        plo, phi = min(p.pitch for p in pattern), max(p.pitch for p in pattern)
        inside = [q for q in inside if plo <= q.pitch <= phi]
    return Fraction(len(pattern), len(inside))


def brute_trawl(pattern, points, a, b, mode="temporal"):
    """Left-to-right segments of compactness >= a and >= b points, on exact onsets."""
    out, segment = [], []

    def close():
        if len(segment) >= b and brute_compactness(segment, points, mode) >= a:
            out.append(tuple(segment))

    for p in sorted(pattern):
        if not segment or brute_compactness(segment + [p], points, mode) >= a:
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


def exhaustive_cosiatec(ps, order=discovery.DEFAULT_ORDER):
    """COSIATEC whose rounds score every candidate shape and take the least key."""
    key = discovery._rank_key(order, len(ps))
    grid = discovery._Grid(ps)
    out = []
    while len(grid.coords) >= 2:
        table = discovery._mtp_table(grid)
        best = min((discovery._score(s, grid, table) for s in grid_shapes(grid, table)), key=key)
        if not best.compresses():
            break
        out.append(grid.tec(best.shape, best.translators))
        grid = grid.without(discovery._cover(best.shape, best.translators))
    if grid.coords:
        out.append(discovery._residue_tec(grid.points(grid.coords)))
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
    """CART with the Gini criterion and per-node feature subsampling."""

    def __init__(self, n_classes: int, max_features: int, rng: np.random.Generator):
        self.n_classes = n_classes
        self.max_features = max_features
        self.rng = rng
        self.root: _Node | None = None
        self.importances: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_Tree":
        self.n_total = len(y)
        self.importances = np.zeros(X.shape[1])
        self.root = self._grow(X, y, np.arange(len(y)))
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, idx: np.ndarray) -> _Node:
        counts = np.bincount(y[idx], minlength=self.n_classes)
        node_gini = _gini(counts)
        if node_gini == 0.0 or idx.size < 2:
            return _Node(prediction=int(np.argmax(counts)))
        best = None  # (weighted_gini, feature, threshold)
        features = self.rng.choice(X.shape[1], size=self.max_features, replace=False)
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
            return _Node(prediction=int(np.argmax(counts)))
        weighted_gini, f, threshold = best
        mask = X[idx, f] <= threshold
        left_idx, right_idx = idx[mask], idx[~mask]
        decrease = (idx.size / self.n_total) * (node_gini - weighted_gini)
        self.importances[f] += decrease
        node = _Node(feature=f, threshold=threshold)
        node.left = self._grow(X, y, left_idx)
        node.right = self._grow(X, y, right_idx)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X), dtype=int)
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out
