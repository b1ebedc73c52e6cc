"""Brute-force reference implementations the library tests check against.

These stay deliberately naive and independent of the library's code paths:
plain set arithmetic over (onset, pitch) tuples and exhaustive searches.
"""

from fractions import Fraction
from itertools import combinations


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
    """Maximum one-to-one matching size by exhaustive recursion."""

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
