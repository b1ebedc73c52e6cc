"""Fuse analyzers' pattern locations into a salience curve and extract boundaries.

The polling curve counts, on a fixed time grid, how many discovered
occurrences cover each grid point, each analyzer weighted individually.
The curve is smoothed with a Savitzky-Golay filter, differenced twice,
and the steep zero crossings of the derivatives become candidate pattern
boundaries.

All curve arithmetic is exact (Fractions): smoothing solves the
least-squares systems in rational arithmetic, so polynomial reproduction
and boundary positions are reproducible to the bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from motifkit import evaluation
from motifkit.core import PatternRecord, to_time

BoundarySet = tuple[int, ...]

Span = tuple[Fraction, Fraction]  # [start, end) in crotchets

AlgorithmWeights = Mapping[str, Fraction | int | float]


@dataclass(frozen=True)
class PollingCurve:
    """Salience values on the grid origin + k * resolution, k = 0..n-1.

    Freshly polled curves are non-negative and sum to the total weighted
    grid coverage of the input occurrences; smoothed curves are arbitrary
    rational series on the same grid.
    """

    origin: Fraction
    resolution: Fraction
    values: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.values)

    def time_at(self, index: int) -> Fraction:
        return self.origin + index * self.resolution

    def floats(self) -> list[float]:
        return [float(v) for v in self.values]


@dataclass(frozen=True)
class PpParams:
    """Boundary-extraction parameters.

    window/order control the smoothing polynomial fit, lam is the minimum
    steepness of a kept zero crossing, and use_first/use_second choose
    which derivatives contribute crossings.
    """

    window: int = 3
    order: int = 1
    lam: Fraction = field(default_factory=lambda: Fraction(0))
    use_first: bool = True
    use_second: bool = True

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError("window must be an odd integer >= 3")
        if not 1 <= self.order < self.window:
            raise ValueError("order must satisfy 1 <= order < window")
        lam = to_time(self.lam) if not isinstance(self.lam, Fraction) else self.lam
        if lam < 0:
            raise ValueError("lambda must be >= 0")
        object.__setattr__(self, "lam", lam)

    def to_json_dict(self) -> dict:
        return {
            "window": self.window,
            "order": self.order,
            "lambda": str(self.lam),
            "use_first": self.use_first,
            "use_second": self.use_second,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PpParams":
        return cls(
            window=int(obj["window"]),
            order=int(obj["order"]),
            lam=to_time(obj.get("lambda", 0)),
            use_first=bool(obj.get("use_first", True)),
            use_second=bool(obj.get("use_second", True)),
        )


# ---------------------------------------------------------------------------
# Curve construction


def default_span(records: Sequence[PatternRecord], resolution: Fraction) -> Span:
    """[0, latest occurrence end), or [0, resolution) without occurrences."""
    ends = (occ.span[1] for rec in records for occ in rec.occurrences)
    return (Fraction(0), max(ends, default=resolution))


def grid_cells(span: Span, piece_span: Span, resolution: Fraction) -> range:
    """Indices k of the grid points start + k * resolution inside [s, e).

    Raises ValueError unless `span` lies inside `piece_span`, whose start
    is the grid origin; the indices then stay below the grid length.
    """
    s, e = span
    start, end = piece_span
    if s < start or e > end:
        raise ValueError(f"occurrence [{s}, {e}) outside piece span [{start}, {end})")
    return range(math.ceil((s - start) / resolution), math.ceil((e - start) / resolution))


def polling_curve(
    records: Sequence[PatternRecord],
    weights: AlgorithmWeights | None = None,
    resolution: Fraction = Fraction(1),
    piece_span: Span | None = None,
    normalize: bool = False,
) -> PollingCurve:
    """Sum weighted occurrence indicators over the grid.

    A grid point votes for an occurrence when it lies inside the
    occurrence's span, start-inclusive and end-exclusive, so adjacent
    occurrences tile without double counting.  `piece_span` defaults to
    [0, max span end); with `normalize` the curve is divided by the total
    weight of the algorithms present.
    """
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    weights = weights or {}
    wmap: dict[str, Fraction] = {}
    for rec in records:
        if rec.algorithm_id not in wmap:
            w = to_time(weights.get(rec.algorithm_id, 1))
            if w < 0:
                raise ValueError(
                    f"negative weight {w} for algorithm {rec.algorithm_id!r}"
                )
            wmap[rec.algorithm_id] = w

    start, end = piece_span or default_span(records, resolution)
    if end <= start:
        raise ValueError("piece span must be nonempty")
    values = [Fraction(0)] * math.ceil((end - start) / resolution)
    for rec in records:
        w = wmap[rec.algorithm_id]
        for occ in rec.occurrences:
            for k in grid_cells(occ.span, (start, end), resolution):
                values[k] += w
    if normalize:
        total = sum(wmap.values(), Fraction(0))
        if total > 0:
            values = [v / total for v in values]
    return PollingCurve(origin=start, resolution=resolution, values=tuple(values))


# ---------------------------------------------------------------------------
# Savitzky-Golay smoothing (exact rational least squares)


def _solve_linear(a: list[list[Fraction]], rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan solve A X = B over Fractions; A must be invertible."""
    k = len(a)
    m = [row_a + row_b for row_a, row_b in zip(a, rhs)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular normal equations")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(k):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[k:] for row in m]


def _fit_weights(offsets: Sequence[int], order: int) -> list[Fraction]:
    """Weights w with fit(0) = sum w_j * y_j for a degree-`order` LS fit.

    `offsets` are the sample positions relative to the evaluation point.
    The effective order drops when the window holds too few points.
    """
    k = min(order, len(offsets) - 1) + 1
    design = [[Fraction(x**e) for e in range(k)] for x in offsets]
    normal = [
        [sum(design[i][r] * design[i][c] for i in range(len(offsets))) for c in range(k)]
        for r in range(k)
    ]
    rhs = [[design[i][r] for i in range(len(offsets))] for r in range(k)]
    beta = _solve_linear(normal, rhs)
    return beta[0]  # value of the fitted polynomial at x = 0


def savgol_smooth(curve: PollingCurve, window: int, order: int) -> PollingCurve:
    """Least-squares polynomial smoothing with one-sided truncated edges.

    Interior values come from a degree-`order` fit over the centered
    window, evaluated at the center; near the edges the window is
    truncated to the available one-sided samples and the fit is evaluated
    at the edge position itself.
    """
    n = len(curve)
    if window < 3 or window % 2 == 0:
        raise ValueError("window must be an odd integer >= 3")
    if not 1 <= order < window:
        raise ValueError("order must satisfy 1 <= order < window")
    if window > n:
        raise ValueError(f"window {window} exceeds curve length {n}")
    values = curve.values
    half = window // 2
    interior = _fit_weights(range(-half, half + 1), order)
    out = []
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n - 1, i + half)
        if hi - lo + 1 == window:
            w = interior
        else:
            w = _fit_weights(range(lo - i, hi - i + 1), order)
        out.append(sum(c * values[lo + j] for j, c in enumerate(w)))
    return PollingCurve(curve.origin, curve.resolution, tuple(out))


def derivatives(curve: PollingCurve) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """First and second forward differences (lengths n-1 and n-2)."""
    v = curve.values
    if len(v) < 3:
        raise ValueError("curve must have at least 3 values")
    p1 = tuple(b - a for a, b in zip(v, v[1:]))
    p2 = tuple(b - a for a, b in zip(p1, p1[1:]))
    return p1, p2


# ---------------------------------------------------------------------------
# Boundary extraction


def _crossings(f: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    """Zero crossings of a sequence as (index, steepness) pairs.

    A crossing happens where the sign flips directly between neighbours,
    or across a run of exact zeros flanked by opposite signs (a single
    zero sample is the degenerate run).  Direct flips are positioned at
    the index with the smaller magnitude (the later one on ties); runs at
    their center, rounded later.  Steepness is the absolute change across
    the crossing divided by its index span.
    """
    out = []
    n = len(f)
    i = 0
    while i < n - 1:
        a, b = f[i], f[i + 1]
        if a != 0 and b != 0 and (a < 0) != (b < 0):
            pos = i if abs(a) < abs(b) else i + 1
            out.append((pos, abs(b - a)))
            i += 1
        elif b == 0 and a != 0:
            j = i + 1
            while j < n and f[j] == 0:
                j += 1
            if j < n and (a < 0) != (f[j] < 0):
                run_lo, run_hi = i + 1, j - 1
                pos = (run_lo + run_hi + 1) // 2  # center, rounded later
                steep = abs(f[j] - a) / (j - i)
                out.append((pos, steep))
            i = j
        else:
            i += 1
    return out


@dataclass(frozen=True)
class BoundaryTrace:
    """The signal `boundary_trace` decides on, and its boundaries.

    `smoothed` is the edge-padded curve after smoothing; its origin lies
    `window` grid steps before the input's.  p1[j] sits at smoothed.time_at(j)
    and p2[j] at smoothed.time_at(j + 1).  `boundaries` index the input curve.
    """

    smoothed: PollingCurve
    p1: tuple[Fraction, ...]
    p2: tuple[Fraction, ...]
    boundaries: BoundarySet


def boundary_trace(curve: PollingCurve, params: PpParams) -> BoundaryTrace:
    """Steep zero crossings of the smoothed curve's derivatives.

    The curve is extended on both sides with its edge values before
    smoothing, so boundaries at the very start or end of the piece see
    the same flat context as interior ones without inventing any slope.
    Crossings of the first derivative mark peaks and dips, crossings of
    the second mark the shoulders where occurrence coverage changes; both
    are mapped back to grid indices, thresholded by lambda, merged within
    one grid step (keeping the steeper), and clipped to [0, n].
    """
    n = len(curve)
    pad = params.window
    padded = PollingCurve(
        origin=curve.origin - pad * curve.resolution,
        resolution=curve.resolution,
        values=(curve.values[0],) * pad + curve.values + (curve.values[-1],) * pad,
    )
    smoothed = savgol_smooth(padded, params.window, params.order)
    p1, p2 = derivatives(smoothed)

    candidates: list[tuple[int, Fraction]] = []
    if params.use_first:
        # P'[t] spans grid points t..t+1; runs already center it, direct
        # flips at index t refer to the grid point t itself
        for pos, steep in _crossings(p1):
            if steep >= params.lam:
                candidates.append((int(pos) - pad, steep))
    if params.use_second:
        # P''[t] is centered on grid point t+1
        for pos, steep in _crossings(p2):
            if steep >= params.lam:
                candidates.append((int(pos) + 1 - pad, steep))

    candidates = [(min(max(i, 0), n), s) for i, s in candidates]
    candidates.sort()
    merged: list[tuple[int, Fraction]] = []
    for idx, steep in candidates:
        if merged and idx - merged[-1][0] <= 1:
            if steep > merged[-1][1]:
                merged[-1] = (idx, steep)
        else:
            merged.append((idx, steep))
    return BoundaryTrace(smoothed, p1, p2, tuple(i for i, _ in merged))


def extract_boundaries(curve: PollingCurve, params: PpParams) -> BoundarySet:
    """The boundaries of :func:`boundary_trace`, as grid indices of `curve`."""
    return boundary_trace(curve, params).boundaries


# ---------------------------------------------------------------------------
# Parameter training


def train_pp(
    pieces: Sequence[tuple[Sequence[PatternRecord], Sequence[int]]],
    grid: Iterable[PpParams],
    objective: str = "f1",
    k_folds: int = 3,
    tolerance: int = 1,
    resolution: Fraction = Fraction(1),
    seed: int = 0,
) -> PpParams:
    """Cross-validated grid search for boundary-extraction parameters.

    Each piece is a (records, truth boundary indices) pair.  Pieces are
    dealt into `k_folds` folds (seeded shuffle, then round robin); every
    parameter candidate is scored by the mean objective over validation
    folds and the best one wins, ties broken by smaller window then
    smaller lambda.
    """
    if objective not in ("precision", "recall", "f1"):
        raise ValueError(f"objective must be precision|recall|f1, got {objective!r}")
    candidates = list(grid)
    if not candidates:
        raise ValueError("parameter grid is empty")
    if k_folds < 2:
        raise ValueError("k_folds must be >= 2")
    if len(pieces) < k_folds:
        raise ValueError(f"need at least {k_folds} pieces for {k_folds}-fold training")

    order = list(range(len(pieces)))
    random.Random(seed).shuffle(order)
    folds: list[list[int]] = [[] for _ in range(k_folds)]
    for slot, piece_idx in enumerate(order):
        folds[slot % k_folds].append(piece_idx)

    curves = [polling_curve(records, resolution=resolution) for records, _ in pieces]

    def score(params: PpParams, indices: Sequence[int]) -> Fraction:
        total = Fraction(0)
        for i in indices:
            predicted = extract_boundaries(curves[i], params)
            prf = evaluation.boundary_prf(predicted, pieces[i][1], tolerance)
            total += getattr(prf, objective)
        return total / len(indices)

    best = None
    for params in candidates:
        fold_scores = [score(params, fold) for fold in folds if fold]
        mean = sum(fold_scores, Fraction(0)) / len(fold_scores)
        rank = (-mean, params.window, params.lam, params.order)
        if best is None or rank < best[0]:
            best = (rank, params)
    return best[1]
