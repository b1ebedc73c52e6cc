"""Fuse analyzers' pattern locations into a salience curve and extract boundaries.

The polling curve counts, on a fixed time grid, how many discovered
occurrences cover each grid point, each analyzer weighted individually.
The curve is smoothed with a Savitzky-Golay filter, differenced twice,
and the steep zero crossings of the derivatives become candidate pattern
boundaries.

All curve arithmetic is exact, so polynomial reproduction and boundary
positions are reproducible to the bit.  Inside, a curve is integer
numerators over one shared denominator, from polling through smoothing,
differencing and the threshold-and-merge decision.  Fractions are built
only where a caller reads them: `polling_curve` and `savgol_smooth` return
a `PollingCurve`, and `boundary_trace` builds the smoothed curve, p1, p2
and the steepness of each crossing; `extract_boundaries` and `train_pp`
build none.  Polling adds each occurrence's weight with a difference
array.  Smoothing applies each least-squares fit as an integer kernel over
one shared denominator, solved once per (offsets, order); a fit whose
samples are all equal is that value, and the constant runs at the ends of
a curve enter a fit through prefix sums of its kernel, so the edge padding
of boundary extraction costs neither a solve nor a product per padded
sample.  Parameter training polls each piece once, smooths each (piece,
window, order) once and re-runs only the threshold-and-merge step per
lambda and derivative choice.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

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


def _numerators(curve: PollingCurve) -> tuple[tuple[int, ...], int]:
    """The curve's values as integer numerators over one shared denominator."""
    scale = math.lcm(*(v.denominator for v in curve.values))
    return tuple(v.numerator * (scale // v.denominator) for v in curve.values), scale


def _check_smoothing(window: int, order: int):
    if window < 3 or window % 2 == 0:
        raise ValueError("window must be an odd integer >= 3")
    if not 1 <= order < window:
        raise ValueError("order must satisfy 1 <= order < window")


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
        _check_smoothing(self.window, self.order)
        lam = to_time(self.lam)
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
            lam=obj.get("lambda", 0),
            use_first=bool(obj.get("use_first", True)),
            use_second=bool(obj.get("use_second", True)),
        )


# ---------------------------------------------------------------------------
# Curve construction


def default_span(records: Sequence[PatternRecord], resolution: Fraction) -> Span:
    """[0, latest occurrence end), or [0, resolution) without occurrences."""
    return _span_over((occ.span for rec in records for occ in rec.occurrences), resolution)


def _span_over(spans: Iterable[Span], resolution: Fraction) -> Span:
    return (Fraction(0), max((e for _, e in spans), default=resolution))


def grid_cells(span: Span, piece_span: Span, resolution: Fraction) -> range:
    """Indices k of the grid points start + k * resolution inside [s, e).

    Raises ValueError unless `span` lies inside `piece_span`, whose start
    is the grid origin; the indices then stay below the grid length.
    """
    s, e = span
    start, end = piece_span
    if s < start or e > end:
        raise ValueError(f"occurrence [{s}, {e}) outside piece span [{start}, {end})")
    # ceil((t - start) / resolution), as one exact floor division
    return range(-((start - s) // resolution), -((start - e) // resolution))


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
    start, nums, den = _poll(records, weights, resolution, piece_span, normalize)
    return PollingCurve(start, resolution, tuple(Fraction(x, den) for x in nums))


def _poll(records: Sequence[PatternRecord], weights: AlgorithmWeights | None, resolution: Fraction,
          piece_span: Span | None, normalize: bool) -> tuple[Fraction, tuple[int, ...], int]:
    """The grid origin and :func:`polling_curve`'s values as numerators over one denominator."""
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

    # weights as integers over their common denominator; each occurrence
    # adds its weight at its first cell and takes it off one past its last
    den = math.lcm(*(w.denominator for w in wmap.values()))
    iw = {a: w.numerator * (den // w.denominator) for a, w in wmap.items()}
    spans = [(iw[rec.algorithm_id], occ.span) for rec in records for occ in rec.occurrences]
    start, end = piece_span or _span_over((span for _, span in spans), resolution)
    if end <= start:
        raise ValueError("piece span must be nonempty")
    n = math.ceil((end - start) / resolution)
    steps = [0] * (n + 1)
    for w, span in spans:
        cells = grid_cells(span, (start, end), resolution)
        if cells:
            steps[cells.start] += w
            steps[cells.stop] -= w
    nums = tuple(itertools.accumulate(steps[:n]))
    total = sum(iw.values())
    if normalize and total > 0:
        den = total  # (c / den) / (total / den) = c / total
    return start, nums, den


# ---------------------------------------------------------------------------
# Savitzky-Golay smoothing (exact least squares on integers)

# Distinct (offsets, order) fits kept; boundary extraction needs one per
# (window, order), plain smoothing one more per truncated edge position.
_FIT_CACHE_SIZE = 256


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


@functools.lru_cache(maxsize=_FIT_CACHE_SIZE)
def _fit_weights(
    offsets: tuple[int, ...], order: int
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Integer weights w, their prefix sums and denominator d with fit(0) = sum w_j * y_j / d.

    The fit is the degree-`order` least-squares polynomial through the
    samples y_j at positions `offsets`, relative to the evaluation point;
    the effective order drops when the window holds too few points.  The
    value at 0 is row 0 of the inverse normal matrix M applied to the
    design, so w_j / d = sum_e c_e * x_j**e where M c = e_0.  The prefix
    sums (prefix[k] = w_0 + ... + w_{k-1}) weigh a run of equal samples
    with one product.
    """
    k = min(order, len(offsets) - 1) + 1
    moments = [sum(x**e for x in offsets) for e in range(2 * k - 1)]
    normal = [[Fraction(moments[r + c]) for c in range(k)] for r in range(k)]
    coeffs = [row[0] for row in _solve_linear(normal, [[Fraction(int(r == 0))] for r in range(k)])]
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    weights = [sum(c * x**e for e, c in enumerate(ints)) for x in offsets]
    common = math.gcd(den, *weights)
    weights = tuple(w // common for w in weights)
    return weights, (0, *itertools.accumulate(weights)), den // common


def _smooth(ys: tuple[int, ...], window: int, order: int) -> tuple[tuple[int, ...], int]:
    """Smoothed integer samples as numerators over one shared denominator.

    Samples [0, head) equal the first and samples (tail, n) the last.  A
    window inside either run gives that value without a fit; any other
    window takes the runs' share from the kernel's prefix sums and
    multiplies only the samples in between, so an output costs at most
    tail - head + 1 products however long the window is.
    """
    n = len(ys)
    first, last = ys[0], ys[-1]
    head = next((j for j, y in enumerate(ys) if y != first), n)
    tail = next((j for j in range(n - 1, -1, -1) if ys[j] != last), -1)
    half = window // 2
    interior = _fit_weights(tuple(range(-half, half + 1)), order)
    truncated = {}
    for i in itertools.chain(range(half), range(n - half, n)):
        lo, hi = max(0, i - half), min(n - 1, i + half)
        if hi >= head and lo <= tail:
            truncated[i] = _fit_weights(tuple(range(lo - i, hi - i + 1)), order)
    den = math.lcm(interior[2], *(fit[2] for fit in truncated.values()))
    out = []
    for i in range(n):
        lo, hi = max(0, i - half), min(n - 1, i + half)
        if hi < head or lo > tail:
            out.append(ys[lo] * den)
            continue
        weights, prefix, fit_den = truncated.get(i, interior)
        a, b = max(lo, head), min(hi, tail) + 1  # the samples outside both runs
        dot = sum(map(operator.mul, weights[a - lo : b - lo], ys[a:b]))
        if lo < head:
            dot += first * prefix[head - lo]
        if hi > tail:
            dot += last * (prefix[-1] - prefix[tail + 1 - lo])
        out.append(dot * (den // fit_den))
    return tuple(out), den


def savgol_smooth(curve: PollingCurve, window: int, order: int) -> PollingCurve:
    """Least-squares polynomial smoothing with one-sided truncated edges.

    Interior values come from a degree-`order` fit over the centered
    window, evaluated at the center; near the edges the window is
    truncated to the available one-sided samples and the fit is evaluated
    at the edge position itself.

    The arithmetic is exact on integers: the curve is scaled to integers
    over one denominator, each fit is a fixed integer kernel over one
    shared denominator (memoised per offsets and order), and every output
    is one integer over the product of the two; the returned curve's
    Fractions are built from those integers at the end.  Boundary
    extraction smooths its integers without this function and so builds no
    Fraction for the smoothed curve.  A window lying inside the run of
    equal samples at either end of the curve gives that value without a
    fit, since a least-squares polynomial reproduces a constant, and a
    window overlapping such a run weighs it with one product; so a window
    of w on n samples costs about (n + w) * (samples outside the end runs)
    products, and edge padding costs no solve.
    """
    n = len(curve)
    _check_smoothing(window, order)
    if window > n:
        raise ValueError(f"window {window} exceeds curve length {n}")
    ys, scale = _numerators(curve)
    nums, den = _smooth(ys, window, order)
    values = tuple(Fraction(x, den * scale) for x in nums)
    return PollingCurve(curve.origin, curve.resolution, values)


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


def _crossings(f: Sequence[int]) -> list[tuple[int, int, int]]:
    """Zero crossings of an integer sequence as (index, change, span) triples.

    A crossing happens where the sign flips directly between neighbours,
    or across a run of exact zeros flanked by opposite signs (a single
    zero sample is the degenerate run).  Direct flips are positioned at
    the index with the smaller magnitude (the later one on ties); runs at
    their center, rounded later.  Steepness is change / span: the absolute
    change across the crossing divided by its index span, 1 for a direct
    flip.  Signs, magnitudes and steepness order do not change when every
    sample is divided by one positive denominator, so the crossings of
    the numerators are those of the exact signal.
    """
    out = []
    n = len(f)
    i = 0
    while i < n - 1:
        a, b = f[i], f[i + 1]
        if a != 0 and b != 0 and (a < 0) != (b < 0):
            pos = i if abs(a) < abs(b) else i + 1
            out.append((pos, abs(b - a), 1))
            i += 1
        elif b == 0 and a != 0:
            j = i + 1
            while j < n and f[j] == 0:
                j += 1
            if j < n and (a < 0) != (f[j] < 0):
                run_lo, run_hi = i + 1, j - 1
                pos = (run_lo + run_hi + 1) // 2  # center, rounded later
                out.append((pos, abs(f[j] - a), j - i))
            i = j
        else:
            i += 1
    return out


@dataclass(frozen=True)
class Crossing:
    """A candidate boundary and what the decision did with it.

    `index` is the grid index of the input curve it maps to, `derivative`
    is 1 or 2, and `fate` is one of ``kept`` (it is a boundary),
    ``derivative_off`` (its derivative is not used), ``below_lambda`` or
    ``merged``; a merged crossing's `merged_into` is the boundary that
    absorbed it.
    """

    index: int
    steepness: Fraction
    derivative: int
    fate: str
    merged_into: int | None = None


@dataclass(frozen=True)
class BoundaryTrace:
    """The signal `boundary_trace` decides on, its crossings and its boundaries.

    `smoothed` is the edge-padded curve after smoothing; its origin lies
    `window` grid steps before the input's.  p1[j] sits at smoothed.time_at(j)
    and p2[j] at smoothed.time_at(j + 1).  `boundaries` index the input curve;
    `crossings` lists every crossing of p1 and p2 in decision order.
    """

    smoothed: PollingCurve
    p1: tuple[Fraction, ...]
    p2: tuple[Fraction, ...]
    boundaries: BoundarySet
    crossings: tuple[Crossing, ...]


# A crossing of the smoothed padded signal: (grid index of the input curve,
# steepness key, 1 or 2 for the derivative it comes from).
_Crossing = tuple[int, int, int]


class _Signal(NamedTuple):
    smoothed: tuple[int, ...]  # the padded curve, smoothed, numerators over den
    p1: list[int]  # its first differences, numerators over den
    p2: list[int]  # its second differences, numerators over den
    den: int
    crossings: list[_Crossing]  # sorted
    key_den: int  # a crossing's steepness is its key / key_den


def _signal(ys: tuple[int, ...], scale: int, window: int, order: int) -> _Signal:
    """The smoothed padded curve, p1, p2 and their crossings, sorted, on integers.

    The curve is ys[k] / scale.  It is extended on both sides with
    `window` copies of its edge values and smoothed with :func:`_smooth`,
    so boundaries at the very start or end of the piece see the same flat
    context as interior ones without inventing any slope.  No Fraction is
    built here; `boundary_trace` builds the ones its trace holds.
    Crossing positions are mapped back to grid indices of the curve and
    clipped to [0, n].  Every steepness change / span becomes the integer
    key change * (L / span) over key_den = den * L, L the least common
    multiple of the spans, so sorting by (index, key, derivative) sorts by
    exact steepness.
    """
    n = len(ys)
    pad = window
    v, den = _smooth((ys[0],) * pad + ys + (ys[-1],) * pad, window, order)
    den *= scale
    p1 = [b - a for a, b in zip(v, v[1:])]
    p2 = [b - a for a, b in zip(p1, p1[1:])]
    c1, c2 = _crossings(p1), _crossings(p2)
    lcm = math.lcm(*(span for _, _, span in c1), *(span for _, _, span in c2))
    # P'[t] spans grid points t..t+1; runs already center it, direct flips
    # at index t refer to the grid point t itself.  P''[t] is centered on
    # grid point t+1.
    crossings = sorted(
        [(min(max(pos - pad, 0), n), change * (lcm // span), 1) for pos, change, span in c1]
        + [(min(max(pos + 1 - pad, 0), n), change * (lcm // span), 2) for pos, change, span in c2]
    )
    return _Signal(v, p1, p2, den, crossings, den * lcm)


def _decide(
    crossings: Sequence[_Crossing], key_den: int, params: PpParams, owner: list | None = None
) -> list[tuple[int, int, int]]:
    """The boundaries among sorted crossings: those of the chosen derivatives
    at least lambda steep, merged within one grid step (keeping the steeper).

    Each boundary is the (index, key, position in `crossings`) of the
    crossing it keeps.  Every steepness is key / key_den with key_den > 0,
    so lambda = p / q is missed exactly when key * q < p * key_den, and
    comparing keys compares steepness.  With `owner`, owner[pos] is set to
    the number of the boundary that crossing pos went to, for every
    crossing that passes both tests.
    """
    use = (None, params.use_first, params.use_second)
    lam_den = params.lam.denominator
    bar = params.lam.numerator * key_den
    merged: list[tuple[int, int, int]] = []
    for pos, (idx, key, d) in enumerate(crossings):
        if not use[d] or key * lam_den < bar:
            continue
        if merged and idx - merged[-1][0] <= 1:
            if key > merged[-1][1]:
                merged[-1] = (idx, key, pos)
        else:
            merged.append((idx, key, pos))
        if owner is not None:
            owner[pos] = len(merged) - 1
    return merged


def boundary_trace(curve: PollingCurve, params: PpParams) -> BoundaryTrace:
    """Steep zero crossings of the smoothed curve's derivatives.

    The curve is padded with its edge values, smoothed and differenced
    twice.  Crossings of the first derivative mark peaks and dips,
    crossings of the second mark the shoulders where occurrence coverage
    changes; both are mapped back to grid indices, clipped to [0, n],
    thresholded by lambda, and merged within one grid step (keeping the
    steeper).  The trace holds the signal and every crossing's fate as
    exact Fractions.
    """
    sig = _signal(*_numerators(curve), params.window, params.order)
    owner: list[int | None] = [None] * len(sig.crossings)
    kept = _decide(sig.crossings, sig.key_den, params, owner)
    use = (None, params.use_first, params.use_second)
    crossings = []
    for pos, (idx, key, d) in enumerate(sig.crossings):
        b = owner[pos]
        if b is None:
            fate, into = ("below_lambda" if use[d] else "derivative_off"), None
        elif kept[b][2] == pos:
            fate, into = "kept", None
        else:
            fate, into = "merged", kept[b][0]
        crossings.append(Crossing(idx, Fraction(key, sig.key_den), d, fate, into))
    smoothed = tuple(Fraction(x, sig.den) for x in sig.smoothed)
    origin = curve.origin - params.window * curve.resolution
    return BoundaryTrace(
        smoothed=PollingCurve(origin, curve.resolution, smoothed),
        p1=tuple(Fraction(x, sig.den) for x in sig.p1),
        p2=tuple(Fraction(x, sig.den) for x in sig.p2),
        boundaries=tuple(b[0] for b in kept),
        crossings=tuple(crossings),
    )


def extract_boundaries(curve: PollingCurve, params: PpParams) -> BoundarySet:
    """The boundaries of :func:`boundary_trace`, as grid indices of `curve`."""
    sig = _signal(*_numerators(curve), params.window, params.order)
    return tuple(b[0] for b in _decide(sig.crossings, sig.key_den, params))


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

    polls = [_poll(records, None, resolution, None, False)[1:] for records, _ in pieces]
    # Only the decision step depends on lambda and the derivative flags.
    signals: dict[tuple[int, int, int], tuple[list[_Crossing], int]] = {}

    def score(params: PpParams, indices: Sequence[int]) -> Fraction:
        total = Fraction(0)
        for i in indices:
            smoothing = (i, params.window, params.order)
            if smoothing not in signals:
                sig = _signal(*polls[i], params.window, params.order)
                signals[smoothing] = sig.crossings, sig.key_den
            predicted = [b[0] for b in _decide(*signals[smoothing], params)]
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
