"""Fuse analyzers' pattern locations into a salience curve and extract boundaries.

The polling curve counts, on a fixed time grid, how many discovered
occurrences cover each grid point, each analyzer weighted individually.
The curve is smoothed with a Savitzky-Golay filter, differenced twice,
and the steep zero crossings of the derivatives become candidate pattern
boundaries.

All curve arithmetic is exact, so polynomial reproduction and boundary
positions are reproducible to the bit.  A curve is one form throughout:
integer numerators over one shared denominator, from polling through
smoothing, differencing and the threshold-and-merge decision; its
`values` are Fractions built when read.  Polling puts the piece span, the
resolution and every occurrence span on one integer tick and adds each
occurrence's weight with a difference array.  Smoothing has one edge
rule: the curve is padded with `window` copies of each end value and
every output is the centred fit, one integer kernel per (window, order).
The constant runs at the ends of a curve enter a fit through prefix sums
of its kernel and the samples between them through one convolution, so
the padding costs neither a solve nor a product per padded sample.  One
call smooths a curve with any number of kernels, one aligned row each,
and one array scan of every row's two differences finds all their zero
crossings.  Parameter training polls each piece once and smooths it once,
with all of its distinct kernels (orders 2k and 2k + 1 share one).  It
splits each signal's crossings once per derivative choice, runs the
threshold-and-merge step once per distinct signal, lambda and derivative
choice, and scores each decision on integer matching counts, so a
candidate's mean over the folds is its only Fraction.  Times,
weights and kernel coefficients reach integers through one rule,
`core.over_common_denominator`.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from motifkit import evaluation
from motifkit.core import TIME, JsonObject, PatternRecord, check_shape, over_common_denominator, to_time

BoundarySet = tuple[int, ...]

Span = tuple[int | Fraction, int | Fraction]  # [start, end) in crotchets

AlgorithmWeights = Mapping[str, Fraction | int | float]


@dataclass(frozen=True)
class PollingCurve:
    """Salience values nums[k] / den on the grid origin + k * resolution, k = 0..n-1.

    Freshly polled curves are non-negative and sum to the total weighted
    grid coverage of the input occurrences; smoothed curves are arbitrary
    rational series on the same grid.  `den` is positive and shares no
    factor with every numerator; times are exact.
    """

    origin: int | Fraction
    resolution: int | Fraction
    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if self.den < 1:
            raise ValueError(f"curve denominator must be positive, got {self.den}")
        # lowest terms, so curves with equal values compare and hash equal
        common = math.gcd(self.den, *self.nums)
        object.__setattr__(self, "nums", tuple(x // common for x in self.nums))
        object.__setattr__(self, "den", self.den // common)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def time_at(self, index: int) -> int | Fraction:
        return self.origin + index * self.resolution


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
    which derivatives contribute crossings; they must not both be false:
    such params keep no crossing, so they find no boundary.
    """

    window: int = 3
    order: int = 1
    lam: int | Fraction = 0
    use_first: bool = True
    use_second: bool = True

    def __post_init__(self):
        _check_smoothing(self.window, self.order)
        if not (self.use_first or self.use_second):
            raise ValueError("use_first and use_second are both false")
        lam = to_time(self.lam)
        if lam < 0:
            raise ValueError("lambda must be >= 0")
        object.__setattr__(self, "lam", lam)

    # `to_json_dict`'s document; `from_json_dict` gives a missing key its default
    SHAPE = JsonObject(
        {"window": int, "order": int, "lambda": TIME, "use_first": bool, "use_second": bool}
    )

    def to_json_dict(self) -> dict:
        return {
            "window": self.window,
            "order": self.order,
            "lambda": str(self.lam),
            "use_first": self.use_first,
            "use_second": self.use_second,
        }

    @classmethod
    def from_json_dict(cls, obj) -> "PpParams":
        """Params from a `SHAPE` document."""
        obj = {**cls().to_json_dict(), **check_shape(obj, cls.SHAPE)}
        return cls(obj["window"], obj["order"], obj["lambda"], obj["use_first"], obj["use_second"])


# ---------------------------------------------------------------------------
# Curve construction


def default_span(records: Sequence[PatternRecord], resolution: int | Fraction) -> Span:
    """[0, latest occurrence end), or [0, resolution) without occurrences."""
    ends = (occ.span[1] for rec in records for occ in rec.occurrences)
    return (0, max(ends, default=resolution))


def grid_cells(spans: Sequence[Span], piece_span: Span, resolution: int | Fraction) -> list[range]:
    """Per span [s, e), the indices k of the grid points start + k * resolution inside it.

    Raises ValueError unless every span lies inside `piece_span`, whose
    start is the grid origin; the indices then stay below the grid length.
    """
    start, end = piece_span
    # ceil((t - start) / resolution) as one floor division on integers:
    # every time as a count of 1/scale crotchets
    times = (start, end, resolution, *(t for span in spans for t in span))
    ints, _ = over_common_denominator(times)
    lo, hi, step = ints[:3]
    cells = []
    for (s, e), s_int, e_int in zip(spans, ints[3::2], ints[4::2]):
        if s_int < lo or e_int > hi:
            raise ValueError(f"occurrence [{s}, {e}) outside piece span [{start}, {end})")
        cells.append(range(-((lo - s_int) // step), -((lo - e_int) // step)))
    return cells


def polling_curve(
    records: Sequence[PatternRecord],
    weights: AlgorithmWeights | None = None,
    resolution: int | Fraction = 1,
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
    wmap: dict[str, int | Fraction] = {}
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
    ints, den = over_common_denominator(wmap.values())
    iw = dict(zip(wmap, ints))
    spans = [occ.span for rec in records for occ in rec.occurrences]
    start, end = piece_span or default_span(records, resolution)
    if end <= start:
        raise ValueError("piece span must be nonempty")
    n = -((start - end) // resolution)
    steps = [0] * (n + 1)
    occurrence_weights = (iw[rec.algorithm_id] for rec in records for _ in rec.occurrences)
    for w, cells in zip(occurrence_weights, grid_cells(spans, (start, end), resolution)):
        if cells:
            steps[cells.start] += w
            steps[cells.stop] -= w
    nums = tuple(itertools.accumulate(steps[:n]))
    total = sum(iw.values())
    if normalize and total > 0:
        den = total  # (c / den) / (total / den) = c / total
    return PollingCurve(start, resolution, nums, den)


# ---------------------------------------------------------------------------
# Savitzky-Golay smoothing (exact least squares on integers)


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


@functools.cache
def _fit_weights(half: int, order: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Integer weights w, their prefix sums and denominator d with fit(0) = sum w_j * y_j / d.

    The fit is the degree-`order` least-squares polynomial through the
    samples y_j at offsets -half..half from the evaluation point, and
    order < 2 * half + 1.  The value at 0 is row 0 of the inverse normal
    matrix M applied to the design, so w_j / d = sum_e c_e * x_j**e where
    M c = e_0.  The prefix sums (prefix[k] = w_0 + ... + w_{k-1}) weigh a
    run of equal samples with one product.
    """
    offsets = range(-half, half + 1)
    k = order + 1
    moments = [sum(x**e for x in offsets) for e in range(2 * k - 1)]
    normal = [[Fraction(moments[r + c]) for c in range(k)] for r in range(k)]
    coeffs = [row[0] for row in _solve_linear(normal, [[Fraction(int(r == 0))] for r in range(k)])]
    ints, den = over_common_denominator(coeffs)
    weights = [sum(c * x**e for e, c in enumerate(ints)) for x in offsets]
    common = math.gcd(den, *weights)
    weights = tuple(w // common for w in weights)
    return weights, (0, *itertools.accumulate(weights)), den // common


def _smooth(ys: Sequence[int], kernels: Sequence[tuple[int, int]]) -> tuple[np.ndarray, list[int]]:
    """The samples padded with copies of their end values and smoothed by each kernel.

    Returns one row per (window, order) kernel, each the n + 2 * W centred
    fits at curve indices -W..n + W - 1, W the largest window, as
    numerators over that kernel's denominator.  The padded curve is a run
    of `first` up to `head`, the samples head..tail, and a run of `last`
    after `tail`.  A window takes the runs' share from its kernel's prefix
    sums, one product per run and one gather for all rows, and the samples
    in between enter through one convolution per kernel, so the padding
    costs no product however long the window is.  The fits a row has
    beyond its own window see only one end value, so they are constant.
    The arithmetic is int64 when no fit and no difference the boundary
    decision takes of them can overflow it, and Python ints otherwise.
    """
    import numpy as np  # here, so that importing polling does not load numpy

    if not ys:
        raise ValueError("cannot smooth an empty curve")
    first, last = ys[0], ys[-1]
    fits = [_fit_weights(window // 2, order) for window, order in kernels]
    widest = max(window for window, _ in kernels)
    # a fit is a sum of products of distinct weights and samples, and a
    # crossing's change |b - a| of the second difference is at most 8 fits
    exact = 8 * max(1, max(map(abs, ys))) * max(sum(map(abs, w)) for w, _, _ in fits) >= 2**63
    dtype = object if exact else np.int64
    y = np.array(ys, dtype)
    n = len(ys) + 2 * widest
    off_first, off_last = np.flatnonzero(y != first), np.flatnonzero(y != last)
    head = widest + int(off_first[0]) if off_first.size else n
    tail = widest + int(off_last[-1]) if off_last.size else -1
    tail = max(tail, head - 1)  # a constant curve is all head run, counted once
    halves = [window // 2 for window, _ in kernels]
    lo = np.arange(n) - np.array(halves)[:, None]  # each output's first window position
    # each kernel's prefix sums, its total repeated up to one past the largest window
    prefix = np.array([p + p[-1:] * (widest + 1 - len(p)) for _, p, _ in fits], dtype)
    rows = np.arange(len(kernels))[:, None]
    # np.minimum(np.maximum(...)) clips, at well under half np.clip's cost on small arrays
    out = first * prefix[rows, np.minimum(np.maximum(head - lo, 0), widest)] + last * (
        prefix[:, -1:] - prefix[rows, np.minimum(np.maximum(tail + 1 - lo, 0), widest)]
    )
    if head <= tail:
        # the padding keeps head - half >= 0 and tail + half < n
        middle = y[head - widest : tail + 1 - widest]
        for row, half, (weights, _, _) in zip(out, halves, fits):
            row[head - half : tail + half + 1] += np.convolve(middle, np.array(weights[::-1], dtype))
    return out, [den for _, _, den in fits]


def savgol_smooth(curve: PollingCurve, window: int, order: int) -> PollingCurve:
    """Least-squares polynomial smoothing, on the curve's own grid.

    Each value is the degree-`order` fit over the centred window, evaluated
    at its centre, with the curve extended by its end values as boundary
    extraction extends it: this is `boundary_trace`'s smoothed curve without
    the padding.  The arithmetic is exact on integers.
    """
    _check_smoothing(window, order)
    rows, (den,) = _smooth(curve.nums, [(window, order)])
    return PollingCurve(curve.origin, curve.resolution, rows[0, window:-window].tolist(), den * curve.den)


def derivatives(curve: PollingCurve) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """First and second forward differences (lengths n-1 and n-2)."""
    v = curve.nums
    if len(v) < 3:
        raise ValueError("curve must have at least 3 values")
    p1 = [b - a for a, b in zip(v, v[1:])]
    p2 = [b - a for a, b in zip(p1, p1[1:])]
    return tuple(Fraction(x, curve.den) for x in p1), tuple(Fraction(x, curve.den) for x in p2)


# ---------------------------------------------------------------------------
# Boundary extraction


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
    `window` grid steps before the input's.  Of its `derivatives` p1 and p2,
    p1[j] sits at smoothed.time_at(j) and p2[j] at smoothed.time_at(j + 1).
    `boundaries` index the input curve; `crossings` lists every crossing of
    p1 and p2 in decision order.
    """

    smoothed: PollingCurve
    boundaries: BoundarySet
    crossings: tuple[Crossing, ...]


# A crossing of the smoothed padded signal: (grid index of the input curve,
# steepness key, 1 or 2 for the derivative it comes from).
_Crossing = tuple[int, int, int]


class _Signal(NamedTuple):
    """One kernel's signal on integers; `smoothed` is a view of `_signals`' rows."""

    smoothed: np.ndarray  # the padded curve, smoothed, numerators over den
    den: int
    crossings: list[_Crossing]  # sorted
    key_den: int  # a crossing's steepness is its key / key_den


def _signals(curve: PollingCurve, kernels: Sequence[tuple[int, int]]) -> list[_Signal]:
    """Per (window, order) kernel, the curve padded with `window` copies of its
    edge values, smoothed, differenced twice, and the zero crossings of both
    differences, sorted: one array pass for all kernels, and no Fraction.

    The padding gives boundaries at the very start or end of the piece the
    flat context of interior ones.  A crossing is a pair of consecutive
    nonzero samples i < j of one row with opposite signs; a direct flip
    (j = i + 1) sits at the smaller magnitude (the later index on ties), a
    run of zeros at its centre, rounded later.  Its steepness is
    |f[j] - f[i]| / (j - i), whose order one positive denominator does not
    change.  P'[t] spans grid points t..t+1 and P''[t] is centred on t+1;
    positions map to grid indices of the curve, clipped to [0, n].  The fits
    a row has beyond its own window are constant and add no crossing.  Each
    steepness becomes the integer key change * (L / span) over key_den =
    den * L, L the least common multiple of the signal's spans, so sorting
    by (index, key, derivative) sorts by exact steepness.
    """
    import numpy as np  # here, so that importing polling does not load numpy

    n, count, widest = len(curve), len(kernels), max(window for window, _ in kernels)
    rows, dens = _smooth(curve.nums, kernels)
    p1 = np.diff(rows)
    p2 = np.diff(p1)
    # each kernel's p1 row, then its p2 row with a trailing 0, in one scan
    f = np.zeros((2 * count, p1.shape[1]), p1.dtype)
    f[0::2], f[1::2, :-1] = p1, p2
    row, col = np.nonzero(f)
    v = f[row, col]
    a, b = v[:-1], v[1:]
    flip = (row[:-1] == row[1:]) & ((a < 0) != (b < 0))
    row, i, j, a, b = row[:-1][flip], col[:-1][flip], col[1:][flip], a[flip], b[flip]
    pos = np.where((j == i + 1) & (abs(a) < abs(b)), i, (i + j + 1) >> 1)
    derivative = 1 + (row & 1)
    index = np.minimum(np.maximum(pos + derivative - 1 - widest, 0), n)
    # kernel k's crossings, both derivatives, are the ones of rows 2k and 2k + 1
    cuts = np.searchsorted(row, np.arange(0, 2 * count + 1, 2)).tolist()
    index, change, span, derivative = (x.tolist() for x in (index, abs(b - a), j - i, derivative))
    signals = []
    for k, ((window, _), den) in enumerate(zip(kernels, dens)):
        part = slice(cuts[k], cuts[k + 1])
        lcm = math.lcm(*span[part])
        keys = [c * (lcm // s) for c, s in zip(change[part], span[part])]
        lo, hi = widest - window, widest + n + window
        den *= curve.den
        signals.append(_Signal(
            rows[k, lo:hi], den,
            sorted(zip(index[part], keys, derivative[part])), den * lcm,
        ))
    return signals


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
    (sig,) = _signals(curve, [(params.window, params.order)])
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
    origin = curve.origin - params.window * curve.resolution
    return BoundaryTrace(
        smoothed=PollingCurve(origin, curve.resolution, sig.smoothed.tolist(), sig.den),
        boundaries=tuple(b[0] for b in kept),
        crossings=tuple(crossings),
    )


def extract_boundaries(curve: PollingCurve, params: PpParams) -> BoundarySet:
    """The boundaries of :func:`boundary_trace`, as grid indices of `curve`."""
    (sig,) = _signals(curve, [(params.window, params.order)])
    return tuple(b[0] for b in _decide(sig.crossings, sig.key_den, params))


# ---------------------------------------------------------------------------
# Parameter training


def train_pp(
    pieces: Sequence[tuple[Sequence[PatternRecord], Sequence[int]]],
    grid: Iterable[PpParams],
    objective: str = "f1",
    k_folds: int = 3,
    tolerance: int = 1,
    seed: int = 0,
) -> PpParams:
    """Cross-validated grid search for boundary-extraction parameters.

    Each piece is a (records, truth boundary indices) pair, the indices on
    the grid of its polling curve: origin 0, resolution 1, as
    `evaluation.truth_boundaries` gives them by default.  Pieces are
    dealt into `k_folds` folds (seeded shuffle, then round robin); every
    parameter candidate is scored by the mean objective over validation
    folds and the best one wins, ties broken by smaller window, then
    smaller lambda, then smaller order.  Candidates equal on all three,
    such as ones that differ only in derivative flags, go to the earliest
    in grid order.
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

    # A centred fit's odd-degree term vanishes at the centre, so orders 2k and
    # 2k + 1 share one kernel and one signal, and each piece is smoothed once
    # with all of its kernels.  Each signal's sorted crossings are split once
    # per pair of derivative flags, so each lambda only filters and merges.
    kernels = {(p.window, p.order // 2): (p.window, p.order) for p in candidates}
    signals = {
        (i, *smoothing): ({(True, True): sig.crossings}, sig.key_den)
        for i, (records, _) in enumerate(pieces)
        for smoothing, sig in zip(kernels, _signals(polling_curve(records), [*kernels.values()]))
    }
    pairs: dict[tuple, tuple[int, int]] = {}

    def pair(params: PpParams, i: int) -> tuple[int, int]:
        """The objective on piece i as (numerator, denominator), decided once per
        distinct signal, lambda and derivative flags."""
        smoothing = (i, params.window, params.order // 2)
        flags = (params.use_first, params.use_second)
        decision = (*smoothing, params.lam, *flags)
        if decision not in pairs:
            splits, key_den = signals[smoothing]
            if flags not in splits:
                use = (None, *flags)
                splits[flags] = [c for c in splits[True, True] if use[c[2]]]
            predicted = [b[0] for b in _decide(splits[flags], key_den, params)]
            pairs[decision] = evaluation.boundary_prf(predicted, pieces[i][1], tolerance).ratio(objective)
        return pairs[decision]

    def rank(params: PpParams) -> tuple:
        # the mean over folds of each fold's mean, as one Fraction: piece i of
        # fold f adds num / (den * |f|), each scaled to the least common
        # denominator of those terms
        terms = [(num, den * len(fold))
                 for fold in folds for num, den in (pair(params, i) for i in fold)]
        lcm = math.lcm(*(den for _, den in terms))
        mean = Fraction(sum(num * (lcm // den) for num, den in terms), lcm * k_folds)
        return -mean, params.window, params.lam, params.order

    return min(candidates, key=rank)
