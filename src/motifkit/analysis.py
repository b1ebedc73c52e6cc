"""Comparative classification over pattern occurrences.

The pipeline: sample length-matched random excerpts as a baseline group,
extract a fixed 26-feature vector per occurrence (pitch statistics,
melodic intervals, rhythm), standardize + PCA per training fold, run
repeated stratified cross-validation over several classifiers, and rank
features with shadow-permutation importance on the random forest's Gini
importances.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from motifkit.core import PatternOccurrence, PatternRecord, PointSet, subseed
from motifkit.classifiers import train_classifier

FEATURE_NAMES = (
    # pitch statistics
    "pitch_range",
    "pitch_mean",
    "pitch_std",
    "distinct_pitch_count",
    "distinct_pitch_class_count",
    "most_common_pitch_prevalence",
    # melodic intervals
    "mean_abs_interval",
    "max_abs_interval",
    "most_common_interval",
    "most_common_interval_prevalence",
    "repeated_note_proportion",
    "stepwise_proportion",
    "third_proportion",
    "large_leap_proportion",
    "tritone_proportion",
    "seventh_proportion",
    "octave_proportion",
    "direction_change_ratio",
    "ascending_proportion",
    # rhythm
    "note_count",
    "total_duration",
    "note_density",
    "mean_duration",
    "duration_std",
    "distinct_duration_count",
    "rest_proportion",
)


def extract_features(occ: PatternOccurrence) -> np.ndarray:
    """26 features of one occurrence, ordered as FEATURE_NAMES.

    Single-note occurrences have every interval feature equal to 0.
    Intervals are signed semitone steps between consecutive notes; the
    proportion features classify their magnitudes (repeats 0, steps 1-2,
    thirds 3-4, leaps >= 5, tritones 6, sevenths 10-11, octaves 12).
    """
    pts = occ.points
    pitches = [p.pitch for p in pts]
    n = len(pts)
    span = occ.span
    total = float(max(p.end for p in pts) - span[0])
    durations = [float(p.duration) for p in pts]
    sounding = sum(durations)

    counts = Counter(pitches)
    most_common_pitch = max(counts.values())

    intervals = [b - a for a, b in zip(pitches, pitches[1:])]
    if intervals:
        abs_iv = [abs(i) for i in intervals]
        ic = Counter(intervals)
        top = max(ic.values())
        # deterministic mode: smallest magnitude, then ascending direction
        mci = min((i for i, c in ic.items() if c == top), key=lambda i: (abs(i), -i))
        m = len(intervals)
        prop = lambda pred: sum(1 for a in abs_iv if pred(a)) / m
        changes = sum(
            1 for a, b in zip(intervals, intervals[1:]) if (a > 0 > b) or (a < 0 < b)
        )
        interval_feats = [
            sum(abs_iv) / m,
            max(abs_iv),
            mci,
            top / m,
            prop(lambda a: a == 0),
            prop(lambda a: 1 <= a <= 2),
            prop(lambda a: 3 <= a <= 4),
            prop(lambda a: a >= 5),
            prop(lambda a: a == 6),
            prop(lambda a: 10 <= a <= 11),
            prop(lambda a: a == 12),
            changes / (n - 2) if n > 2 else 0.0,
            sum(1 for i in intervals if i > 0) / m,
        ]
    else:
        interval_feats = [0.0] * 13

    values = [
        float(max(pitches) - min(pitches)),
        float(np.mean(pitches)),
        float(np.std(pitches)),
        float(len(counts)),
        float(len({p % 12 for p in pitches})),
        most_common_pitch / n,
        *interval_feats,
        float(n),
        total,
        n / total,
        sounding / n,
        float(np.std(durations)),
        float(len(set(durations))),
        max(0.0, (total - sounding) / total),
    ]
    return np.array(values, dtype=float)


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows with one group label per row."""

    X: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(X) != len(self.labels):
            raise ValueError("row count must equal label count")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")


# ---------------------------------------------------------------------------
# Random-excerpt baseline


def sample_random_excerpts(
    items: Sequence[tuple[PointSet, Sequence[PatternRecord]]],
    repeats: int = 5,
    seed: int = 0,
) -> list[PatternOccurrence]:
    """Length-matched random excerpts, `repeats` per annotated occurrence.

    Each excerpt takes the same number of consecutive notes as its source
    annotation, from the same piece, at a uniformly random start index.
    Pieces shorter than an annotation are skipped with a warning.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.default_rng(seed)
    out = []
    for piece, records in items:
        pts = piece.points
        for rec in records:
            for occ in rec.occurrences:
                k = len(occ.points)
                if k > len(pts):
                    warnings.warn(
                        f"skipping {rec.algorithm_id}/{rec.pattern_id}: "
                        f"annotation of {k} notes exceeds piece of {len(pts)}"
                    )
                    continue
                for _ in range(repeats):
                    start = int(rng.integers(0, len(pts) - k + 1))
                    out.append(PatternOccurrence(pts[start : start + k]))
    return out


# ---------------------------------------------------------------------------
# Standardize + PCA


@dataclass(frozen=True)
class PcaModel:
    """Per-feature z-scaling plus an orthonormal component basis."""

    mean: np.ndarray
    scale: np.ndarray
    components: np.ndarray  # (k, d), rows orthonormal
    explained_variance_ratio: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        Z = (np.asarray(X, dtype=float) - self.mean) / self.scale
        return Z @ self.components.T

    def inverse_transform(self, Y: np.ndarray) -> np.ndarray:
        return (np.asarray(Y, dtype=float) @ self.components) * self.scale + self.mean


def fit_scaler_pca(X: np.ndarray, k: int | None = None) -> PcaModel:
    """Z-scale (zero-variance features get scale 1), then eigen-decompose.

    Components are the top-k covariance eigenvectors, eigenvalue
    descending, with each component's largest-magnitude entry made
    positive.  Ratios are against the total variance of all components.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 rows")
    if k is None:
        k = d
    if not 1 <= k <= d:
        raise ValueError(f"components must be in [1, {d}]")
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale == 0, 1.0, scale)
    Z = (X - mean) / scale
    cov = (Z.T @ Z) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    components = eigvecs[:, order].T[:k].copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1
    total = eigvals.sum()
    ratios = eigvals[:k] / total if total > 0 else np.zeros(k)
    return PcaModel(
        mean=mean, scale=scale, components=components, explained_variance_ratio=ratios
    )


# ---------------------------------------------------------------------------
# Cross-validation


@dataclass(frozen=True)
class ClassifierCvResult:
    accuracies: np.ndarray  # folds * repeats
    accuracy_mean: float
    accuracy_variance: float
    confusion_mean: np.ndarray  # (classified, original)
    confusion_variance: np.ndarray
    classes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "accuracy_mean": self.accuracy_mean,
            "accuracy_variance": self.accuracy_variance,
            "accuracies": [float(a) for a in self.accuracies],
            "classes": list(self.classes),
            "confusion_mean": [[float(v) for v in row] for row in self.confusion_mean],
            "confusion_variance": [
                [float(v) for v in row] for row in self.confusion_variance
            ],
        }


@dataclass(frozen=True)
class CvReport:
    results: Mapping[str, ClassifierCvResult]
    folds: int
    repeats: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "folds": self.folds,
            "repeats": self.repeats,
            "seed": self.seed,
            "classifiers": {
                name: res.to_json_dict() for name, res in sorted(self.results.items())
            },
        }


def _class_rows(codes: np.ndarray, k: int) -> list[np.ndarray]:
    """The rows of each of the k class codes, ascending."""
    return [np.flatnonzero(codes == c) for c in range(k)]


def _balance(codes: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Seeded downsampling of every class to the minority count: the rows kept, ascending."""
    members = _class_rows(codes, k)
    minority = min(map(len, members))
    rng = np.random.default_rng(subseed(seed, "balance"))
    return np.sort(np.concatenate([rng.choice(rows, size=minority, replace=False) for rows in members]))


def _stratified_folds(
    codes: np.ndarray, k: int, folds: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Deal each class's shuffled rows round-robin into `folds` buckets, each ascending."""
    members = [rng.permutation(rows) for rows in _class_rows(codes, k)]
    dealt = np.concatenate(members)
    slots = np.concatenate([np.arange(len(rows)) % folds for rows in members])
    return [np.sort(dealt[slots == f]) for f in range(folds)]


def cross_validate(
    dataset: LabeledDataset,
    classifiers: Mapping[str, dict],
    folds: int = 10,
    repeats: int = 3,
    balance: bool = True,
    seed: int = 0,
    pca_components: int | None = None,
) -> CvReport:
    """Repeated stratified k-fold cross-validation.

    `classifiers` maps each kind (``rf``, ``nb``, ``lda``) to its
    `train_classifier` params.

    Each label gets one integer code, its rank among the sorted classes,
    and balancing, folds, training and confusion counts all run on the
    codes.  Balancing downsamples every class to the minority count before
    splitting.  The scaler/PCA preprocessing, when requested, is fit on
    each training fold only.  Confusion matrices are (classified row,
    original column): each column sums to that class's test count.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if not isinstance(classifiers, Mapping):
        raise TypeError(f"classifiers must map kind to params, got {type(classifiers).__name__}")
    spec = dict(classifiers)
    if not spec:
        raise ValueError("no classifiers to cross-validate")
    classes, codes = np.unique(dataset.labels, return_inverse=True)
    k = len(classes)
    if k < 2:
        raise ValueError("need at least 2 classes")
    X = dataset.X
    if balance:
        keep = _balance(codes, k, seed)
        X, codes = X[keep], codes[keep]
    sizes = np.bincount(codes, minlength=k)
    short = np.flatnonzero(sizes < folds)
    if short.size:
        c = short[0]
        raise ValueError(
            f"class {str(classes[c])!r} has {sizes[c]} members after balancing, fewer than {folds} folds"
        )

    accuracies: dict[str, list[float]] = {name: [] for name in spec}
    confusions: dict[str, list[np.ndarray]] = {name: [] for name in spec}

    for rep in range(repeats):
        rng = np.random.default_rng(subseed(seed, "folds", rep))
        for fold_no, test_idx in enumerate(_stratified_folds(codes, k, folds, rng)):
            mask = np.ones(len(codes), dtype=bool)
            mask[test_idx] = False
            X_train, y_train = X[mask], codes[mask]
            X_test, y_test = X[test_idx], codes[test_idx]
            if pca_components is not None:
                model = fit_scaler_pca(X_train, pca_components)
                X_train = model.transform(X_train)
                X_test = model.transform(X_test)
            for name, params in spec.items():
                params = dict(params)
                if name == "rf":
                    params.setdefault("seed", subseed(seed, "rf", rep, fold_no))
                pred = train_classifier(name, X_train, y_train, params).predict(X_test)
                accuracies[name].append(float(np.mean(pred == y_test)))
                cells = np.bincount(pred * k + y_test, minlength=k * k)
                confusions[name].append(cells.reshape(k, k))

    results = {}
    for name in spec:
        accs = np.array(accuracies[name])
        cms = np.stack(confusions[name])
        results[name] = ClassifierCvResult(
            accuracies=accs,
            accuracy_mean=float(accs.mean()),
            accuracy_variance=float(accs.var(ddof=1)),
            confusion_mean=cms.mean(axis=0),
            confusion_variance=cms.var(axis=0, ddof=1),
            classes=tuple(classes.tolist()),
        )
    return CvReport(results=results, folds=folds, repeats=repeats, seed=seed)


# ---------------------------------------------------------------------------
# Shadow-feature importance


@dataclass(frozen=True)
class FeatureImportance:
    name: str
    importance_mean: float
    hit_rate: float
    status: str  # confirmed | tentative | rejected


@dataclass(frozen=True)
class ImportanceReport:
    features: tuple[FeatureImportance, ...]
    runs: int
    seed: int

    def status_of(self, name: str) -> str:
        for f in self.features:
            if f.name == name:
                return f.status
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        """The field names are the JSON keys."""
        return asdict(self)


def feature_importance(
    X: np.ndarray,
    y: Sequence[str],
    feature_names: Sequence[str] | None = None,
    runs: int = 20,
    trees: int = 100,
    seed: int = 0,
) -> ImportanceReport:
    """Shadow-permutation importance over a random forest.

    Each run appends one row-permuted copy of every feature, trains a
    forest, and marks a real feature as hitting when its Gini importance
    beats the best shadow importance.  Features hitting in at least three
    quarters of the runs are confirmed, in at most a quarter rejected,
    anything between tentative.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"f{i}" for i in range(d)
    )
    if len(names) != d:
        raise ValueError("feature_names length must match the feature count")
    hits = np.zeros(d)
    importance_sum = np.zeros(d)
    for run in range(runs):
        rng = np.random.default_rng(subseed(seed, "shadow", run))
        shadows = np.column_stack([rng.permutation(X[:, j]) for j in range(d)])
        augmented = np.hstack([X, shadows])
        forest = train_classifier(
            "rf", augmented, y, {"trees": trees, "seed": subseed(seed, "rf", run)}
        )
        imp = forest.feature_importances_
        real, shadow = imp[:d], imp[d:]
        threshold = shadow.max()
        hits += real > threshold
        importance_sum += real
    features = []
    for j, name in enumerate(names):
        rate = hits[j] / runs
        if rate >= 0.75:
            status = "confirmed"
        elif rate <= 0.25:
            status = "rejected"
        else:
            status = "tentative"
        features.append(
            FeatureImportance(
                name=name,
                importance_mean=float(importance_sum[j] / runs),
                hit_rate=float(rate),
                status=status,
            )
        )
    return ImportanceReport(features=tuple(features), runs=runs, seed=seed)
