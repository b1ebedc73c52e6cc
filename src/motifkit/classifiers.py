"""Self-contained classifiers: random forest, Gaussian naive Bayes, LDA.

All three are deterministic given their seed, vote ties resolve to the
smallest class index, and the forest exposes Gini impurity importances so
the feature-importance analysis does not depend on an external learner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _as_arrays(X, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    classes, codes = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise ValueError("need at least 2 classes to train a classifier")
    return X, codes, classes


# ---------------------------------------------------------------------------
# CART + random forest


class _Tree:
    """CART with the Gini criterion and per-node feature subsampling.

    A node counts its rows once, in a table over (drawn feature, level,
    class) of max_features x (most levels of a feature) x classes
    integers. A feature has no more levels than the fit has rows, at
    most about 400 here, so the table stays small. A threshold follows
    each level present in the node but the feature's last, and its left
    counts are the table's running sum over levels. The least weighted
    Gini wins; ties go to the feature drawn first, then to the lowest
    threshold.

    Nodes are flat lists in pre-order, grown left child first so the
    feature draws keep their order. A leaf is its own left and right
    child on feature 0, so `predict` walks every row `depth` steps.
    """

    def __init__(self, n_classes: int, max_features: int, rng: np.random.Generator):
        self.n_classes = n_classes
        self.max_features = max_features
        self.rng = rng

    def fit(self, codes: np.ndarray, levels: list[np.ndarray], y: np.ndarray) -> "_Tree":
        """Grow on rank codes: row i's value of feature f is ``levels[f][codes[i, f]]``."""
        self.importances = np.zeros(codes.shape[1])
        self.nodes: list[list] = []  # [feature, threshold, value, left, right]
        self.depth, self.width = 0, max(map(len, levels), default=0)
        self._grow(codes, levels, y, np.arange(len(y)), 0)
        return self

    def _grow(self, codes, levels, y, idx: np.ndarray, depth: int) -> int:
        node, n, k = len(self.nodes), idx.size, self.n_classes
        counts = np.bincount(y[idx], minlength=k)
        self.nodes.append([0, 0.0, int(np.argmax(counts)), node, node])
        self.depth = max(self.depth, depth)
        if n < 2:
            return node
        node_gini = float(1.0 - np.sum((counts / n) ** 2))
        if node_gini == 0.0:
            return node
        features = self.rng.choice(codes.shape[1], size=self.max_features, replace=False)
        m, width = len(features), self.width
        cells = (np.arange(m) * width + codes[idx[:, None], features]) * k + y[idx, None]
        table = np.bincount(cells.ravel(), minlength=m * width * k).reshape(m, width, k)
        left = table.cumsum(axis=1)
        sizes = left.sum(axis=2)
        # the thresholds, ordered by draw, then level
        drawn, level = np.nonzero(table.any(axis=2) & (sizes < n))
        if not drawn.size:
            return node
        left_counts, nl = left[drawn, level], sizes[drawn, level]
        nr = n - nl
        gl = 1.0 - np.sum((left_counts / nl[:, None]) ** 2, axis=1)
        gr = 1.0 - np.sum(((counts - left_counts) / nr[:, None]) ** 2, axis=1)
        weighted = (nl * gl + nr * gr) / n
        best = int(np.argmin(weighted))
        j, a = drawn[best], level[best]
        f = int(features[j])
        b = int(np.argmax(sizes[j] > sizes[j, a]))  # the next level present in the node
        lo, hi = float(levels[f][a]), float(levels[f][b])
        # the midpoint of adjacent floats can round up to the upper one, or overflow
        threshold = (lo + hi) / 2.0 if (lo + hi) / 2.0 < hi else lo
        self.importances[f] += (n / len(y)) * (node_gini - float(weighted[best]))
        below = codes[idx, f] <= a
        self.nodes[node][:2] = f, threshold
        self.nodes[node][3] = self._grow(codes, levels, y, idx[below], depth + 1)
        self.nodes[node][4] = self._grow(codes, levels, y, idx[~below], depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        feature, threshold, value, left, right = map(np.array, zip(*self.nodes))
        rows, at = np.arange(len(X)), np.zeros(len(X), dtype=int)
        for _ in range(self.depth):
            at = np.where(X[rows, feature[at]] <= threshold[at], left[at], right[at])
        return value[at]


@dataclass
class RandomForest:
    """Bootstrap-aggregated CART trees with majority vote.

    Each split tries round(sqrt(d)) of the d features, at least one;
    `feature_importances_` is the tree-averaged Gini impurity decrease,
    normalized to sum to one. `fit` rank-encodes each feature once, and
    every tree grows on the codes of its bootstrap sample.
    """

    trees: int = 200
    seed: int = 0
    classes_: np.ndarray = field(default=None, repr=False)
    feature_importances_: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.trees < 1:
            raise ValueError(f"trees must be >= 1, got {self.trees}")

    def fit(self, X, y) -> "RandomForest":
        X, codes, classes = _as_arrays(X, y)
        self.classes_ = classes
        n, d = X.shape
        mtry = min(max(1, int(round(d**0.5))), d)
        rng = np.random.default_rng(self.seed)
        self._forest = []
        importances = np.zeros(d)
        levels, ranks = [], np.empty(X.shape, dtype=int)
        for f, column in enumerate(X.T):
            values, ranks[:, f] = np.unique(column, return_inverse=True)
            levels.append(values)
        for _ in range(self.trees):
            sample = rng.integers(0, n, size=n)
            tree = _Tree(len(classes), mtry, rng).fit(ranks[sample], levels, codes[sample])
            self._forest.append(tree)
            importances += tree.importances
        importances /= self.trees
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        votes = np.zeros((len(X), len(self.classes_)), dtype=int)
        for tree in self._forest:
            votes[np.arange(len(X)), tree.predict(X)] += 1
        return self.classes_[np.argmax(votes, axis=1)]


# ---------------------------------------------------------------------------
# Gaussian naive Bayes


@dataclass
class GaussianNaiveBayes:
    """Gaussian class-conditional likelihoods with smoothed class priors.

    A Laplace term of 1 smooths the class priors (count + 1 over total +
    #classes); variances get a floor of 1e-9 to keep the log-likelihood
    finite on constant features.
    """

    classes_: np.ndarray = field(default=None, repr=False)

    def fit(self, X, y) -> "GaussianNaiveBayes":
        X, codes, classes = _as_arrays(X, y)
        self.classes_ = classes
        k = len(classes)
        self._mean = np.empty((k, X.shape[1]))
        self._var = np.empty((k, X.shape[1]))
        counts = np.bincount(codes, minlength=k).astype(float)
        for c in range(k):
            rows = X[codes == c]
            self._mean[c] = rows.mean(axis=0)
            self._var[c] = rows.var(axis=0) + 1e-9
        self._log_prior = np.log((counts + 1) / (counts.sum() + k))
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        scores = np.empty((len(X), len(self.classes_)))
        for c in range(len(self.classes_)):
            ll = -0.5 * (
                np.log(2 * np.pi * self._var[c]) + (X - self._mean[c]) ** 2 / self._var[c]
            )
            scores[:, c] = self._log_prior[c] + ll.sum(axis=1)
        return self.classes_[np.argmax(scores, axis=1)]


# ---------------------------------------------------------------------------
# Linear discriminant analysis


@dataclass
class LinearDiscriminant:
    """Pooled-covariance linear discriminant with a ridge fallback.

    When the pooled within-class covariance is singular, 1e-6 * I is
    added to its diagonal before solving.
    """

    classes_: np.ndarray = field(default=None, repr=False)

    def fit(self, X, y) -> "LinearDiscriminant":
        X, codes, classes = _as_arrays(X, y)
        self.classes_ = classes
        k = len(classes)
        n, d = X.shape
        means = np.empty((k, d))
        pooled = np.zeros((d, d))
        counts = np.bincount(codes, minlength=k).astype(float)
        for c in range(k):
            rows = X[codes == c]
            means[c] = rows.mean(axis=0)
            centered = rows - means[c]
            pooled += centered.T @ centered
        pooled /= max(n - k, 1)
        if np.linalg.matrix_rank(pooled) < d:
            pooled = pooled + 1e-6 * np.eye(d)
        self._coef = np.linalg.solve(pooled, means.T).T
        self._intercept = -0.5 * np.einsum("ij,ij->i", means, self._coef) + np.log(
            counts / n
        )
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        scores = X @ self._coef.T + self._intercept
        return self.classes_[np.argmax(scores, axis=1)]


def train_classifier(kind: str, X, y, params: dict | None = None):
    """Fit a classifier of the given kind (``rf``, ``nb`` or ``lda``)."""
    params = dict(params or {})
    if kind == "rf":
        model = RandomForest(
            trees=int(params.pop("trees", 200)), seed=int(params.pop("seed", 0))
        )
    elif kind == "nb":
        model = GaussianNaiveBayes()
    elif kind == "lda":
        model = LinearDiscriminant()
    else:
        raise ValueError(f"unknown classifier kind {kind!r}")
    if params:
        raise ValueError(f"unknown parameters for {kind}: {sorted(params)}")
    return model.fit(X, y)
