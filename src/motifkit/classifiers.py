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
                threshold = (sv[distinct[k]] + sv[distinct[k] + 1]) / 2.0
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


@dataclass
class RandomForest:
    """Bootstrap-aggregated CART trees with majority vote.

    Each split tries round(sqrt(d)) of the d features, at least one;
    `feature_importances_` is the tree-averaged Gini impurity decrease,
    normalized to sum to one.
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
        for _ in range(self.trees):
            sample = rng.integers(0, n, size=n)
            tree = _Tree(len(classes), mtry, rng).fit(X[sample], codes[sample])
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
