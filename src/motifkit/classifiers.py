"""Self-contained classifiers: random forest, Gaussian naive Bayes, LDA.

All three are deterministic given their seed, vote ties resolve to the
smallest class index, and the forest exposes Gini impurity importances so
the feature-importance analysis does not depend on an external learner.

The forest grows level by level.  Each tree has its own random stream: it
draws its bootstrap rows first, then one block of feature draws per depth
for its splitting nodes in level order.  So every tree of the forest grows
at once, and each depth takes all its splits from one sort over the live
rows.  The fitted forest is flat node arrays (feature, threshold, class,
left child, right child) in level order.
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


def _by_class(X, y) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """X, the classes, and each class's rows of X, in class order."""
    X, codes, classes = _as_arrays(X, y)
    return X, classes, [X[codes == c] for c in range(len(classes))]


# ---------------------------------------------------------------------------
# Random forest


def _rank_codes(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each feature's values as ranks among its distinct values, and those values.

    ``ranks[f, i]`` is the rank of ``X[i, f]`` and ``values[f, a]`` feature f's
    a-th least distinct value; NaNs are one value, the greatest, as in `np.unique`.
    """
    order = np.argsort(X, axis=0)
    ordered = np.take_along_axis(X, order, axis=0)
    new = np.ones(X.shape, dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]) & ~(np.isnan(ordered[1:]) & np.isnan(ordered[:-1]))
    level = np.cumsum(new, axis=0) - 1
    ranks = np.empty(X.shape[::-1], dtype=np.int64)
    np.put_along_axis(ranks.T, order, level, axis=0)
    values = np.zeros((X.shape[1], int(level[-1].max(initial=0)) + 1))
    row, col = np.nonzero(new)
    values[col, level[row, col]] = ordered[row, col]
    return ranks, values


def _best_splits(keys: np.ndarray, counts: np.ndarray, width: int, mtry: int) -> tuple:
    """Each node's least weighted-Gini threshold, from its rows' sorted keys.

    ``keys`` holds ((node * mtry + draw) * width + level) * k + class for each
    row of each node and each of its `mtry` drawn features, sorted; ``counts``
    are the nodes' class counts.  A threshold follows each level present in a
    node's feature but its last.  Ties go to the first draw, then the lowest
    level.  Returns, per node with a threshold in node order: the node, its
    draw, the level, the next level present and the weighted Gini.
    """
    k = counts.shape[1]
    last = np.append(keys[1:] != keys[:-1], keys.size > 0).nonzero()[0]  # each cell's last key
    cells = keys[last] // k
    held = np.zeros((last.size + 1, k), dtype=np.int64)  # class counts up to each cell
    held[np.arange(1, last.size + 1), keys[last] % k] = np.diff(last, prepend=-1)
    np.cumsum(held, axis=0, out=held)
    group = cells // width
    end = ((group[:-1] == group[1:]) & (cells[:-1] != cells[1:])).nonzero()[0]
    left = held[end + 1] - held[np.searchsorted(group, group[end])]
    node = group[end] // mtry
    nl = left.sum(axis=1)
    n = counts.sum(axis=1)[node]
    nr = n - nl
    gl = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
    gr = 1.0 - (((counts[node] - left) / nr[:, None]) ** 2).sum(axis=1)
    weighted = (nl * gl + nr * gr) / n
    # the first candidate at its node's least weighted Gini
    first = np.diff(node, prepend=-1).nonzero()[0]
    low = np.repeat(np.minimum.reduceat(weighted, first), np.diff(first, append=node.size))
    best = (weighted == low).nonzero()[0]
    best = best[np.diff(node[best], prepend=-1).nonzero()[0]]
    end = end[best]
    return node[best], group[end] % mtry, cells[end] % width, cells[end + 1] % width, weighted[best]


@dataclass
class RandomForest:
    """Bootstrap-aggregated CART trees with the Gini criterion and majority vote.

    Each split tries m = round(sqrt(d)) of the d features, at least one.
    Tree t draws from its own stream, ``SeedSequence(seed).spawn(trees)[t]``:
    first its n bootstrap rows, then, at each depth, one ``random((nodes,
    d))`` block for its splitting nodes in level order, a node trying the
    first m columns of its row's stable argsort.  A node is a leaf when it
    holds fewer than 2 rows, is pure, or its drawn features are constant
    in it.  Otherwise the least weighted Gini wins; ties go to the feature
    drawn first, then to the lowest threshold, the midpoint between the
    level and the next one present in the node.

    `fit` rank-encodes each feature once and grows every tree of the
    forest together, one depth at a time: one sort of (node, drawn feature,
    level, class) keys over the live bootstrap rows, and a running class
    count along it, give every open node's thresholds (`_best_splits`), so
    a depth costs its rows times m, whatever its node count.  The forest is
    flat arrays over its nodes in level order, roots 0 to trees - 1:
    feature, threshold, class, left and right child.  A leaf is its own left
    and right child on feature 0, so `predict` walks every row through
    every tree `depth` steps and votes with one `bincount`.
    `feature_importances_` is the tree-averaged Gini impurity decrease,
    n/N x (gini - weighted gini) per split for a node of n of the N
    bootstrap rows, normalized to sum to one.
    """

    trees: int = 200
    seed: int = 0
    classes_: np.ndarray = field(default=None, init=False, repr=False)
    feature_importances_: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.trees < 1:
            raise ValueError(f"trees must be >= 1, got {self.trees}")

    def fit(self, X, y) -> "RandomForest":
        X, y, classes = _as_arrays(X, y)
        self.classes_ = classes
        n, d = X.shape
        k, trees = len(classes), self.trees
        mtry = min(max(1, int(round(d**0.5))), d)
        ranks, values = _rank_codes(X)
        width = values.shape[1]
        # a row's (level, class) of feature f is ranked[f * n + row]: level * k + class
        ranked = (ranks * k + y).ravel()
        streams = [np.random.default_rng(s) for s in np.random.SeedSequence(self.seed).spawn(trees)]
        rows = np.concatenate([rng.integers(0, n, size=n) for rng in streams])
        at = np.repeat(np.arange(trees), n)  # each live row's node among the open ones
        tree_of = np.arange(trees)  # the open nodes' trees, in level order
        importances = np.zeros((trees, d))
        levels, first = [], 0  # per depth: (feature, threshold, class, left, right)
        while True:
            count = len(tree_of)
            ids = np.arange(first, first + count)
            counts = np.bincount(at * k + y[rows], minlength=count * k).reshape(count, k)
            size = counts.sum(axis=1)
            gini = 1.0 - ((counts / size[:, None]) ** 2).sum(axis=1)
            split = ((size >= 2) & (gini != 0.0)).nonzero()[0]
            leaves = (np.zeros(count, dtype=np.int64), np.zeros(count), counts.argmax(axis=1))
            level = (*leaves, ids, ids.copy())  # a leaf is its own left and right child
            levels.append(level)
            first += count
            if not split.size:
                break
            # one draw per tree for its splitting nodes, in level order
            per_tree = np.bincount(tree_of[split], minlength=trees)
            draws = [streams[t].random((c, d)) for t, c in enumerate(per_tree) if c]
            drawn = np.argsort(np.concatenate(draws), axis=1, kind="stable")[:, :mtry]
            slot = np.full(count, -1)
            slot[split] = np.arange(split.size)
            live = slot[at] >= 0
            r, j = rows[live], slot[at[live]]
            # every live row of a splitting node, once per drawn feature, as its key,
            # built in place to keep one (m, rows) array at a time
            keys = np.take(drawn.T * n, j, axis=1)
            keys += r
            keys = ranked[keys]
            keys += j * (mtry * width * k)
            keys += np.arange(mtry)[:, None] * (width * k)
            keys = keys.ravel()
            keys.sort()
            won, draw, a, b, weighted = _best_splits(keys, counts[split], width, mtry)
            if not won.size:
                break
            f = drawn[won, draw]
            lo, hi = values[f, a], values[f, b]
            # the midpoint of adjacent floats can round up to the upper one, or overflow
            mid = (lo + hi) / 2.0
            at_node = split[won]
            gain = (size[at_node] / n) * (gini[at_node] - weighted)
            np.add.at(importances, (tree_of[at_node], f), gain)
            children = first + 2 * np.arange(won.size)
            feature, threshold, _, lefts, rights = level
            feature[at_node], threshold[at_node] = f, np.where(mid < hi, mid, lo)
            lefts[at_node], rights[at_node] = children, children + 1
            # route the rows of the split nodes to their children
            child = np.full(count, -1)
            child[at_node] = np.arange(won.size)
            w = child[at]
            kept = w >= 0
            rows, w = rows[kept], w[kept]
            at = 2 * w + (ranks[f[w], rows] > a[w])
            tree_of = np.repeat(tree_of[at_node], 2)
        self._nodes = tuple(map(np.concatenate, zip(*levels)))
        self._depth = len(levels) - 1  # every level but the last splits a node
        self._importances = importances
        mean = importances.sum(axis=0) / trees
        total = mean.sum()
        self.feature_importances_ = mean / total if total > 0 else mean
        return self

    def _walk(self, X: np.ndarray) -> np.ndarray:
        """The class code each tree gives each row: (rows, trees)."""
        feature, threshold, value, left, right = self._nodes
        rows = np.arange(len(X))[:, None]
        at = np.broadcast_to(np.arange(self.trees), (len(X), self.trees))
        for _ in range(self._depth):
            at = np.where(X[rows, feature[at]] <= threshold[at], left[at], right[at])
        return value[at]

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        k = len(self.classes_)
        cells = np.arange(len(X))[:, None] * k + self._walk(X)
        votes = np.bincount(cells.ravel(), minlength=len(X) * k).reshape(len(X), k)
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

    classes_: np.ndarray = field(default=None, init=False, repr=False)

    def fit(self, X, y) -> "GaussianNaiveBayes":
        _, self.classes_, groups = _by_class(X, y)
        self._mean = np.array([rows.mean(axis=0) for rows in groups])
        self._var = np.array([rows.var(axis=0) for rows in groups]) + 1e-9
        counts = np.array([len(rows) for rows in groups])
        self._log_prior = np.log((counts + 1) / (counts.sum() + len(groups)))
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        ll = -0.5 * (np.log(2 * np.pi * self._var) + (X[:, None] - self._mean) ** 2 / self._var)
        scores = self._log_prior + ll.sum(axis=2)
        return self.classes_[np.argmax(scores, axis=1)]


# ---------------------------------------------------------------------------
# Linear discriminant analysis


@dataclass
class LinearDiscriminant:
    """Pooled-covariance linear discriminant with a ridge fallback.

    When the pooled within-class covariance is singular, 1e-6 * I is
    added to its diagonal before solving.
    """

    classes_: np.ndarray = field(default=None, init=False, repr=False)

    def fit(self, X, y) -> "LinearDiscriminant":
        X, self.classes_, groups = _by_class(X, y)
        n, d = X.shape
        means = np.array([rows.mean(axis=0) for rows in groups])
        pooled = np.zeros((d, d))
        for rows, mean in zip(groups, means):
            centered = rows - mean
            pooled += centered.T @ centered
        pooled /= max(n - len(groups), 1)
        if np.linalg.matrix_rank(pooled) < d:
            pooled = pooled + 1e-6 * np.eye(d)
        self._coef = np.linalg.solve(pooled, means.T).T
        counts = np.array([len(rows) for rows in groups])
        self._intercept = -0.5 * np.einsum("ij,ij->i", means, self._coef) + np.log(counts / n)
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
