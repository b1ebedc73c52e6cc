import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from motifkit.analysis import (
    FEATURE_NAMES,
    LabeledDataset,
    cross_validate,
    extract_features,
    feature_importance,
    fit_scaler_pca,
    sample_random_excerpts,
)
from motifkit.classifiers import (
    GaussianNaiveBayes,
    LinearDiscriminant,
    RandomForest,
    train_classifier,
)
from motifkit.core import PatternOccurrence, PatternRecord, Point, PointSet
from motifkit.synthesis import SynthConfig, synthesize, template_p1

import _oracles

F = Fraction


def occ(*coords):
    return PatternOccurrence(tuple(Point(F(o), p) for o, p in coords))


def named(values):
    return dict(zip(FEATURE_NAMES, values))


class TestFeatures:
    def test_stepwise_run(self):
        f = named(extract_features(occ((0, 60), (1, 62), (2, 64))))
        assert f["pitch_range"] == 4
        assert f["mean_abs_interval"] == 2
        assert f["stepwise_proportion"] == 1.0
        assert f["note_density"] == 1.0
        assert f["distinct_pitch_count"] == 3

    def test_single_note(self):
        f = named(extract_features(occ((0, 60))))
        assert f["pitch_range"] == 0
        for name in (
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
        ):
            assert f[name] == 0.0

    def test_alternating_interval_pattern(self):
        points = tuple(Point(F(i), 60 if i % 2 == 0 else 68) for i in range(20))
        f = named(extract_features(PatternOccurrence(points)))
        assert f["most_common_interval"] == 8
        assert f["tritone_proportion"] == 0.0
        assert f["direction_change_ratio"] == 1.0
        assert f["octave_proportion"] == 0.0

    def test_rest_proportion_from_gap(self):
        f = named(extract_features(occ((0, 60), (2, 62))))
        assert f["total_duration"] == 3.0
        assert f["rest_proportion"] == pytest.approx(1 / 3)

    def test_time_shift_invariance(self):
        rng = random.Random(0)
        for _ in range(20):
            coords = sorted({(rng.randrange(0, 20), rng.randrange(50, 80)) for _ in range(6)})
            base = extract_features(occ(*coords))
            shifted = extract_features(occ(*((o + 13, p) for o, p in coords)))
            assert np.allclose(base, shifted)

    def test_transposition_covariance(self):
        rng = random.Random(1)
        idx = {name: i for i, name in enumerate(FEATURE_NAMES)}
        for _ in range(20):
            coords = sorted({(rng.randrange(0, 20), rng.randrange(50, 70)) for _ in range(6)})
            base = extract_features(occ(*coords))
            up = extract_features(occ(*((o, p + 7) for o, p in coords)))
            assert up[idx["pitch_mean"]] == pytest.approx(base[idx["pitch_mean"]] + 7)
            for name in FEATURE_NAMES:
                if name == "pitch_mean":
                    continue
                assert up[idx[name]] == pytest.approx(base[idx[name]])

    def test_feature_count(self):
        assert len(FEATURE_NAMES) == 26
        assert len(extract_features(occ((0, 60)))) == 26


class TestRandomExcerpts:
    def make_piece(self, n=30):
        return PointSet.build(Point(F(i), 60 + i % 12) for i in range(n))

    def test_count_and_length(self):
        piece = self.make_piece()
        rec = PatternRecord("t", "p", (occ(*((i, 60 + i) for i in range(5))),))
        excerpts = sample_random_excerpts([(piece, [rec])], repeats=5, seed=0)
        assert len(excerpts) == 5
        assert all(len(e.points) == 5 for e in excerpts)

    def test_annotation_as_long_as_piece(self):
        piece = self.make_piece(4)
        rec = PatternRecord("t", "p", (PatternOccurrence(piece.points),))
        excerpts = sample_random_excerpts([(piece, [rec])], repeats=3, seed=1)
        assert all(e.points == piece.points for e in excerpts)

    def test_seed_determinism(self):
        piece = self.make_piece()
        rec = PatternRecord("t", "p", (occ(*((i, 61) for i in range(4))),))
        a = sample_random_excerpts([(piece, [rec])], repeats=4, seed=9)
        b = sample_random_excerpts([(piece, [rec])], repeats=4, seed=9)
        assert a == b

    def test_oversized_annotation_skipped_with_warning(self):
        piece = self.make_piece(3)
        rec = PatternRecord("t", "p", (occ(*((i, 60) for i in range(10))),))
        with pytest.warns(UserWarning, match="skipping"):
            excerpts = sample_random_excerpts([(piece, [rec])], repeats=2, seed=0)
        assert excerpts == []


class TestScalerPca:
    def test_rank_one_data(self):
        X = np.array([[1.0, 1.0], [-1.0, -1.0]])
        model = fit_scaler_pca(X)
        assert model.explained_variance_ratio[0] == pytest.approx(1.0)

    def test_isotropic_covariance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5000, 2))
        model = fit_scaler_pca(X)
        assert model.explained_variance_ratio[0] == pytest.approx(0.5, abs=0.05)

    def test_recompose_identity(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 6)) @ rng.normal(size=(6, 6))
        model = fit_scaler_pca(X)
        assert np.abs(model.inverse_transform(model.transform(X)) - X).max() < 1e-9

    def test_known_rotation_recovered(self):
        # axis-aligned variances pushed through a fixed rotation
        theta = 0.3
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        rng = np.random.default_rng(2)
        Z = rng.normal(size=(4000, 2)) * np.array([5.0, 0.5])
        X = Z @ rot.T
        model = fit_scaler_pca(X - X.mean(axis=0))
        # scaling washes out absolute variance but the leading direction
        # must align with the rotated first axis
        lead = model.components[0] * model.scale
        lead = lead / np.linalg.norm(lead)
        assert abs(abs(lead @ rot[:, 0])) == pytest.approx(1.0, abs=0.01)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            X = rng.normal(size=(20, 5))
            model = fit_scaler_pca(X)
            gram = model.components @ model.components.T
            assert np.abs(gram - np.eye(5)).max() < 1e-9

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(25, 4))
        model = fit_scaler_pca(X)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_zero_variance_column(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        model = fit_scaler_pca(X)
        assert model.scale[0] == 1.0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            fit_scaler_pca(np.zeros((5, 3)), 4)


def blobs(rng, n=60, separation=3.0):
    X0 = rng.normal(0, 0.4, size=(n, 5))
    X1 = rng.normal(separation, 0.4, size=(n, 5))
    return np.vstack([X0, X1]), np.array(["a"] * n + ["b"] * n)


class TestClassifiers:
    def test_separable_blobs_all_kinds(self):
        rng = np.random.default_rng(0)
        X, y = blobs(rng)
        for kind in ("rf", "nb", "lda"):
            clf = train_classifier(kind, X, y, {"trees": 30} if kind == "rf" else {})
            assert np.mean(clf.predict(X) == y) >= 0.99

    def test_xor_rf_beats_lda(self):
        rng = np.random.default_rng(1)
        centers = [(0, 0, "a"), (3, 3, "a"), (0, 3, "b"), (3, 0, "b")]
        rows, labels = [], []
        for cx, cy, label in centers:
            pts = rng.normal((cx, cy), 0.3, size=(40, 2))
            rows.append(pts)
            labels += [label] * 40
        X = np.vstack(rows)
        y = np.array(labels)
        test_idx = rng.permutation(len(y))[:60]
        rf = train_classifier("rf", X, y, {"trees": 60, "seed": 3})
        lda = train_classifier("lda", X, y)
        assert np.mean(rf.predict(X[test_idx]) == y[test_idx]) >= 0.95
        assert abs(np.mean(lda.predict(X) == y) - 0.5) < 0.15

    def test_shuffled_labels_near_chance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(120, 6))
        y = np.array((["a", "b", "c"] * 40))
        ds = LabeledDataset(X, tuple(y))
        report = cross_validate(ds, {"rf": {"trees": 20}}, folds=4, repeats=1, seed=5)
        assert abs(report.results["rf"].accuracy_mean - 1 / 3) < 0.1

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_classifier("nb", np.zeros((4, 2)), np.array(["a"] * 4))

    @pytest.mark.parametrize("cls, fitted", [
        (RandomForest, "classes_"),
        (RandomForest, "feature_importances_"),
        (GaussianNaiveBayes, "classes_"),
        (LinearDiscriminant, "classes_"),
    ])
    def test_fitted_state_is_not_a_constructor_argument(self, cls, fitted):
        """Only `fit` sets what it learns, so an unfitted model cannot claim it."""
        with pytest.raises(TypeError):
            cls(**{fitted: np.array(["a", "b"])})

    def test_lda_singular_covariance_ridge(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array(["a", "a", "b", "b"])
        clf = train_classifier("lda", X, y)
        assert list(clf.predict(X)) == list(y)

    def test_rf_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, n=40, separation=1.0)
        p1 = train_classifier("rf", X, y, {"trees": 15, "seed": 11}).predict(X)
        p2 = train_classifier("rf", X, y, {"trees": 15, "seed": 11}).predict(X)
        assert (p1 == p2).all()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            train_classifier("svm", np.zeros((4, 2)), np.array(["a", "a", "b", "b"]))


@st.composite
def forest_data(draw):
    """2-60 rows of 1-8 features and 2-10 classes, built to provoke ties.

    A column is free floats, a few repeated values, a copy of an earlier
    column (ties between features), or steps of one ulp from a base value
    (midpoints that round onto the upper value).
    """
    n, d, k = draw(st.integers(2, 60)), draw(st.integers(1, 8)), draw(st.integers(2, 10))
    rows = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["floats", "ties", "copy", "ulps"]))
        if kind == "copy" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind == "ties":
            values = draw(st.lists(st.floats(-5, 5), min_size=4, max_size=4))
            columns.append(np.array(values)[draw(rows)])
        elif kind == "ulps":
            column = np.full(n, draw(st.floats(-1e3, 1e3)))
            for step in range(3):
                up = np.array(draw(rows)) > step
                column[up] = np.nextafter(column[up], np.inf)
            columns.append(column)
        else:
            columns.append(np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))))
    y = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    assume(len(set(y)) >= 2)
    return np.column_stack(columns), y


def _oracle_preorder(node):
    if node.is_leaf:
        return [("leaf", node.prediction)]
    children = _oracle_preorder(node.left) + _oracle_preorder(node.right)
    return [(node.feature, node.threshold)] + children


def _preorder(forest, t):
    """Tree t of the forest's flat node arrays, in the form `_oracle_preorder` gives."""
    feature, threshold, value, left, right = forest._nodes

    def walk(i):
        if left[i] == i:
            return [("leaf", value[i])]
        return [(feature[i], threshold[i])] + walk(left[i]) + walk(right[i])

    return walk(t)


def _oracle_trees(X, y, trees, seed):
    """The sorting CART's trees under the forest's streams and draw rule."""
    d = X.shape[1]
    codes = np.unique(y, return_inverse=True)[1]
    streams = np.random.SeedSequence(seed).spawn(trees)
    mtry = min(max(1, round(d**0.5)), d)
    return [_oracles._Tree(len(set(y)), mtry, np.random.default_rng(s)).fit(X, codes) for s in streams]


class TestTreeOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=forest_data(), trees=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_same_trees_as_sorting_cart(self, data, trees, seed):
        """Each tree equals the per-node sorting CART: nodes, importances, predictions."""
        X, y = data
        expected = _oracle_trees(X, y, trees, seed)
        forest = RandomForest(trees=trees, seed=seed).fit(X, y)
        thresholds = forest._nodes[1]
        pool = np.concatenate([X.ravel(), thresholds, np.nextafter(thresholds, -np.inf)])
        fresh = np.random.default_rng(seed).choice(pool, size=(30, X.shape[1]))
        for t, old in enumerate(expected):
            assert _preorder(forest, t) == _oracle_preorder(old.root)
            assert np.array_equal(forest._importances[t], old.importances)
            for rows in (X, fresh):
                assert np.array_equal(forest._walk(rows)[:, t], old.predict(rows))

    @settings(max_examples=30, deadline=None)
    @given(data=forest_data(), trees=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), pick=st.data())
    def test_first_trees_are_the_smaller_forest(self, data, trees, seed, pick):
        """Each tree has its own stream, so a forest's first t trees are the t-tree forest."""
        X, y = data
        t = pick.draw(st.integers(1, trees - 1))
        small = RandomForest(trees=t, seed=seed).fit(X, y)
        large = RandomForest(trees=trees, seed=seed).fit(X, y)
        for i in range(t):
            assert _preorder(small, i) == _preorder(large, i)
            assert np.array_equal(small._importances[i], large._importances[i])
        assert np.array_equal(small._walk(X), large._walk(X)[:, :t])


class TestForestEdges:
    def test_constant_features_give_one_leaf_trees(self):
        X, y = np.full((6, 3), 2.5), np.array(list("aabbab"))
        forest = RandomForest(trees=7, seed=1).fit(X, y)
        assert len(forest._nodes[0]) == 7 and forest._depth == 0
        assert not forest.feature_importances_.any()
        assert set(forest.predict(X)) <= {"a", "b"}

    def test_constant_drawn_features_make_a_leaf(self):
        """Feature 1 is constant and feature 0 splits once: a tree drawing feature 1 at its
        root is one leaf, and every child holds one value of feature 0, so is a leaf."""
        X = np.array([[0.0, 7.0], [0.0, 7.0], [1.0, 7.0], [1.0, 7.0]] * 3)
        y = np.array(list("abab") * 3)
        forest = RandomForest(trees=40, seed=2).fit(X, y)
        shapes = [_preorder(forest, t) for t in range(40)]
        assert all(len(s) in (1, 3) for s in shapes)
        assert {len(s) for s in shapes} == {1, 3}
        assert all(s[0] == (0, 0.5) for s in shapes if len(s) == 3)
        assert forest._depth == 1
        assert forest.feature_importances_[1] == 0.0

    def test_one_tree(self):
        rng = np.random.default_rng(4)
        X, y = blobs(rng, n=20)
        forest = RandomForest(trees=1, seed=3).fit(X, y)
        (expected,) = _oracle_trees(X, y, 1, 3)
        assert _preorder(forest, 0) == _oracle_preorder(expected.root)
        assert np.array_equal(forest.predict(X), forest.classes_[expected.predict(X)])

    def test_vote_ties_go_to_the_smallest_class(self):
        X, y = np.arange(6.0)[:, None], np.array(list("abcabc"))
        forest = RandomForest(trees=4, seed=0).fit(X, y)
        forest._walk = lambda X: np.array([[2, 1, 1, 2], [0, 2, 2, 0], [1, 0, 2, 1]])
        assert list(forest.predict(np.zeros((3, 1)))) == ["b", "a", "b"]

    @settings(max_examples=30, deadline=None)
    @given(data=forest_data(), trees=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_prediction_is_the_majority_of_tree_walks(self, data, trees, seed):
        X, y = data
        forest = RandomForest(trees=trees, seed=seed).fit(X, y)
        k = len(forest.classes_)
        walks = np.column_stack([old.predict(X) for old in _oracle_trees(X, y, trees, seed)])
        majority = [np.argmax(np.bincount(row, minlength=k)) for row in walks]
        assert list(forest.predict(X)) == list(forest.classes_[majority])


class TestForestPin:
    """Fixed outputs of the seeded forest on a small integer dataset, so that a change to
    how the forest draws or grows its trees shows here; update the figures only with it."""

    i = np.arange(48)
    y = np.array(["a", "b", "c"])[i % 3]
    X = np.column_stack([
        (i % 3) + (i * 5) % 4,  # informative, with overlapping ranges
        (i * 5) % 7,
        (i * i) % 5,
        (i % 3 == 2) + (i * 3) % 2,  # weakly informative
    ])

    def test_cross_validated_accuracies(self):
        report = cross_validate(
            LabeledDataset(self.X, tuple(self.y)), {"rf": {"trees": 12}}, folds=4, repeats=2, seed=1
        )
        # correct predictions out of each 12-row test fold
        assert [round(a * 12) for a in report.results["rf"].accuracies] == [5, 6, 4, 3, 5, 7, 4, 6]

    def test_shadow_importance(self):
        report = feature_importance(self.X, self.y, runs=8, trees=12, seed=2)
        assert [(f.hit_rate, f.status) for f in report.features] == [
            (1.0, "confirmed"), (0.0, "rejected"), (0.0, "rejected"), (0.875, "confirmed"),
        ]

    def test_node_count(self):
        forest = RandomForest(trees=10, seed=4).fit(self.X, self.y)
        assert (len(forest._nodes[0]), forest._depth) == (290, 8)


class TestCrossValidate:
    def test_separable_three_classes(self):
        rng = np.random.default_rng(4)
        rows, labels = [], []
        for i, label in enumerate(("x", "y", "z")):
            rows.append(rng.normal(4 * i, 0.2, size=(30, 4)))
            labels += [label] * 30
        ds = LabeledDataset(np.vstack(rows), tuple(labels))
        report = cross_validate(
            ds, {"rf": {"trees": 15}, "nb": {}, "lda": {}}, folds=5, repeats=2, seed=0
        )
        for res in report.results.values():
            assert res.accuracy_mean == 1.0
            off_diag = res.confusion_mean - np.diag(np.diag(res.confusion_mean))
            assert np.all(off_diag == 0)

    def test_confusion_columns_sum_to_test_counts(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        y = ["a"] * 20 + ["b"] * 20
        ds = LabeledDataset(X, tuple(y))
        report = cross_validate(ds, {"nb": {}}, folds=4, repeats=1, seed=1)
        # balanced 2x20, 4 folds: every fold tests 5 per class
        assert np.allclose(report.results["nb"].confusion_mean.sum(axis=0), [5, 5])

    def test_class_smaller_than_folds_named(self):
        X = np.zeros((12, 2))
        y = ["a"] * 10 + ["b"] * 2
        with pytest.raises(ValueError, match="'b'"):
            cross_validate(
                LabeledDataset(X, tuple(y)), {"nb": {}}, folds=5, repeats=1, balance=False
            )

    @pytest.mark.parametrize("spec", [{}])
    def test_empty_classifier_spec_rejected(self, spec):
        ds = LabeledDataset(np.zeros((8, 2)), ("a", "b") * 4)
        with pytest.raises(ValueError, match="no classifiers"):
            cross_validate(ds, spec, folds=2, repeats=1)

    def test_classifier_kinds_must_map_to_params(self):
        ds = LabeledDataset(np.zeros((8, 2)), ("a", "b") * 4)
        with pytest.raises(TypeError, match="map kind to params"):
            cross_validate(ds, ["nb"], folds=2, repeats=1)

    def test_balancing_downsamples(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 2))
        y = ["a"] * 20 + ["b"] * 10
        ds = LabeledDataset(X, tuple(y))
        report = cross_validate(ds, {"nb": {}}, folds=5, repeats=1, seed=2)
        assert np.allclose(report.results["nb"].confusion_mean.sum(axis=0), [2, 2])

    def test_pca_preprocessing_runs(self):
        rng = np.random.default_rng(7)
        X, y = blobs(rng, n=25)
        ds = LabeledDataset(X, tuple(y))
        report = cross_validate(ds, {"lda": {}}, folds=5, repeats=1, seed=3, pca_components=2)
        assert report.results["lda"].accuracy_mean == 1.0

    def test_deterministic_reports(self):
        rng = np.random.default_rng(8)
        X, y = blobs(rng, n=20, separation=1.0)
        ds = LabeledDataset(X, tuple(y))
        r1 = cross_validate(ds, {"rf": {"trees": 10}}, folds=4, repeats=2, seed=9)
        r2 = cross_validate(ds, {"rf": {"trees": 10}}, folds=4, repeats=2, seed=9)
        assert np.array_equal(r1.results["rf"].accuracies, r2.results["rf"].accuracies)


def _groups(labels, sizes, seed):
    """Rows of 4 features for groups of the given sizes, each group's mean shifted by its
    place in `labels`; the labels first appear in the order given, then shuffled."""
    rng = np.random.default_rng(seed)
    rest = [label for label, size in zip(labels, sizes) for _ in range(size - 1)]
    y = list(labels) + [rest[i] for i in rng.permutation(len(rest))]
    shift = np.array([labels.index(label) for label in y])[:, None]
    X = rng.normal(size=(len(y), 4)) + shift * np.array([1.0, 0.5, 0.0, 0.0])
    X[:, 3] = np.round(X[:, 3])  # a feature with ties
    return LabeledDataset(X, tuple(y))


class TestCrossValidateReference:
    """cross_validate's report equals the earlier string-label cross-validation's, field by
    field and float for float."""

    @pytest.mark.parametrize("labels, sizes", [
        (("random", "P2", "P1"), (14, 9, 11)),
        (("random", "P1"), (16, 11)),
    ])
    @pytest.mark.parametrize("balance", [True, False])
    @pytest.mark.parametrize("pca_components", [None, 3])
    @pytest.mark.parametrize("repeats", [1, 2])
    def test_report_equals_reference(self, labels, sizes, balance, pca_components, repeats):
        ds = _groups(labels, sizes, seed=len(labels))
        assert ds.labels[: len(labels)] == labels
        spec = {"rf": {"trees": 6}, "nb": {}, "lda": {}}
        args = dict(folds=3, repeats=repeats, balance=balance, seed=4, pca_components=pca_components)
        report = cross_validate(ds, spec, **args)
        reference = _oracles.reference_cross_validate(ds, spec, **args)
        assert report.to_json_dict() == reference.to_json_dict()
        assert json.dumps(report.to_json_dict()) == json.dumps(reference.to_json_dict())
        for res in report.results.values():
            assert res.classes == tuple(sorted(labels))
            assert all(type(c) is str for c in res.classes)
            assert 0 < res.accuracy_mean < 1

    @pytest.mark.parametrize("cls, reference, fitted", [
        (GaussianNaiveBayes, _oracles.ReferenceNaiveBayes, ("_mean", "_var", "_log_prior")),
        (LinearDiscriminant, _oracles.ReferenceLda, ("_coef", "_intercept")),
    ])
    def test_fit_and_predict_equal_reference(self, cls, reference, fitted):
        ds = _groups(("random", "P2", "P1"), (30, 25, 20), seed=5)
        model, ref = cls().fit(ds.X, ds.labels), reference().fit(ds.X, ds.labels)
        for name in fitted:
            assert np.array_equal(getattr(model, name), getattr(ref, name)), name
        X = np.random.default_rng(6).normal(0, 2, size=(200, 4))
        assert list(model.predict(X)) == list(ref.predict(X))


class TestFeatureImportance:
    def make_fixture(self, rng):
        n = 120
        y = np.array(["a"] * 60 + ["b"] * 60)
        label_copy = np.where(y == "a", 0.0, 1.0) + rng.normal(0, 0.01, n)
        noise = rng.normal(size=(n, 5))
        return np.column_stack([label_copy, noise]), y

    def test_label_copy_confirmed_noise_rejected(self):
        rng = np.random.default_rng(10)
        X, y = self.make_fixture(rng)
        report = feature_importance(X, y, runs=20, trees=60, seed=0)
        assert report.features[0].status == "confirmed"
        for f in report.features[1:]:
            assert f.status == "rejected"

    def test_pure_noise_nothing_confirmed(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(80, 6))
        y = np.array(["a", "b"] * 40)
        report = feature_importance(X, y, runs=12, trees=40, seed=1)
        assert all(f.status != "confirmed" for f in report.features)

    def test_duplicated_informative_feature_both_confirmed(self):
        rng = np.random.default_rng(12)
        X, y = self.make_fixture(rng)
        X = np.column_stack([X[:, 0], X[:, 0] + rng.normal(0, 0.001, len(y)), X[:, 1:]])
        report = feature_importance(X, y, runs=16, trees=60, seed=2)
        assert report.features[0].status == "confirmed"
        assert report.features[1].status == "confirmed"

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        X, y = self.make_fixture(rng)
        a = feature_importance(X, y, runs=6, trees=30, seed=3)
        b = feature_importance(X, y, runs=6, trees=30, seed=3)
        assert a == b


class TestPipelineFixture:
    def test_planted_vs_random_features_separable(self):
        pieces = [synthesize(SynthConfig(seed=s)) for s in range(6)]
        rows, labels = [], []
        for sp in pieces:
            p1_rec = [r for r in sp.ground_truth if r.pattern_id == "P1"][0]
            for occ_ in p1_rec.occurrences:
                rows.append(extract_features(occ_))
                labels.append("planted")
            for exc in sample_random_excerpts([(sp.piece, [p1_rec])], repeats=1, seed=sp.seed):
                rows.append(extract_features(exc))
                labels.append("random")
        ds = LabeledDataset(np.array(rows), tuple(labels))
        report = cross_validate(ds, {"rf": {"trees": 25}}, folds=4, repeats=1, seed=0)
        assert report.results["rf"].accuracy_mean >= 0.9
