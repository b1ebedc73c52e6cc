"""Classify planted-pattern occurrences against random excerpts.

Builds a labeled feature table from synthetic pieces, cross-validates
three classifiers (with and without PCA preprocessing), and ranks the
features with shadow-permutation importance.

Run:  python demos/04_feature_classification.py
"""

import numpy as np

from motifkit.analysis import (
    FEATURE_NAMES,
    LabeledDataset,
    cross_validate,
    extract_features,
    feature_importance,
    sample_random_excerpts,
)
from motifkit.synthesis import SynthConfig, synthesize

rows, labels = [], []
for seed in range(30):
    sp = synthesize(SynthConfig(seed=seed))
    for rec in sp.ground_truth:
        for occ in rec.occurrences:
            rows.append(extract_features(occ))
            labels.append(rec.pattern_id)
    annotations = list(sp.ground_truth)
    for occ in sample_random_excerpts([(sp.piece, annotations)], repeats=1, seed=seed):
        rows.append(extract_features(occ))
        labels.append("random")

dataset = LabeledDataset(np.array(rows), tuple(labels))
counts = {c: labels.count(c) for c in sorted(set(labels))}
print(f"dataset: {len(labels)} occurrences, groups {counts}")

spec = {"rf": {"trees": 60}, "nb": {}, "lda": {}}
for pca in (None, 5):
    report = cross_validate(dataset, spec, folds=10, repeats=3, seed=0, pca_components=pca)
    tag = "raw features" if pca is None else f"pca-{pca}"
    for name in sorted(report.results):
        res = report.results[name]
        print(f"  {tag:12s} {name}: accuracy {res.accuracy_mean:.3f} "
              f"(variance {res.accuracy_variance:.4f})")

print("\nconfusion (rf, raw), rows=classified cols=original:")
report = cross_validate(dataset, {"rf": {"trees": 60}}, folds=10, repeats=3, seed=0)
res = report.results["rf"]
print("  classes:", res.classes)
print(np.array_str(res.confusion_mean, precision=1))

print("\nshadow-permutation importance (top 8):")
imp = feature_importance(dataset.X, list(dataset.labels),
                         feature_names=FEATURE_NAMES, runs=12, trees=60, seed=0)
ranked = sorted(imp.features, key=lambda f: -f.importance_mean)[:8]
for f in ranked:
    print(f"  {f.name:32s} {f.importance_mean:.4f}  {f.status}")
