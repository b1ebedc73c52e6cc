"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints `ACCEPTANCE <id>: PASS` when it succeeds, so
`pytest tests/test_acceptance.py -v -rA` gives one line per criterion.

Criterion 3's recovery clause (test_criterion_03b) runs COSIATEC with the
compactness-led ordering ``("comp", "size")``, the one
demos/03_synthetic_benchmark.py documents for whole-placement recovery.
The default ordering ranks TECs by compression ratio first, as in
Meredith's COSIATEC, and both templates repeat inside themselves.  On
seed 0 the 40 planted notes of P2 are covered by an 8-point TEC with 6
translators and those of P1 by a 4-point TEC with 10 translators: 13
parameters for 40 notes each, a ratio of about 3.1, against 40/21 (about
1.9) for a template's two whole placements.  A ratio-first cover
therefore emits fragments, which never reach Jaccard 0.8 against 20-note
planted occurrences, whatever the candidates.  Under the compactness-led
ordering a whole placement wins once it is a candidate, and the compact
segments of COSIATEC's MTPs make it one (see ``cosiatec``).
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from motifkit.analysis import (
    LabeledDataset,
    cross_validate,
    extract_features,
    feature_importance,
    fit_scaler_pca,
    sample_random_excerpts,
)
from motifkit.cli import main as cli_main
from motifkit.core import Point, PointSet, over_common_denominator
from motifkit.discovery import cosiatec, mtps_to_records, sia, siatec, tecs_to_records
from motifkit.evaluation import boundary_prf, occurrence_recovery, truth_boundaries
from motifkit.polling import PollingCurve, PpParams, extract_boundaries, polling_curve, savgol_smooth
from motifkit.synthesis import SynthConfig, synthesize

import _oracles

F = Fraction


def _random_pointset(rng, max_points=12):
    n = rng.randrange(2, max_points + 1)
    coords = set()
    while len(coords) < n:
        coords.add((rng.randrange(0, 8), 55 + rng.randrange(0, 12)))
    return PointSet.build(Point(F(o), p) for o, p in sorted(coords))


SMALL_CORPUS_SEED = 977


def _small_corpus():
    rng = random.Random(SMALL_CORPUS_SEED)
    return [_random_pointset(rng) for _ in range(200)]


def test_criterion_01_sia_oracle_equivalence():
    start = time.time()
    for ps in _small_corpus():
        expected = _oracles.brute_mtps([p.coord for p in ps.points])
        got = {
            (m.vector.dt, m.vector.dp): frozenset(p.coord for p in m.points)
            for m in sia(ps)
        }
        assert got == expected
    elapsed = time.time() - start
    assert elapsed < 5.0, f"sia oracle sweep took {elapsed:.2f}s"
    print("\nACCEPTANCE 01 sia-oracle-equivalence: PASS")


def test_criterion_02_siatec_cosiatec_invariants():
    for ps in _small_corpus():
        coords = [p.coord for p in ps.points]
        cset = set(coords)
        for tec in siatec(ps):
            shape = [p.coord for p in tec.pattern]
            for u in tec.translators:
                assert all((q[0] + u.dt, q[1] + u.dp) in cset for q in shape)
        seen = set()
        for tec in cosiatec(ps):
            cover = {p.coord for p in tec.covered}
            assert not cover & seen
            seen |= cover
        assert seen == cset
    print("\nACCEPTANCE 02 siatec-cosiatec-invariants: PASS")


def _default_pieces():
    return [synthesize(SynthConfig(seed=s)) for s in range(50)]


def test_criterion_03a_planted_occurrences_inside_sia_mtps():
    start = time.time()
    for sp in _default_pieces():
        occ_sets = [
            occ.coords()
            for rec in mtps_to_records(sia(sp.piece), "sia")
            for occ in rec.occurrences
        ]
        for rec in sp.ground_truth:
            for occ in rec.occurrences:
                planted = occ.coords()
                assert any(planted <= o for o in occ_sets)
    elapsed = time.time() - start
    assert elapsed < 60.0
    print("\nACCEPTANCE 03a planted-occurrences-in-sia-mtps: PASS")


def test_criterion_03b_cosiatec_occurrence_recovery():
    start = time.time()
    recovered_pieces = 0
    for sp in _default_pieces():
        tecs = cosiatec(sp.piece, tie_break=("comp", "size"))
        records = tecs_to_records(tecs, "cosiatec")
        planted = [occ for rec in sp.ground_truth for occ in rec.occurrences]
        report = occurrence_recovery(records, planted, F(4, 5))
        recovered_pieces += report.all_recovered
    elapsed = time.time() - start
    assert elapsed < 60.0
    assert recovered_pieces >= 45, (
        f"planted occurrences fully recovered in only {recovered_pieces}/50 pieces"
    )
    print("\nACCEPTANCE 03b cosiatec-occurrence-recovery: PASS")


@pytest.mark.parametrize("occurrences, bar", [(2, 20), (3, 18), (4, 19)])
def test_cosiatec_recovery_ladder(occurrences, bar):
    """Pieces of seeds 0-19 with every planted occurrence at Jaccard >= 4/5.

    The bars are the levels measured when the ladder was added; the known
    misses are seed 5 with 3 occurrences per template (also seed 19) and
    seed 16 with 4 (ROADMAP item 5).
    """
    recovered_pieces = 0
    for seed in range(20):
        sp = synthesize(SynthConfig(seed=seed, occurrences_per_template=occurrences))
        records = tecs_to_records(cosiatec(sp.piece, tie_break=("comp", "size")), "cosiatec")
        planted = [occ for rec in sp.ground_truth for occ in rec.occurrences]
        recovered_pieces += occurrence_recovery(records, planted, F(4, 5)).all_recovered
    assert recovered_pieces >= bar, f"{recovered_pieces}/20 pieces at {occurrences} occurrences"


def test_criterion_04_polling_self_consistency():
    params = PpParams(window=3, order=1, lam=F(0), use_first=False, use_second=True)
    for sp in _default_pieces():
        curve = polling_curve(
            sp.ground_truth, piece_span=(F(0), sp.total_duration)
        )
        predicted = extract_boundaries(curve, params)
        truth = truth_boundaries(sp.ground_truth)
        prf = boundary_prf(predicted, truth, 1)
        assert prf.f1 == 1, f"seed {sp.seed}: f1={prf.f1}"
    print("\nACCEPTANCE 04 polling-self-consistency: PASS")


def test_criterion_05_curve_properties():
    from motifkit.core import PatternOccurrence, PatternRecord

    rng = random.Random(31)
    params = PpParams(window=3, order=1, lam=F(0))
    cases = 0
    while cases < 100:
        span = (F(0), F(24))

        def mkrec(alg):
            spans = sorted(rng.sample(range(23), 2))
            s, e = spans[0], spans[1] + 1
            return PatternRecord(
                alg,
                "p",
                (PatternOccurrence(tuple(Point(F(s + i), 60) for i in range(e - s))),),
            )

        recs_a = [mkrec("a")]
        recs_b = [mkrec("b")]
        va = polling_curve(recs_a, piece_span=span).values
        vb = polling_curve(recs_b, piece_span=span).values
        vab = polling_curve(recs_a + recs_b, piece_span=span).values
        assert vab == tuple(x + y for x, y in zip(va, vb))

        k = rng.randrange(2, 7)
        c1 = polling_curve(recs_a + recs_b, {"a": 1, "b": 1}, piece_span=span)
        ck = polling_curve(recs_a + recs_b, {"a": k, "b": k}, piece_span=span)
        assert ck.values == tuple(k * v for v in c1.values)
        assert extract_boundaries(c1, params) == extract_boundaries(ck, params)
        cases += 1
    print("\nACCEPTANCE 05 curve-linearity-weighting: PASS")


def test_criterion_06_savgol_polynomial_reproduction():
    rng = random.Random(41)
    for window in (5, 7, 9):
        for order in range(1, window):
            degree = min(order, 5)
            coeffs = [F(rng.randrange(-4, 5)) for _ in range(degree + 1)]
            values = tuple(
                sum(c * F(t) ** e for e, c in enumerate(coeffs)) for t in range(14)
            )
            curve = PollingCurve(F(0), F(1), *over_common_denominator(values))
            smoothed = savgol_smooth(curve, window, order)
            half = window // 2
            for i in range(half, len(values) - half):
                assert abs(float(smoothed.values[i] - values[i])) < 1e-9
                assert smoothed.values[i] == values[i]  # exact in rationals
    print("\nACCEPTANCE 06 savgol-polynomial-reproduction: PASS")


def test_criterion_07_boundary_matching_oracle():
    rng = random.Random(53)
    for _ in range(500):
        a = sorted(rng.sample(range(14), rng.randrange(0, 9)))
        b = sorted(rng.sample(range(14), rng.randrange(0, 9)))
        tol = rng.randrange(0, 3)
        assert boundary_prf(a, b, tol).matches == _oracles.brute_max_matching(a, b, tol)
    print("\nACCEPTANCE 07 boundary-matching-oracle: PASS")


def test_criterion_08_pca_numerics():
    rng = np.random.default_rng(67)
    for _ in range(100):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(2, 9))
        X = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
        model = fit_scaler_pca(X)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(d)).max() < 1e-9
        assert np.abs(model.inverse_transform(model.transform(X)) - X).max() < 1e-9
        assert np.all(np.diff(model.explained_variance_ratio) <= 1e-12)
    print("\nACCEPTANCE 08 pca-numerics: PASS")


def _classifier_fixture():
    rows, labels = [], []
    for seed in range(100):
        sp = synthesize(SynthConfig(seed=seed))
        p1 = [r for r in sp.ground_truth if r.pattern_id == "P1"][0]
        for occ in p1.occurrences:
            rows.append(extract_features(occ))
            labels.append("planted")
        for occ in sample_random_excerpts([(sp.piece, [p1])], repeats=1, seed=seed):
            rows.append(extract_features(occ))
            labels.append("random")
    return np.array(rows), labels


def test_criterion_09_classifier_baselines():
    X, labels = _classifier_fixture()
    assert labels.count("planted") == 200 and labels.count("random") == 200
    ds = LabeledDataset(X, tuple(labels))
    report = cross_validate(ds, {"rf": {"trees": 40}}, folds=10, repeats=3, seed=0)
    accuracy = report.results["rf"].accuracy_mean
    assert accuracy >= 0.9, f"rf accuracy {accuracy:.3f} < 0.9"

    rng = np.random.default_rng(1)
    shuffled = list(labels)
    rng.shuffle(shuffled)
    ds_shuffled = LabeledDataset(X, tuple(shuffled))
    report = cross_validate(ds_shuffled, {"rf": {"trees": 20}}, folds=10, repeats=3, seed=2)
    chance = report.results["rf"].accuracy_mean
    assert abs(chance - 0.5) <= 0.10, f"shuffled-label accuracy {chance:.3f}"
    print("\nACCEPTANCE 09 classifier-baselines: PASS")


def test_criterion_10_shadow_feature_importance():
    rng = np.random.default_rng(5)
    n = 160
    y = np.array(["a"] * 80 + ["b"] * 80)
    label_copy = np.where(y == "a", 0.0, 1.0) + rng.normal(0, 0.01, n)
    X = np.column_stack([label_copy] + [rng.normal(size=n) for _ in range(5)])
    report = feature_importance(
        X, y, feature_names=["label_copy", "n1", "n2", "n3", "n4", "n5"],
        runs=20, trees=80, seed=0,
    )
    assert report.status_of("label_copy") == "confirmed"
    for name in ("n1", "n2", "n3", "n4", "n5"):
        assert report.status_of(name) == "rejected", (name, report.status_of(name))
    print("\nACCEPTANCE 10 shadow-feature-importance: PASS")


def test_criterion_11_cli_determinism(tmp_path):
    def run_all(base):
        run = lambda *a: cli_main([str(x) for x in a])
        assert run("synth", "--seed", 5, "--name", "p", "--out-dir", base, "--quiet") == 0
        assert run("discover", "--in", base / "p.csv", "--alg", "cosiatec",
                   "--out", base / "cosiatec.json") == 0
        assert run("discover", "--in", base / "p.csv", "--alg", "siar:3",
                   "--out", base / "siar.json") == 0
        assert run("poll", "--in", base / "cosiatec.json", base / "siar.json",
                   "--truth", base / "p.truth.json", "--out-dir", base, "--quiet") == 0
        assert run("eval-boundaries", "--pred", base / "p.boundaries.json",
                   "--truth", base / "p.truth.json", "--out", base / "eval.csv") == 0
        manifest = {
            "pieces": [
                {"patterns": [str(base / "cosiatec.json")], "truth": str(base / "p.truth.json")},
                {"patterns": [str(base / "siar.json")], "truth": str(base / "p.truth.json")},
            ],
            "grid": {"windows": [3], "orders": [1], "lambdas": [0, 1], "derivatives": ["second"]},
        }
        (base / "manifest.json").write_text(json.dumps(manifest))
        assert run("train-pp", "--manifest", base / "manifest.json", "--folds", 2,
                   "--out", base / "params.json", "--quiet") == 0
        assert run("features", "--piece", base / "p.csv", "--patterns",
                   base / "p.truth.json", "--random", 3, "--seed", 1,
                   "--out", base / "features.csv", "--quiet") == 0
        assert run("classify", "--features", base / "features.csv", "--folds", 3,
                   "--repeats", 1, "--trees", 10, "--seed", 1,
                   "--out", base / "cv.json", "--quiet") == 0
        assert run("importance", "--features", base / "features.csv", "--runs", 3,
                   "--trees", 10, "--seed", 1, "--out", base / "imp.json", "--quiet") == 0
        return {
            p.name: p.read_bytes()
            for p in sorted(base.iterdir())
            if p.is_file() and p.name != "manifest.json"
        }

    first = run_all(tmp_path / "first")
    second = run_all(tmp_path / "second")
    assert set(first) == set(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between reruns"
    print("\nACCEPTANCE 11 cli-determinism: PASS")
