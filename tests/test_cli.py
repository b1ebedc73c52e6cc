import json
from pathlib import Path

import pytest

from motifkit.cli import main
from motifkit.core import dump_pattern_json, parse_points_csv
from motifkit.discovery import cosiatec, tecs_to_records


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def synth_dir(tmp_path):
    assert run("synth", "--seed", 42, "--name", "piece", "--out-dir", tmp_path, "--quiet") == 0
    return tmp_path


class TestSynth:
    def test_writes_three_files(self, synth_dir):
        for suffix in (".csv", ".truth.json", ".config.json"):
            assert (synth_dir / f"piece{suffix}").exists()

    def test_seed_echoed_in_config(self, synth_dir):
        config = json.loads((synth_dir / "piece.config.json").read_text())
        assert config["seed"] == 42

    def test_entropy_seed_echoed(self, tmp_path, capsys):
        assert run("synth", "--name", "p", "--out-dir", tmp_path) == 0
        config = json.loads((tmp_path / "p.config.json").read_text())
        assert isinstance(config["seed"], int)

    def test_invalid_cap_exit_3(self, tmp_path):
        assert run("synth", "--cap", "1.5", "--out-dir", tmp_path) == 3


class TestDiscover:
    def test_writes_json_and_summary(self, synth_dir, capsys):
        out = synth_dir / "patterns.json"
        code = run("discover", "--in", synth_dir / "piece.csv", "--alg", "cosiatec", "--out", out)
        assert code == 0
        assert "patterns=" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["algorithm"] == "cosiatec"
        assert doc["patterns"]

    def test_unknown_algorithm_exit_3(self, synth_dir):
        code = run(
            "discover", "--in", synth_dir / "piece.csv", "--alg", "nope",
            "--out", synth_dir / "x.json",
        )
        assert code == 3

    def test_cosiatec_ordering_spec(self, tmp_path):
        assert run("synth", "--seed", 0, "--name", "piece", "--out-dir", tmp_path, "--quiet") == 0
        out = tmp_path / "patterns.json"
        spec = "cosiatec:comp,size"
        assert run("discover", "--in", tmp_path / "piece.csv", "--alg", spec, "--out", out) == 0
        piece = parse_points_csv((tmp_path / "piece.csv").read_text(), title="piece")
        records = tecs_to_records(cosiatec(piece, tie_break=("comp", "size")), spec)
        assert out.read_text() == dump_pattern_json("piece", spec, records)

    def test_bad_cosiatec_key_exit_3(self, synth_dir, capsys):
        code = run(
            "discover", "--in", synth_dir / "piece.csv", "--alg", "cosiatec:bogus",
            "--out", synth_dir / "x.json",
        )
        assert code == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not (synth_dir / "x.json").exists()

    def test_unreadable_input_exit_2(self, tmp_path):
        code = run("discover", "--in", tmp_path / "missing.csv", "--alg", "sia",
                   "--out", tmp_path / "x.json")
        assert code == 2

    def test_bad_csv_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,not-a-pitch,1\n")
        assert run("discover", "--in", bad, "--alg", "sia", "--out", tmp_path / "x.json") == 2


class TestPoll:
    @pytest.fixture()
    def pattern_files(self, synth_dir):
        a = synth_dir / "a.json"
        b = synth_dir / "b.json"
        run("discover", "--in", synth_dir / "piece.csv", "--alg", "cosiatec", "--out", a)
        run("discover", "--in", synth_dir / "piece.csv", "--alg", "siar:3", "--out", b)
        return a, b

    def test_outputs_written(self, synth_dir, pattern_files):
        a, b = pattern_files
        code = run(
            "poll", "--in", a, b, "--truth", synth_dir / "piece.truth.json",
            "--out-dir", synth_dir / "poll", "--quiet",
        )
        assert code == 0
        out = synth_dir / "poll"
        for name in (
            "piece.curve.csv", "piece.smoothed.csv", "piece.deriv1.csv",
            "piece.deriv2.csv", "piece.presence.csv", "piece.boundaries.json",
            "piece.scores.csv",
        ):
            assert (out / name).exists(), name

    def test_curve_is_sum_of_parts(self, synth_dir, pattern_files):
        a, b = pattern_files
        span = json.loads((synth_dir / "piece.config.json").read_text())["total_duration"]
        for args, outdir in (
            ((a,), "only_a"), ((b,), "only_b"), ((a, b), "both"),
        ):
            run("poll", "--in", *args, "--span", f"0,{span}",
                "--out-dir", synth_dir / outdir, "--quiet")

        def values(d):
            lines = (synth_dir / d / "piece.curve.csv").read_text().splitlines()[1:]
            from fractions import Fraction
            return [Fraction(line.split(",")[1]) for line in lines]

        va, vb, vab = values("only_a"), values("only_b"), values("both")
        assert vab == [x + y for x, y in zip(va, vb)]

    def test_weight_doubles_contribution(self, synth_dir, pattern_files):
        a, _ = pattern_files
        span = json.loads((synth_dir / "piece.config.json").read_text())["total_duration"]
        run("poll", "--in", a, "--span", f"0,{span}", "--out-dir", synth_dir / "w1", "--quiet")
        run("poll", "--in", a, "--weight", "cosiatec=2", "--span", f"0,{span}",
            "--out-dir", synth_dir / "w2", "--quiet")
        from fractions import Fraction

        def values(d):
            lines = (synth_dir / d / "piece.curve.csv").read_text().splitlines()[1:]
            return [Fraction(line.split(",")[1]) for line in lines]

        assert values("w2") == [2 * v for v in values("w1")]

    def test_conflicting_piece_ids_exit_4(self, synth_dir, tmp_path, pattern_files):
        a, _ = pattern_files
        other = tmp_path / "other.json"
        doc = json.loads(a.read_text())
        doc["piece"] = "another-piece"
        other.write_text(json.dumps(doc))
        assert run("poll", "--in", a, other, "--out-dir", tmp_path) == 4


class TestEvalBoundaries:
    def test_scores_csv(self, synth_dir, capsys):
        a = synth_dir / "a.json"
        run("discover", "--in", synth_dir / "piece.csv", "--alg", "cosiatec", "--out", a)
        total = json.loads((synth_dir / "piece.config.json").read_text())["total_duration"]
        run("poll", "--in", synth_dir / "piece.truth.json", "--out-dir", synth_dir / "sp",
            "--span", f"0,{total}", "--derivatives", "second", "--quiet")
        capsys.readouterr()
        code = run(
            "eval-boundaries", "--pred", synth_dir / "sp" / "piece.boundaries.json",
            "--truth", synth_dir / "piece.truth.json", "--out", synth_dir / "scores.csv",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "f1=1.0000" in out
        text = (synth_dir / "scores.csv").read_text()
        assert text.startswith("piece,algorithm,precision,recall,f1")


class TestTrainPp:
    def test_grid_search(self, synth_dir, tmp_path):
        files = []
        for seed in (1, 2, 3):
            d = tmp_path / f"s{seed}"
            run("synth", "--seed", seed, "--name", f"p{seed}", "--out-dir", d, "--quiet")
            files.append(d)
        manifest = {
            "pieces": [
                {
                    "patterns": [str(d / f"p{seed}.truth.json")],
                    "truth": str(d / f"p{seed}.truth.json"),
                }
                for seed, d in zip((1, 2, 3), files)
            ],
            "grid": {
                "windows": [3],
                "orders": [1],
                "lambdas": [0, 99],
                "derivatives": ["second"],
            },
        }
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "params.json"
        assert run("train-pp", "--manifest", mpath, "--folds", 3, "--out", out, "--quiet") == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["lambda"] == "0"


class TestClassifyImportance:
    @pytest.fixture()
    def features_csv(self, synth_dir):
        out = synth_dir / "features.csv"
        code = run(
            "features", "--piece", synth_dir / "piece.csv",
            "--patterns", synth_dir / "piece.truth.json",
            "--random", 5, "--seed", 1, "--out", out, "--quiet",
        )
        assert code == 0
        return out

    def test_classify_report(self, synth_dir, features_csv):
        out = synth_dir / "cv.json"
        code = run(
            "classify", "--features", features_csv, "--folds", 4, "--repeats", 1,
            "--trees", 15, "--seed", 2, "--out", out, "--quiet",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["folds"] == 4 and doc["seed"] == 2
        assert set(doc["classifiers"]) == {"rf", "nb", "lda"}

    def test_missing_label_column_exit_2(self, tmp_path):
        bad = tmp_path / "f.csv"
        bad.write_text("a,b\n1,2\n")
        assert run("classify", "--features", bad, "--out", tmp_path / "x.json") == 2

    def test_class_size_violation_exit_3(self, tmp_path, features_csv):
        assert run(
            "classify", "--features", features_csv, "--folds", 50,
            "--out", tmp_path / "x.json", "--quiet",
        ) == 3

    def test_importance_report(self, synth_dir, features_csv):
        out = synth_dir / "imp.json"
        code = run(
            "importance", "--features", features_csv, "--runs", 4, "--trees", 20,
            "--seed", 3, "--out", out, "--quiet",
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["features"]) == 26
        assert all(f["status"] in ("confirmed", "tentative", "rejected") for f in doc["features"])


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "name": "fromcfg", "quiet": True}))
        assert run("synth", "--config", cfg, "--out-dir", tmp_path) == 0
        assert (tmp_path / "fromcfg.csv").exists()
        assert json.loads((tmp_path / "fromcfg.config.json").read_text())["seed"] == 7

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "name": "x"}))
        assert run("synth", "--config", cfg, "--seed", 9, "--out-dir", tmp_path, "--quiet") == 0
        assert json.loads((tmp_path / "x.config.json").read_text())["seed"] == 9

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sede": 7}))
        assert run("synth", "--config", cfg, "--out-dir", tmp_path) == 3


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        outputs = {}
        for attempt in ("first", "second"):
            base = tmp_path / attempt
            run("synth", "--seed", 5, "--name", "p", "--out-dir", base, "--quiet")
            run("discover", "--in", base / "p.csv", "--alg", "siatec-compress:cov",
                "--out", base / "d.json")
            run("poll", "--in", base / "d.json", "--truth", base / "p.truth.json",
                "--out-dir", base, "--quiet")
            run("features", "--piece", base / "p.csv", "--patterns", base / "p.truth.json",
                "--random", 2, "--seed", 0, "--out", base / "f.csv", "--quiet")
            run("classify", "--features", base / "f.csv", "--folds", 2, "--repeats", 1,
                "--trees", 5, "--seed", 0, "--out", base / "cv.json", "--quiet")
            run("importance", "--features", base / "f.csv", "--runs", 2, "--trees", 5,
                "--seed", 0, "--out", base / "imp.json", "--quiet")
            outputs[attempt] = {
                p.name: p.read_bytes() for p in sorted(base.iterdir()) if p.is_file()
            }
        assert outputs["first"] == outputs["second"]
