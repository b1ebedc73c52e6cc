import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from motifkit import analysis, cli, core, polling
from motifkit.cli import main
from motifkit.core import (
    PatternOccurrence,
    PatternRecord,
    Point,
    dump_pattern_json,
    format_time,
    load_pattern_file,
    over_common_denominator,
    parse_points_csv,
)
from motifkit.discovery import cosiatec, tecs_to_records

import _oracles

F = Fraction
ROOT = Path(__file__).resolve().parents[1]


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def read_signal(path):
    return [(F(t), F(v)) for t, v in read_rows(path)]


def write_patterns(path, algorithm, *spans):
    """One pattern whose occurrences fill each [start, end) with crotchets."""
    occurrences = tuple(
        PatternOccurrence(tuple(Point(F(s + i), 60) for i in range(e - s))) for s, e in spans
    )
    records = [PatternRecord(algorithm, "x", occurrences)]
    path.write_text(dump_pattern_json("p", algorithm, records))
    return path


def renamed(path, piece):
    """A copy of the pattern file at `path` that names `piece`, beside it as <piece>.json."""
    other = path.with_name(f"{piece}.json")
    other.write_text(json.dumps({**json.loads(path.read_text()), "piece": piece}))
    return other


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

    @pytest.mark.parametrize("alg", ["sia:junk", "siatec:junk"])
    def test_argument_for_argless_algorithm_exit_3(self, synth_dir, capsys, alg):
        out = synth_dir / "x.json"
        capsys.readouterr()
        assert run("discover", "--in", synth_dir / "piece.csv", "--alg", alg, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: invalid algorithm spec") and err.count("\n") == 1, err
        assert not out.exists()

    def test_bad_siarct_threshold_exit_3(self, synth_dir, capsys):
        out = synth_dir / "x.json"
        assert run("discover", "--in", synth_dir / "piece.csv", "--alg", "siarct:0,2", "--out", out) == 3
        assert "compactness threshold must be in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    # `Fraction` alone would spend minutes on these; a spec's rationals are read as
    # input times are, by `core.to_time`, which guards the digit count
    @pytest.mark.parametrize("alg", ["cosiatec:comp>=1e-99999999", "siarct:1e-99999999,2"])
    def test_oversized_spec_rational_exit_3(self, synth_dir, alg):
        out = synth_dir / "x.json"
        proc = subprocess.run(
            [sys.executable, "-m", "motifkit.cli", "discover", "--in", synth_dir / "piece.csv",
             "--alg", alg, "--out", out],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
            timeout=30,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith(f"error: invalid algorithm spec {alg!r}: time '1e-99999999' ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not out.exists()

    def test_stats_file(self, synth_dir):
        piece = synth_dir / "piece.csv"
        plain, traced, stats = synth_dir / "plain.json", synth_dir / "traced.json", synth_dir / "s.json"
        assert run("discover", "--in", piece, "--alg", "cosiatec", "--out", plain) == 0
        assert run("discover", "--in", piece, "--alg", "cosiatec", "--out", traced,
                   "--stats", stats) == 0
        assert traced.read_bytes() == plain.read_bytes()
        doc = json.loads(stats.read_text())
        assert doc["algorithm"] == "cosiatec" and doc["piece"] == "piece"
        assert doc["rounds"] == len(doc["per_round"]) > 0
        assert all(0 < r["scored"] <= r["shapes"] for r in doc["per_round"])
        emitted = [r for r in doc["per_round"] if r["chosen"]["emitted"]]
        patterns = json.loads(plain.read_text())["patterns"]
        # every emitted TEC, plus the residue unless the last round emitted too
        assert len(patterns) - len(emitted) in (0, 1)
        assert doc["per_round"][0]["points"] == len(parse_points_csv(piece.read_text()))
        assert set(doc["seconds"]) == {"table", "search", "rank", "emit"}

    def test_stats_for_algorithm_without_them_exit_3(self, synth_dir, capsys):
        code = run("discover", "--in", synth_dir / "piece.csv", "--alg", "sia",
                   "--out", synth_dir / "x.json", "--stats", synth_dir / "s.json")
        assert code == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not (synth_dir / "s.json").exists()

    def test_unreadable_input_exit_2(self, tmp_path):
        code = run("discover", "--in", tmp_path / "missing.csv", "--alg", "sia",
                   "--out", tmp_path / "x.json")
        assert code == 2

    def test_bad_csv_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,not-a-pitch,1\n")
        assert run("discover", "--in", bad, "--alg", "sia", "--out", tmp_path / "x.json") == 2

    # 1e5000 used to parse and fail at output (exit 3); 1e999999999 never finished parsing
    @pytest.mark.parametrize("text", ["1e5000", "1e-5000", "2.5E+10000000", "1e999999999"])
    def test_oversized_time_exit_2_fast(self, tmp_path, capsys, text):
        piece = tmp_path / "p.csv"
        piece.write_text(f"0,60,1\n{text},62,1\n")
        start = time.perf_counter()
        code = run("discover", "--in", piece, "--alg", "sia", "--out", tmp_path / "x.json")
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {piece}: line 2: ")
        assert not (tmp_path / "x.json").exists()


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

    def test_diagnostics_are_the_boundary_signal(self, synth_dir, pattern_files):
        a, b = pattern_files
        out = synth_dir / "diag"
        assert run("poll", "--in", a, b, "--resolution", "1/2", "--window", 5, "--order", 2,
                   "--out-dir", out, "--quiet") == 0
        values = read_signal(out / "piece.curve.csv")
        curve = polling.PollingCurve(
            values[0][0], F(1, 2), *over_common_denominator(v for _, v in values))
        trace = polling.boundary_trace(curve, polling.PpParams(window=5, order=2))
        smoothed = trace.smoothed
        p1, p2 = polling.derivatives(smoothed)
        assert smoothed.origin == -F(5, 2)
        assert read_signal(out / "piece.smoothed.csv") == [
            (smoothed.time_at(j), v) for j, v in enumerate(smoothed.values)
        ]
        assert read_signal(out / "piece.deriv1.csv") == [
            (smoothed.time_at(j), v) for j, v in enumerate(p1)
        ]
        assert read_signal(out / "piece.deriv2.csv") == [
            (smoothed.time_at(j + 1), v) for j, v in enumerate(p2)
        ]
        doc = json.loads((out / "piece.boundaries.json").read_text())
        assert tuple(doc["boundaries"]) == trace.boundaries

    def test_one_curve_and_one_smoothing(self, synth_dir, pattern_files, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("polling_curve", "_smooth"):
            monkeypatch.setattr(polling, name, counted(name, getattr(polling, name)))
        a, b = pattern_files
        assert run("poll", "--in", a, b, "--truth", synth_dir / "piece.truth.json",
                   "--out-dir", synth_dir / "once", "--quiet") == 0
        assert sorted(calls) == ["_smooth", "polling_curve"]

    def test_builds_the_curve_and_the_smoothed_curve(self, synth_dir, pattern_files, monkeypatch):
        built = []
        curve_type = polling.PollingCurve

        def counted(*args):
            built.append(args)
            return curve_type(*args)

        monkeypatch.setattr(polling, "PollingCurve", counted)
        a, b = pattern_files
        assert run("poll", "--in", a, b, "--truth", synth_dir / "piece.truth.json",
                   "--out-dir", synth_dir / "once", "--quiet") == 0
        curve, smoothed = built
        assert smoothed[0] == curve[0] - 3 * curve[1]  # padded by the default window

    def test_window_wider_than_a_short_piece(self, tmp_path):
        two = write_patterns(tmp_path / "two.json", "a", (0, 2))
        assert run("poll", "--in", two, "--window", 5, "--order", 2,
                   "--out-dir", tmp_path, "--quiet") == 0
        assert len(read_rows(tmp_path / "p.curve.csv")) == 2
        assert len(read_rows(tmp_path / "p.smoothed.csv")) == 2 + 2 * 5

    def test_truth_outside_explicit_span_exit_3(self, tmp_path):
        a = write_patterns(tmp_path / "a.json", "a", (0, 4))
        truth = write_patterns(tmp_path / "t.json", "truth", (2, 9))
        assert run("poll", "--in", a, "--truth", truth, "--span", "0,8",
                   "--out-dir", tmp_path, "--quiet") == 3

    def test_conflicting_piece_ids_exit_4(self, synth_dir, tmp_path, pattern_files):
        a, _ = pattern_files
        other = tmp_path / "other.json"
        doc = json.loads(a.read_text())
        doc["piece"] = "another-piece"
        other.write_text(json.dumps(doc))
        assert run("poll", "--in", a, other, "--out-dir", tmp_path) == 4

    def test_first_input_of_another_piece_exit_4_naming_it(self, tmp_path, capsys):
        """Inputs are read in order, so a later unparseable file does not hide the mismatch."""
        p = write_patterns(tmp_path / "p.json", "a", (0, 4))
        q = renamed(p, "q")
        (tmp_path / "bad.json").write_text("{")
        capsys.readouterr()
        assert run("poll", "--in", p, q, tmp_path / "bad.json", "--out-dir", tmp_path / "out") == 4
        assert f"{q}: piece id 'q' does not match 'p'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


_times = st.builds(F, st.integers(-12, 12), st.integers(1, 4))
_lengths = st.builds(F, st.integers(1, 8), st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(origin=_times, resolution=_lengths, n=st.integers(0, 30))
def test_time_column_formats_each_grid_time(origin, resolution, n):
    curve = polling.PollingCurve(origin, resolution, *over_common_denominator((F(0),) * n))
    assert cli._times(curve) == [format_time(curve.time_at(k)) for k in range(n)]


class TestPresence:
    @settings(max_examples=40, deadline=None)
    @given(
        resolution=st.sampled_from([F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2)]),
        notes=st.lists(st.tuples(_times, _lengths), min_size=1, max_size=6),
        n_truth=st.integers(0, 5),
        margins=st.none() | st.tuples(_lengths, _lengths),
        algorithm=st.sampled_from(["a", "siarct:1,2", 'a"b', "a\rb"]),
    )
    # spans [1/4, 1/2) and [7/4, 9/4) hold no point of the grid 0, 3/2, 3
    @example(resolution=F(3, 2), notes=[(F(1, 4), F(1, 4)), (F(0), F(3)), (F(7, 4), F(1, 2))],
             n_truth=1, margins=None, algorithm="siarct:1,2")
    @example(resolution=F(3, 2), notes=[(F(0), F(1, 4)), (F(1, 4), F(3))],
             n_truth=0, margins=(F(1, 2), F(1)), algorithm='a"b')
    # csv.reader ends a row at a lone "\r", so the label must be quoted
    @example(resolution=F(1), notes=[(F(0), F(2))], n_truth=0, margins=None, algorithm="a\rb")
    def test_rows_follow_the_cell_rule(self, resolution, notes, n_truth, margins, algorithm):
        """Every presence row equals s <= origin + k * resolution < e, per grid point.

        Labels that need CSV quoting read back as written.
        """
        if margins is None:  # default span [0, latest end) needs onsets >= 0
            notes = [(abs(t), d) for t, d in notes]
        occurrences = [PatternOccurrence((Point(t, 60, d),)) for t, d in notes]
        cut = max(1, len(occurrences) - n_truth)
        inputs, truths = occurrences[:cut], occurrences[cut:]
        spans = [o.span for o in occurrences]
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            argv = ["poll", "--in", d / "a.json", "--resolution", resolution,
                    "--out-dir", d, "--quiet"]
            (d / "a.json").write_text(
                dump_pattern_json("p", algorithm, [PatternRecord(algorithm, "x", tuple(inputs))])
            )
            if truths:
                (d / "t.json").write_text(
                    dump_pattern_json("p", "t", [PatternRecord("t", "y", tuple(truths))])
                )
                argv += ["--truth", d / "t.json"]
            if margins is None:
                piece_span = (F(0), max(e for _, e in spans))
            else:
                piece_span = (min(s for s, _ in spans) - margins[0],
                              max(e for _, e in spans) + margins[1])
                argv.append(f"--span={piece_span[0]},{piece_span[1]}")
            assert run(*argv) == 0
            rows = read_rows(d / "p.presence.csv")
            records = load_pattern_file((d / "a.json").read_text())[1]
            if truths:
                records += load_pattern_file((d / "t.json").read_text())[1]
        expected = [
            [f"{rec.algorithm_id}/{rec.pattern_id}/{i}"]
            + [str(x) for x in _oracles.brute_presence(o.span, piece_span, resolution)]
            for rec in records
            for i, o in enumerate(rec.occurrences)
        ]
        assert rows == expected


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

    @pytest.mark.parametrize("start, resolution", [("-4", "1"), ("-1/2", "1/3")])
    def test_equals_poll_scores_off_a_zero_origin(self, synth_dir, start, resolution):
        a, truth, out = synth_dir / "a.json", synth_dir / "piece.truth.json", synth_dir / "sp"
        run("discover", "--in", synth_dir / "piece.csv", "--alg", "cosiatec", "--out", a)
        total = json.loads((synth_dir / "piece.config.json").read_text())["total_duration"]
        assert run("poll", "--in", a, "--truth", truth, f"--span={start},{total}",
                   "--resolution", resolution, "--out-dir", out, "--quiet") == 0
        assert json.loads((out / "piece.boundaries.json").read_text())["origin"] == start
        assert run("eval-boundaries", "--pred", out / "piece.boundaries.json", "--truth", truth,
                   "--out", synth_dir / "eval.csv") == 0
        assert read_rows(synth_dir / "eval.csv") == read_rows(out / "piece.scores.csv")

    def test_pred_piece_must_match_truth(self, tmp_path, capsys):
        for name, seed in (("a", 1), ("b", 2)):
            assert run("synth", "--seed", seed, "--name", name, "--out-dir", tmp_path,
                       "--quiet") == 0
        assert run("poll", "--in", tmp_path / "a.truth.json", "--out-dir", tmp_path / "poll",
                   "--quiet") == 0
        pred = tmp_path / "poll" / "a.boundaries.json"
        capsys.readouterr()
        assert run("eval-boundaries", "--pred", pred, "--truth", tmp_path / "b.truth.json",
                   "--out", tmp_path / "eval.csv") == 4
        err = capsys.readouterr().err
        assert "'b' does not match 'a'" in err and "Traceback" not in err
        assert not (tmp_path / "eval.csv").exists()
        assert run("eval-boundaries", "--pred", pred, "--truth", tmp_path / "a.truth.json") == 0

    def test_truth_of_another_piece_names_the_truth_file(self, tmp_path, capsys):
        p = write_patterns(tmp_path / "p.json", "a", (0, 4), (4, 8))
        q = renamed(p, "q")
        assert run("poll", "--in", p, "--out-dir", tmp_path, "--quiet") == 0
        capsys.readouterr()
        assert run("eval-boundaries", "--pred", tmp_path / "p.boundaries.json", "--truth", q) == 4
        assert f"{q}: piece id 'q' does not match 'p'" in capsys.readouterr().err

    def test_features_without_piece_takes_files_of_two_pieces(self, tmp_path):
        p = write_patterns(tmp_path / "p.json", "a", (0, 4), (4, 8))
        out = tmp_path / "f.csv"
        assert run("features", "--patterns", p, renamed(p, "q"), "--out", out, "--quiet") == 0
        assert len(read_rows(out)) == 4

    def test_features_piece_must_match_patterns(self, tmp_path, capsys):
        for name, seed in (("a", 1), ("b", 2)):
            assert run("synth", "--seed", seed, "--name", name, "--out-dir", tmp_path,
                       "--quiet") == 0
        out = tmp_path / "f.csv"
        capsys.readouterr()
        assert run("features", "--piece", tmp_path / "a.csv", "--patterns",
                   tmp_path / "b.truth.json", "--random", 2, "--out", out, "--quiet") == 4
        err = capsys.readouterr().err
        assert "'b' does not match 'a'" in err and "Traceback" not in err
        assert not out.exists()
        assert run("features", "--piece", tmp_path / "a.csv", "--patterns",
                   tmp_path / "a.truth.json", "--random", 2, "--out", out, "--quiet") == 0

    def test_features_rows_in_file_record_and_occurrence_order(self, tmp_path):
        """One row per occurrence, labelled with its file's algorithm id, then the random rows."""
        assert run("synth", "--seed", 1, "--name", "p", "--out-dir", tmp_path, "--quiet") == 0
        b = tmp_path / "b.json"
        b_records = [
            PatternRecord("b", "x", tuple(
                PatternOccurrence(tuple(Point(F(s + i), 60 + i) for i in range(3))) for s in (0, 5))),
            PatternRecord("b", "y", (PatternOccurrence((Point(F(9), 62), Point(F(11), 67))),)),
        ]
        b.write_text(dump_pattern_json("p", "b", b_records))
        a = write_patterns(tmp_path / "a.json", "a", (0, 4), (6, 8), (10, 15))
        _, a_records = load_pattern_file(a.read_text())
        out = tmp_path / "f.csv"
        assert run("features", "--piece", tmp_path / "p.csv", "--patterns", b, a,
                   "--random", 1, "--out", out, "--quiet") == 0
        rows = read_rows(out)
        expected = [
            [repr(float(v)) for v in analysis.extract_features(occ)] + [rec.algorithm_id]
            for rec in b_records + a_records
            for occ in rec.occurrences
        ]
        assert rows[:len(expected)] == expected
        assert [row[-1] for row in rows[len(expected):]] == ["random"] * len(expected)

    def test_long_matching_chain(self, tmp_path, capsys):
        records = [PatternRecord("t", f"p{i}", (PatternOccurrence((Point(F(i), 60),)),))
                   for i in range(1200)]
        truth = tmp_path / "t.json"
        truth.write_text(dump_pattern_json("p", "t", records))
        pred = tmp_path / "p.boundaries.json"
        pred.write_text(json.dumps({"boundaries": list(range(1201))}))
        capsys.readouterr()
        assert run("eval-boundaries", "--pred", pred, "--truth", truth) == 0
        assert capsys.readouterr().out == (
            "precision=1.0000 recall=1.0000 f1=1.0000 matches=1201\n")


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

    @pytest.mark.parametrize("grid, named", [
        ({"window": [7]}, "'window'"),
        ({"windows": [3], "derivative": ["first"]}, "'derivative'"),
        ({"derivatives": ["frist"]}, "'frist'"),
        ({"derivatives": ["first", "Both"]}, "'Both'"),
        ({"derivatives": "both"}, "'both'"),
        ({"lambdas": "01"}, "'01'"),
        ({"lambdas": {"0": 1}}, "{'0': 1}"),
        ({"windows": [True]}, "True"),
        ({"orders": ["2"]}, "'2'"),
    ])
    def test_bad_grid_exit_3(self, tmp_path, capsys, grid, named):
        """An unknown grid key, a grid value that is not an array, or a bad window, order
        or derivatives value is named, not trained past."""
        truth = str(write_patterns(tmp_path / "t.json", "t", (0, 4), (4, 7), (9, 12)))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"pieces": [{"patterns": [truth], "truth": truth}] * 3,
                                        "grid": grid}))
        out = tmp_path / "params.json"
        capsys.readouterr()
        assert run("train-pp", "--manifest", manifest, "--out", out, "--quiet") == 3
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("top, entry", [
        ({"grids": {"windows": [7]}}, {}),
        ({}, {"truht": "t.json"}),
    ], ids=["grids", "truht"])
    def test_unknown_manifest_key_exit_3(self, tmp_path, capsys, top, entry):
        """A top-level or piece key the manifest does not define is named, not trained past."""
        truth = str(write_patterns(tmp_path / "t.json", "t", (0, 4), (4, 7), (9, 12)))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"pieces": [{"patterns": [truth], "truth": truth, **entry}] * 3, **top}
        ))
        out = tmp_path / "params.json"
        capsys.readouterr()
        assert run("train-pp", "--manifest", manifest, "--out", out, "--quiet") == 3
        assert repr(next(iter({**top, **entry}))) in capsys.readouterr().err
        assert not out.exists()

    def test_patterns_must_match_truth_piece(self, tmp_path, capsys):
        """A piece's pattern files and truth file name one piece, as poll's inputs must."""
        truth = write_patterns(tmp_path / "t.json", "t", (0, 4), (4, 7), (9, 12))
        other = tmp_path / "q.json"
        other.write_text(json.dumps({**json.loads(truth.read_text()), "piece": "q"}))
        pieces = [{"patterns": [str(truth)], "truth": str(truth)}] * 2
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"pieces": pieces + [{"patterns": [str(truth), str(other)], "truth": str(truth)}]}
        ))
        out = tmp_path / "params.json"
        capsys.readouterr()
        assert run("train-pp", "--manifest", manifest, "--out", out, "--quiet") == 4
        err = capsys.readouterr().err
        assert str(other) in err and "'q'" in err and "'p'" in err
        assert not out.exists()

    def test_unknown_params_file_key_exit_3(self, tmp_path, capsys):
        patterns = str(write_patterns(tmp_path / "a.json", "a", (0, 3), (4, 7), (9, 12)))
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"window": 7, "ordr": 3}))
        capsys.readouterr()
        assert run("poll", "--in", patterns, "--out-dir", tmp_path / "out", "--quiet",
                   "--params-file", params) == 3
        assert "'ordr'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, path", [
        ({"window": 4}, "$"),
        ({"use_first": False, "use_second": False}, "$"),
        ({"objective": "f1", "folds": 3, "seed": 0, "params": {
            "window": 5, "order": 7, "lambda": "0", "use_first": True, "use_second": True}},
         "$.params"),
    ])
    def test_params_file_value_rule_names_file_and_path(self, tmp_path, capsys, doc, path):
        """A params file is checked whole where it is read, so the flags given cannot mend it."""
        patterns = write_patterns(tmp_path / "a.json", "a", (0, 3), (4, 7), (9, 12))
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("poll", "--in", patterns, "--params-file", params, "--window", 7,
                   "--derivatives", "both", "--out-dir", tmp_path / "out", "--quiet") == 3
        assert f"{params}: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flags_given_replace_params_file_values(self, tmp_path):
        patterns = write_patterns(tmp_path / "a.json", "a", (0, 3), (4, 7), (9, 12))
        params = tmp_path / "params.json"
        params.write_text(json.dumps(
            {"window": 5, "order": 2, "lambda": "1/2", "use_first": False, "use_second": True}
        ))
        assert run("poll", "--in", patterns, "--params-file", params, "--window", 7,
                   "--derivatives", "both", "--out-dir", tmp_path, "--quiet") == 0
        assert json.loads((tmp_path / "p.boundaries.json").read_text())["params"] == {
            "window": 7, "order": 2, "lambda": "1/2", "use_first": True, "use_second": True
        }


    @pytest.mark.parametrize("flags, message", [
        ({"window": 4}, "--window 4: window must be an odd integer >= 3"),
        ({"lambda": "abc"}, "--lambda abc: not a rational number: 'abc'"),
        ({"window": 3, "derivatives": "first"},
         "--window 3 --derivatives first: order must satisfy 1 <= order < window"),
    ], ids=["window", "lambda", "window-derivatives"])
    @pytest.mark.parametrize("source", ["command line", "config"])
    def test_flag_value_rule_names_the_flags_given(self, tmp_path, capsys, flags, message, source):
        """A value rule that the flags given break over a valid params file names those
        flags; a config file keys them by the same long names."""
        patterns = write_patterns(tmp_path / "a.json", "a", (0, 3), (4, 7), (9, 12))
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"window": 5, "order": 3}))
        given = [arg for flag, value in flags.items() for arg in (f"--{flag}", value)]
        if source == "config":
            given = ["--config", tmp_path / "cfg.json"]
            given[1].write_text(json.dumps(flags))
        capsys.readouterr()
        assert run("poll", "--in", patterns, "--params-file", params, *given,
                   "--out-dir", tmp_path / "out", "--quiet") == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


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

    def test_carriage_return_label_round_trip(self, synth_dir, tmp_path):
        """An algorithm id holding "\\r" is quoted in the features CSV, and classify reads it."""
        _, truth = load_pattern_file((synth_dir / "piece.truth.json").read_text())
        patterns = tmp_path / "cr.json"
        records = [PatternRecord("alg\rX", rec.pattern_id, rec.occurrences) for rec in truth]
        patterns.write_text(dump_pattern_json("piece", "alg\rX", records))
        features = tmp_path / "f.csv"
        assert run(
            "features", "--piece", synth_dir / "piece.csv", "--patterns", patterns,
            "--random", 2, "--seed", 1, "--out", features, "--quiet",
        ) == 0
        labels = [row[-1] for row in read_rows(features)]
        assert set(labels) == {"alg\rX", "random"}
        assert run(
            "classify", "--features", features, "--classifiers", "nb", "--folds", 2,
            "--repeats", 1, "--out", tmp_path / "cv.json", "--quiet",
        ) == 0
        report = json.loads((tmp_path / "cv.json").read_text())
        assert report["classifiers"]["nb"]["classes"] == ["alg\rX", "random"]

    def test_forest_on_adjacent_floats(self, tmp_path):
        """The midpoint of 0.7000000000000001 and the next float up rounds onto the upper one."""
        features = tmp_path / "f.csv"
        rows = ["0.7000000000000001,a\n"] * 4 + ["0.7000000000000002,b\n"] * 4
        features.write_text("f0,group\n" + "".join(rows))
        out = tmp_path / "cv.json"
        assert run("classify", "--features", features, "--classifiers", "rf", "--folds", 2,
                   "--repeats", 1, "--out", out, "--quiet") == 0
        assert out.exists()

    def test_missing_label_column_exit_2(self, tmp_path):
        bad = tmp_path / "f.csv"
        bad.write_text("a,b\n1,2\n")
        assert run("classify", "--features", bad, "--out", tmp_path / "x.json") == 2

    @pytest.mark.parametrize("command", ["classify", "importance"])
    @pytest.mark.parametrize("text, line", [
        ("a,b,group\n1,2,x\n1,2\n", 3),  # a field short: was an IndexError traceback
        ("a,b,group\n1,2,x\n1,2,3,y\n", 3),  # a field over: was read silently
        ("group\nx\ny\n", 1),  # no feature column: importance failed in numpy
        ("a,b,group\n1,2,x\n1,nan,y\n", 3),  # non-finite values exited 3 without a line
        ("a,b,group\n1,inf,x\n1,2,y\n", 2),
        ("a,b,group\n1,2,x\n-inf,2,y\n", 3),
    ])
    def test_malformed_features_exit_2(self, tmp_path, capsys, command, text, line):
        bad = tmp_path / "f.csv"
        bad.write_text(text)
        assert run(command, "--features", bad, "--out", tmp_path / "x.json", "--quiet") == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: line {line}: ")
        assert not (tmp_path / "x.json").exists()

    def test_class_size_violation_exit_3(self, tmp_path, features_csv):
        assert run(
            "classify", "--features", features_csv, "--folds", 50,
            "--out", tmp_path / "x.json", "--quiet",
        ) == 3

    @pytest.mark.parametrize("command", ["classify", "importance"])
    def test_one_group_exit_3(self, tmp_path, capsys, command):
        features = tmp_path / "f.csv"
        features.write_text("a,b,group\n" + "".join(f"{i},{i % 3},x\n" for i in range(12)))
        capsys.readouterr()
        assert run(command, "--features", features, "--out", tmp_path / "r.json", "--quiet") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_empty_classifier_list_exit_3(self, synth_dir, features_csv, capsys):
        out = synth_dir / "cv.json"
        capsys.readouterr()
        assert run("classify", "--features", features_csv, "--classifiers", ",",
                   "--out", out, "--quiet") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: no classifiers") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("importance", "--runs", 0),
        ("importance", "--runs", -1),
        ("importance", "--trees", 0),
        ("classify", "--trees", 0),
        ("classify", "--trees", -3),
        ("classify", "--folds", 0),
        ("classify", "--folds", 1),
        ("classify", "--repeats", 0),
        ("features", "--random", -2),
        ("features", "--random", 0),
    ])
    def test_bad_count_exit_3(self, synth_dir, features_csv, capsys, command, flag, value):
        inputs, name = ["--features", features_csv], flag[2:]
        if command == "classify":  # valid folds and repeats, which the flag may override
            inputs += ["--folds", 4, "--repeats", 1]
        if command == "features":
            inputs = ["--piece", synth_dir / "piece.csv", "--patterns", synth_dir / "piece.truth.json"]
            name = "repeats"
        out = synth_dir / "bad.out"
        capsys.readouterr()
        assert run(command, *inputs, flag, value, "--out", out, "--quiet") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{name} must be >= " in err and f"got {value}" in err, err
        assert not out.exists()

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

    def test_importance_names_features_by_header(self, synth_dir, features_csv):
        with open(features_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "group"
        reordered = synth_dir / "reordered.csv"
        with open(reordered, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([row[-1], *reversed(row[:-1])] for row in rows)
        out = synth_dir / "imp.json"
        assert run("importance", "--features", reordered, "--runs", 2, "--trees", 5,
                   "--out", out, "--quiet") == 0
        names = [f["name"] for f in json.loads(out.read_text())["features"]]
        assert names == list(reversed(analysis.FEATURE_NAMES))
        # beta is noise, alpha gives the group away
        renamed = synth_dir / "renamed.csv"
        lines = ["beta,alpha,group"] + [
            f"{(i * 7) % 5},{i % 4 + 10 * (g == 'b')},{g}" for g in "ab" for i in range(12)
        ]
        renamed.write_text("\n".join(lines) + "\n")
        assert run("importance", "--features", renamed, "--runs", 4, "--trees", 20,
                   "--out", out, "--quiet") == 0
        status = {f["name"]: f["status"] for f in json.loads(out.read_text())["features"]}
        assert status["alpha"] == "confirmed" and status["beta"] != "confirmed"


class TestFlags:
    REQUIRED = {
        "discover": ["--in", "p.csv", "--alg", "sia", "--out", "x.json"],
        "eval-boundaries": ["--pred", "b.json", "--truth", "t.json"],
        "poll": ["--in", "a.json"],
        "train-pp": ["--manifest", "m.json", "--out", "x.json"],
        "features": ["--out", "f.csv"],
        "classify": ["--features", "f.csv", "--out", "x.json"],
        "importance": ["--features", "f.csv", "--out", "x.json"],
    }

    @pytest.mark.parametrize("command, flag", [
        (command, flag)
        for command in ("discover", "eval-boundaries")
        for flag in ("--out-dir d", "--seed 5", "--quiet")
    ] + [("poll", "--seed 5")] + [
        (command, "--out-dir d") for command in ("train-pp", "features", "classify", "importance")
    ])
    def test_flag_the_command_ignores_exit_2(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            run(command, *self.REQUIRED[command], *flag.split())
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch):
        built = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(1) or build_parser(*a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "quiet": True}))
        assert run("synth", "--config", cfg, "--name", "p", "--out-dir", tmp_path) == 0
        assert len(built) == 1

    def test_main_parses_argv_once(self, tmp_path, monkeypatch):
        parsed = []
        parse_args = argparse.ArgumentParser.parse_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                            lambda *a: parsed.append(1) or parse_args(*a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "quiet": True}))
        assert run("synth", "--config", cfg, "--name", "p", "--out-dir", tmp_path) == 0
        assert len(parsed) == 1


def _parse_outcome(parser, argv, capsys):
    """What parsing `argv` gives: the parsed flags or the exit code, and stdout and stderr."""
    try:
        result = sorted((k, repr(v)) for k, v in vars(parser.parse_args(argv)).items())
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


def _subparsers(parser):
    """Each command's name and subparser in a motifkit parser."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestOneCommandParser:
    @staticmethod
    def argv_cases(command):
        """-h, a missing required flag, an unrecognized flag, and each bad choice and bad type."""
        actions = _subparsers(cli.build_parser())[command]._actions
        required = [x for a in actions if a.required for x in (a.option_strings[0], "v")]
        cases = [[command, "-h"], [command, *required[2:]], [command, *required, "--bogus", "1"]]
        for a in actions:
            if a.choices is not None:
                cases.append([command, *required, a.option_strings[0], "bogus"])
            if a.type in (int, float):
                cases.append([command, *required, a.option_strings[0], "x"])
        return cases

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_reads_argv_as_the_full_parser(self, capsys, command):
        for argv in self.argv_cases(command):
            one = _parse_outcome(cli.build_parser(command), argv, capsys)
            assert one == _parse_outcome(cli.build_parser(), argv, capsys), argv

    def test_calls_the_handler_the_module_binds(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "cmd_synth", lambda args: ([], ["bound now"]))
        assert run("synth") == 0
        assert capsys.readouterr().out == "bound now\n"

    def test_builds_only_the_named_command(self):
        names = list(cli._COMMANDS)
        assert list(_subparsers(cli.build_parser("poll"))) == ["poll"]
        assert list(_subparsers(cli.build_parser("nonesuch"))) == names
        assert list(_subparsers(cli.build_parser())) == names


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

    def test_empty_config_path_exit_2(self, tmp_path, capsys):
        """An empty --config is a path that cannot be read, not the absence of a config."""
        out = tmp_path / "o"
        assert run("synth", "--seed", 9, "--out-dir", out, "--config", "") == 2
        assert "cannot read : " in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sede": 7}))
        assert run("synth", "--config", cfg, "--out-dir", tmp_path) == 3

    @pytest.mark.parametrize("doc", [
        {"span": 5}, {"window": 5.5}, {"window": True}, {"order": "two"}, {"quiet": 1},
        {"weight": "a=2"}, {"derivatives": "third"}, {"lam": [0]}, {"lambda": [0]},
    ])
    def test_wrong_typed_value_exit_3(self, tmp_path, capsys, doc):
        a = write_patterns(tmp_path / "a.json", "a", (0, 4), (6, 10))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run("poll", "--in", a, "--config", cfg, "--out-dir", tmp_path / "out") == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_values_parse_like_flag_text(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": "7", "occurrences": "3", "rest_prob": 0, "quiet": True}))
        assert run("synth", "--config", cfg, "--name", "c", "--out-dir", tmp_path) == 0
        assert run("synth", "--seed", 7, "--occurrences", 3, "--rest-prob", 0, "--name", "c",
                   "--out-dir", tmp_path / "flags", "--quiet") == 0
        for suffix in (".csv", ".config.json"):
            assert (tmp_path / f"c{suffix}").read_bytes() == (tmp_path / "flags" / f"c{suffix}").read_bytes()

    def test_command_line_list_replaces_the_config_list(self, tmp_path):
        """A list flag takes the config's list, and the command line's replaces it whole."""
        a = write_patterns(tmp_path / "a.json", "a", (0, 4), (6, 10))
        b = write_patterns(tmp_path / "b.json", "b", (2, 8))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weight": ["a=2"]}))

        def curve(name, *flags):
            assert run("poll", "--in", a, b, *flags, "--out-dir", tmp_path / name, "--quiet") == 0
            return (tmp_path / name / "p.curve.csv").read_bytes()

        assert curve("cfg", "--config", cfg) == curve("flag", "--weight", "a=2") != curve("none")
        assert curve("both", "--config", cfg, "--weight", "b=3") == curve("b3", "--weight", "b=3")
        assert curve("b3") != curve("a2b3", "--weight", "a=2", "--weight", "b=3")

    def test_command_line_patterns_replace_the_config_patterns(self, tmp_path):
        a = write_patterns(tmp_path / "a.json", "a", (0, 4), (6, 10))
        b = write_patterns(tmp_path / "b.json", "b", (2, 8))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"patterns": [str(a)]}))

        def features(name, *flags):
            assert run("features", *flags, "--out", tmp_path / name, "--quiet") == 0
            return (tmp_path / name).read_bytes()

        assert features("cfg.csv", "--config", cfg) == features("flag.csv", "--patterns", a)
        assert features("both.csv", "--config", cfg, "--patterns", b) == features("b.csv", "--patterns", b)
        assert features("b.csv", "--patterns", b) != features("ab.csv", "--patterns", a, b)

    def test_required_flags_must_be_on_the_command_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alg": "sia", "out": str(tmp_path / "x.json")}))
        with pytest.raises(SystemExit) as exc:
            run("discover", "--in", "p.csv", "--config", cfg)
        assert exc.value.code == 2
        assert "the following arguments are required: --alg, --out" in capsys.readouterr().err


class TestEmptyValue:
    """An empty value given to an optional flag is that value, not the flag left out."""

    @pytest.mark.parametrize("argv, code, message", [
        (["poll", "--in", "T", "--truth", "", "--out-dir", "W"], 2, "cannot read : "),
        (["poll", "--in", "T", "--params-file", "", "--out-dir", "W"], 2, "cannot read : "),
        (["features", "--piece", "", "--patterns", "T", "--out", "F"], 2, "cannot read : "),
        (["poll", "--in", "T", "--span", "", "--out-dir", "W"], 3, "span must be start,end"),
        (["discover", "--in", "P", "--alg", "siatec", "--out", "D", "--stats", ""], 2, "--stats"),
        (["eval-boundaries", "--pred", "B", "--truth", "T", "--out", ""], 2, "--out"),
        (["synth", "--name", "", "--seed", "2", "--out-dir", "W"], 3, "--name"),
    ], ids=["poll-truth", "poll-params-file", "features-piece", "poll-span", "discover-stats",
            "eval-boundaries-out", "synth-name"])
    def test_exits_and_writes_nothing(self, synth_dir, monkeypatch, capsys, argv, code, message):
        work = synth_dir / "work"
        work.mkdir()
        monkeypatch.chdir(work)  # an empty output path names the working directory
        (synth_dir / "b.json").write_text(json.dumps({"piece": "piece", "boundaries": [0, 4]}))
        paths = {"T": "piece.truth.json", "P": "piece.csv", "D": "d.json", "B": "b.json",
                 "W": "work", "F": "work/f.csv"}
        argv = [str(synth_dir / paths[a]) if a in paths else a for a in argv]
        capsys.readouterr()
        assert run(*argv) == code
        out, err = capsys.readouterr()
        assert message in err
        assert out == ""
        assert not any(work.iterdir())


def _tree(root):
    """Every path under `root`, with each file's bytes."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


class TestOutputTargets:
    """Every output target is checked before any file is written."""

    @pytest.fixture()
    def inputs(self, synth_dir):
        """The synth directory with the inputs each command reads, an empty directory
        `dir`, and a regular file `file`."""
        truth = str(synth_dir / "piece.truth.json")
        (synth_dir / "b.json").write_text(json.dumps({"piece": "piece", "boundaries": [0, 4]}))
        (synth_dir / "m.json").write_text(
            json.dumps({"pieces": [{"patterns": [truth], "truth": truth}] * 3})
        )
        assert run("features", "--piece", synth_dir / "piece.csv", "--patterns", truth,
                   "--random", 3, "--out", synth_dir / "f.csv", "--quiet") == 0
        (synth_dir / "dir").mkdir()
        (synth_dir / "file").write_text("")
        return synth_dir

    @pytest.mark.parametrize("argv, flag", [
        (["discover", "--in", "P", "--alg", "siatec", "--out", "dir"], "out"),
        (["discover", "--in", "P", "--alg", "siatec", "--out", "d.json", "--stats", "dir"], "stats"),
        (["poll", "--in", "T", "--out-dir", "file/sub"], "out-dir"),
        (["train-pp", "--manifest", "m.json", "--out", "dir"], "out"),
        (["eval-boundaries", "--pred", "b.json", "--truth", "T", "--out", "dir"], "out"),
        (["synth", "--seed", "2", "--out-dir", "file/sub"], "out-dir"),
        (["features", "--patterns", "T", "--out", "dir"], "out"),
        (["classify", "--features", "f.csv", "--folds", "2", "--repeats", "1", "--trees", "5",
          "--out", "dir"], "out"),
        (["importance", "--features", "f.csv", "--runs", "2", "--trees", "5", "--out", "dir"], "out"),
    ], ids=["discover-out", "discover-stats", "poll-out-dir", "train-pp-out", "eval-boundaries-out",
            "synth-out-dir", "features-out", "classify-out", "importance-out"])
    def test_unwritable_target_exits_2_naming_its_flag(self, inputs, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(inputs)
        argv = [{"P": "piece.csv", "T": "piece.truth.json"}.get(a, a) for a in argv]
        before = _tree(inputs)
        capsys.readouterr()
        assert run(*argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: --{flag} ")
        assert out == ""
        assert _tree(inputs) == before

    @pytest.mark.parametrize("stats", ["x.json", "./x.json", "link/x.json"])
    def test_two_flags_on_one_file_exit_2(self, synth_dir, monkeypatch, capsys, stats):
        monkeypatch.chdir(synth_dir)
        (synth_dir / "link").symlink_to(synth_dir)
        before = _tree(synth_dir)
        capsys.readouterr()
        assert run("discover", "--in", "piece.csv", "--alg", "siatec",
                   "--out", "x.json", "--stats", stats) == 2
        out, err = capsys.readouterr()
        assert err == f"error: --out x.json and --stats {Path(stats)} name one file\n"
        assert out == ""
        assert _tree(synth_dir) == before

    @pytest.mark.parametrize("piece", ["../escaped", "", "a/b", ".", "..", "a\0b"])
    def test_piece_id_must_be_one_path_component(self, synth_dir, capsys, piece):
        patterns = synth_dir / "bad.json"
        doc = json.loads((synth_dir / "piece.truth.json").read_text())
        patterns.write_text(json.dumps({**doc, "piece": piece}))
        before = _tree(synth_dir)
        capsys.readouterr()
        assert run("poll", "--in", patterns, "--out-dir", synth_dir / "out") == 2
        out, err = capsys.readouterr()
        assert err == f"error: {patterns}: piece id {piece!r} is not one path component\n"
        assert out == ""
        assert _tree(synth_dir) == before

    @pytest.mark.parametrize("name", ["sub/x", ".", "..", "x\0"])
    def test_synth_name_must_be_one_path_component(self, tmp_path, capsys, name):
        capsys.readouterr()
        assert run("synth", "--name", name, "--seed", 2, "--out-dir", tmp_path) == 3
        out, err = capsys.readouterr()
        assert err == f"error: --name {name!r} is not one path component\n"
        assert out == ""
        assert not any(tmp_path.iterdir())

    def test_failed_write_names_its_flag_and_keeps_earlier_files(self, synth_dir, monkeypatch, capsys):
        """The set of files is not atomic: a failure at the second rename leaves the first."""
        monkeypatch.chdir(synth_dir)
        renames = []

        def replace(src, dst):
            renames.append(dst)
            if len(renames) == 2:
                raise OSError(28, "No space left on device")
            os.rename(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace)
        before = _tree(synth_dir)
        capsys.readouterr()
        assert run("discover", "--in", "piece.csv", "--alg", "siatec",
                   "--out", "d.json", "--stats", "s.json") == 2
        out, err = capsys.readouterr()
        assert err == "error: --stats s.json: [Errno 28] No space left on device\n"
        assert out == ""
        assert set(_tree(synth_dir)) - set(before) == {synth_dir / "d.json"}

    def test_symlink_target_is_replaced(self, synth_dir, capsys):
        """A target that is a symlink to a directory is replaced by the file, as rename does."""
        (synth_dir / "dir").mkdir()
        link = synth_dir / "link"
        link.symlink_to(synth_dir / "dir")
        (synth_dir / "b.json").write_text(json.dumps({"piece": "piece", "boundaries": [0, 4]}))
        assert run("eval-boundaries", "--pred", synth_dir / "b.json",
                   "--truth", synth_dir / "piece.truth.json", "--out", link) == 0
        assert not link.is_symlink() and link.read_text().startswith("piece,algorithm,")
        assert not any((synth_dir / "dir").iterdir())


class TestConfigAgainstDefaults:
    """A config value applies to a flag with any default unless the command line gives it."""

    @staticmethod
    def config(tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_poll_tolerance(self, tmp_path):
        a = write_patterns(tmp_path / "a.json", "a", (0, 4), (6, 10))
        cfg = self.config(tmp_path, {"tolerance": -1})
        common = ("poll", "--in", a, "--truth", a, "--config", cfg, "--quiet")
        assert run(*common, "--out-dir", tmp_path / "cfg") == 3
        # the flag wins even when it repeats its default
        assert run(*common, "--tolerance", 1, "--out-dir", tmp_path / "flag") == 0

    def test_poll_lambda_keyed_by_its_flag_name(self, tmp_path):
        a = write_patterns(tmp_path / "a.json", "a", (0, 4), (6, 10))
        cfg = self.config(tmp_path, {"lambda": "1/2"})
        common = ("poll", "--in", a, "--config", cfg, "--out-dir", tmp_path, "--quiet")
        for flags, lam in (((), "1/2"), (("--lambda", 1), "1")):
            assert run(*common, *flags) == 0
            doc = json.loads((tmp_path / "p.boundaries.json").read_text())
            assert doc["params"]["lambda"] == lam

    def test_train_pp_folds_and_objective(self, tmp_path):
        pieces = []
        for i, spans in enumerate([((0, 4), (6, 10)), ((0, 3), (5, 9)), ((0, 5), (7, 12))]):
            path = write_patterns(tmp_path / f"p{i}.json", "a", *spans)
            pieces.append({"patterns": [str(path)], "truth": str(path)})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"pieces": pieces}))
        cfg = self.config(tmp_path, {"folds": 2, "objective": "recall"})
        out = tmp_path / "params.json"
        common = ("train-pp", "--manifest", manifest, "--config", cfg, "--out", out, "--quiet")
        assert run(*common) == 0
        doc = json.loads(out.read_text())
        assert (doc["folds"], doc["objective"]) == (2, "recall")
        assert run(*common, "--folds", 3, "--objective", "precision") == 0
        doc = json.loads(out.read_text())
        assert (doc["folds"], doc["objective"]) == (3, "precision")

    @pytest.fixture()
    def features(self, tmp_path):
        path = tmp_path / "features.csv"
        rows = [[f"{i % 5}", f"{(i * 7) % 3}", group] for group in ("a", "b") for i in range(8)]
        path.write_text("".join(",".join(row) + "\n" for row in [["x", "y", "group"]] + rows))
        return path

    def test_classify_repeats(self, tmp_path, features):
        cfg = self.config(tmp_path, {"repeats": 2})
        out = tmp_path / "cv.json"
        common = ("classify", "--features", features, "--classifiers", "nb", "--folds", 2,
                  "--config", cfg, "--out", out, "--quiet")
        assert run(*common) == 0
        assert json.loads(out.read_text())["repeats"] == 2
        assert run(*common, "--repeats", 1) == 0
        assert json.loads(out.read_text())["repeats"] == 1

    def test_importance_runs(self, tmp_path, features):
        cfg = self.config(tmp_path, {"runs": 3})
        out = tmp_path / "imp.json"
        common = ("importance", "--features", features, "--trees", 5, "--config", cfg,
                  "--out", out, "--quiet")
        assert run(*common) == 0
        assert json.loads(out.read_text())["runs"] == 3
        assert run(*common, "--runs", 2) == 0
        assert json.loads(out.read_text())["runs"] == 2


class TestNegativeTolerance:
    def test_poll_and_eval_exit_3(self, tmp_path, capsys):
        a = write_patterns(tmp_path / "a.json", "a", (0, 4), (6, 10))
        truth = write_patterns(tmp_path / "t.json", "t", (0, 4), (6, 10))
        assert run("poll", "--in", a, "--truth", truth, "--tolerance", -1,
                   "--out-dir", tmp_path / "neg", "--quiet") == 3
        assert not (tmp_path / "neg").exists()
        assert run("poll", "--in", a, "--out-dir", tmp_path, "--quiet") == 0
        assert run("eval-boundaries", "--pred", tmp_path / "p.boundaries.json", "--truth", truth,
                   "--tolerance", -1, "--out", tmp_path / "eval.csv") == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "eval.csv").exists()


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


# JSON numbers stay within +-64: a window read from a document sets the
# length of the padded curve, and smoothing costs about window times curve
# length integer products, so a window of thousands makes each example slow.
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-64, 64)
    | st.floats(-64, 64)
    | st.sampled_from([float("inf"), float("-inf"), float("nan")])
    | st.text(st.characters(blacklist_categories=("Nd",)), max_size=6)
    | st.sampled_from(["", "3", "5", "1/2", "-1", "0", "nan", "both"])
)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _node_paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


def _replacements(template):
    """(path, value): `template`'s node at `path` to be replaced by `value`."""
    return st.tuples(st.sampled_from(list(_node_paths(template))), _JSON)


def _documents(template):
    """Arbitrary bytes, text and JSON values, and `template` with one node replaced."""
    return st.one_of(
        st.binary(max_size=24),
        st.text(max_size=24).map(lambda t: t.encode("utf-8", "surrogatepass")),
        _JSON.map(lambda v: json.dumps(v).encode()),
        _replacements(template).map(lambda pv: json.dumps(_replaced(template, *pv)).encode()),
    )


def _json_path(path) -> str:
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


def _declared(kind, path):
    """The kind that the declaration `kind` gives the node at `path`."""
    for key in path:
        kind = kind[0] if isinstance(kind, list) else kind.kinds[key]
    return kind


def _json_types(kind) -> tuple:
    """The types of the JSON values among which `kind` admits some."""
    if isinstance(kind, list):
        return (list,)
    if isinstance(kind, core.JsonObject):
        return (dict,)
    return (int, float, str) if kind is core.TIME else (kind,)


# The declared shape of each JSON input that has one.
_SHAPES = {
    "params": cli._TRAINED_SHAPE, "manifest": cli._MANIFEST_SHAPE, "pred": cli._BOUNDARIES_SHAPE,
}


@pytest.fixture(scope="module")
def json_case(tmp_path_factory):
    """The command, valid document and argv of each JSON input, over small files."""
    d = tmp_path_factory.mktemp("json-inputs")
    a = str(write_patterns(d / "a.json", "a", (0, 3), (4, 7), (9, 12)))
    truth = str(write_patterns(d / "t.json", "t", (0, 4), (4, 7), (9, 12)))
    out = d / "out"
    return d, {
        "config": ({"window": 3, "quiet": True},
                   ["poll", "--in", a, "--out-dir", out, "--config"]),
        "params": ({"params": {"window": 3, "order": 1, "lambda": "0",
                               "use_first": True, "use_second": True}},
                   ["poll", "--in", a, "--truth", truth, "--out-dir", out, "--quiet",
                    "--params-file"]),
        "manifest": ({"pieces": [{"patterns": [a], "truth": truth}] * 3,
                      "grid": {"windows": [3, 5], "orders": [1], "lambdas": [0],
                               "derivatives": ["both"]}},
                     ["train-pp", "--out", out / "params.json", "--quiet", "--manifest"]),
        "pred": ({"boundaries": [0, 4, 7], "resolution": "1", "algorithm": "pp"},
                 ["eval-boundaries", "--truth", truth, "--out", out / "eval.csv", "--pred"]),
        "patterns": (json.loads(Path(a).read_text()),
                     ["poll", "--out-dir", out, "--quiet", "--in"]),
        "features": (json.loads(Path(a).read_text()),
                     ["features", "--out", out / "f.csv", "--quiet", "--patterns"]),
    }


def _malformed(name, text, code, path=None, id=None):
    """A malformed-document case; its id, unless given, is pytest's own for (name, text, code)."""
    return pytest.param(name, text, code, path, id=id or f"{name}-{text}-{code}")


def _pattern_text(points, span='["0", "1"]'):
    return (
        '{"piece": "p", "algorithm": "a", "patterns": [{"id": "x", "occurrences": '
        f'[{{"points": {points}, "span": {span}}}]}}]}}'
    )


class TestJsonInputs:
    @pytest.mark.parametrize(
        "name", ["config", "params", "manifest", "pred", "patterns", "features"]
    )
    def test_valid_document_runs(self, json_case, name):
        d, cases = json_case
        doc, argv = cases[name]
        (d / "doc.json").write_text(json.dumps(doc))
        assert run(*argv, d / "doc.json") == 0

    @pytest.mark.parametrize("name, text, code, path", [
        _malformed("params", "{", 2),
        _malformed("params", "[1]", 3, "$"),
        _malformed("params", '{"params": {"window": null}}', 3, "$.params.window"),
        _malformed("manifest", "{", 2),
        _malformed("manifest", '{"pieces": [{"patterns": []}]}', 3, "$.pieces[0]"),
        _malformed("manifest", '{"pieces": 5}', 3, "$.pieces"),
        _malformed("manifest", '{"pieces": [], "grid": {"windows": [4]}}', 3, "$.grid"),
        _malformed("pred", "{", 2),
        _malformed("pred", '{"boundaries": ["x"]}', 2, "$.boundaries[0]"),
        _malformed("pred", '{"boundaries": [0.9, true, 7.99]}', 2, "$.boundaries[0]"),
        _malformed("pred", '{"boundaries": [1], "resolution": 0}', 2, "$.resolution"),
        _malformed("pred", '{"boundaries": [1], "resolution": true}', 2, "$.resolution"),
        _malformed("params", '{"window": 3, "order": 1, "lambda": true}', 3, "$.lambda"),
        _malformed("params", '{"window": 3, "order": 1, "use_first": "false"}', 3, "$.use_first"),
        _malformed("params", '{"window": 5.9, "order": 1}', 3, "$.window"),
        # params that keep no crossing find no boundary
        _malformed("params", '{"use_first": false, "use_second": false, "window": 3, "order": 1}', 3),
        _malformed("config", "{", 2),
        _malformed("config", "[]", 3, "$"),
        # an unknown key, a value of another kind, or boundaries out of order, once misread
        _malformed("pred", '{"boundaries": [0, 4], "resolution": "1", "resoluton": "1/2"}', 2, "$",
                   id="pred-misspelt-resolution"),
        _malformed("pred", '{"boundaries": [1], "boundries": [2]}', 2, "$",
                   id="pred-misspelt-boundaries"),
        _malformed("pred", '{"boundaries": [0, 4], "algorithm": 5}', 2, "$.algorithm",
                   id="pred-numeric-algorithm"),
        _malformed("pred", '{"boundaries": {"1": 0}}', 2, "$.boundaries", id="pred-object"),
        _malformed("pred", '{"boundaries": [9, 1, 1, -4]}', 2, "$.boundaries[1]",
                   id="pred-unsorted"),
        _malformed("pred", '{"boundaries": [0, 4, 4]}', 2, "$.boundaries[2]", id="pred-duplicate"),
        _malformed("pred", '{"boundaries": [-4]}', 2, "$.boundaries[0]", id="pred-negative"),
        _malformed("params", '{"params": {"window": 3}, "extra": 1}', 3, "$",
                   id="params-unknown-key-beside-params"),
        _malformed("manifest", '{"pieces": "ab"}', 3, "$.pieces", id="manifest-string-pieces"),
    ] + [
        # an int past the interpreter's digit limit is not JSON the decoder can read
        _malformed(name, f'{{"boundaries": [1{"0" * 5000}]}}', 2, id=f"{name}-5001-digit-int")
        for name in ("config", "params", "manifest", "pred")
    ] + [
        # non-finite numbers and nesting deeper than the JSON decoder recurses
        _malformed(name, text, 2, id=f"{name}-{case}")
        for name in ("patterns", "features")
        for case, text in (
            ("nan-onset", _pattern_text('[[NaN, 60, "1"]]')),
            ("infinite-duration", _pattern_text('[["0", 60, Infinity]]')),
            ("1e400-span", _pattern_text('[["0", 60, "1"]]', '["0", 1e400]')),
            ("deep-nesting", "[" * 100_000),
        )
    ])
    def test_malformed_document_exit_code(self, json_case, capsys, name, text, code, path):
        """Each case exits with its code; one about a node of a declared document names
        the file and the node's JSON path."""
        d, cases = json_case
        (d / "doc.json").write_text(text)
        capsys.readouterr()
        assert run(*cases[name][1], d / "doc.json") == code
        if path is not None:
            assert f"{d / 'doc.json'}: {path}: " in capsys.readouterr().err

    def test_deep_time_value_in_one_short_line(self, json_case):
        """A time's message shortens the value it rejects, as the walker's own messages do.

        The CLI runs in a process of its own: under pytest's deeper stack, the JSON decoder
        would give up on the nesting first."""
        d, cases = json_case
        (d / "doc.json").write_text('{"boundaries": [], "origin": ' + "[" * 980 + "]" * 980 + "}")
        proc = subprocess.run(
            [sys.executable, "-m", "motifkit.cli", *map(str, cases["pred"][1]), d / "doc.json"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert f"{d / 'doc.json'}: $.origin: " in proc.stderr
        assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 200, proc.stderr

    # an int past the digit limit made json.loads raise a bare ValueError (exit 3)
    @pytest.mark.parametrize("field", ["1" + "0" * 5000, '"1e999999999"', '"1e-5000"'],
                             ids=["5001-digit-int", "1e999999999", "1e-5000"])
    def test_oversized_time_in_pattern_file_exit_2(self, json_case, capsys, field):
        d, cases = json_case
        doc = d / "doc.json"
        doc.write_text(_pattern_text(f'[[{field}, 60, "1"]]'))
        start = time.perf_counter()
        assert run(*cases["patterns"][1], doc) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err.startswith(f"error: {doc}: ")

    @pytest.mark.parametrize("grid", [{"windows": [5.9]}, {"lambdas": [True]}])
    def test_manifest_grid_scalar_misread_exit_3(self, json_case, grid):
        d, cases = json_case
        doc, argv = cases["manifest"]
        (d / "doc.json").write_text(json.dumps({**doc, "grid": {**doc["grid"], **grid}}))
        assert run(*argv, d / "doc.json") == 3

    @pytest.mark.parametrize("name", ["config", "params", "manifest", "pred", "patterns"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fuzz_exits_with_a_documented_code(self, json_case, name, data):
        """Any document exits with a documented code.  A node of a declared document
        replaced by a JSON value of a type its kind does not admit exits nonzero, and
        the message names the node's JSON path."""
        d, cases = json_case
        template, argv = cases[name]
        doc = data.draw(st.one_of(_documents(template), _replacements(template)))
        rejected = False
        if isinstance(doc, tuple):
            path, value = doc
            doc = json.dumps(_replaced(template, path, value)).encode()
            shape = _SHAPES.get(name)
            rejected = shape is not None and type(value) not in _json_types(_declared(shape, path))
        (d / "doc.json").write_bytes(doc)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(*argv, d / "doc.json")
        if rejected:
            assert code != 0
            assert f"{d / 'doc.json'}: {_json_path(path)}: " in err.getvalue()
        else:
            assert code in (0, 2, 3, 4)

    def test_outputs_pass_their_declarations(self, synth_dir, tmp_path):
        """poll's boundaries document and train-pp's params document, as written, are
        documents of their declared shapes, which eval-boundaries and poll read back."""
        truth = synth_dir / "piece.truth.json"
        pred, params = tmp_path / "poll" / "piece.boundaries.json", tmp_path / "params.json"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"pieces": [{"patterns": [str(truth)], "truth": str(truth)}] * 3}))
        assert run("poll", "--in", truth, "--out-dir", tmp_path / "poll", "--quiet") == 0
        assert run("train-pp", "--manifest", manifest, "--out", params, "--quiet") == 0
        for path, shape in ((pred, cli._BOUNDARIES_SHAPE), (params, cli._TRAINED_SHAPE)):
            doc = json.loads(path.read_text())
            assert core.check_shape(doc, shape) == json.loads(path.read_text())
        assert run("eval-boundaries", "--pred", pred, "--truth", truth) == 0
        assert run("poll", "--in", truth, "--params-file", params, "--out-dir", tmp_path / "again",
                   "--quiet") == 0
