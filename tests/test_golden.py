"""Golden digests: the exact bytes the CLI writes for two pieces.

The first chain runs synth seed 5, `discover` with eight algorithm specs,
`poll` with its defaults and with a fractional resolution, weight, window
and order, `eval-boundaries` and `train-pp`.  Synthetic pieces have only
integer onsets, so a second chain runs a hand-written piece with onsets in
thirds and dotted durations through five `discover` specs, and three of
their outputs through a `poll` at resolution 1/3, which writes `num/den`
times.  Each test compares the
sha256 of every file written against digests taken from an earlier build.
A refactor that claims to keep outputs byte-identical passes only if it
does.  Outputs with numpy floats (`features`, `classify`, `importance`)
are left out: their last digits may differ between numpy builds.
A third test pins the work counters of `discover --stats` on synth seed
5, every field but the wall times, so a change in search work shows even
when timings are noisy; `shapes` counts the distinct candidate shapes a
round built.  A fourth pins `synthesize` itself on the default templates:
seeds 0–19 at 2, 3, 4 and 6 occurrences, the pieces the recovery ladder
and the benchmark's cover workload draw.
"""

import hashlib
import json

import pytest

from motifkit.cli import main
from motifkit.core import dump_pattern_json, emit_points_csv, format_time
from motifkit.synthesis import GROUND_TRUTH_ID, SynthConfig, synthesize

DISCOVER = {
    "sia": "sia",
    "siatec": "siatec",
    "cosiatec": "cosiatec",
    "cosiatec-comp-size": "cosiatec:comp,size",
    "siatec-compress-cr": "siatec-compress:cr",
    "siar-3": "siar:3",
    "siarct-1-2": "siarct:1,2",
    "siarct-half-2": "siarct:1/2,2",
}

GOLDEN = {
    "cosiatec-comp-size.json": "b8ce7520509511034ce1a7fcbba4cf117bc96c76d7b939565ce809358b450aa7",
    "cosiatec.json": "f1b9474e5d34182cc8a4b118fbc9cab81e75526703bc7564e3c431a605b0dfab",
    "default/eval.csv": "f446253dc0e3b720605e69c0425795ba5915da8c54641667150533cf18a129c4",
    "default/p.boundaries.json": "5af2e7ba4ca3e7ac063d58d46b89eb7ea4194e7734d96b9d5bbe958be02ebf81",
    "default/p.curve.csv": "ad5983e744f7413b79e649d4c095d1da74284acf32aade9628994115a634e66a",
    "default/p.deriv1.csv": "49438f66c9cfc8e39c910eec27399ed69dd22582bc2cd1bce07d9c106efba831",
    "default/p.deriv2.csv": "31daf2bc49904653d1bc4244413069e4db93ef88c0afcf4f457ca3b6ff6f36a1",
    "default/p.presence.csv": "33fe20dba9d01cb252e6e96fd836305840b3e6e21ac5110c47307af285f865fb",
    "default/p.scores.csv": "f446253dc0e3b720605e69c0425795ba5915da8c54641667150533cf18a129c4",
    "default/p.smoothed.csv": "cb4f87796f6d8214d7602b13e3e1b28160509217a91ca47b320f6d55e0fabb10",
    "p.config.json": "f9d14a1413070bc636c1fc2a3734cafc47d4d14e8df9118996639fdf5bcec022",
    "p.csv": "646279dff3a30780479efe56142f6857ffd422487277e6139d77ccfbb5c1e2be",
    "p.truth.json": "088d6bf7dc6892de9c77de2f0f6f2f6f39c0b93393754adc4d7b9846b92fddca",
    "params.json": "ad614d9e1150c953df54a5ad3707f18ff0c7a8382786cd39f4c413c91932a339",
    "sia.json": "0601fbfc5f5cc6453dff57c495bf621d2c1a81b13e647fa1e5deabca27ed1b8d",
    "siar-3.json": "d86f94b822e0eb002cb1be3f09113abb66d2ffc5e3c01b8c4c921ecd964efaef",
    "siarct-1-2.json": "285de8d1c9921f27b339a0fa8aec64fefaa4d9ec996e8318486965e717f52402",
    "siarct-half-2.json": "663502ff85083ec134b8b44e7de340c71d70448940cc08478081ca7a705c380f",
    "siatec-compress-cr.json": "9daa8c8df6ef52883f80cd71a25ca32bc22749928cbc64651d80ef2544c1803f",
    "siatec.json": "3f4acfd8fe94747594ed7da6b58b8e6e1d2c0903354eadfee300884d3c7b190b",
    "tuned/eval.csv": "77b75b7c5c1fd6d4b55d00c69f99ea67d039e6deafa9839a9b8fd8b8e447f2f6",
    "tuned/p.boundaries.json": "bbd88b1d216ebd573365d5cc8b6cc86a1fe5afe412f64279c43fd8caea6d384a",
    "tuned/p.curve.csv": "1cf77a1dce0f500d8c181538b86d2521a853fef1dccc10eb4363dc5189f356ff",
    "tuned/p.deriv1.csv": "249c46c083358a017ed50d01fdb582b95a00ae90b8949a7dd02565ce68927204",
    "tuned/p.deriv2.csv": "b7266e748396573c5c2c0c1c7cc6555e3b31ab12315f4d9e34120d7a4b5168fa",
    "tuned/p.presence.csv": "61fbf492fab8f44f5e163a90945610b41892d3481c4b548f5f946bb807ae736b",
    "tuned/p.scores.csv": "77b75b7c5c1fd6d4b55d00c69f99ea67d039e6deafa9839a9b8fd8b8e447f2f6",
    "tuned/p.smoothed.csv": "f6e3982a6a0fb72701faeab8757fc3b1ab4a9045adec6383dde10ed751c8593a",
}


def _run(*argv):
    assert main([str(a) for a in argv]) == 0, argv


def _chain(base):
    """Run the chain in `base`; every file written, by path relative to `base`."""
    _run("synth", "--seed", 5, "--name", "p", "--out-dir", base, "--quiet")
    piece, truth = base / "p.csv", base / "p.truth.json"
    for name, spec in DISCOVER.items():
        _run("discover", "--in", piece, "--alg", spec, "--out", base / f"{name}.json")
    found = [base / "cosiatec.json", base / "siar-3.json"]
    for sub, extra in (
        ("default", []),
        ("tuned", ["--resolution", "1/3", "--weight", "cosiatec=3/2", "--window", 7, "--order", 3]),
    ):
        _run("poll", "--in", *found, "--truth", truth, "--out-dir", base / sub, "--quiet", *extra)
        _run("eval-boundaries", "--pred", base / sub / "p.boundaries.json", "--truth", truth,
             "--out", base / sub / "eval.csv")
    manifest = {
        "pieces": [{"patterns": [str(path)], "truth": str(truth)} for path in found]
        + [{"patterns": [str(base / "siatec.json")], "truth": str(truth)}],
        "grid": {"windows": [3, 5], "orders": [1, 2], "lambdas": [0, "1/2"]},
    }
    (base / "manifest.json").write_text(json.dumps(manifest))
    _run("train-pp", "--manifest", base / "manifest.json", "--folds", 3,
         "--out", base / "params.json", "--quiet")
    return _digests(base, skip="manifest.json")


# Three transposed statements of a five-note motif, each followed by a
# filler note: onsets in thirds, durations 1/3, 2/3, 3/4 and 3/2.
THIRDS_PIECE = """\
0,60,1/3
1/3,62,1/3
2/3,64,2/3
4/3,65,3/4
2,67,3/2
10/3,72,1/3
11/3,62,1/3
4,64,1/3
13/3,66,2/3
5,67,3/4
17/3,69,3/2
7,71,1/3
22/3,57,1/3
23/3,59,1/3
8,61,2/3
26/3,62,3/4
28/3,64,3/2
32/3,60,3/4
"""

THIRDS_DISCOVER = {
    "cosiatec": "cosiatec",
    "siar-3": "siar:3",
    "siarct-half-2": "siarct:1/2,2",
    "siatec": "siatec",
    "siatec-compress-cr": "siatec-compress:cr",
}
# the outputs `poll` reads; SIATEC's and SIATECCompress's pin their shared pass
THIRDS_POLLED = ("cosiatec", "siar-3", "siarct-half-2")

THIRDS_GOLDEN = {
    "cosiatec.json": "a0a1d044ab02736c937007796f67ec4b01223968d214a99f5225b8d52700d154",
    "poll/t.boundaries.json": "7b3f5c1355c2cc71821719bfd87681e5ab88a57ab4e360c6373b1e46124044d6",
    "poll/t.curve.csv": "8f955f8b02dc254aa08524b50030ff46ce9a103e1a0a57aa1c559f20343a6769",
    "poll/t.deriv1.csv": "61dc9e620cb2bb0788e40da7c2369e587f23d5acbde4830ffaeaf724d30637df",
    "poll/t.deriv2.csv": "aea9eaeef83e1d27da347315f344efcae058ad883e065b836ba757a4cda63840",
    "poll/t.presence.csv": "63afe7ccacc4ccb1291b6bfbc69b8c9a63a610470c8f368cdf2bd38445623407",
    "poll/t.smoothed.csv": "b2ee99fea434cf13f7971b3b28ec6ebf44d7cb82679035871219842d1e0a1422",
    "siar-3.json": "3a6e487c2ad14396da0c15d7f8f42b8506c1e5a5165287988955bd2fd4174733",
    "siarct-half-2.json": "137e9b927dd46e8139f5242e0fa0987499b1560a1ecd67eb0a7643ae36f9ebff",
    "siatec-compress-cr.json": "b9a075f90cfcb2117dfc90b61755e6e95b47aea5ba7a0e5044aa7d51d8d4f15b",
    "siatec.json": "e6b57b1d9a3b864475ea7093889307aecaedc6c438c4a4efea387005b27a42d5",
}


def _thirds_chain(base):
    """Discover and poll the piece in thirds in `base`; every file written, as `_chain`."""
    piece = base / "t.csv"
    piece.write_text(THIRDS_PIECE)
    for name, spec in THIRDS_DISCOVER.items():
        _run("discover", "--in", piece, "--alg", spec, "--out", base / f"{name}.json")
    found = [base / f"{name}.json" for name in THIRDS_POLLED]
    _run("poll", "--in", *found, "--resolution", "1/3", "--out-dir", base / "poll", "--quiet")
    return _digests(base, skip="t.csv")


def _digests(base, skip):
    return {
        path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(base.rglob("*"))
        if path.is_file() and path.name != skip
    }


def _assert_golden(digests, golden):
    assert set(digests) == set(golden)
    changed = sorted(name for name in digests if digests[name] != golden[name])
    assert not changed, f"{changed} differ from the golden bytes"


def test_cli_outputs_match_golden_digests(tmp_path):
    _assert_golden(_chain(tmp_path), GOLDEN)


def test_fractional_times_match_golden_digests(tmp_path):
    _assert_golden(_thirds_chain(tmp_path), THIRDS_GOLDEN)


CHOSEN = ("size", "translators", "ratio", "compactness", "coverage", "emitted")


def _round(points, vectors, shapes, scored, chosen=None):
    """One `per_round` entry of a stats document; `chosen` as the values of CHOSEN."""
    entry = {"points": points, "vectors": vectors, "shapes": shapes, "scored": scored}
    if chosen is not None:
        entry["chosen"] = dict(zip(CHOSEN, chosen, strict=True))
    return entry


# taken from an earlier build, like the digests above; siatec-compress:cr's 244
# translator searches are `_oracles.walk_scored` on the piece
GOLDEN_STATS = {
    "siatec": [_round(97, 2354, 408, 408)],
    "cosiatec": [
        _round(97, 2354, 133, 69, (10, 4, "40/13", "10/19", 40, True)),
        _round(57, 805, 50, 43, (8, 6, "40/13", "4/9", 40, True)),
        _round(17, 133, 3, 3, (2, 2, "4/3", "2/3", 4, True)),
        _round(13, 78, 1, 1, (1, 13, "1", "1", 13, False)),
    ],
    "cosiatec:size,cr": [
        _round(97, 2354, 2, 1, (37, 2, "21/19", "37/93", 42, True)),
        _round(55, 739, 4, 1, (29, 2, "19/15", "29/45", 38, True)),
        _round(17, 133, 3, 3, (2, 2, "4/3", "1", 4, True)),
        _round(13, 78, 1, 1, (1, 13, "1", "1", 13, False)),
    ],
    "cosiatec:comp,size": [
        _round(97, 2354, 411, 411, (21, 2, "21/11", "1", 42, True)),
        _round(55, 701, 110, 110, (20, 2, "40/21", "1", 40, True)),
        _round(15, 102, 4, 4, (1, 15, "1", "1", 15, False)),
    ],
    "siatec-compress:cr": [_round(97, 2354, 408, 244)],
    "siatec-compress:comp": [_round(97, 2354, 408, 408)],
    "siatec-compress:cov": [_round(97, 2354, 408, 48)],
}


def test_stats_counters_match_golden(tmp_path):
    _run("synth", "--seed", 5, "--name", "p", "--out-dir", tmp_path, "--quiet")
    for spec, rounds in GOLDEN_STATS.items():
        stats = tmp_path / f"{spec}.stats.json"
        _run("discover", "--in", tmp_path / "p.csv", "--alg", spec,
             "--out", tmp_path / f"{spec}.json", "--stats", stats)
        doc = json.loads(stats.read_text())
        assert set(doc.pop("seconds")) == {"table", "search", "rank", "emit"}
        assert doc == {"piece": "p", "algorithm": spec, "rounds": len(rounds), "per_round": rounds}


# sha256 over seeds 0–19 of each piece's CSV, its truth JSON and its total
# and random durations, per occurrence count; taken from an earlier build
GOLDEN_SYNTH = {
    2: "7215a55069909bbd626cec8bbd98b1fd1b95003dec550612e5a205915682bb7b",
    3: "827f708fe3bd47c51384e2b64c4ad0e6688073ddc1859a1e013dafb0d14c7bf5",
    4: "929557f40b0a5583cf096c24217ab6a1b5541a3968692dc5a0ff0db6e6907870",
    6: "38eac403a70dbce1a414dd4d447841dfee848dd57f54c49704426298228a7df4",
}


@pytest.mark.parametrize("occurrences", sorted(GOLDEN_SYNTH))
def test_synthesized_pieces_match_golden_digests(occurrences):
    digest = hashlib.sha256()
    for seed in range(20):
        sp = synthesize(SynthConfig(seed=seed, occurrences_per_template=occurrences))
        digest.update(emit_points_csv(sp.piece).encode())
        digest.update(dump_pattern_json("p", GROUND_TRUTH_ID, sp.ground_truth).encode())
        durations = f"{format_time(sp.total_duration)},{format_time(sp.random_duration)}\n"
        digest.update(durations.encode())
    assert digest.hexdigest() == GOLDEN_SYNTH[occurrences]
