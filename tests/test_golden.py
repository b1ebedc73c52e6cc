"""Golden digests: the exact bytes the CLI writes for one synthetic piece.

The chain runs synth seed 5, `discover` with eight algorithm specs, `poll`
with its defaults and with a fractional resolution, weight, window and
order, `eval-boundaries` and `train-pp`, and compares the sha256 of every
file written against digests taken from an earlier build.  A refactor that
claims to keep outputs byte-identical passes only if it does.  Outputs with
numpy floats (`features`, `classify`, `importance`) are left out: their
last digits may differ between numpy builds.
"""

import hashlib
import json

from motifkit.cli import main

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
    return {
        path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(base.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


def test_cli_outputs_match_golden_digests(tmp_path):
    digests = _chain(tmp_path)
    assert set(digests) == set(GOLDEN)
    changed = sorted(name for name in digests if digests[name] != GOLDEN[name])
    assert not changed, f"{changed} differ from the golden bytes"
