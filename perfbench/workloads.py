"""The three benchmark workloads and the checks on their outputs.

Each workload has a `setup(seed, workdir)` that builds its inputs from the
seed, and a `run_pass(inputs, clock)` that does one fixed, seeded unit of
work and returns a `PassResult`.  Only the calls into motifkit run inside
`clock.timed()`; checks, digests and bookkeeping run outside it.

Every name from motifkit is looked up through its module at call time, so
the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gauge
from motifkit import cli, core, discovery, evaluation, polling, synthesis


@dataclass
class PassResult:
    items: int = 0
    # (block key, items in the block) for each block whose time is a latency sample
    item_blocks: list[tuple[str, int]] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    bytes_written: int = 0
    quality: dict = field(default_factory=dict)

    def fail(self, message: str):
        self.failed += 1
        self.problems.append(message)


class PassClock:
    """Times the `timed(key)` blocks of a pass; turns the tracer on inside them.

    Times are CPU seconds of this process (`time.process_time`).  The
    program is single-threaded and CPU-bound, so on an idle host they equal
    wall time; on a shared VM the wall clock also counts the time the host
    ran other guests, which is not the program's work.  Each block's time
    is also kept scaled by the gauge taken just before and just after it.
    Every pass times the same blocks under the same keys, so the run can
    compare a block across passes.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.blocks: dict[str, float] = {}
        self.scaled: dict[str, float] = {}

    @property
    def total(self) -> float:
        return sum(self.blocks.values())

    @contextlib.contextmanager
    def timed(self, key: str):
        assert key not in self.blocks, f"block {key} timed twice in one pass"
        before = gauge.gauge()
        if self.tracer is not None:
            self.tracer.active = True
        start = time.process_time()
        try:
            yield
        finally:
            self.blocks[key] = time.process_time() - start
            if self.tracer is not None:
                self.tracer.active = False
        self.scaled[key] = gauge.scale(self.blocks[key], before, gauge.gauge())


def _report_exception(result: PassResult, what: str):
    traceback.print_exc(file=sys.stderr)
    result.fail(f"{what}: exception")


def _sub_seeds(seed: int, tag: str, count: int) -> list[int]:
    rng = random.Random(f"{tag}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems (empty when the check holds).


def _covered(record: core.PatternRecord) -> frozenset:
    return frozenset().union(*(occ.coords() for occ in record.occurrences))


def check_inside(piece: core.PointSet, records) -> list[str]:
    """Every occurrence (a pattern under one translator) lies in the piece."""
    coords = piece.coords()
    return [
        f"{rec.pattern_id}: occurrence {i} leaves the piece"
        for rec in records
        for i, occ in enumerate(rec.occurrences)
        if not occ.coords() <= coords
    ]


def check_union(piece: core.PointSet, records) -> list[str]:
    """The union of the covers is the piece."""
    union = frozenset().union(*(_covered(rec) for rec in records))
    return [] if union == piece.coords() else ["union of covers is not the piece"]


def check_partition(piece: core.PointSet, records) -> list[str]:
    """The covers are pairwise disjoint and their union is the piece."""
    covers = [_covered(rec) for rec in records]
    overlap = sum(len(c) for c in covers) != len(frozenset().union(*covers))
    return (["covers overlap"] if overlap else []) + check_union(piece, records)


def check_roundtrip(piece_id: str, algorithm: str, records, text: str) -> list[str]:
    """Pattern JSON `text` loads back to `records` and dumps back to `text`."""
    loaded_id, loaded = core.load_pattern_file(text)
    problems = []
    if loaded_id != piece_id or list(loaded) != list(records):
        problems.append("pattern JSON does not load back to the same records")
    if core.dump_pattern_json(loaded_id, algorithm, loaded) != text:
        problems.append("pattern JSON does not dump back to the same text")
    return problems


def check_boundaries(boundaries, n: int) -> list[str]:
    bad = [b for b in boundaries if not 0 <= b <= n]
    return [f"boundaries {bad} outside [0, {n}]"] if bad else []


# ---------------------------------------------------------------------------
# cover-large: COSIATEC and SIATECCompress on a ladder of piece sizes


class CoverLarge:
    """Item: one discovery call on one ladder piece.

    The ladder holds one piece per entry, each entry an
    `occurrences_per_template` value.  Discovery's cost rises steeply with
    piece size: on the largest rung a 274-point piece took 2.5 s per call
    and a 292-point piece 3.7 s.  So the seed draws CANDIDATES pieces per
    entry and the ladder takes the one of median size, which keeps the
    figures from following the size of a single random piece.  Latency
    samples come from the largest rung only: the calls on the whole ladder
    take from about a third of a second to several seconds, and the median
    of all of them would rest on the middle rung.  That rung has two
    pieces, since pieces of one size still differ in cost by their
    structure.
    """

    algorithms = ("cosiatec", "siatec-compress:cr")
    CANDIDATES = 15

    def __init__(self, ladder=(3, 4, 6, 6)):
        self.ladder = ladder

    def setup(self, seed: int, workdir: Path):
        seeds = iter(_sub_seeds(seed, "cover-large", len(self.ladder) * self.CANDIDATES))
        ladder = []
        for occ in self.ladder:
            drawn = [
                synthesis.synthesize(
                    synthesis.SynthConfig(occurrences_per_template=occ, seed=next(seeds))
                )
                for _ in range(self.CANDIDATES)
            ]
            drawn.sort(key=lambda sp: len(sp.piece))
            ladder.append((occ, drawn[self.CANDIDATES // 2]))
        return ladder

    def run_pass(self, pieces, clock: PassClock) -> PassResult:
        result = PassResult()
        digest = hashlib.sha256()
        for occ, sp in pieces:
            piece = sp.piece
            for alg in self.algorithms:
                key = f"rung {occ} {piece.title} {alg}"
                result.ops += 1
                try:
                    with clock.timed(key):
                        records = discovery.run_algorithm(alg, piece)
                except Exception:
                    _report_exception(result, key)
                    continue
                result.items += 1
                if occ == max(self.ladder):
                    result.item_blocks.append((key, 1))
                text = core.dump_pattern_json(piece.title, alg, records)
                digest.update(text.encode())
                cover_check = check_partition if alg == "cosiatec" else check_union
                problems = (
                    cover_check(piece, records)
                    + check_inside(piece, records)
                    + check_roundtrip(piece.title, alg, records, text)
                )
                if problems:
                    result.fail(f"{key}: {'; '.join(problems)}")
        result.digest = digest.hexdigest()
        return result


# ---------------------------------------------------------------------------
# cli-corpus: the criterion-11 CLI chain over a corpus of default pieces


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class CliCorpus:
    """Item: one piece through synth, discover x2, poll, eval-boundaries and
    features, plus recovery scoring.  train-pp, classify and importance run
    once per pass and count toward the pass time, not toward any item."""

    RANDOM_PER_OCCURRENCE = 3
    TRAIN_PP_FOLDS = 3

    def __init__(self, pieces=12, classify_folds=5, classify_trees=20,
                 importance_runs=5, importance_trees=20):
        self.pieces = pieces
        self.classify_folds = classify_folds
        self.classify_trees = classify_trees
        self.importance_runs = importance_runs
        self.importance_trees = importance_trees

    def setup(self, seed: int, workdir: Path):
        return {"seed": seed, "piece_seeds": _sub_seeds(seed, "cli-corpus", self.pieces),
                "dir": workdir / "cli-corpus"}

    def _piece(self, base: Path, name: str, seed: int, result: PassResult, clock: PassClock):
        d = base / name
        csv_path, truth = d / f"{name}.csv", d / f"{name}.truth.json"
        steps = [
            ("synth", "--seed", seed, "--name", name, "--out-dir", d, "--quiet"),
            ("discover", "--in", csv_path, "--alg", "cosiatec", "--out", d / "cosiatec.json"),
            ("discover", "--in", csv_path, "--alg", "siar:3", "--out", d / "siar.json"),
            ("poll", "--in", d / "cosiatec.json", d / "siar.json", "--truth", truth,
             "--out-dir", d, "--quiet"),
            ("eval-boundaries", "--pred", d / f"{name}.boundaries.json", "--truth", truth,
             "--out", d / "eval.csv"),
            ("features", "--piece", csv_path, "--patterns", truth, "--random",
             self.RANDOM_PER_OCCURRENCE, "--seed", seed, "--out", d / "features.csv", "--quiet"),
        ]
        codes = []
        result.ops += len(steps) + 1  # the CLI steps and the recovery scoring
        try:
            with clock.timed(name):
                for step in steps:
                    codes.append(_cli(*step))
                    if codes[-1] != 0:
                        break
                else:
                    _, found = core.load_pattern_file((d / "cosiatec.json").read_text())
                    _, planted = core.load_pattern_file(truth.read_text())
                    recovery = evaluation.occurrence_recovery(
                        found, [occ for rec in planted for occ in rec.occurrences]
                    )
        except Exception:
            _report_exception(result, name)
            return
        for step, code in zip(steps, codes):
            if code != 0:
                result.fail(f"{name}: {step[0]} exited {code}")
                return
        result.items += 1
        result.item_blocks.append((name, 1))

        piece = core.parse_points_csv(csv_path.read_text(), title=name)
        cos_text = (d / "cosiatec.json").read_text()
        _, cos_records = core.load_pattern_file(cos_text)
        _, siar_records = core.load_pattern_file((d / "siar.json").read_text())
        n = len(_read_csv(d / f"{name}.curve.csv")) - 1
        boundaries = json.loads((d / f"{name}.boundaries.json").read_text())["boundaries"]
        problems = (
            check_partition(piece, cos_records)
            + check_inside(piece, cos_records + siar_records)
            + check_roundtrip(name, "cosiatec", cos_records, cos_text)
            + check_boundaries(boundaries, n)
        )
        if problems:
            result.fail(f"{name}: {'; '.join(problems)}")
        q = result.quality
        q["recovered"] = q.get("recovered", 0) + sum(p.recovered for p in recovery.planted)
        q["planted"] = q.get("planted", 0) + len(recovery.planted)
        q.setdefault("f1", []).append(float(_read_csv(d / "eval.csv")[1][4]))

    def run_pass(self, inputs, clock: PassClock) -> PassResult:
        base: Path = inputs["dir"]
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)
        result = PassResult()
        names = [f"p{i:02d}" for i in range(self.pieces)]
        for name, seed in zip(names, inputs["piece_seeds"]):
            self._piece(base, name, seed, result, clock)
        if result.failed:
            return result

        manifest = {
            "pieces": [
                {"patterns": [str(base / n / "cosiatec.json"), str(base / n / "siar.json")],
                 "truth": str(base / n / f"{n}.truth.json")}
                for n in names
            ],
            "grid": {"windows": [3, 5], "orders": [1, 2], "lambdas": [0, 1],
                     "derivatives": ["both", "second"]},
        }
        (base / "manifest.json").write_text(json.dumps(manifest))
        rows = [_read_csv(base / n / "features.csv") for n in names]
        with open(base / "features.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows[0][:1] + [r for f in rows for r in f[1:]])
        seed = inputs["seed"]
        steps = [
            ("train-pp", "--manifest", base / "manifest.json", "--folds", self.TRAIN_PP_FOLDS,
             "--seed", seed, "--out", base / "params.json", "--quiet"),
            ("classify", "--features", base / "features.csv", "--folds", self.classify_folds,
             "--repeats", 1, "--trees", self.classify_trees, "--seed", seed,
             "--out", base / "cv.json", "--quiet"),
            ("importance", "--features", base / "features.csv", "--runs", self.importance_runs,
             "--trees", self.importance_trees, "--seed", seed, "--out", base / "imp.json",
             "--quiet"),
        ]
        for step in steps:
            result.ops += 1
            try:
                with clock.timed(step[0]):
                    code = _cli(*step)
            except Exception:
                _report_exception(result, step[0])
                return result
            if code != 0:
                result.fail(f"{step[0]} exited {code}")
                return result

        cv = json.loads((base / "cv.json").read_text())
        result.quality["cv_accuracy"] = cv["classifiers"]["rf"]["accuracy_mean"]
        digest = hashlib.sha256()
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if path.parent == base and path.name in ("manifest.json", "features.csv"):
                continue  # written by the benchmark, not by the program
            data = path.read_bytes()
            result.bytes_written += len(data)
            digest.update(str(path.relative_to(base)).encode() + b"\0" + data)
        result.digest = digest.hexdigest()
        return result


# ---------------------------------------------------------------------------
# pp-train: cross-validated grid search for boundary parameters


def pp_grid() -> list:
    """Windows 3-9, orders 1-3, lambda in {0, 1/2, 1}, both or second derivative."""
    return [
        polling.PpParams(window=w, order=o, lam=lam,
                         use_first=flags == "both", use_second=True)
        for w in (3, 5, 7, 9)
        for o in (1, 2, 3)
        if o < w
        for lam in (Fraction(0), Fraction(1, 2), Fraction(1))
        for flags in ("both", "second")
    ]


class PpTrain:
    """Item: one (candidate, validation piece) evaluation inside train_pp.

    The pieces are split into corpora of FOLDS pieces, with one train_pp
    call each, so that a timed block lasts about a second and the gauge
    around it follows the host's speed.  Every candidate is still
    evaluated once on every piece, as in one call over all the pieces.
    """

    FOLDS = 3

    def __init__(self, pieces=9, grid=pp_grid):
        self.pieces = pieces
        self.grid = grid

    def setup(self, seed: int, workdir: Path):
        pieces = []
        for s in _sub_seeds(seed, "pp-train", self.pieces):
            sp = synthesis.synthesize(synthesis.SynthConfig(seed=s))
            records = discovery.run_algorithm("siar:3", sp.piece)
            pieces.append((records, evaluation.truth_boundaries(sp.ground_truth)))
        return {"seed": seed, "pieces": pieces, "grid": self.grid()}

    def run_pass(self, inputs, clock: PassClock) -> PassResult:
        result = PassResult()
        pieces, grid = inputs["pieces"], inputs["grid"]
        digest = hashlib.sha256()
        f1 = []
        for first in range(0, len(pieces), self.FOLDS):
            corpus = pieces[first:first + self.FOLDS]
            key = f"train_pp {first // self.FOLDS}"
            result.ops += 1
            try:
                with clock.timed(key):
                    best = polling.train_pp(corpus, grid, objective="f1", k_folds=self.FOLDS,
                                            tolerance=1, seed=inputs["seed"])
            except Exception:
                _report_exception(result, key)
                continue
            items = len(grid) * len(corpus)
            result.items += items
            result.item_blocks.append((key, items))
            problems = [] if best in grid else ["train_pp returned a candidate outside the grid"]
            digest.update(json.dumps(best.to_json_dict(), sort_keys=True).encode())
            for records, truth in corpus:
                curve = polling.polling_curve(records)
                boundaries = polling.extract_boundaries(curve, best)
                problems += check_boundaries(boundaries, len(curve))
                digest.update(repr(boundaries).encode())
                f1.append(float(evaluation.boundary_prf(boundaries, truth, 1).f1))
            if problems:
                result.fail(f"{key}: {'; '.join(problems)}")
        result.quality["f1"] = f1
        result.digest = digest.hexdigest()
        return result


WORKLOADS = {"cover-large": CoverLarge, "cli-corpus": CliCorpus, "pp-train": PpTrain}
