"""Command-line front end.

Subcommands: discover, poll, train-pp, eval-boundaries, synth, features,
classify, importance.  Every randomized subcommand echoes its effective
seed into its outputs, files are written atomically (temp + rename), and
a rerun with the same configuration produces byte-identical files.

poll and synth write into --out-dir (default .).  train-pp, features,
classify and importance take --seed (default 0); synth without --seed draws
one at random.  Every command but discover and eval-boundaries takes --quiet.
Every command takes --config, a JSON object of flag values: its keys are the
command's long flag names, with - or _ between words ("in", "lambda",
"rest_prob"), and a flag given on the command line wins over its key.

Exit codes: 0 success, 2 input/parse error, 3 invalid configuration,
4 inconsistent inputs.  A file that cannot be read, or does not parse as
its format, exits 2 with its path leading the message; a config file,
params file or manifest of the wrong shape exits 3.  Any other value the
library rejects with a ValueError exits 3.

poll writes, for piece id <p>: <p>.curve.csv; <p>.presence.csv, 1 where an
occurrence covers a grid point; <p>.boundaries.json, the boundaries' grid
indices with the grid's origin and resolution; with --truth,
<p>.scores.csv; and the signal the boundaries come from.  <p>.smoothed.csv
is the curve padded with `window` edge values on each side and smoothed,
so its first times are negative; <p>.deriv1.csv and <p>.deriv2.csv are its
first and second differences, deriv1 row j at smoothed row j's time and
deriv2 row j at row j + 1's, the grid point the second difference is
centred on.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import secrets
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from motifkit import analysis, core, discovery, evaluation, polling, synthesis

EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_INCONSISTENT = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _atomic_write(path: Path, data: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, NUL in the path
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc


# What interpreting a JSON document of the wrong shape raises: a missing
# key, a value of the wrong type, or a number out of range.
_SHAPE_ERRORS = (ArithmeticError, AttributeError, LookupError, TypeError, ValueError)


def _json_object(doc) -> dict:
    if not isinstance(doc, dict):
        raise TypeError("expected a JSON object")
    return doc


def _read_json(path: str, shape_code: int, read=_json_object):
    """The JSON document at `path`, interpreted by `read`.

    Text that is not JSON exits 2; a document that `read` rejects with one
    of `_SHAPE_ERRORS` exits `shape_code`.
    """
    try:
        doc = json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliError(EXIT_PARSE, f"{path}: invalid JSON: {exc}") from exc
    try:
        return read(doc)
    except _SHAPE_ERRORS as exc:
        raise CliError(shape_code, f"{path}: {type(exc).__name__}: {exc}") from exc


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _read_piece(path: str) -> core.PointSet:
    p = Path(path)
    title = p.stem
    if p.suffix.lower() in (".mid", ".midi"):
        try:
            data = p.read_bytes()
        except OSError as exc:
            raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
        try:
            return core.parse_midi(data, title=title)
        except (core.ParseError, core.MonophonyViolation) as exc:
            raise CliError(EXIT_PARSE, f"{path}: {exc}") from exc
    try:
        return core.parse_points_csv(_read_text(path), title=title)
    except core.ParseError as exc:
        raise CliError(EXIT_PARSE, f"{path}: {exc}") from exc


def _load_pattern_file(path: str) -> tuple[str, list[core.PatternRecord]]:
    try:
        return core.load_pattern_file(_read_text(path))
    except core.ParseError as exc:
        raise CliError(EXIT_PARSE, f"{path}: {exc}") from exc


def _say(args, message: str):
    if not args.quiet:
        print(message)


def _config_arg(action: argparse.Action, value):
    """One JSON string or number, parsed as the flag parses its command-line text."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(f"expected a string or a number, got {value!r}")
    parsed = (action.type or str)(value if isinstance(value, str) else json.dumps(value))
    if action.choices is not None and parsed not in action.choices:
        raise ValueError(f"{parsed!r} is not one of {list(action.choices)}")
    return parsed


def _config_value(action: argparse.Action, value):
    """A config value as its flag would parse it from the command line.

    A flag without arguments takes true or false, a flag that collects
    several arguments a list of them, and any other flag one argument.
    """
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise TypeError(f"expected true or false, got {value!r}")
        return value
    if action.nargs in ("+", "*") or isinstance(action, argparse._AppendAction):
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        return [_config_arg(action, v) for v in value]
    return _config_arg(action, value)


def _apply_config_file(parser: argparse.ArgumentParser, args: argparse.Namespace, argv=None):
    """Set every flag the command line `argv` does not give from the JSON config file.

    `parser` is the one that parsed `argv` into `args`; this drops its
    defaults.  The file's keys are the long flag names, - or _ between words.
    Unknown keys and values their flag's type or choices reject exit 3.
    """
    if not args.config:
        return
    doc = _read_json(args.config, EXIT_CONFIG)
    # argparse exposes a parser's flags and their types only through its
    # actions; parsed again without defaults, argv yields just the flags it gives
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        a.option_strings[-1][2:].replace("-", "_"): a
        for a in commands.choices[args.command]._actions
        if a.dest not in ("help", "config")
    }
    for action in flags.values():
        action.default = argparse.SUPPRESS
    given = vars(parser.parse_args(argv))
    for key, value in doc.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise CliError(EXIT_CONFIG, f"{args.config}: unknown config key {key!r}")
        try:
            value = _config_value(action, value)
        except (TypeError, ValueError) as exc:
            raise CliError(EXIT_CONFIG, f"{args.config}: {key}: {exc}") from exc
        if action.dest not in given:
            setattr(args, action.dest, value)


# ---------------------------------------------------------------------------
# discover


def cmd_discover(args) -> int:
    piece = _read_piece(args.input)
    stats = discovery.DiscoveryStats() if args.stats else None
    records = discovery.run_algorithm(args.alg, piece, stats)
    text = core.dump_pattern_json(piece.title, args.alg, records)
    _atomic_write(Path(args.out), text)
    if stats is not None:
        doc = {"piece": piece.title, "algorithm": args.alg, **stats.to_json_dict()}
        _atomic_write(Path(args.stats), _json_text(doc))
    occurrences = sum(len(r.occurrences) for r in records)
    print(f"patterns={len(records)} occurrences={occurrences}")
    return 0


# ---------------------------------------------------------------------------
# poll


def _derivative_flags(choice) -> dict[str, bool]:
    """PpParams' use_first and use_second for a --derivatives choice."""
    return {"use_first": choice in ("first", "both"), "use_second": choice in ("second", "both")}


def _pp_params_from_args(args) -> polling.PpParams:
    base = {}
    if args.params_file:
        base = _read_json(
            args.params_file,
            EXIT_CONFIG,
            lambda doc: _json_object(_json_object(doc).get("params", doc)),
        )
    merged = {
        "window": args.window if args.window is not None else base.get("window", 3),
        "order": args.order if args.order is not None else base.get("order", 1),
        "lambda": args.lam if args.lam is not None else base.get("lambda", 0),
        "use_first": base.get("use_first", True),
        "use_second": base.get("use_second", True),
    }
    if args.derivatives:
        merged.update(_derivative_flags(args.derivatives))
    try:
        return polling.PpParams.from_json_dict(merged)
    except _SHAPE_ERRORS as exc:
        raise CliError(EXIT_CONFIG, str(exc)) from exc


def _parse_weights(texts) -> dict[str, Fraction]:
    weights = {}
    for text in texts or []:
        for item in text.split(","):
            if not item:
                continue
            name, sep, value = item.partition("=")
            if not sep:
                raise CliError(EXIT_CONFIG, f"weight must be algorithm=value, got {item!r}")
            weights[name.strip()] = core.to_time(value)
    return weights


def _curve_csv(header: str, times, values) -> str:
    rows = [[core.format_time(t), core.format_time(v)] for t, v in zip(times, values)]
    return _csv_text([["t", header]] + rows)


def _times(curve: polling.PollingCurve) -> list[Fraction]:
    return [curve.time_at(k) for k in range(len(curve))]


def _presence_csv(curve: polling.PollingCurve, span: polling.Span, records) -> str:
    n = len(curve)
    occurrences = [
        (f"{rec.algorithm_id}/{rec.pattern_id}/{i}", occ.span)
        for rec in records
        for i, occ in enumerate(rec.occurrences)
    ]
    cells = polling.grid_cells([s for _, s in occurrences], span, curve.resolution)
    rows = [["occurrence"] + [str(k) for k in range(n)]]
    for (label, _), inside in zip(occurrences, cells):
        rows.append([label] + [int(k in inside) for k in range(n)])
    return _csv_text(rows)


def _scores_csv(piece_id: str, algorithm, prf: evaluation.PrfScore) -> str:
    return _csv_text([
        ["piece", "algorithm", "precision", "recall", "f1"],
        [piece_id, algorithm, float(prf.precision), float(prf.recall), float(prf.f1)],
    ])


def cmd_poll(args) -> int:
    inputs = [_load_pattern_file(p) for p in args.inputs]
    pieces = {piece for piece, _ in inputs}
    if len(pieces) > 1:
        raise CliError(EXIT_INCONSISTENT, f"conflicting piece ids across inputs: {sorted(pieces)}")
    piece_id = next(iter(pieces))
    truth_records = None
    if args.truth:
        truth_piece, truth_records = _load_pattern_file(args.truth)
        if truth_piece != piece_id:
            raise CliError(
                EXIT_INCONSISTENT, f"truth piece id {truth_piece!r} does not match {piece_id!r}"
            )
    records = [rec for _, recs in inputs for rec in recs]
    all_records = records + (truth_records or [])
    weights = _parse_weights(args.weight)
    resolution = core.to_time(args.resolution)
    if args.span:
        parts = args.span.split(",")
        if len(parts) != 2:
            raise CliError(EXIT_CONFIG, "span must be start,end")
        span = (core.to_time(parts[0]), core.to_time(parts[1]))
    else:
        span = polling.default_span(all_records, resolution)
    params = _pp_params_from_args(args)
    curve = polling.polling_curve(records, weights, resolution, span, normalize=args.normalize)
    trace = polling.boundary_trace(curve, params)
    presence = _presence_csv(curve, span, all_records)
    if truth_records is not None:
        truth = evaluation.truth_boundaries(truth_records, curve.origin, resolution)
        prf = evaluation.boundary_prf(trace.boundaries, truth, args.tolerance)

    out = Path(args.out_dir)
    times = _times(trace.smoothed)
    _atomic_write(out / f"{piece_id}.curve.csv", _curve_csv("value", _times(curve), curve.values))
    _atomic_write(
        out / f"{piece_id}.smoothed.csv", _curve_csv("value", times, trace.smoothed.values)
    )
    _atomic_write(out / f"{piece_id}.deriv1.csv", _curve_csv("dvalue", times, trace.p1))
    _atomic_write(out / f"{piece_id}.deriv2.csv", _curve_csv("d2value", times[1:], trace.p2))
    _atomic_write(out / f"{piece_id}.presence.csv", presence)
    boundary_doc = {
        "piece": piece_id,
        "origin": core.format_time(curve.origin),
        "resolution": core.format_time(resolution),
        "params": params.to_json_dict(),
        "boundaries": list(trace.boundaries),
        "times": [core.format_time(curve.time_at(i)) for i in trace.boundaries],
    }
    _atomic_write(out / f"{piece_id}.boundaries.json", _json_text(boundary_doc))

    if truth_records is not None:
        _atomic_write(out / f"{piece_id}.scores.csv", _scores_csv(piece_id, "pp", prf))
        _say(args, f"precision={float(prf.precision):.4f} recall={float(prf.recall):.4f} f1={float(prf.f1):.4f}")
    _say(args, f"boundaries={len(trace.boundaries)} grid_points={len(curve)}")
    return 0


# ---------------------------------------------------------------------------
# train-pp


def _paths(value) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(p, str) for p in value):
        raise TypeError(f"expected a list of file paths, got {value!r}")
    return value


def _manifest(doc) -> tuple[list[tuple[list[str], str]], list[polling.PpParams]]:
    """Each piece's (pattern file paths, truth file path), and the parameter grid."""
    pieces = [(_paths(entry["patterns"]), _paths([entry["truth"]])[0]) for entry in doc["pieces"]]
    grid_spec = doc.get("grid", {})
    grid = [
        polling.PpParams.from_json_dict(
            {"window": w, "order": o, "lambda": lam, **_derivative_flags(flag)}
        )
        for w in grid_spec.get("windows", [3, 5])
        for o in grid_spec.get("orders", [1, 2])
        if o < w
        for lam in grid_spec.get("lambdas", [0])
        for flag in grid_spec.get("derivatives", ["both"])
    ]
    return pieces, grid


def cmd_train_pp(args) -> int:
    paths, grid = _read_json(args.manifest, EXIT_CONFIG, _manifest)
    pieces = []
    for pattern_paths, truth_path in paths:
        records = [rec for path in pattern_paths for rec in _load_pattern_file(path)[1]]
        truth = evaluation.truth_boundaries(_load_pattern_file(truth_path)[1])
        pieces.append((records, truth))
    best = polling.train_pp(
        pieces, grid, objective=args.objective, k_folds=args.folds,
        tolerance=args.tolerance, seed=args.seed,
    )
    out_doc = {
        "objective": args.objective, "folds": args.folds, "seed": args.seed,
        "params": best.to_json_dict(),
    }
    _atomic_write(Path(args.out), _json_text(out_doc))
    _say(args, f"best window={best.window} order={best.order} lambda={best.lam}")
    return 0


# ---------------------------------------------------------------------------
# eval-boundaries


def _boundaries_doc(doc) -> tuple[list[int], Fraction, Fraction, object]:
    """The predicted boundaries, grid origin and resolution, and algorithm of a poll output."""
    resolution = core.to_time(doc.get("resolution", 1))
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    origin = core.to_time(doc.get("origin", 0))
    boundaries = list(doc["boundaries"])
    for b in boundaries:
        if type(b) is not int:
            raise TypeError(f"a boundary must be a JSON integer, got {b!r}")
    return boundaries, origin, resolution, doc.get("algorithm", "pp")


def cmd_eval_boundaries(args) -> int:
    predicted, origin, resolution, algorithm = _read_json(args.pred, EXIT_PARSE, _boundaries_doc)
    piece_id, truth_records = _load_pattern_file(args.truth)
    truth = evaluation.truth_boundaries(truth_records, origin, resolution)
    prf = evaluation.boundary_prf(predicted, truth, args.tolerance)
    if args.out:
        _atomic_write(Path(args.out), _scores_csv(piece_id, algorithm, prf))
    print(
        f"precision={float(prf.precision):.4f} recall={float(prf.recall):.4f} "
        f"f1={float(prf.f1):.4f} matches={prf.matches}"
    )
    return 0


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else secrets.randbits(48)
    config = synthesis.SynthConfig(
        occurrences_per_template=args.occurrences, rest_probability=args.rest_prob,
        random_fraction_cap=core.to_time(args.cap), seed=seed,
    )
    piece = synthesis.synthesize(config)
    name = args.name or f"synthetic-{seed}"
    out = Path(args.out_dir)
    _atomic_write(out / f"{name}.csv", core.emit_points_csv(piece.piece))
    _atomic_write(
        out / f"{name}.truth.json",
        core.dump_pattern_json(name, synthesis.GROUND_TRUTH_ID, piece.ground_truth),
    )
    config_doc = synthesis.config_to_json_dict(config)
    config_doc["name"] = name
    config_doc["total_duration"] = core.format_time(piece.total_duration)
    config_doc["random_duration"] = core.format_time(piece.random_duration)
    _atomic_write(out / f"{name}.config.json", _json_text(config_doc))
    _say(args, f"notes={len(piece.piece)} duration={piece.total_duration} "
               f"random={piece.random_duration} seed={seed}")
    return 0


# ---------------------------------------------------------------------------
# features


def cmd_features(args) -> int:
    rows: list[tuple[list[float], str]] = []
    piece = _read_piece(args.piece) if args.piece else None
    all_records: list[tuple[str, list[core.PatternRecord]]] = []
    for path in args.patterns or []:
        all_records.append(_load_pattern_file(path))
    for _, records in all_records:
        X, labels = analysis.features_of_records(records)
        rows.extend((list(x), label) for x, label in zip(X, labels))
    if args.random is not None:
        if piece is None:
            raise CliError(EXIT_CONFIG, "--random requires --piece for excerpt sampling")
        annotations = [rec for _, records in all_records for rec in records]
        if not annotations:
            raise CliError(EXIT_CONFIG, "--random requires at least one pattern file")
        for occ in analysis.sample_random_excerpts(
            [(piece, annotations)], repeats=args.random, seed=args.seed
        ):
            rows.append((list(analysis.extract_features(occ)), "random"))
    if not rows:
        raise CliError(EXIT_CONFIG, "no occurrences to featurize")
    table = [[repr(float(v)) for v in values] + [label] for values, label in rows]
    _atomic_write(Path(args.out), _csv_text([list(analysis.FEATURE_NAMES) + ["group"]] + table))
    _say(args, f"rows={len(rows)} seed={args.seed}")
    return 0


def _read_features_csv(path: str) -> analysis.LabeledDataset:
    text = _read_text(path)
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CliError(EXIT_PARSE, f"{path}: empty features file") from None
    if "group" not in header:
        raise CliError(EXIT_PARSE, f"{path}: missing 'group' label column")
    label_col = header.index("group")
    feature_cols = [i for i in range(len(header)) if i != label_col]
    X, labels = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            X.append([float(row[i]) for i in feature_cols])
        except (ValueError, IndexError) as exc:
            raise CliError(EXIT_PARSE, f"{path}: line {lineno}: {exc}") from exc
        labels.append(row[label_col])
    if not X:
        raise CliError(EXIT_PARSE, f"{path}: no data rows")
    return analysis.LabeledDataset(X, tuple(labels))


# ---------------------------------------------------------------------------
# classify / importance


def cmd_classify(args) -> int:
    dataset = _read_features_csv(args.features)
    kinds = [k.strip() for k in args.classifiers.split(",") if k.strip()]
    spec = {}
    for kind in kinds:
        params = {}
        if kind == "rf" and args.trees is not None:
            params["trees"] = args.trees
        spec[kind] = params
    report = analysis.cross_validate(
        dataset, spec, folds=args.folds, repeats=args.repeats, balance=not args.no_balance,
        seed=args.seed, pca_components=args.pca,
    )
    _atomic_write(Path(args.out), _json_text(report.to_json_dict()))
    for name in sorted(report.results):
        res = report.results[name]
        _say(args, f"{name}: accuracy={res.accuracy_mean:.4f} (var {res.accuracy_variance:.6f})")
    return 0


def cmd_importance(args) -> int:
    dataset = _read_features_csv(args.features)
    if len(set(dataset.labels)) < 2:
        raise CliError(EXIT_CONFIG, "need at least 2 groups for importance analysis")
    names = analysis.FEATURE_NAMES if dataset.X.shape[1] == len(analysis.FEATURE_NAMES) else None
    report = analysis.feature_importance(
        dataset.X, list(dataset.labels), feature_names=names,
        runs=args.runs, trees=args.trees, seed=args.seed,
    )
    _atomic_write(Path(args.out), _json_text(report.to_json_dict()))
    confirmed = [f.name for f in report.features if f.status == "confirmed"]
    _say(args, f"confirmed={len(confirmed)} of {len(report.features)} features")
    return 0


# ---------------------------------------------------------------------------
# Parser


_COMMON = {
    "out-dir": dict(default=".", help="output directory (default .)"),
    "seed": dict(type=int, default=0, help="random seed (default 0)"),
    "quiet": dict(action="store_true", help="suppress status output"),
}


def _add_common(sub: argparse.ArgumentParser, *flags: str):
    """The shared `flags` the command reads, and --config, which every command takes."""
    for flag in flags:
        sub.add_argument(f"--{flag}", **_COMMON[flag])
    sub.add_argument(
        "--config", default=None,
        help="JSON file of flag values keyed by long flag name; the command line wins",
    )


def _discover_flags(p: argparse.ArgumentParser):
    p.add_argument("--in", dest="input", required=True, help="piece (CSV or MIDI)")
    p.add_argument(
        "--alg",
        required=True,
        help="sia|siatec|cosiatec[:<key>,<key>...]|siatec-compress:<key>|siar:<r>|siarct:<a>,<b>"
        " (cosiatec keys: cr|comp|cov|size|comp>=<a>, e.g. cosiatec:comp,size)",
    )
    p.add_argument("--out", required=True, help="interchange JSON output path")
    p.add_argument(
        "--stats", default=None,
        help="also write a JSON file of what siatec, cosiatec or siatec-compress did: points,"
        " vectors, shapes and shapes scored per round, seconds per stage, and each cosiatec"
        " round's chosen TEC",
    )
    _add_common(p)


def _poll_flags(p: argparse.ArgumentParser):
    p.add_argument("--in", dest="inputs", nargs="+", required=True, help="pattern JSON files")
    p.add_argument("--truth", default=None, help="ground-truth pattern JSON")
    p.add_argument("--weight", action="append", default=None, help="algorithm=weight (repeatable)")
    p.add_argument("--resolution", default="1", help="grid resolution in crotchets (default 1)")
    p.add_argument("--span", default=None, help="piece span start,end (default 0,latest end)")
    p.add_argument(
        "--window", type=int, default=None,
        help="odd smoothing window in grid steps (default 3, or --params-file's); the cost"
        " grows with the window times the curve's length: on a 103-point curve 2001 took"
        " 0.13 s of CPU time and 6001 took 0.3 s (Python 3.11, shared 2-CPU host)",
    )
    p.add_argument("--order", type=int, default=None, help="(default 1, or --params-file's)")
    p.add_argument(
        "--lambda", dest="lam", default=None,
        help="steepness threshold (default 0, or --params-file's)",
    )
    p.add_argument(
        "--derivatives", choices=["first", "second", "both"], default=None,
        help="(default both, or --params-file's)",
    )
    p.add_argument("--params-file", default=None, help="trained params JSON from train-pp")
    p.add_argument("--normalize", action="store_true", help="divide the curve by total weight")
    p.add_argument("--tolerance", type=int, default=1, help="boundary match tolerance (grid steps)")
    _add_common(p, "out-dir", "quiet")


def _train_pp_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--manifest", required=True,
        help="JSON manifest with pieces and grid; each piece is smoothed once per distinct"
        " grid (window, order), at the cost poll --window states (window times curve length)",
    )
    p.add_argument("--objective", choices=["precision", "recall", "f1"], default="f1")
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--tolerance", type=int, default=1)
    p.add_argument("--out", required=True, help="output params JSON")
    _add_common(p, "seed", "quiet")


def _eval_boundaries_flags(p: argparse.ArgumentParser):
    p.add_argument("--pred", required=True, help="boundaries JSON (from poll)")
    p.add_argument("--truth", required=True, help="ground-truth pattern JSON")
    p.add_argument("--tolerance", type=int, default=1)
    p.add_argument("--out", default=None, help="scores CSV path")
    _add_common(p)


def _synth_flags(p: argparse.ArgumentParser):
    p.add_argument("--name", default=None, help="output basename (default synthetic-<seed>)")
    p.add_argument("--occurrences", type=int, default=2, help="per template (default 2)")
    p.add_argument("--rest-prob", type=float, default=0.2, help="(default 0.2)")
    p.add_argument("--cap", default="1/2", help="random-fraction cap in (0,1) (default 1/2)")
    p.add_argument("--seed", type=int, default=None, help="random seed (default: drawn, echoed)")
    _add_common(p, "out-dir", "quiet")


def _features_flags(p: argparse.ArgumentParser):
    p.add_argument("--piece", default=None, help="piece file (needed for --random)")
    p.add_argument("--patterns", nargs="+", default=None, help="pattern JSON files")
    p.add_argument("--random", type=int, default=None, help="random excerpts per occurrence")
    p.add_argument("--out", required=True, help="features CSV path")
    _add_common(p, "seed", "quiet")


def _classify_flags(p: argparse.ArgumentParser):
    p.add_argument("--features", required=True, help="features CSV")
    p.add_argument("--classifiers", default="rf,nb,lda", help="comma list (default rf,nb,lda)")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--trees", type=int, default=None, help="random forest size")
    p.add_argument("--pca", type=int, default=None, help="PCA components (default: raw features)")
    p.add_argument("--no-balance", action="store_true", help="skip class balancing")
    p.add_argument("--out", required=True, help="report JSON path")
    _add_common(p, "seed", "quiet")


def _importance_flags(p: argparse.ArgumentParser):
    p.add_argument("--features", required=True, help="features CSV")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--out", required=True, help="report JSON path")
    _add_common(p, "seed", "quiet")


def _commands() -> tuple:
    """Each command's name, help line, flag adder and handler, in the order help lists them.

    Built on each call, so the parser takes each handler as this module
    binds it then: perfbench's tracer replaces the handlers to time them.
    """
    return (
        ("discover", "run a discovery algorithm over a piece", _discover_flags, cmd_discover),
        ("poll", "fuse pattern files into a polling curve", _poll_flags, cmd_poll),
        (
            "train-pp", "grid-search boundary parameters by cross-validation",
            _train_pp_flags, cmd_train_pp,
        ),
        (
            "eval-boundaries", "score predicted boundaries against truth",
            _eval_boundaries_flags, cmd_eval_boundaries,
        ),
        ("synth", "generate a synthetic piece with planted patterns", _synth_flags, cmd_synth),
        ("features", "extract feature rows from pattern files", _features_flags, cmd_features),
        ("classify", "cross-validated classification report", _classify_flags, cmd_classify),
        ("importance", "shadow-feature importance report", _importance_flags, cmd_importance),
    )


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone when it names one."""
    parser = argparse.ArgumentParser(
        prog="motifkit",
        description="Pattern discovery, polling fusion, evaluation, synthesis, classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = _commands()
    names = [name for name, *_ in commands]
    if command in names:
        # a top-level error ("unrecognized arguments") prints the usage line,
        # which lists every command as the full parser's does
        sub.metavar = "{" + ",".join(names) + "}"
    for name, summary, add_flags, handler in commands:
        if command not in names or command == name:
            p = sub.add_parser(name, help=summary)
            add_flags(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # building one command's parser costs a fifth of building all of them
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        _apply_config_file(parser, args, argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # a value the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
