"""Command-line front end.

Subcommands: discover, poll, train-pp, eval-boundaries, synth, features,
classify, importance.  Every randomized subcommand echoes its effective
seed into its outputs, and a rerun with the same configuration produces
byte-identical files, except the wall-clock "seconds" per stage that
discover's --stats file records.

A command writes its files only after it has checked every target: none
may be an existing directory, each one's parent must be a directory or be
creatable as one, and no two may name one file.  A target that fails exits
2 naming its flag, as "--stats sub: is a directory", and no file is
written.  Each file is then written atomically (temp + rename), but the set
is not: a failure between two renames leaves the files renamed before it.
A name that becomes a file name must be one path component: not empty, "."
or "..", and without "/" or NUL.  synth's --name exits 3 otherwise, and poll exits
2 naming the pattern file whose piece id is not one.

poll and synth write into --out-dir (default .).  train-pp, features,
classify and importance take --seed (default 0); synth without --seed draws
one at random.  Every command but discover and eval-boundaries takes --quiet.
Every command takes --config, a JSON object of flag values: its keys are the
command's long flag names, with - or _ between words ("in", "lambda",
"rest_prob").  A flag takes its table default, then the config's value, then
the command line's: the command line wins, and it replaces a list flag's
config list rather than adding to it.  A required flag must be given on the
command line; argparse asks for it before the config file is read.  A flag
whose table default is None is absent only when left out: an empty value
is read like any other, so `--truth ""` exits 2 as a path that cannot be read.

Exit codes: 0 success, 2 input/parse error, 3 invalid configuration,
4 inconsistent inputs.  A file that cannot be read, or does not parse as
its format, exits 2 with its path leading the message; a config file of
the wrong shape exits 3.  Three JSON documents have a declared shape, and
an unknown key in one is an error: poll's --params-file (train-pp's output
or a bare params object) and train-pp's --manifest exit 3, eval-boundaries'
--pred (poll's <p>.boundaries.json) exits 2, and the message names the file
and a JSON path such as $.grid.lambdas[0]; --params-file is checked whole,
value rules too, where it is read, then the flags given replace its values,
and a value rule they break exits 3 naming them, as "--window 4: ...".
Pattern files read together (poll's, a train-pp piece's, eval-boundaries'
--truth with --pred's piece, each of features' with --piece) name one piece:
one reader loads them, and the first naming another exits 4 with its path.
Any other value the library rejects with a ValueError exits 3.

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
import dataclasses
import io
import json
import math
import os
import secrets
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from motifkit import core, discovery, evaluation, polling, synthesis

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


def _read_text(path: str, newline: str | None = None) -> str:
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, NUL in the path
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc


def _read_json(path: str, shape_code: int, read):
    """The JSON document at `path`, interpreted by `read`.

    Text that is not JSON exits 2; a document that `read` rejects with a
    ValueError, such as a `core.SchemaError` naming the node, exits `shape_code`.
    """
    try:
        doc = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:  # ValueError: also an int past the digit limit
        raise CliError(EXIT_PARSE, f"{path}: invalid JSON: {exc}") from exc
    try:
        return read(doc)
    except ValueError as exc:
        raise CliError(shape_code, f"{path}: {exc}") from exc


def _csv_text(rows) -> str:
    # "\r\n" row ends make csv quote a "\r", where csv.reader also ends a row; each becomes "\n"
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join([line[:-2] + "\n" for line in lines])


def _read_piece(path: str) -> core.PointSet:
    p = Path(path)
    try:
        if p.suffix.lower() in (".mid", ".midi"):
            return core.parse_midi(p.read_bytes(), title=p.stem)
        return core.parse_points_csv(_read_text(path), title=p.stem)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    except (core.ParseError, core.MonophonyViolation) as exc:
        raise CliError(EXIT_PARSE, f"{path}: {exc}") from exc


def _pattern_files(paths, piece: str | None = None) -> tuple[str | None, list[core.PatternRecord]]:
    """The piece id and, in file order, the records of the pattern files at `paths`, each
    of which must name `piece`, or the first file's piece when `piece` is None."""
    records = []
    for path in paths:
        try:
            piece_id, recs = core.load_pattern_file(_read_text(path))
        except core.ParseError as exc:
            raise CliError(EXIT_PARSE, f"{path}: {exc}") from exc
        piece = piece_id if piece is None else piece
        if piece_id != piece:
            raise CliError(EXIT_INCONSISTENT, f"{path}: piece id {piece_id!r} does not match {piece!r}")
        records += recs
    return piece, records


def _file_name(name: str, code: int, what: str) -> str:
    """`name`, which becomes a file name: one path component, so neither empty, `.`
    nor `..`, and without `/` or NUL; otherwise exit `code` naming `what`."""
    if name in ("", ".", "..") or "/" in name or "\0" in name:
        raise CliError(code, f"{what} {name!r} is not one path component")
    return name


def _check_targets(outputs):
    """Exit 2 naming the flag of the first (flag, path, text) output whose path cannot be
    written: an existing directory, a path under one that is not a directory, or the file
    of an earlier output."""
    real = {}  # each parent checked -> its path with symlinks resolved
    named = {}  # each file, by its real parent -> the flag and path naming it
    for flag, path, _ in outputs:
        path = Path(path)
        try:
            if path.is_dir() and not path.is_symlink():  # a symlink is replaced, not written through
                raise CliError(EXIT_PARSE, f"--{flag} {path}: is a directory")
            if path.parent not in real:
                ancestor = next(p for p in path.parents if p.exists())  # "." and "/" exist
                if not ancestor.is_dir():
                    raise CliError(EXIT_PARSE, f"--{flag} {path}: {ancestor} is not a directory")
                real[path.parent] = os.path.realpath(path.parent)
        except (OSError, ValueError) as exc:  # ValueError: NUL in a directory's name
            raise CliError(EXIT_PARSE, f"--{flag} {path}: {exc}") from exc
        file = os.path.join(real[path.parent], path.name)
        if file in named:
            raise CliError(EXIT_PARSE, f"{named[file]} and --{flag} {path} name one file")
        named[file] = f"--{flag} {path}"


def _dest(flag: str, keywords: dict) -> str:
    """The namespace attribute argparse gives the value of --`flag`."""
    return keywords.get("dest", flag.replace("-", "_"))


def _config_arg(keywords: dict, value):
    """One JSON string or number, parsed as the flag parses its command-line text."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(f"expected a string or a number, got {value!r}")
    parsed = keywords.get("type", str)(value if isinstance(value, str) else json.dumps(value))
    if "choices" in keywords and parsed not in keywords["choices"]:
        raise ValueError(f"{parsed!r} is not one of {list(keywords['choices'])}")
    return parsed


def _config_value(keywords: dict, value):
    """A config value as its flag, declared by its argparse `keywords`, would parse it
    from the command line.

    A flag without arguments takes true or false, a flag that collects
    several arguments a list of them, and any other flag one argument.
    """
    if keywords.get("action") == "store_true":
        if not isinstance(value, bool):
            raise TypeError(f"expected true or false, got {value!r}")
        return value
    if keywords.get("nargs") in ("+", "*") or keywords.get("action") == "append":
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        return [_config_arg(keywords, v) for v in value]
    return _config_arg(keywords, value)


def _read_config(path: str, flags: dict) -> dict:
    """The flag values of the JSON config file at `path`, by destination, for a command
    of `flags`.  Its keys are the long flag names, - or _ between words; unknown keys
    and values their flag's type or choices reject exit 3."""
    doc = _read_json(path, EXIT_CONFIG, lambda doc: core.check_shape(doc, dict))
    by_key = {flag.replace("-", "_"): (_dest(flag, kw), kw) for flag, kw in flags.items()}
    values = {}
    for key, value in doc.items():
        if key.replace("-", "_") not in by_key:
            raise CliError(EXIT_CONFIG, f"{path}: unknown config key {key!r}")
        dest, keywords = by_key[key.replace("-", "_")]
        try:
            values[dest] = _config_value(keywords, value)
        except (TypeError, ValueError) as exc:
            raise CliError(EXIT_CONFIG, f"{path}: {key}: {exc}") from exc
    return values


# ---------------------------------------------------------------------------
# discover


def cmd_discover(args):
    piece = _read_piece(args.input)
    stats = discovery.DiscoveryStats() if args.stats is not None else None
    records = discovery.run_algorithm(args.alg, piece, stats)
    outputs = [("out", args.out, core.dump_pattern_json(piece.title, args.alg, records))]
    if stats is not None:
        doc = {"piece": piece.title, "algorithm": args.alg, **stats.to_json_dict()}
        outputs.append(("stats", args.stats, _json_text(doc)))
    occurrences = sum(len(r.occurrences) for r in records)
    return outputs, [f"patterns={len(records)} occurrences={occurrences}"]


# ---------------------------------------------------------------------------
# poll


_DERIVATIVES = ("first", "second", "both")  # --derivatives and a manifest's grid


def _derivative_flags(choice) -> dict[str, bool]:
    """PpParams' use_first and use_second for a --derivatives choice."""
    return {"use_first": choice in ("first", "both"), "use_second": choice in ("second", "both")}


# train-pp's output document
_TRAINED_SHAPE = core.JsonObject(
    {"objective": str, "folds": int, "seed": int, "params": polling.PpParams.SHAPE}, ("params",)
)


def _params_file(doc) -> polling.PpParams:
    """The params of train-pp's output document, or of a bare params object."""
    if isinstance(doc, dict) and "params" in doc:
        path, params = "$.params", core.check_shape(doc, _TRAINED_SHAPE)["params"]
    else:
        path, params = "$", core.check_shape(doc, polling.PpParams.SHAPE)
    try:
        return polling.PpParams.from_json_dict(params)
    except ValueError as exc:  # a value rule: the shape is checked above
        raise core.SchemaError(path, str(exc)) from exc


def _pp_params_from_args(args) -> polling.PpParams:
    """--params-file's params, or `polling.PpParams`' defaults, then the flags given; a
    value rule they break exits 3 naming them."""
    params = polling.PpParams()
    if args.params_file is not None:
        params = _read_json(args.params_file, EXIT_CONFIG, _params_file)
    flags = {"window": args.window, "order": args.order, "lambda": args.lam, "derivatives": args.derivatives}
    given = {flag: value for flag, value in flags.items() if value is not None}
    fields = {"lam" if f == "lambda" else f: v for f, v in given.items() if f != "derivatives"}
    if "derivatives" in given:
        fields.update(_derivative_flags(given["derivatives"]))
    try:
        return dataclasses.replace(params, **fields)
    except ValueError as exc:
        named = " ".join(f"--{flag} {value}" for flag, value in given.items())
        raise CliError(EXIT_CONFIG, f"{named}: {exc}") from exc


def _parse_weights(texts) -> dict[str, int | Fraction]:
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


def _curve_csv(header: str, times: list[str], values) -> str:
    rows = [[t, core.format_time(v)] for t, v in zip(times, values)]
    return _csv_text([["t", header]] + rows)


def _times(curve: polling.PollingCurve) -> list[str]:
    """The curve's grid times by `core.format_time`."""
    return [core.format_time(curve.time_at(k)) for k in range(len(curve))]


def _presence_csv(curve: polling.PollingCurve, span: polling.Span, records) -> str:
    n = len(curve)
    occurrences = [
        (f"{rec.algorithm_id}/{rec.pattern_id}/{i}", occ.span)
        for rec in records
        for i, occ in enumerate(rec.occurrences)
    ]
    cells = polling.grid_cells([s for _, s in occurrences], span, curve.resolution)
    rows = [["occurrence", *map(str, range(n))]]
    for (label, _), inside in zip(occurrences, cells):
        rows.append(
            [label] + ["0"] * inside.start + ["1"] * len(inside) + ["0"] * (n - inside.stop)
        )
    return _csv_text(rows)


def _scores_csv(piece_id: str, algorithm, prf: evaluation.PrfScore) -> str:
    return _csv_text([
        ["piece", "algorithm", "precision", "recall", "f1"],
        [piece_id, algorithm, float(prf.precision), float(prf.recall), float(prf.f1)],
    ])


def cmd_poll(args):
    piece_id, records = _pattern_files(args.inputs)
    _file_name(piece_id, EXIT_PARSE, f"{args.inputs[0]}: piece id")
    truth_records = _pattern_files([args.truth], piece_id)[1] if args.truth is not None else None
    all_records = records + (truth_records or [])
    weights = _parse_weights(args.weight)
    resolution = core.to_time(args.resolution)
    if args.span is not None:
        parts = args.span.split(",")
        if len(parts) != 2:
            raise CliError(EXIT_CONFIG, "span must be start,end")
        span = (core.to_time(parts[0]), core.to_time(parts[1]))
    else:
        span = polling.default_span(all_records, resolution)
    params = _pp_params_from_args(args)
    curve = polling.polling_curve(records, weights, resolution, span, normalize=args.normalize)
    trace = polling.boundary_trace(curve, params)
    times = _times(trace.smoothed)
    p1, p2 = polling.derivatives(trace.smoothed)
    files = {  # <piece_id>.<key> in --out-dir
        "curve.csv": _curve_csv("value", _times(curve), curve.values),
        "smoothed.csv": _curve_csv("value", times, trace.smoothed.values),
        "deriv1.csv": _curve_csv("dvalue", times, p1),
        "deriv2.csv": _curve_csv("d2value", times[1:], p2),
        "presence.csv": _presence_csv(curve, span, all_records),
        "boundaries.json": _json_text({
            "piece": piece_id,
            "origin": core.format_time(curve.origin),
            "resolution": core.format_time(resolution),
            "params": params.to_json_dict(),
            "boundaries": list(trace.boundaries),
            "times": [core.format_time(curve.time_at(i)) for i in trace.boundaries],
        }),
    }
    lines = []
    if truth_records is not None:
        truth = evaluation.truth_boundaries(truth_records, curve.origin, resolution)
        prf = evaluation.boundary_prf(trace.boundaries, truth, args.tolerance)
        files["scores.csv"] = _scores_csv(piece_id, "pp", prf)
        lines.append(f"precision={float(prf.precision):.4f} recall={float(prf.recall):.4f} f1={float(prf.f1):.4f}")
    lines.append(f"boundaries={len(trace.boundaries)} grid_points={len(curve)}")
    out = Path(args.out_dir)
    return [("out-dir", out / f"{piece_id}.{key}", text) for key, text in files.items()], lines


# ---------------------------------------------------------------------------
# train-pp


_MANIFEST_SHAPE = core.JsonObject({
    "pieces": [core.JsonObject({"patterns": [str], "truth": str}, ("patterns", "truth"))],
    "grid": core.JsonObject(
        {"windows": [int], "orders": [int], "lambdas": [core.TIME], "derivatives": [str]}
    ),
}, ("pieces",))

# A manifest's grid keys, each with its default list.
_GRID_DEFAULTS = {"windows": [3, 5], "orders": [1, 2], "lambdas": [0], "derivatives": ["both"]}


def _manifest(doc) -> tuple[list[tuple[list[str], str]], list[polling.PpParams]]:
    """Each piece's (pattern file paths, truth file path), and the parameter grid."""
    doc = core.check_shape(doc, _MANIFEST_SHAPE)
    pieces = [(entry["patterns"], entry["truth"]) for entry in doc["pieces"]]
    spec = {**_GRID_DEFAULTS, **doc.get("grid", {})}
    for i, flag in enumerate(spec["derivatives"]):
        if flag not in _DERIVATIVES:
            raise core.SchemaError(
                f"$.grid.derivatives[{i}]", f"must be first, second or both, got {flag!r}"
            )
    try:
        grid = [
            polling.PpParams(w, o, lam, **_derivative_flags(flag))
            for w in spec["windows"]
            for o in spec["orders"]
            if o < w
            for lam in spec["lambdas"]
            for flag in spec["derivatives"]
        ]
    except ValueError as exc:  # a window, order or lambda the params' value rules reject
        raise core.SchemaError("$.grid", str(exc)) from exc
    return pieces, grid


def cmd_train_pp(args):
    paths, grid = _read_json(args.manifest, EXIT_CONFIG, _manifest)
    pieces = []
    for pattern_paths, truth_path in paths:
        piece_id, truth_records = _pattern_files([truth_path])
        records = _pattern_files(pattern_paths, piece_id)[1]
        pieces.append((records, evaluation.truth_boundaries(truth_records)))
    best = polling.train_pp(
        pieces, grid, objective=args.objective, k_folds=args.folds,
        tolerance=args.tolerance, seed=args.seed,
    )
    out_doc = {
        "objective": args.objective, "folds": args.folds, "seed": args.seed,
        "params": best.to_json_dict(),
    }
    return [("out", args.out, _json_text(out_doc))], [
        f"best window={best.window} order={best.order} lambda={best.lam}"
    ]


# ---------------------------------------------------------------------------
# eval-boundaries


# Every key poll writes, and the algorithm the scores name (default pp).
_BOUNDARIES_SHAPE = core.JsonObject({
    "piece": str, "origin": core.TIME, "resolution": core.TIME, "params": polling.PpParams.SHAPE,
    "boundaries": [int], "times": [core.TIME], "algorithm": str,
}, ("boundaries",))


def _boundaries_doc(doc) -> dict:
    """A poll output whose resolution is > 0 and whose boundaries increase from 0 up."""
    doc = core.check_shape(doc, _BOUNDARIES_SHAPE)
    if core.to_time(doc.get("resolution", 1)) <= 0:
        raise core.SchemaError("$.resolution", f"must be > 0, got {doc['resolution']!r}")
    boundaries = doc["boundaries"]
    for i, b in enumerate(boundaries):
        if b < 0 or i and b <= boundaries[i - 1]:
            raise core.SchemaError(f"$.boundaries[{i}]", f"must be increasing and >= 0, got {b!r}")
    return doc


def cmd_eval_boundaries(args):
    pred = _read_json(args.pred, EXIT_PARSE, _boundaries_doc)
    piece_id, truth_records = _pattern_files([args.truth], pred.get("piece"))
    origin, resolution = core.to_time(pred.get("origin", 0)), core.to_time(pred.get("resolution", 1))
    truth = evaluation.truth_boundaries(truth_records, origin, resolution)
    prf = evaluation.boundary_prf(pred["boundaries"], truth, args.tolerance)
    scores = _scores_csv(piece_id, pred.get("algorithm", "pp"), prf)
    return [("out", args.out, scores)] if args.out is not None else [], [
        f"precision={float(prf.precision):.4f} recall={float(prf.recall):.4f} "
        f"f1={float(prf.f1):.4f} matches={prf.matches}"
    ]


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args):
    seed = args.seed if args.seed is not None else secrets.randbits(48)
    name = _file_name(args.name, EXIT_CONFIG, "--name") if args.name is not None else f"synthetic-{seed}"
    config = synthesis.SynthConfig(
        occurrences_per_template=args.occurrences, rest_probability=args.rest_prob,
        random_fraction_cap=core.to_time(args.cap), seed=seed,
    )
    piece = synthesis.synthesize(config)
    config_doc = synthesis.config_to_json_dict(config)
    config_doc["name"] = name
    config_doc["total_duration"] = core.format_time(piece.total_duration)
    config_doc["random_duration"] = core.format_time(piece.random_duration)
    files = {
        "csv": core.emit_points_csv(piece.piece),
        "truth.json": core.dump_pattern_json(name, synthesis.GROUND_TRUTH_ID, piece.ground_truth),
        "config.json": _json_text(config_doc),
    }
    out = Path(args.out_dir)
    return [("out-dir", out / f"{name}.{key}", text) for key, text in files.items()], [
        f"notes={len(piece.piece)} duration={piece.total_duration} random={piece.random_duration} seed={seed}"
    ]


# ---------------------------------------------------------------------------
# features


def cmd_features(args):
    from motifkit import analysis  # numpy's import is paid only by the commands that use it

    piece = _read_piece(args.piece) if args.piece is not None else None
    # file by file: without --piece, files of several pieces make one table
    title = piece.title if piece is not None else None
    annotations = [rec for path in args.patterns or [] for rec in _pattern_files([path], title)[1]]
    rows = [
        (analysis.extract_features(occ), rec.algorithm_id)
        for rec in annotations
        for occ in rec.occurrences
    ]
    if args.random is not None:
        if piece is None:
            raise CliError(EXIT_CONFIG, "--random requires --piece for excerpt sampling")
        if not annotations:
            raise CliError(EXIT_CONFIG, "--random requires at least one pattern file")
        excerpts = analysis.sample_random_excerpts(
            [(piece, annotations)], repeats=args.random, seed=args.seed
        )
        rows += [(analysis.extract_features(occ), "random") for occ in excerpts]
    if not rows:
        raise CliError(EXIT_CONFIG, "no occurrences to featurize")
    table = [[repr(float(v)) for v in values] + [label] for values, label in rows]
    text = _csv_text([list(analysis.FEATURE_NAMES) + ["group"]] + table)
    return [("out", args.out, text)], [f"rows={len(rows)} seed={args.seed}"]


def _read_features_csv(path: str) -> tuple[list[str], analysis.LabeledDataset]:
    """The feature columns' header names, and the rows with their groups."""
    from motifkit import analysis

    # line ends untranslated, as csv.reader expects: a quoted "\r" stays in its field
    reader = csv.reader(io.StringIO(_read_text(path, newline=""), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise CliError(EXIT_PARSE, f"{path}: empty features file") from None
    if "group" not in header or len(header) < 2:
        raise CliError(EXIT_PARSE, f"{path}: line 1: needs a 'group' label and a feature column")
    label_col = header.index("group")
    feature_cols = [i for i in range(len(header)) if i != label_col]
    X, labels = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, the header has {len(header)}")
            values = [float(row[i]) for i in feature_cols]
            if not all(map(math.isfinite, values)):
                raise ValueError(f"feature values must be finite, got {values}")
            X.append(values)
        except ValueError as exc:
            raise CliError(EXIT_PARSE, f"{path}: line {lineno}: {exc}") from exc
        labels.append(row[label_col])
    if not X:
        raise CliError(EXIT_PARSE, f"{path}: no data rows")
    return [header[i] for i in feature_cols], analysis.LabeledDataset(X, tuple(labels))


# ---------------------------------------------------------------------------
# classify / importance


def cmd_classify(args):
    from motifkit import analysis

    _, dataset = _read_features_csv(args.features)
    spec = {
        kind: {"trees": args.trees} if kind == "rf" and args.trees is not None else {}
        for kind in (k.strip() for k in args.classifiers.split(",")) if kind
    }
    report = analysis.cross_validate(
        dataset, spec, folds=args.folds, repeats=args.repeats, balance=not args.no_balance,
        seed=args.seed, pca_components=args.pca,
    )
    return [("out", args.out, _json_text(report.to_json_dict()))], [
        f"{name}: accuracy={res.accuracy_mean:.4f} (var {res.accuracy_variance:.6f})"
        for name, res in sorted(report.results.items())
    ]


def cmd_importance(args):
    from motifkit import analysis

    names, dataset = _read_features_csv(args.features)
    report = analysis.feature_importance(
        dataset.X, list(dataset.labels), feature_names=names,
        runs=args.runs, trees=args.trees, seed=args.seed,
    )
    confirmed = [f.name for f in report.features if f.status == "confirmed"]
    return [("out", args.out, _json_text(report.to_json_dict()))], [
        f"confirmed={len(confirmed)} of {len(report.features)} features"
    ]


# ---------------------------------------------------------------------------
# Parser


# The shared flags, spread into the commands that read them.
_OUT_DIR = {"out-dir": dict(default=".", help="output directory (default .)")}
_SEED = {"seed": dict(type=int, default=0, help="random seed (default 0)")}
_QUIET = {"quiet": dict(action="store_true", default=False, help="suppress status output")}

# Each command's help line and flags, in the order help lists them: a flag's long name
# and its argparse keywords.  The parser gets every default as SUPPRESS, so what it
# parses is only what the command line gives, and `main` can put that over the
# defaults and the --config values as plain dicts.
_COMMANDS = {
    "discover": ("run a discovery algorithm over a piece", {
        "in": dict(dest="input", required=True, help="piece (CSV or MIDI)"),
        "alg": dict(
            required=True,
            help="sia|siatec|cosiatec[:<key>,<key>...]|siatec-compress:<key>|siar:<r>|siarct:<a>,<b>"
            " (cosiatec keys: cr|comp|cov|size|comp>=<a>, e.g. cosiatec:comp,size)",
        ),
        "out": dict(required=True, help="interchange JSON output path"),
        "stats": dict(
            default=None,
            help="also write a JSON file of what siatec, cosiatec or siatec-compress did: points,"
            " vectors, distinct candidate shapes built and shapes scored per round, seconds per"
            " stage, and each cosiatec round's chosen TEC",
        ),
    }),
    "poll": ("fuse pattern files into a polling curve", {
        "in": dict(dest="inputs", nargs="+", required=True, help="pattern JSON files"),
        "truth": dict(default=None, help="ground-truth pattern JSON"),
        "weight": dict(action="append", default=None, help="algorithm=weight (repeatable)"),
        "resolution": dict(default="1", help="grid resolution in crotchets (default 1)"),
        "span": dict(default=None, help="piece span start,end (default 0,latest end)"),
        "window": dict(
            type=int, default=None,
            help="odd smoothing window in grid steps (default 3, or --params-file's); the cost"
            " grows with the window",
        ),
        "order": dict(type=int, default=None, help="(default 1, or --params-file's)"),
        "lambda": dict(dest="lam", default=None, help="steepness threshold (default 0, or --params-file's)"),
        "derivatives": dict(choices=_DERIVATIVES, default=None, help="(default both, or --params-file's)"),
        "params-file": dict(default=None, help="trained params JSON from train-pp"),
        "normalize": dict(action="store_true", default=False, help="divide the curve by total weight"),
        "tolerance": dict(type=int, default=1, help="boundary match tolerance (grid steps)"),
        **_OUT_DIR, **_QUIET,
    }),
    "train-pp": ("grid-search boundary parameters by cross-validation", {
        "manifest": dict(
            required=True,
            help="JSON manifest with pieces and grid; each piece is smoothed once per distinct kernel"
            " (a grid window and order, orders 2k and 2k+1 sharing one), at poll --window's cost",
        ),
        "objective": dict(choices=["precision", "recall", "f1"], default="f1"),
        "folds": dict(type=int, default=3),
        "tolerance": dict(type=int, default=1),
        "out": dict(required=True, help="output params JSON"),
        **_SEED, **_QUIET,
    }),
    "eval-boundaries": ("score predicted boundaries against truth", {
        "pred": dict(required=True, help="boundaries JSON (from poll)"),
        "truth": dict(required=True, help="ground-truth pattern JSON"),
        "tolerance": dict(type=int, default=1),
        "out": dict(default=None, help="scores CSV path"),
    }),
    "synth": ("generate a synthetic piece with planted patterns", {
        "name": dict(default=None, help="output basename (default synthetic-<seed>)"),
        "occurrences": dict(type=int, default=2, help="per template (default 2)"),
        "rest-prob": dict(type=float, default=0.2, help="(default 0.2)"),
        "cap": dict(default="1/2", help="random-fraction cap in (0,1) (default 1/2)"),
        "seed": dict(type=int, default=None, help="random seed (default: drawn, echoed)"),
        **_OUT_DIR, **_QUIET,
    }),
    "features": ("extract feature rows from pattern files", {
        "piece": dict(default=None, help="piece file (needed for --random)"),
        "patterns": dict(nargs="+", default=None, help="pattern JSON files"),
        "random": dict(type=int, default=None, help="random excerpts per occurrence"),
        "out": dict(required=True, help="features CSV path"),
        **_SEED, **_QUIET,
    }),
    "classify": ("cross-validated classification report", {
        "features": dict(required=True, help="features CSV"),
        "classifiers": dict(default="rf,nb,lda", help="comma list (default rf,nb,lda)"),
        "folds": dict(type=int, default=10),
        "repeats": dict(type=int, default=3),
        "trees": dict(type=int, default=None, help="random forest size"),
        "pca": dict(type=int, default=None, help="PCA components (default: raw features)"),
        "no-balance": dict(action="store_true", default=False, help="skip class balancing"),
        "out": dict(required=True, help="report JSON path"),
        **_SEED, **_QUIET,
    }),
    "importance": ("shadow-feature importance report", {
        "features": dict(required=True, help="features CSV"),
        "runs": dict(type=int, default=20),
        "trees": dict(type=int, default=100),
        "out": dict(required=True, help="report JSON path"),
        **_SEED, **_QUIET,
    }),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone when it names one."""
    parser = argparse.ArgumentParser(
        prog="motifkit",
        description="Pattern discovery, polling fusion, evaluation, synthesis, classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if command in _COMMANDS:
        # a top-level error ("unrecognized arguments") prints the usage line,
        # which lists every command as the full parser's does
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    for name, (summary, flags) in _COMMANDS.items():
        if command not in _COMMANDS or command == name:
            p = sub.add_parser(name, help=summary)
            for flag, keywords in flags.items():
                p.add_argument(f"--{flag}", **{**keywords, "default": argparse.SUPPRESS})
            p.add_argument(
                "--config", default=argparse.SUPPRESS,
                help="JSON file of flag values keyed by long flag name; the command line wins",
            )
    return parser


def main(argv=None) -> int:
    """Run the command `argv` names: its handler returns its outputs, (flag, path, text)
    in write order, and its status lines; every path is checked before any is written,
    and the lines are printed unless --quiet is given."""
    argv = sys.argv[1:] if argv is None else argv
    # building one command's parser costs a fifth of building all of them
    given = vars(build_parser(argv[0] if argv else None).parse_args(argv))
    command = given["command"]
    flags = _COMMANDS[command][1]
    defaults = {_dest(flag, keywords): keywords.get("default") for flag, keywords in flags.items()}
    try:
        config = _read_config(given["config"], flags) if "config" in given else {}
        values = {**defaults, **config, **given}
        handler = globals()["cmd_" + command.replace("-", "_")]  # as bound now: tracers replace it
        outputs, lines = handler(argparse.Namespace(**values))
        _check_targets(outputs)
        for flag, path, text in outputs:
            try:
                _atomic_write(Path(path), text)
            except (OSError, ValueError) as exc:  # ValueError: NUL in the file's name
                raise CliError(EXIT_PARSE, f"--{flag} {path}: {exc}") from exc
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # a value the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if not values.get("quiet"):  # discover and eval-boundaries have no --quiet
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
