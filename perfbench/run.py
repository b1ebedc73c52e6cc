"""Benchmark for motifkit: three workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cover-large --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from --seed.  The run repeats a fixed
pass of work while another pass fits in --seconds (at least two passes),
checks every output, and compares the output digest of each pass with the
others.  Times are CPU seconds of the process, scaled to a fixed reference
speed by a gauge workload timed around each block (see gauge.py).
Each timed block of a pass is repeated in every pass, and the metrics use
its median scaled time over the passes; see perfbench/README.md.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it is a report with
the counters, quality figures and check results.  --trace 0 reports the
end-to-end metrics with the program unmodified.  --trace 1 alternates
untraced and traced passes, reports per-layer self time and counters from
the traced ones, traced and untraced items per second, and the tracing
overhead as the spans of a pass times the cost of one span.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 7
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "peak_rss_mb": "MB",
}

SELF_TIMES = tracing.SPAN_NAMES
CALL_COUNTS = [
    "discovery.siatec", "discovery.tec_quality", "polling.extract_boundaries",
    "classifiers.train_classifier",
]
RESULT_COUNTS = list(dict.fromkeys(c[0] for *_, c in tracing.WRAPPED if c))

PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    **{f"{name}.calls": "count" for name in CALL_COUNTS},
    **{name: "count" for name in RESULT_COUNTS},
    "discovery.cover_yield": "ratio",
    "cli.bytes_written": "bytes",
    "setup.synthesis.synthesize.self_s": "s",
    "setup.discovery.self_s": "s",
    "evaluation.recovered_frac": "ratio",
    "evaluation.boundary_f1": "ratio",
    "analysis.cv_accuracy": "ratio",
    "trace.untraced_items_per_s": "1/s",
    "trace.traced_items_per_s": "1/s",
    "trace.spans": "count",
    "trace.span_cost_us": "us",
    "trace.overhead_frac": "ratio",
    "trace.scaled_gap_frac": "ratio",
    "trace.untraced_pass_s": "s",
    "trace.self_sum_s": "s",
    "trace.unattributed_s": "s",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
    "import motifkit; print(time.process_time() - t)"
)


def import_seconds() -> float:
    """CPU seconds of `import motifkit` in a fresh interpreter, measured inside it."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest nearest-rank percentile with at least 10 samples beyond it.

    Returns the value and how it was taken.  With 20 samples or fewer no
    percentile above the median qualifies; the tail is then the mean of the
    slower half of the samples (with the median itself when their number is
    odd), which one noisy sample cannot swing.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 20:
        upper = ordered[n // 2:]
        return statistics.fmean(upper), f"mean of the {len(upper)} slowest of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}, 10 beyond"


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _run_passes(workload, inputs, seconds, tracer):
    """Alternate untraced and (with a tracer) traced passes until time is up.

    A run makes at least MIN_PASSES passes, so that their outputs can be
    compared, and otherwise stops before a pass would overrun `seconds`.
    """
    from workloads import PassClock

    passes = []
    start = time.perf_counter()
    deadline = start + seconds
    while len(passes) < MIN_PASSES or (
        # start another pass only when one more of average length still fits
        time.perf_counter() + (time.perf_counter() - start) / len(passes) <= deadline
    ):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            clock = PassClock(tracer)
            with tracer.installed():
                result = workload.run_pass(inputs, clock)
            spans = tracer.take()
        else:
            clock = PassClock()
            result = workload.run_pass(inputs, clock)
            spans = None
        passes.append({"result": result, "blocks": clock.blocks, "scaled": clock.scaled,
                       "timed_s": clock.total, "spans": spans})
    return passes


def median_blocks(passes, times="scaled") -> dict[str, float]:
    """Each timed block's median time over the passes.

    Every pass repeats the same blocks on the same inputs.  `times` is
    "scaled" for the gauge-scaled times or "blocks" for raw CPU seconds.
    """
    keys = dict.fromkeys(key for p in passes for key in p[times])
    return {key: statistics.median(p[times][key] for p in passes if key in p[times])
            for key in keys}


def _rate(passes, times="scaled") -> float:
    """Items of a pass per second of its median block times."""
    seconds = sum(median_blocks(passes, times).values())
    return passes[0]["result"].items / seconds if seconds > 0 else 0.0


def _quality(result) -> dict:
    """The workload's quality figures, None where the workload has none."""
    q = result.quality
    return {
        "evaluation.recovered_frac": q["recovered"] / q["planted"] if q.get("planted") else None,
        "evaluation.boundary_f1": _mean(q["f1"]) if q.get("f1") else None,
        "analysis.cv_accuracy": q.get("cv_accuracy"),
    }


def _layer_metrics(setup_spans, traced, untraced, first, span_cost) -> dict:
    spans = [p["spans"] for p in traced]
    m = {}
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = _mean([s["self_s"].get(name, 0.0) for s in spans])
    calls, counts = spans[0]["calls"], spans[0]["counts"]
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in RESULT_COUNTS:
        m[name] = counts.get(name, 0)
    scored = calls.get("discovery.tec_quality", 0)
    m["discovery.cover_yield"] = counts.get("discovery.tecs_emitted", 0) / scored if scored else 0.0
    m["cli.bytes_written"] = first.bytes_written
    m["setup.synthesis.synthesize.self_s"] = setup_spans["self_s"].get("synthesis.synthesize", 0.0)
    m["setup.discovery.self_s"] = sum(
        v for k, v in setup_spans["self_s"].items() if k.startswith("discovery.")
    )
    m.update({name: value or 0.0 for name, value in _quality(first).items()})
    m["trace.untraced_items_per_s"] = _rate(untraced, "blocks")
    m["trace.traced_items_per_s"] = _rate(traced, "blocks")
    untraced_pass_s = sum(median_blocks(untraced, "blocks").values())
    m["trace.spans"] = sum(calls.values())
    m["trace.span_cost_us"] = span_cost * 1e6
    m["trace.overhead_frac"] = m["trace.spans"] * span_cost / untraced_pass_s
    m["trace.scaled_gap_frac"] = (
        sum(median_blocks(traced).values()) / sum(median_blocks(untraced).values()) - 1
    )
    m["trace.untraced_pass_s"] = untraced_pass_s
    m["trace.self_sum_s"] = _mean([s["roots_s"] for s in spans])
    m["trace.unattributed_s"] = _mean([p["timed_s"] - p["spans"]["roots_s"] for p in traced])
    return m


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cover-large", "cli-corpus", "pp-train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "motifkit" / "__init__.py").is_file():
        print(f"error: motifkit sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cpus = os.sched_getaffinity(0)
    import numpy
    import workloads

    workload = workloads.WORKLOADS[args.workload](**(sizes or {}))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    # One CPU for the whole run, the import probes included, so that the
    # gauge runs on the CPU whose speed it stands for.
    os.sched_setaffinity(0, {min(cpus)})
    try:
        imports, builds, setups = [], [], []
        if tracer is None:
            for _ in range(SETUP_REPS):
                before = gauge.gauge()
                imports.append(import_seconds())
                start = time.process_time()
                inputs = workload.setup(args.seed, workdir)
                builds.append(time.process_time() - start)
                setups.append(gauge.scale(imports[-1] + builds[-1], before, gauge.gauge()))
        else:
            with tracer.installed():
                tracer.active = True
                inputs = workload.setup(args.seed, workdir)
                tracer.active = False
            setup_spans = tracer.take()
        passes = _run_passes(workload, inputs, args.seconds, tracer)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    results = [p["result"] for p in passes]
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    problems = [msg for r in results for msg in r.problems]
    attempted += 1  # the digest comparison across passes
    if failed == 0 and len({r.digest for r in results}) != 1:
        failed += 1
        problems.append("output digest differs between passes")
    traced = [p for p in passes if p["spans"] is not None]
    untraced = [p for p in passes if p["spans"] is None]
    counters = [{"calls": p["spans"]["calls"], "counts": p["spans"]["counts"]} for p in traced]
    if counters:
        attempted += 1  # the counter comparison across traced passes
        if any(c != counters[0] for c in counters):
            failed += 1
            problems.append("a counter differs between traced passes")

    blocks = median_blocks(untraced)
    latencies = [blocks[key] / n for key, n in untraced[0]["result"].item_blocks if key in blocks]
    if not latencies:
        print("error: no item completed", file=sys.stderr)
        return 1
    tail_value, tail_rule = tail(latencies)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "traced_passes": len(traced),
        "items": sum(r.items for r in results),
        "fail_frac": failed / attempted,
        "item_samples": len(latencies),
        "item_tail": tail_rule,
        "quality": _quality(results[0]),
        "bytes_written": results[0].bytes_written,
        "pass_cpu_s": [p["timed_s"] for p in passes],
        "pass_scaled_s": [sum(p["scaled"].values()) for p in passes],
        "digest": results[0].digest,
        "counters": counters[0] if counters else None,
        "problems": problems[:20],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(cpus),
    }
    if tracer is None:
        report["setup_import_s"] = imports
        report["setup_inputs_s"] = builds
        report["setup_scaled_s"] = setups
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_s": _rate(untraced),
            "item_p50_s": statistics.median(latencies),
            "item_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        metrics = _layer_metrics(setup_spans, traced, untraced, results[0], tracer.span_cost())
        units = PER_LAYER
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
