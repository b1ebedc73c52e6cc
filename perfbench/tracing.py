"""Span tracing of motifkit's layer-boundary functions, done from outside.

Each traced function is replaced, in the module namespace where its callers
look it up, by a wrapper that records one span: the function's name, its
parent span, and its start and end in CPU seconds of the process.  Self
time is a span's duration minus the durations of its direct children.
Spans stay in memory; the benchmark aggregates them per pass.

Only the functions in WRAPPED are traced.  Helpers such as ``core.to_time``
or ``core.format_time`` run tens of thousands of times per pass and would
inflate the overhead without telling which layer is slow.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


def _len_result(args, result):
    return len(result)


def _points_arg(args, result):
    return len(args[1])


# (module, attribute, span name, optional counter (name, measure(args, result)))
# The module is the one whose globals the callers use: `analysis` binds its
# own `train_classifier` through `from ... import`, and `cosiatec` looks up
# `siatec`, `tec_quality` and `compactness` in discovery's globals at call time.
WRAPPED = [
    ("core", "parse_points_csv", "core.parse_points_csv", None),
    ("core", "emit_points_csv", "core.emit_points_csv", None),
    ("core", "load_pattern_file", "core.load_pattern_file", None),
    ("core", "dump_pattern_json", "core.dump_pattern_json", None),
    ("discovery", "run_algorithm", "discovery.run_algorithm", ("discovery.points", _points_arg)),
    ("discovery", "sia", "discovery.sia", None),
    ("discovery", "siar", "discovery.siar", None),
    ("discovery", "siatec", "discovery.siatec", None),
    ("discovery", "cosiatec", "discovery.cosiatec", ("discovery.tecs_emitted", _len_result)),
    ("discovery", "siatec_compress", "discovery.siatec_compress", ("discovery.tecs_emitted", _len_result)),
    ("discovery", "tec_quality", "discovery.tec_quality", None),
    ("discovery", "compactness", "discovery.compactness", None),
    ("discovery", "tecs_to_records", "discovery.tecs_to_records", None),
    ("discovery", "mtps_to_records", "discovery.mtps_to_records", None),
    ("polling", "polling_curve", "polling.polling_curve", ("polling.grid_points", _len_result)),
    ("polling", "savgol_smooth", "polling.savgol_smooth", None),
    ("polling", "derivatives", "polling.derivatives", None),
    ("polling", "extract_boundaries", "polling.extract_boundaries", ("polling.boundaries", _len_result)),
    ("polling", "train_pp", "polling.train_pp", None),
    ("evaluation", "boundary_prf", "evaluation.boundary_prf", None),
    ("evaluation", "truth_boundaries", "evaluation.truth_boundaries", None),
    ("evaluation", "occurrence_recovery", "evaluation.occurrence_recovery", None),
    ("synthesis", "synthesize", "synthesis.synthesize", None),
    ("analysis", "extract_features", "analysis.extract_features", None),
    ("analysis", "sample_random_excerpts", "analysis.sample_random_excerpts", None),
    ("analysis", "cross_validate", "analysis.cross_validate", None),
    ("analysis", "feature_importance", "analysis.feature_importance", None),
    ("analysis", "train_classifier", "classifiers.train_classifier", None),
    ("cli", "main", "cli.main", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "cmd_discover", "cli.cmd_discover", None),
    ("cli", "cmd_poll", "cli.cmd_poll", None),
    ("cli", "cmd_train_pp", "cli.cmd_train_pp", None),
    ("cli", "cmd_eval_boundaries", "cli.cmd_eval_boundaries", None),
    ("cli", "cmd_synth", "cli.cmd_synth", None),
    ("cli", "cmd_features", "cli.cmd_features", None),
    ("cli", "cmd_classify", "cli.cmd_classify", None),
    ("cli", "cmd_importance", "cli.cmd_importance", None),
]

SPAN_NAMES = [name for _, _, name, _ in WRAPPED]


class Tracer:
    """Records spans of the wrapped functions while `active` is set."""

    def __init__(self):
        self.active = False
        self.spans: list = []  # (name, parent index or -1, start, end)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def span_cost(self, calls: int = 2000, repeats: int = 7) -> float:
        """CPU seconds one span adds to a call, taken on an empty function.

        Each side keeps its least time over `repeats` batches of `calls`
        calls, since the host's interference only ever adds time.
        """
        def empty():
            pass

        wrapped = self._wrap(empty, "trace.probe", None)
        first = len(self.spans)

        def batch(fn) -> float:
            start = time.process_time()
            for _ in range(calls):
                fn()
            return time.process_time() - start

        self.active = True
        try:
            traced = min(batch(wrapped) for _ in range(repeats))
            plain = min(batch(empty) for _ in range(repeats))
        finally:
            self.active = False
            del self.spans[first:]
        return max(traced - plain, 0.0) / calls

    @contextmanager
    def installed(self):
        """Patch every WRAPPED function for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, counter in WRAPPED:
                module = importlib.import_module(f"motifkit.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take(self) -> dict:
        """Aggregate and clear the recorded spans.

        Returns per span name its self seconds and call count, the summed
        duration of root spans, and the result counters.
        """
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_s = [0.0] * len(self.spans)
        roots_s = 0.0
        for name, parent, start, end in self.spans:
            calls[name] += 1
            if parent < 0:
                roots_s += end - start
            else:
                child_s[parent] += end - start
        for (name, _, start, end), inner in zip(self.spans, child_s):
            self_s[name] += end - start - inner
        out = {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "roots_s": roots_s,
            "counts": dict(self.counts),
        }
        self.spans.clear()
        self.counts.clear()
        return out
