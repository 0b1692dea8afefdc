"""Span tracing for the benchmark's traced run.

The library is not modified: this launcher wraps the public functions of each
flowanomaly layer at the names their callers look up, records one span per
call (name, start, end, parent, run id) plus per-layer counts, keeps them in
memory and writes them to a JSON file when the traced process ends.

    python perfbench/tracing.py --spans FILE --run-id ID cli <subcommand> [args...]
    python perfbench/tracing.py --spans FILE --run-id ID gen [gen.py args...]

The per-record hot functions (`expected_time`, `contains`, `gradient`) are
never wrapped: a wrapper would cost more than they do, and their time shows
in the self time of the span that calls them.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
from time import perf_counter_ns
from typing import Callable, Optional

from workloads import PIPELINE

# Output flags of the subcommands; their files make up `cli.bytes_out`.
OUT_FLAGS = ("--out-routes", "--out-rejects", "--out-model", "--out-sse",
             "--out", "--out-report", "--out-daily")


# Counts that are sizes (the largest seen), not work done (summed).
PEAK_COUNTS = ("core.distinct_paths", "models.segments", "models.untraversed")


def _merge(counts: dict[str, int], name: str, n: int) -> None:
    old = counts.get(name, 0)
    counts[name] = max(old, n) if name in PEAK_COUNTS else old + n


class Tracer:
    """In-memory spans and counts of one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [span_id, parent_id, name, start_ns, end_ns]
        self.counts: dict[str, int] = {}
        self._open: list[Optional[int]] = [None]

    def add(self, name: str, n: int) -> None:
        _merge(self.counts, name, n)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span; a raised exception counts as `<name>.errors`."""
        span = [len(self.spans), self._open[-1], name, 0, 0]
        self.spans.append(span)
        self._open.append(span[0])
        span[3] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.add(name + ".errors", 1)
            raise
        finally:
            span[4] = perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": self.counts}, fh)


def _parsed(t: Tracer, args, result) -> None:
    records, rejects = result
    t.add("recordio.rows", len(records))
    t.add("recordio.rows_rejected", len(rejects))
    if isinstance(args[0], str):
        t.add("recordio.bytes_in", os.path.getsize(args[0]))


def _routes(t: Tracer, args, outcome) -> None:
    t.add("routeinfer.services_accepted", len(outcome.accepted))
    t.add("routeinfer.services_rejected", len(outcome.rejected))


def _paths(t: Tracer, args, paths) -> None:
    # resolve_paths memoizes one Path object per (service, origin, destination)
    t.add("core.distinct_paths", len({id(p) for p in paths}))


def _trained(t: Tracer, args, result) -> None:
    model, trail = result
    t.add("models.segments", len(model.c_by_segment))
    t.add("models.untraversed", len(trail.untraversed))


def _sgd_updates(t: Tracer, args, result) -> None:
    t.add("models.segment_updates", sum(len(p.segments) for p in args[2]))


def _significant(t: Tracer, args, result) -> None:
    t.add("anomaly.significant", len(result[0]))


def _pairs(t: Tracer, args, counts) -> None:
    t.add("anomaly.containment_pairs", sum(counts.values()))


def _reports(t: Tracer, args, reports) -> None:
    t.add("anomaly.report_rows", len(reports))


def _kfold(t: Tracer, args, result) -> None:
    t.add("evaluation.excluded", sum(row.excluded for row in result.rows))


def _generated(t: Tracer, args, result) -> None:
    t.add("synth.records_truncated", result[1])


# span name -> (flowanomaly modules whose binding of the function callers look
# up, count hook). `cli` binds the core functions by name; `evaluation` binds
# the fitters by name; the rest are reached as module attributes.
TRACED: dict[str, tuple[tuple[str, ...], Optional[Callable]]] = {
    "recordio.parse_records": (("recordio",), _parsed),
    "routeinfer.infer_all_routes": (("routeinfer",), _routes),
    "core.build_network": (("cli",), None),
    "core.validate_record": (("cli",), None),
    "core.resolve_paths": (("cli", "models", "anomaly", "evaluation"), _paths),
    "core.resolve_path": (("cli", "core"), None),
    "models.train_edge_model": (("models", "evaluation"), _trained),
    "models.sgd_epoch": (("models",), _sgd_updates),
    "models.estimate_variance": (("models",), None),
    "models.fit_baseline1": (("models", "evaluation"), None),
    "models.fit_baseline2": (("models", "evaluation"), None),
    "models.save_model": (("models",), None),
    "models.load_model": (("models",), None),
    "anomaly.score": (("anomaly",), None),
    "anomaly.filter_significant": (("anomaly",), _significant),
    "anomaly.containment_counts": (("anomaly",), _pairs),
    "anomaly.rank_anomalies": (("anomaly",), _reports),
    "anomaly.daily_series": (("anomaly",), None),
    "evaluation.kfold": (("evaluation",), _kfold),
    "evaluation.make_folds": (("evaluation",), None),
    "evaluation.rmse": (("evaluation",), None),
    "synth.generate_network": (("synth",), None),
    "synth.generate_records": (("synth",), _generated),
}
# One root span per subcommand process, around `cli.run_command`.
CLI_SPANS = tuple("cli." + sub.replace("-", "_") for sub in PIPELINE)
SPAN_NAMES = tuple(TRACED) + CLI_SPANS
COUNTS = {
    "recordio.rows": "count",
    "recordio.rows_rejected": "count",
    "recordio.bytes_in": "bytes",
    "routeinfer.services_accepted": "count",
    "routeinfer.services_rejected": "count",
    "core.records_skipped": "count",
    "core.distinct_paths": "count",
    "models.segments": "count",
    "models.untraversed": "count",
    "models.segment_updates": "count",
    "anomaly.significant": "count",
    "anomaly.containment_pairs": "count",
    "anomaly.report_rows": "count",
    "evaluation.excluded": "count",
    "cli.bytes_out": "bytes",
    "synth.records_truncated": "count",
}
# Every per-layer metric a traced run prints, with its unit.
UNITS = {
    **{f"{n}{suffix}": unit for n in SPAN_NAMES
       for suffix, unit in ((".s", "s"), (".self_s", "s"), (".calls", "count"))},
    **COUNTS,
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}
# Counts that come from span errors rather than hooks.
ERROR_COUNTS = {"core.records_skipped": "core.validate_record.errors"}


def install(tracer: Tracer) -> None:
    for name, (modules, hook) in TRACED.items():
        func = name.split(".", 1)[1]
        for mod in modules:
            module = importlib.import_module("flowanomaly." + mod)
            setattr(module, func, tracer.wrap(name, getattr(module, func), hook))


def summarize(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics from span files: inclusive and self seconds, calls, counts.

    A span's self time is its duration minus its direct children's; spans of
    one process nest, so children never overlap each other.
    """
    totals = {name: [0, 0, 0] for name in SPAN_NAMES}  # inclusive ns, self ns, calls
    counts: dict[str, int] = {}
    for doc in docs:
        spans = doc["spans"]
        child_ns = [0] * len(spans)
        for _, parent, _, start, end in spans:
            if parent is not None:
                child_ns[parent] += end - start
        for span_id, _, name, start, end in spans:
            entry = totals[name]
            entry[0] += end - start
            entry[1] += end - start - child_ns[span_id]
            entry[2] += 1
        for key, value in doc["counts"].items():
            _merge(counts, key, value)
    out: dict[str, float] = {}
    for name, (incl, own, calls) in totals.items():
        out[name + ".s"] = incl / 1e9
        out[name + ".self_s"] = own / 1e9
        out[name + ".calls"] = calls
    for key in COUNTS:
        out[key] = counts.get(ERROR_COUNTS.get(key, key), 0)
    return out


def _run_cli(tracer: Tracer, argv: list[str]) -> int:
    from flowanomaly import cli

    if not argv or argv[0] not in PIPELINE:
        raise SystemExit(f"tracing: expected one of {', '.join(PIPELINE)}")
    code = tracer.call("cli." + argv[0].replace("-", "_"), cli.run_command, argv)
    for flag, value in zip(argv, argv[1:]):
        if flag in OUT_FLAGS and os.path.isfile(value):
            tracer.add("cli.bytes_out", os.path.getsize(value))
    return code


def _run_gen(tracer: Tracer, argv: list[str]) -> int:
    import gen

    return gen.main(argv)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="run a CLI subcommand or the generator traced")
    parser.add_argument("--spans", required=True, help="span file to write at exit")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("target", choices=("cli", "gen"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    tracer = Tracer(args.run_id)
    install(tracer)
    try:
        run = _run_cli if args.target == "cli" else _run_gen
        return run(tracer, args.args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
