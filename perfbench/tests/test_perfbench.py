"""Tests of the benchmark itself: span arithmetic, checker, and a tiny run per workload.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Small enough for seconds per run, large enough that every check still holds.
TINY = {
    "fit": dict(n_records=4000, heldout_records=500),
    "contain": dict(n_records=4000, heldout_records=500),
}


def test_workloads_and_units_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.UNITS


def test_self_time_subtracts_direct_children_only():
    ms = 1_000_000
    spans = [
        [0, None, "cli.train", 0, 100 * ms],
        [1, 0, "models.train_edge_model", 10 * ms, 90 * ms],
        [2, 1, "models.sgd_epoch", 20 * ms, 50 * ms],
        [3, 2, "models.estimate_variance", 40 * ms, 50 * ms],
        [4, 1, "models.sgd_epoch", 55 * ms, 85 * ms],
    ]
    other = {"run_id": "b", "spans": [[0, None, "models.sgd_epoch", 0, 5 * ms]],
             "counts": {"models.segments": 7, "recordio.rows": 3}}
    out = tracing.summarize([{"run_id": "a", "spans": spans,
                              "counts": {"models.segments": 9, "recordio.rows": 4}}, other])
    assert out["cli.train.s"] == pytest.approx(0.100)
    assert out["cli.train.self_s"] == pytest.approx(0.020)
    assert out["models.train_edge_model.self_s"] == pytest.approx(0.020)
    assert out["models.sgd_epoch.s"] == pytest.approx(0.065)
    assert out["models.sgd_epoch.self_s"] == pytest.approx(0.055)
    assert out["models.sgd_epoch.calls"] == 3
    assert out["models.estimate_variance.self_s"] == pytest.approx(0.010)
    assert out["anomaly.score.calls"] == 0
    assert out["models.segments"] == 9  # a size: the largest seen
    assert out["recordio.rows"] == 7  # work: summed over processes


def test_gauge_scales_times_to_the_reference_speed():
    gauge = speed.Gauge()
    try:
        gauge.sample(3)
        gauge.sample(2)
    finally:
        gauge.close()
    assert len(gauge.samples) == 5 and min(gauge.samples) > 0
    assert gauge.proc.returncode == 0
    gauge.samples = [2 * speed.REFERENCE_S] * 3 + [10 * speed.REFERENCE_S]
    assert gauge.factor() == pytest.approx(0.5)


def test_tracer_counts_errors_and_keeps_nesting():
    t = tracing.Tracer("x")

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        t.call("core.validate_record", boom)
    t.call("cli.train", lambda: t.call("core.build_network", lambda: None))
    assert t.counts == {"core.validate_record.errors": 1}
    assert [(s[0], s[1], s[2]) for s in t.spans] == [
        (0, None, "core.validate_record"), (1, None, "cli.train"), (2, 1, "core.build_network")]
    assert tracing.summarize([{"spans": t.spans, "counts": t.counts}])["core.records_skipped"] == 1


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One untraced and one traced tiny run per workload, with its work directory."""
    runs = {}
    for name, sizes in TINY.items():
        wl = replace(WORKLOADS[name], **sizes)
        work = tmp_path_factory.mktemp(name)
        plain = run.run(wl, seed=3, seconds=0, trace=False, root=ROOT, work=work)
        traced = run.run(wl, seed=3, seconds=0, trace=True, root=ROOT, work=work)
        runs[name] = (wl, work, plain, traced)
    return runs


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_prints_every_named_metric(tiny_runs, name):
    _, _, plain, traced = tiny_runs[name]
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= len(run.PIPELINE)
        names = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_checker_catches_a_wrong_top_report_row(tiny_runs):
    wl, work, _, _ = tiny_runs["fit"]
    out, inputs = work / "fit" / "run0", work / "fit" / "inputs"
    manifest = json.loads((inputs / "manifest.json").read_text())
    assert not any(check.check_outputs(str(out), str(inputs), wl, manifest).values())
    report = out / "report.csv"
    lines = report.read_text().splitlines()
    frm, to, _, _ = check.load_truth(str(inputs / "truth.csv"))[1]
    lines[1:] = [ln.replace(f"|{frm}>{to}@", "|elsewhere@") for ln in lines[1:]]
    report.write_text("\n".join(lines) + "\n")
    problems = check.check_outputs(str(out), str(inputs), wl, manifest)
    assert problems["localize"] and not problems["detect"]


def test_a_changed_output_is_a_failed_operation(tiny_runs, tmp_path):
    wl, _, _, _ = tiny_runs["contain"]
    bench = run.Bench(wl, seed=3, root=ROOT, work=tmp_path)
    try:
        bench.setup(1)
        first, second = bench.pipeline("a"), bench.pipeline("b")
    finally:
        bench.gauge.close()
    assert first.digests == second.digests
    second.digests["model.txt"] = "0" * 64
    bench.compare_digests([first, second])
    assert second.problems["train"] == ["model.txt differs from an earlier run"]
    assert not first.problems["train"]
