"""Pipeline benchmark: seeded inputs through the real CLI, one subcommand at a time.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. Set-up generates the workload's inputs with
`gen.py` (timed as `setup_s`, median of several set-ups). The timed pipeline
then runs infer-routes, train, detect, localize and crossval, each as its own
`python -m flowanomaly` process with `src` on PYTHONPATH, one after another
(closed loop, one client), and repeats until about --seconds have passed; each
subcommand's time is its fastest repetition, scaled to a reference host speed
by `speed.py`. Outputs
are checked by `check.py` and digested; a subcommand that exits non-zero,
prints a traceback, fails a check or writes different bytes than an earlier
run of the same code and seed counts as a failed operation.

With --trace 1 the pipeline also runs once under `tracing.py`, and the last
line carries the per-layer metrics and the tracing overhead instead.
The last line of stdout is the JSON result; details of the run (environment,
per-process times, digests) go to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import check
import speed
import tracing
from workloads import PIPELINE, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
WORK_DIRNAME = ".perfbench_work"
SETUP_REPEATS = 5
# Speed gauge samples taken before each set-up and each subcommand (~0.1 s).
GAUGE_SAMPLES = 5
# Every run, set-up included, must end well inside three minutes.
DEADLINE_S = 165.0
END_TO_END_UNITS = {
    "records_per_s": "1/s",
    "infer_routes_s": "s",
    "train_s": "s",
    "detect_s": "s",
    "localize_s": "s",
    "crossval_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "heldout_rmse_s": "s",
    "speed_mae_mps": "m/s",
}


class SetupError(RuntimeError):
    pass


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    code: int


@dataclass
class Iteration:
    procs: dict[str, Proc] = field(default_factory=dict)
    problems: dict[str, list[str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(p.wall_s for p in self.procs.values())


def run_process(argv: list[str], cwd: Path, env: dict, stdout: Path, stderr: Path,
                deadline: float) -> Proc:
    """Run one process to completion; wall time and its own peak RSS."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def code_digest(root: Path) -> str:
    """Identity of the code under test plus the benchmark, for cross-run digests."""
    h = hashlib.sha256()
    files = sorted((root / "src" / "flowanomaly").glob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def subcommand_argv(wl: Workload, sub: str, inputs: Path, out: Path) -> list[str]:
    records, routes = str(inputs / "records.csv"), str(out / "routes.csv")
    if sub == "infer-routes":
        return [sub, "--records", records, "--out-routes", routes,
                "--out-rejects", str(out / "route_rejects.csv")]
    if sub == "train":
        return [sub, "--records", records, "--routes", routes, "--kind", "edge",
                "--shuffle-seed", "7", "--out-model", str(out / "model.txt"),
                "--out-sse", str(out / "sse.csv"), *wl.train_args]
    if sub == "detect":
        return [sub, "--records", records, "--routes", routes,
                "--model", str(out / "model.txt"),
                "--delta-quantile", repr(wl.delta_quantile), "--out", str(out / "scored.csv")]
    if sub == "localize":
        return [sub, "--scored", str(out / "scored.csv"), "--routes", routes,
                "--out-report", str(out / "report.csv"), "--out-daily", str(out / "daily.csv")]
    return [sub, "--records", records, "--routes", routes, "--out", str(out / "crossval.csv"),
            "--folds", str(wl.folds), "--kinds", ",".join(wl.kinds), "--seed", "5",
            *wl.crossval_args]


class Bench:
    """One benchmark run of one workload and seed inside a work directory."""

    def __init__(self, wl: Workload, seed: int, root: Path, work: Path):
        self.wl, self.seed, self.root = wl, seed, root
        self.work = work / wl.name
        self.store = work / "digests.json"
        self.started = time.monotonic()
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs = self.work / "inputs"
        self.inputs.mkdir(parents=True)
        self.spec = self.work / "workload.json"
        self.spec.write_text(json.dumps(asdict(wl), sort_keys=True))
        self.manifest: dict = {}
        self.spans: list[Path] = []
        self.gauge = speed.Gauge()

    @property
    def deadline(self) -> float:
        return self.started + DEADLINE_S

    def _traced(self, tag: str) -> list[str]:
        """Launcher prefix that runs a target under tracing.py, spans to the work dir."""
        spans = self.work / f"spans-{tag}.json"
        self.spans.append(spans)
        return [sys.executable, str(HERE / "tracing.py"), "--spans", str(spans),
                "--run-id", tag]

    def setup(self, repeats: int, traced: bool = False) -> list[float]:
        """Generate the inputs `repeats` times; they must come out identical."""
        walls, digests = [], None
        gen_args = ["--spec", str(self.spec), "--seed", str(self.seed), "--out", str(self.inputs)]
        for i in range(repeats):
            if traced:
                argv = self._traced(f"gen{i}") + ["gen", *gen_args]
            else:
                argv = [sys.executable, str(HERE / "gen.py"), *gen_args]
            log = self.work / f"gen{i}"
            self.gauge.sample(GAUGE_SAMPLES)
            proc = run_process(argv, self.root, self.env, log.with_suffix(".stdout"),
                               log.with_suffix(".stderr"), self.deadline)
            if proc.code != 0:
                raise SetupError(log.with_suffix(".stderr").read_text()[-2000:])
            walls.append(proc.wall_s)
            now = {p.name: sha256(p) for p in sorted(self.inputs.iterdir())}
            if digests is not None and now != digests:
                raise SetupError("input generation is not deterministic")
            digests = now
        self.manifest = json.loads((self.inputs / "manifest.json").read_text())
        return walls

    def pipeline(self, tag: str, traced: bool = False) -> Iteration:
        out = self.work / tag
        out.mkdir()
        it = Iteration()
        for sub in PIPELINE:
            args = subcommand_argv(self.wl, sub, self.inputs, out)
            if traced:
                argv = self._traced(f"{tag}-{sub}") + ["cli", *args]
            else:
                argv = [sys.executable, "-m", "flowanomaly", *args]
            stdout, stderr = out / f"{sub}.stdout", out / f"{sub}.stderr"
            self.gauge.sample(GAUGE_SAMPLES)
            it.procs[sub] = run_process(argv, self.root, self.env, stdout, stderr, self.deadline)
        it.problems = check.check_outputs(str(out), str(self.inputs), self.wl, self.manifest)
        for sub, proc in it.procs.items():
            if proc.code != 0:
                it.problems[sub].append(f"exit code {proc.code}")
            if "Traceback (most recent call last)" in (out / f"{sub}.stderr").read_text():
                it.problems[sub].append("traceback on stderr")
        for name in check.OWNER:
            path = out / name
            it.digests[name] = sha256(path) if path.exists() else "missing"
        return it

    def compare_digests(self, its: list[Iteration]) -> None:
        """Same code and seed must write the same bytes: within this run and across runs."""
        key = f"{code_digest(self.root)}/{self.wl.name}/{self.seed}"
        store = json.loads(self.store.read_text()) if self.store.exists() else {}
        reference = store.setdefault(key, its[0].digests)
        for it in its:
            for name, digest in it.digests.items():
                if reference.get(name) != digest:
                    it.problems[check.OWNER[name]].append(f"{name} differs from an earlier run")
        self.store.write_text(json.dumps(store, indent=1, sort_keys=True))

    def measure(self, seconds: float) -> list[Iteration]:
        """Repeat the pipeline until `seconds` have passed (at least once)."""
        its: list[Iteration] = []
        start = time.monotonic()
        while True:
            it = self.pipeline(f"run{len(its)}")
            its.append(it)
            now = time.monotonic()
            # stop where the next repetition would end more than half of it past `seconds`
            rep_s = statistics.median(i.total_s for i in its)
            if any(it.problems.values()) or now - start + 0.5 * rep_s >= seconds:
                break
            if now + 1.5 * it.total_s > self.deadline - 20:
                break
        return its


def environment(root: Path) -> dict:
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "git_sha": "unknown",
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=git_env,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def end_to_end(bench: Bench, setups: list[float], its: list[Iteration]) -> dict[str, float]:
    rows = bench.manifest["rows"]
    # The fastest repetition of each subcommand: the host's speed flips from
    # second to second, and a slow second only ever adds time. Minute-long
    # slow stretches move every repetition; the gauge takes those out.
    scale = bench.gauge.factor()
    fastest = {sub: min(it.procs[sub].wall_s for it in its) * scale for sub in PIPELINE}
    metrics = {f"{sub.replace('-', '_')}_s": wall for sub, wall in fastest.items()}
    metrics["records_per_s"] = rows / sum(fastest.values())
    metrics["setup_s"] = statistics.median(setups) * scale
    metrics["peak_rss_mb"] = statistics.median(
        max(p.rss_mb for p in it.procs.values()) for it in its
    )
    last = bench.work / f"run{len(its) - 1}"
    try:
        metrics.update(check.quality(str(last), str(bench.inputs)))
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        its[-1].problems["train"].append(f"quality metrics not computable: {exc!r}")
    return metrics


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> dict:
    """Run the benchmark once; returns the result object printed as the last line."""
    bench = Bench(wl, seed, root, work)
    try:
        if trace:
            bench.setup(1, traced=True)
            its = bench.measure(seconds)
            traced = bench.pipeline("traced", traced=True)
            bench.compare_digests(its + [traced])
            # a process killed at the deadline leaves no span file; it already counts as failed
            spans = [json.loads(p.read_text()) for p in bench.spans if p.exists()]
            layer = tracing.summarize(spans)
            untraced = statistics.median(it.total_s for it in its)
            layer["trace.overhead_share"] = traced.total_s / untraced - 1.0
            layer["trace.spans"] = sum(layer[n + ".calls"] for n in tracing.SPAN_NAMES)
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in tracing.UNITS.items()}
            its = its + [traced]
        else:
            setups = bench.setup(SETUP_REPEATS)
            its = bench.measure(seconds)
            bench.compare_digests(its)
            e2e = end_to_end(bench, setups, its)
            metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items() if name in e2e}
    finally:
        bench.gauge.close()
    attempted = sum(len(it.procs) for it in its)
    failed = sum(1 for it in its for sub in it.procs if it.problems.get(sub))
    result = {
        "correct": failed == 0 and len(metrics) > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": wl.name, "seed": seed, "trace": trace, "environment": environment(root),
        "iterations": [
            {"procs": {s: vars(p) for s, p in it.procs.items()},
             "problems": {s: p for s, p in it.problems.items() if p},
             "digests": it.digests}
            for it in its
        ],
        "result": result,
        "gauge": {"samples": len(bench.gauge.samples),
                  "lower_quartile_s": bench.gauge.lower_quartile(),
                  "factor": bench.gauge.factor()},
    }
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="flowanomaly pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "flowanomaly" / "cli.py").is_file():
        print("error: run from the root of a flowanomaly checkout (src/flowanomaly missing)",
              file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     root, root / WORK_DIRNAME)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    if not result["correct"]:
        print(f"error: failed checks; see {root / WORK_DIRNAME / 'results'}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
