"""Golden outputs: the pipeline's files, stdout and stderr on small fixed days.

Two days of records are drawn with the stdlib's random.Random, so the inputs do
not depend on numpy. Each day runs infer-routes, train (edge, smoothed-edge and
baseline1), detect, localize and crossval in process. The outputs are kept in
tests/golden/<day>/, and tests/golden/manifest.json holds the sha256 of each,
the Python minor version and the numpy version they were made with.
tests/test_golden.py runs the days again and compares.

    PYTHONPATH=src python tests/golden_runs.py   # rewrite the outputs and manifest

Rewrite them only when an output is meant to change, and say why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from datetime import datetime, timezone
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"

# day -> (seed, rows, first boarding time, ISO times, routes as (service, stops,
# cumulative_m), planted congestion as (from, to, start offset, end offset,
# factor) or None, extra rows)
DAYS = {
    # s1 and s2 share the corridor C>D>E, where D>E is slowed three-fold for two
    # hours around midnight UTC: localize reports witness rows and self-path rows
    # on two dates
    "corridor": (
        1, 700, 1_709_326_800.0, False,  # 2024-03-01T21:00:00Z
        [("s1", "ABCDEF", (0.0, 400.0, 900.0, 1300.0, 1800.0, 2200.0)),
         ("s2", "PQCDER", (0.0, 350.0, 800.0, 1200.0, 1700.0, 2100.0)),
         ("s3", "WXYZ", (0.0, 500.0, 800.0, 1400.0))],
        ("D", "E", 7200.0, 14400.0, 3.0),
        [],
    ),
    # ISO times; s9's records disagree on one stop pair, so infer-routes rejects
    # it and its rows are skipped as unresolvable; two rows are parse rejects
    "iso": (
        2, 400, 1_709_280_000.0, True,  # 2024-03-01T08:00:00Z
        [("s1", "ABCDE", (0.0, 300.0, 700.0, 1200.0, 1500.0)),
         ("s2", "KLMN", (0.0, 450.0, 900.0, 1250.0))],
        None,
        ["x1,s9,G,H,2024-03-01T09:00:00+00:00,2024-03-01T09:01:00+00:00,500",
         "x2,s9,G,H,2024-03-01T09:05:00+00:00,2024-03-01T09:06:00+00:00,650",
         "x3,s1,A,B,2024-03-01T10:00:00+00:00,2024-03-01T09:59:00+00:00,300",
         "x4,s1,A,B,not-a-time,2024-03-01T10:00:00+00:00,300"],
    ),
}
DAY_SECONDS = 21_600.0
SIGMA2 = 0.01  # noise variance per meter, s^2/m

# (name, argv) per run, in order; {d} is the day's directory. Each run's stdout
# and stderr are kept as <name>.stdout and <name>.stderr.
RUNS = (
    ("infer-routes", "infer-routes --records {d}/records.csv --out-routes {d}/routes.csv "
                     "--out-rejects {d}/route_rejects.csv"),
    ("train-edge", "train --records {d}/records.csv --routes {d}/routes.csv --kind edge "
                   "--out-model {d}/edge.model --out-sse {d}/edge_sse.csv"),
    ("train-smoothed-edge", "train --records {d}/records.csv --routes {d}/routes.csv "
                            "--kind smoothed-edge --out-model {d}/smoothed-edge.model "
                            "--out-sse {d}/smoothed-edge_sse.csv"),
    ("train-baseline1", "train --records {d}/records.csv --routes {d}/routes.csv "
                        "--kind baseline1 --out-model {d}/baseline1.model "
                        "--out-sse {d}/baseline1_sse.csv"),
    ("detect", "detect --records {d}/records.csv --routes {d}/routes.csv "
               "--model {d}/edge.model --delta-quantile 0.1 --out {d}/scored.csv"),
    ("localize", "localize --scored {d}/scored.csv --routes {d}/routes.csv "
                 "--out-report {d}/report.csv --out-daily {d}/daily.csv"),
    ("crossval", "crossval --records {d}/records.csv --routes {d}/routes.csv --folds 3 "
                 "--out {d}/crossval.csv"),
)
# Outputs that no numpy call reaches: compared byte for byte under any versions.
NUMPY_FREE = ("records.csv", "routes.csv", "route_rejects.csv", "infer-routes.stdout",
              "infer-routes.stderr", "baseline1.model", "baseline1_sse.csv",
              "train-baseline1.stdout", "train-baseline1.stderr")


def _iso(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat(timespec="microseconds")


def day_records(name: str) -> str:
    """The day's record file, drawn from random.Random(seed)."""
    seed, n_rows, day_start, iso, routes, congestion, extra = DAYS[name]
    rng = random.Random(seed)
    speeds = {}  # per segment, in m/s
    for _, stops, cum in routes:
        for key in zip(stops, stops[1:]):
            speeds.setdefault(key, 6.0 + 8.0 * rng.random())
    lines = ["record_id,service_id,board_stop,alight_stop,board_time,alight_time,distance_m"]
    for k in range(n_rows):
        service, stops, cum = routes[int(rng.random() * len(routes))]
        i = int(rng.random() * (len(stops) - 1))
        j = i + 1 + int(rng.random() * (len(stops) - 1 - i))
        t0 = day_start + DAY_SECONDS * rng.random()
        t = t0
        for a in range(i, j):
            key = (stops[a], stops[a + 1])
            d = cum[a + 1] - cum[a]
            step = d / speeds[key]
            if congestion and key == congestion[:2] and (
                    day_start + congestion[2] <= t < day_start + congestion[3]):
                step *= congestion[4]
            # Box-Muller from two uniforms: the noise of this segment's distance
            u1, u2 = 1.0 - rng.random(), rng.random()
            noise = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            t += max(step + math.sqrt(SIGMA2 * d) * noise, 0.1 * step)
        d_r = cum[j] - cum[i]
        times = (_iso(t0), _iso(t)) if iso else (format(t0, ".17g"), format(t, ".17g"))
        lines.append(f"r{k:04d},{service},{stops[i]},{stops[j]},{times[0]},{times[1]},"
                     f"{format(d_r, '.17g')}")
    return "\n".join(lines + extra) + "\n"


def run_day(name: str, workdir: Path) -> dict[str, bytes]:
    """Write the day's records under workdir, run every RUNS command, and return
    each output file, stdout and stderr by its name."""
    from flowanomaly.cli import run_command

    day = workdir / name
    day.mkdir(parents=True, exist_ok=True)
    (day / "records.csv").write_text(day_records(name), encoding="utf-8")
    for run_name, argv in RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv.format(d=day).split())
        if code != 0:
            raise AssertionError(f"{name}: {run_name} exited {code}: {err.getvalue()}")
        (day / f"{run_name}.stdout").write_text(out.getvalue(), encoding="utf-8")
        (day / f"{run_name}.stderr").write_text(err.getvalue(), encoding="utf-8")
    return {p.name: p.read_bytes() for p in sorted(day.iterdir())}


def versions() -> dict[str, str]:
    import numpy

    return {"python": "%d.%d" % sys.version_info[:2], "numpy": numpy.__version__}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    """Rewrite tests/golden/ from the code as it is."""
    outputs = {name: run_day(name, GOLDEN) for name in DAYS}
    manifest = {
        **versions(),
        "numpy_free": list(NUMPY_FREE),
        "sha256": {f"{day}/{file}": sha256(data)
                   for day, files in outputs.items() for file, data in files.items()},
    }
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest['sha256'])} outputs to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
