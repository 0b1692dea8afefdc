"""Seeded input generator for one workload.

Writes records.csv (the pipeline's input), heldout.csv (more trips from the
same truth under another record seed), truth.csv (the synth sidecar) and
manifest.json (the row count and the line numbers of injected malformed rows).
The same spec and seed always give byte-identical files.

    python perfbench/gen.py --spec workload.json --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np

from flowanomaly import synth
from workloads import Workload

HEADER = "record_id,service_id,board_stop,alight_stop,board_time,alight_time,distance_m"
# Each workload keeps one network (stops, lengths, speeds, planted segment):
# seeds vary the day's trips, not the city, so every seed poses a problem of
# the same size and difficulty.
NETWORK_SEED = 1
# Added to the workload seed for the held-out trips; the truth is shared.
HELDOUT_SEED_OFFSET = 1_000_003
# ISO rows carry a non-UTC offset so the parser's offset handling is exercised.
ISO_OFFSET = timezone(timedelta(hours=2))


def _epoch(t: float) -> str:
    return format(t, ".17g")


def _iso(t: float) -> str:
    return datetime.fromtimestamp(t, tz=ISO_OFFSET).isoformat()


def _row(r, fmt_time) -> list[str]:
    return [
        r.record_id,
        r.service_id,
        r.origin,
        r.destination,
        fmt_time(r.t_start),
        fmt_time(r.t_end),
        _epoch(r.distance_m),
    ]


def _malformed(k: int, fields: list[str], t_start: float) -> list[str]:
    """A copy of a good row broken in one of the ways the parser must reject.

    Only parse-level defects: a row that parses but contradicts its service
    (an `inf` or disagreeing distance) would reject the whole service today.
    """
    bad = [f"bad{k:06d}"] + fields[1:]
    kind = k % 5
    if kind == 0:
        return bad[:-1]  # wrong field count
    if kind == 1:
        bad[4] = "not-a-time"
    elif kind == 2:
        bad[4] = datetime.fromtimestamp(t_start, tz=timezone.utc).replace(
            tzinfo=None
        ).isoformat()  # no UTC offset
    elif kind == 3:
        bad[6] = "-" + bad[6] if k % 2 else "0"
    else:
        bad[4], bad[5] = bad[5], bad[4]  # alights before boarding
    return bad


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def generate(wl: Workload, seed: int, out_dir: str) -> dict:
    """Write the workload's input files into out_dir and return the manifest."""
    p = wl.planted
    cfg = synth.SynthConfig(
        n_services=wl.services,
        stops_per_service=wl.stops,
        n_records=wl.n_records,
        congestion=None if p is None else synth.PlantedCongestion(
            *p.segment, wl.day_start_s + p.start_s, wl.day_start_s + p.end_s, p.factor
        ),
        seed=seed,
        shared_corridor_stops=wl.shared_corridor,
        day_start_s=wl.day_start_s,
    )
    truth = synth.generate_network(replace(cfg, seed=NETWORK_SEED))
    records, _ = synth.generate_records(truth, cfg)
    heldout, _ = synth.generate_records(
        truth,
        replace(cfg, seed=seed + HELDOUT_SEED_OFFSET, n_records=wl.heldout_records),
    )

    fmt_time = _iso if wl.iso_times else _epoch
    rows = [_row(r, fmt_time) for r in records]
    n_bad = round(wl.reject_share * len(rows))
    rejected_lines = []
    if n_bad:
        rng = np.random.default_rng((seed, 2))
        positions = set(rng.choice(len(rows) + n_bad, size=n_bad, replace=False).tolist())
        mixed, good = [], iter(rows)
        for pos in range(len(rows) + n_bad):
            if pos in positions:
                src = pos % len(rows)
                mixed.append(_malformed(len(rejected_lines), rows[src], records[src].t_start))
                rejected_lines.append(pos + 2)  # line 1 is the header
            else:
                mixed.append(next(good))
        rows = mixed

    _write_lines(os.path.join(out_dir, "records.csv"), [HEADER] + [",".join(f) for f in rows])
    _write_lines(
        os.path.join(out_dir, "heldout.csv"),
        [HEADER] + [",".join(_row(r, _epoch)) for r in heldout],
    )
    synth.write_truth(truth, os.path.join(out_dir, "truth.csv"))
    manifest = {"rows": len(rows), "rejected_lines": rejected_lines}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True)
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload JSON written by run.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as fh:
        wl = Workload.from_json(json.load(fh))
    generate(wl, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
