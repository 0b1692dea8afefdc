"""Independent checks of the pipeline's outputs, and the quality metrics.

Everything here reads files only: the subcommands' output files and captured
stdout/stderr, plus the generator's truth sidecar, manifest and held-out
records. Nothing imports flowanomaly, so a defect in the library cannot hide
itself from its own checker.
"""

from __future__ import annotations

import math
import os
import re
import statistics

# Output files of each subcommand, besides its captured <sub>.stdout/.stderr.
OUTPUTS = {
    "infer-routes": ("routes.csv", "route_rejects.csv"),
    "train": ("model.txt", "sse.csv"),
    "detect": ("scored.csv",),
    "localize": ("report.csv", "daily.csv"),
    "crossval": ("crossval.csv",),
}
# Every digested file -> the subcommand that wrote it.
OWNER = {name: sub for sub, files in OUTPUTS.items()
         for name in files + (f"{sub}.stdout", f"{sub}.stderr")}
READS_RECORDS = ("infer-routes", "train", "detect", "crossval")


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _rows(path: str) -> list[list[str]]:
    """Data rows of a CSV file without quoting, after its header and any # lines."""
    body = [ln for ln in _lines(path) if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in body[1:]]


def load_truth(path: str):
    """Segment speeds and the planted (from, to, window_start, window_end), if any."""
    speeds, planted = {}, None
    for frm, to, speed, w0, w1, _ in _rows(path):
        speeds[(frm, to)] = float(speed)
        if w0:
            planted = (frm, to, float(w0), float(w1))
    return speeds, planted


def load_model(path: str) -> tuple[float, dict]:
    lines = [ln.split() for ln in _lines(path) if ln.strip()]
    sigma2 = float(lines[0][2].removeprefix("sigma2="))
    speeds = {(p[1], p[2]): float(p[3]) for p in lines[1:] if p[0] == "seg"}
    return sigma2, speeds


def load_routes(path: str) -> dict[str, list[tuple[str, float]]]:
    routes: dict[str, list[tuple[int, str, float]]] = {}
    for service, seq, stop, cum in _rows(path):
        routes.setdefault(service, []).append((int(seq), stop, float(cum)))
    return {s: [(stop, cum) for _, stop, cum in sorted(v)] for s, v in routes.items()}


def route_segments(routes) -> set[tuple[str, str]]:
    return {(a[0], b[0]) for stops in routes.values() for a, b in zip(stops, stops[1:])}


def quality(out_dir: str, inputs_dir: str) -> dict[str, float]:
    """Held-out RMSE of the trained model, and mean speed error off the planted segment."""
    _, speeds = load_model(os.path.join(out_dir, "model.txt"))
    routes = load_routes(os.path.join(out_dir, "routes.csv"))
    index = {s: {stop: k for k, (stop, _) in enumerate(v)} for s, v in routes.items()}
    sq = []
    for _, service, origin, dest, t0, t1, _ in _rows(os.path.join(inputs_dir, "heldout.csv")):
        stops = routes[service]
        i, j = index[service][origin], index[service][dest]
        expected = sum(
            (stops[k + 1][1] - stops[k][1]) / speeds[(stops[k][0], stops[k + 1][0])]
            for k in range(i, j)
        )
        sq.append((float(t1) - float(t0) - expected) ** 2)
    true_speeds, planted = load_truth(os.path.join(inputs_dir, "truth.csv"))
    errors = [
        abs(speeds[seg] - c)
        for seg, c in true_speeds.items()
        if planted is None or seg != planted[:2]
    ]
    return {
        "heldout_rmse_s": math.sqrt(sum(sq) / len(sq)),
        "speed_mae_mps": statistics.fmean(errors),
    }


def _stream(out_dir: str, sub: str, kind: str) -> str:
    with open(os.path.join(out_dir, f"{sub}.{kind}"), encoding="utf-8") as fh:
        return fh.read()


def _int_after(text: str, key: str, default: int | None = None) -> int | None:
    m = re.search(rf"\b{key}=(\d+)", text)
    return int(m.group(1)) if m else default


def _check_sub(sub: str, out_dir: str, inputs_dir: str, wl, manifest: dict) -> list[str]:
    stdout = _stream(out_dir, sub, "stdout")
    stderr = _stream(out_dir, sub, "stderr")
    rejected = manifest["rejected_lines"]
    parsed = manifest["rows"] - len(rejected)
    problems = []
    if sub in READS_RECORDS:
        seen = [int(n) for n in re.findall(r"^reject line=(\d+) ", stderr, re.M)]
        if seen != rejected:
            problems.append(f"rejected lines {seen[:5]}... differ from the injected ones")
    skipped = _int_after(stderr, "skipped_unresolvable", 0)
    truth, planted = load_truth(os.path.join(inputs_dir, "truth.csv"))

    if sub == "infer-routes":
        if (_int_after(stdout, "accepted"), _int_after(stdout, "rejected")) != (wl.services, 0):
            problems.append(f"services not all accepted: {stdout.strip()!r}")
        if _int_after(stdout, "parse_rejected") != len(rejected):
            problems.append("parse_rejected differs from the injected rows")
        got = route_segments(load_routes(os.path.join(out_dir, "routes.csv")))
        if got != set(truth):
            problems.append(f"inferred routes give {len(got)} segments, truth has {len(truth)}")
    elif sub == "train":
        if _int_after(stdout, "records") + skipped != parsed:
            problems.append("trained + skipped records differ from parsed rows")
        sigma2, speeds = load_model(os.path.join(out_dir, "model.txt"))
        if not sigma2 > 0 or set(speeds) != set(truth):
            problems.append("model lacks a positive sigma2 or a speed per segment")
    elif sub == "detect":
        scored = _rows(os.path.join(out_dir, "scored.csv"))
        if len(scored) + skipped != parsed:
            problems.append(f"scored {len(scored)} + skipped {skipped} != parsed {parsed}")
        if not any(row[9] == "1" for row in scored):
            problems.append("no significant record")
    elif sub == "localize":
        report = _rows(os.path.join(out_dir, "report.csv"))
        if not report or not _rows(os.path.join(out_dir, "daily.csv")):
            problems.append("empty report or daily series")
        elif planted is not None:
            frm, to, w0, w1 = planted
            top = [row for row in report if row[0] == "1"]
            if not any(
                f"|{frm}>{to}@" in row[10] and float(row[11]) < w1 and float(row[12]) > w0
                for row in top
            ):
                problems.append(f"top report row does not name {frm}>{to} inside its window")
    elif sub == "crossval":
        rows = _rows(os.path.join(out_dir, "crossval.csv"))
        by_kind: dict[str, list[float]] = {}
        for _, kind, _, test_rmse, _ in rows:
            by_kind.setdefault(kind, []).append(float(test_rmse))
        if len(rows) != wl.folds * len(wl.kinds) or any(
            len(by_kind.get(k, ())) != wl.folds for k in wl.kinds
        ):
            problems.append(f"crossval.csv has {len(rows)} rows, want folds x kinds")
        elif not statistics.fmean(by_kind["edge"]) < statistics.fmean(by_kind["baseline1"]):
            problems.append("edge model does not beat baseline1 on test RMSE")
    return problems


def check_outputs(out_dir: str, inputs_dir: str, wl, manifest: dict) -> dict[str, list[str]]:
    """Problems found per subcommand; an unreadable output is a problem too."""
    problems = {}
    for sub in OUTPUTS:
        try:
            problems[sub] = _check_sub(sub, out_dir, inputs_dir, wl, manifest)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems[sub] = [f"unreadable output: {exc!r}"]
    return problems
