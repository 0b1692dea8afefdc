"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Fixtures are synthetic with known ground truth; every expected value is either
computed by an independent oracle in this file or planted by the generator.
"""

import filecmp
import math
import statistics
import time

import numpy as np
import pytest

from flowanomaly.anomaly import (
    DetectConfig,
    containment_counts,
    filter_significant,
    rank_anomalies,
    score,
)
from flowanomaly.cli import run_command
from flowanomaly.core import Flows, resolve_paths
from flowanomaly.evaluation import kfold
from flowanomaly.models import (
    MODEL_KINDS,
    EdgeModel,
    TrainConfig,
    expected_time,
    fit_baseline1,
    fit_baseline2,
    fit_edge_model,
    gradient,
    log_likelihood,
    train_edge_model,
)
from flowanomaly.routeinfer import infer_all_routes
from flowanomaly.synth import (
    PlantedCongestion,
    SynthConfig,
    generate_network,
    generate_records,
)

from conftest import (
    Trip,
    chain_path,
    contains,
    count_trips,
    flows_on,
    flows_straight,
    make_record,
    table_of,
)


def report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# Shared desk-scale data set: 4 services, 2000 records, heterogeneous speeds.
DESK = SynthConfig(
    n_services=4,
    stops_per_service=12,
    segment_length_range_m=(400.0, 1600.0),
    speed_range_mps=(4.0, 16.0),
    n_records=2000,
    noise_sigma2=0.02,
    seed=11,
)


@pytest.fixture(scope="module")
def desk_set():
    truth = generate_network(DESK)
    records, _ = generate_records(truth, DESK)
    paths = resolve_paths(truth.network, records)
    return truth, records, paths


def test_c01_gradient_oracle():
    """Analytic gradients match central finite differences at 1e-5."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    for case in range(100):
        smoothed = bool(case % 2)
        n = int(rng.integers(1, 6))
        nodes = [f"n{i}" for i in range(n + 1)]
        dists = rng.uniform(80.0, 900.0, size=n)
        path = chain_path(nodes, dists)
        speeds = {s.key: float(rng.uniform(0.8, 18.0)) for s in path.segments}
        model = EdgeModel(dict(speeds), float(rng.uniform(0.02, 3.0)), smoothed=smoothed)
        cfg = TrainConfig(
            tau=float(rng.choice([0.0, 1e-4, 0.05])),
            psi=float(rng.choice([1e-3, 0.1, 1.0])),
        )
        d_r = float(sum(dists))
        t_hat = expected_time(model, path, d_r) * float(rng.uniform(0.6, 1.4))
        r = make_record(record_id=f"r{case}", origin=nodes[0], destination=nodes[-1],
                        t_start=0.0, t_end=t_hat, distance_m=d_r)
        for seg in path.segments:
            analytic = gradient(model, r, path, seg, cfg)
            h = 1e-4 * model.c_by_segment[seg.key]
            hi = EdgeModel(dict(model.c_by_segment), model.sigma2, smoothed)
            hi.c_by_segment[seg.key] += h
            lo = EdgeModel(dict(model.c_by_segment), model.sigma2, smoothed)
            lo.c_by_segment[seg.key] -= h
            fd = (log_likelihood(hi, r, path, cfg)
                  - log_likelihood(lo, r, path, cfg)) / (2.0 * h)
            scale = max(abs(analytic), abs(fd))
            if scale < 1e-12:
                continue
            worst = max(worst, abs(analytic - fd) / scale)
            checked += 1
    elapsed = time.monotonic() - t0
    report(1, "gradient matches finite differences", worst <= 1e-5 and elapsed < 10.0,
           f"worst rel err {worst:.2e} over {checked} partials, {elapsed:.1f}s")


def test_c02_closed_form_estimators():
    """Baseline fits reproduce hand-computed values to 1e-12 relative."""
    def close(a, b):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)

    def rec(d, t, rid, o="a", dst="b"):
        return make_record(record_id=rid, origin=o, destination=dst,
                           t_start=0.0, t_end=t, distance_m=d)

    ok = True
    m = fit_baseline1(flows_straight([rec(100.0, 10.0, "r1"), rec(200.0, 20.0, "r2")]))
    ok &= close(m.c, 10.0) and close(m.sigma2, 0.0)
    m = fit_baseline1(flows_straight([rec(100.0, 10.0, "r1"), rec(100.0, 30.0, "r2")]))
    ok &= close(m.c, 5.0) and close(m.sigma2, 1.0)
    m = fit_baseline1(flows_straight([rec(300.0, 30.0, "r1")]))
    ok &= close(m.c, 10.0) and close(m.sigma2, 0.0)

    records = [rec(100.0, 10.0, "r1"), rec(100.0, 30.0, "r2"),
               rec(100.0, 10.0, "r3", "c", "d"), rec(100.0, 10.0, "r4", "c", "d")]
    paths = [chain_path("ab", [100.0]), chain_path("ab", [100.0]),
             chain_path("cd", [100.0]), chain_path("cd", [100.0])]
    m2 = fit_baseline2(Flows.from_records(records, paths))
    ok &= close(m2.c_by_path["a>b"], 5.0)
    ok &= close(m2.c_by_path["c>d"], 10.0)
    ok &= close(m2.sigma2, 0.5)
    report(2, "closed-form estimators exact", ok)


def test_c03_sgd_convergence(desk_set):
    """SSE halves from epoch 1 and is non-increasing in >=90% of steps."""
    truth, records, paths = desk_set
    t0 = time.monotonic()
    cfg = TrainConfig(eta=0.002, tau=1e-4, epochs=30, c_min=0.1, shuffle_seed=7)
    _, trail = train_edge_model(truth.network, Flows.from_records(records, paths), cfg)
    elapsed = time.monotonic() - t0
    sse = trail.sse_by_epoch
    pairs = list(zip(sse, sse[1:]))
    non_increasing = sum(1 for a, b in pairs if b <= a)
    ok = (sse[-1] < 0.5 * sse[0]
          and non_increasing >= math.ceil(0.9 * len(pairs))
          and elapsed < 60.0)
    report(3, "SGD convergence trend", ok,
           f"final/first {sse[-1] / sse[0]:.4f}, "
           f"non-increasing {non_increasing}/{len(pairs)}, {elapsed:.1f}s")


def test_c04_model_ordering(desk_set):
    """Mean test RMSE: edge < smoothed < baseline2 < baseline1, gap >= 20%."""
    truth, records, paths = desk_set
    t0 = time.monotonic()
    result = kfold(truth.network, Flows.from_records(records, paths), 5, list(MODEL_KINDS),
                   psi=0.005, seed=5)
    means = {kind: result.mean_test_rmse(kind) for kind in MODEL_KINDS}
    elapsed = time.monotonic() - t0
    gap = 1.0 - means["edge"] / means["baseline1"]
    per_fold = {}
    for row in result.rows:
        per_fold.setdefault(row.fold, {})[row.kind] = row.test_rmse
    ordered_folds = sum(
        1 for m in per_fold.values()
        if m["edge"] < m["smoothed-edge"] < m["baseline2"] < m["baseline1"]
    )
    ok = (means["edge"] < means["smoothed-edge"] < means["baseline2"]
          < means["baseline1"] and gap >= 0.20 and ordered_folds >= 4
          and elapsed < 300.0)
    report(4, "cross-validated model ordering", ok,
           f"edge {means['edge']:.2f} < smoothed {means['smoothed-edge']:.2f} "
           f"< b2 {means['baseline2']:.2f} < b1 {means['baseline1']:.2f}, "
           f"gap {gap:.0%}, ordered folds {ordered_folds}/5, {elapsed:.0f}s")


def test_c05_speed_recovery(desk_set):
    """Planted speeds recovered within 10% wherever >=200 records pass."""
    truth, records, paths = desk_set
    cfg = TrainConfig(eta=0.002, tau=1e-4, epochs=120, c_min=0.1, shuffle_seed=7)
    model, _ = train_edge_model(truth.network, Flows.from_records(records, paths), cfg)
    traffic = {}
    for p in paths:
        for s in p.segments:
            traffic[s.key] = traffic.get(s.key, 0) + 1
    errors = {
        key: abs(model.c_by_segment[key] - want) / want
        for key, want in truth.true_speed.items()
        if traffic.get(key, 0) >= 200
    }
    worst = max(errors.values())
    report(5, "planted speed recovery", bool(errors) and worst <= 0.10,
           f"worst rel err {worst:.3f} over {len(errors)} segments")


ROUTE_NODES = "ABCDEFGHIJKL"


def _random_scored(rng, n):
    out = []
    for i in range(n):
        a, b = sorted(rng.choice(len(ROUTE_NODES), size=2, replace=False))
        t0 = float(rng.uniform(0.0, 20000.0))
        t1 = t0 + float(rng.uniform(30.0, 9000.0))
        nodes = ROUTE_NODES[a : b + 1]
        path = chain_path(nodes, [100.0] * (b - a))
        r = make_record(record_id=f"x{i}", origin=nodes[0], destination=nodes[-1],
                        t_start=t0, t_end=t1, distance_m=100.0 * (b - a))
        out.append(Trip(r, path, float(rng.normal())))
    return out


def _oracle_counts(filtered):
    counts = {}
    for inner in filtered:
        key_in = "|" + "|".join(inner.path.nodes) + "|"
        n = 0
        for outer in filtered:
            if outer is inner:
                continue
            if (outer.record.t_start < inner.record.t_start
                    and outer.record.t_end > inner.record.t_end
                    and key_in in "|" + "|".join(outer.path.nodes) + "|"):
                n += 1
        counts[inner.record.record_id] = n
    return counts


def test_c06_containment_oracle():
    """containment_counts equals brute force; relation is a strict partial order."""
    rng = np.random.default_rng(606)
    t0 = time.monotonic()
    sizes = list(rng.integers(40, 501, size=20))
    all_equal = True
    for n in sizes:
        filtered = _random_scored(rng, int(n))
        all_equal &= count_trips(filtered) == _oracle_counts(filtered)

    pool = _random_scored(rng, 400)
    irreflexive = all(not contains(s, s) for s in pool)
    antisymmetric = True
    transitive = True
    idx = rng.integers(0, len(pool), size=(10000, 3))
    for i, j, k in idx:
        a, b, c = pool[int(i)], pool[int(j)], pool[int(k)]
        if a is not b and contains(a, b) and contains(b, a):
            antisymmetric = False
        if contains(a, b) and contains(b, c) and not contains(a, c):
            transitive = False
    elapsed = time.monotonic() - t0
    ok = all_equal and irreflexive and antisymmetric and transitive
    report(6, "containment counts vs brute force + partial order", ok,
           f"20 sets up to 500, 10000 triples, {elapsed:.0f}s")


CRIT7_PLANT = ("s00n03", "s00n04")
CRIT7_W0, CRIT7_W1 = 43200.0, 50400.0


def _interval_jaccard(a0, a1, b0, b1):
    inter = max(0.0, min(a1, b1) - max(a0, b0))
    union = max(a1, b1) - min(a0, b0)
    return inter / union if union > 0 else 0.0


def _run_congestion_day(seed, n_records=6000, planted=True, day_start=0.0,
                        closed_form=False):
    cong = None
    if planted:
        cong = PlantedCongestion(CRIT7_PLANT[0], CRIT7_PLANT[1],
                                 day_start + CRIT7_W0, day_start + CRIT7_W1, 3.0)
    cfg = SynthConfig(
        n_services=2,
        stops_per_service=8,
        segment_length_range_m=(5000.0, 5900.0),
        speed_range_mps=(3.2, 3.5),
        n_records=n_records,
        noise_sigma2=0.01,
        congestion=cong,
        seed=seed,
        day_start_s=day_start,
    )
    truth = generate_network(cfg)
    records, _ = generate_records(truth, cfg)
    flows = flows_on(truth.network, records)
    if closed_form:
        model, _ = fit_edge_model(truth.network, flows)
    else:
        tcfg = TrainConfig(eta=0.002, tau=1e-4, epochs=30, c_min=0.1, shuffle_seed=7)
        model, _ = train_edge_model(truth.network, flows, tcfg)
    expected, alphas = score(model, flows)
    significant, _ = filter_significant(alphas, DetectConfig(delta_quantile=0.01))
    counts = containment_counts(flows, significant)
    reports = rank_anomalies(flows, significant, alphas, expected)
    return truth, [alphas[i] for i in significant], counts, reports


def _localized_days(closed_form=False):
    """How many of c07's 10 days rank the planted segment first, with per-day detail."""
    passes = 0
    details = []
    for seed in range(100, 110):
        t0 = time.monotonic()
        _, _, _, reports = _run_congestion_day(seed, closed_form=closed_form)
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"seed {seed} took {elapsed:.0f}s"
        top = reports[0]
        windows = [(w0, w1) for seg, w0, w1 in top.congested_segments
                   if seg.key == CRIT7_PLANT]
        if windows:
            env = (min(w[0] for w in windows), max(w[1] for w in windows))
            j = _interval_jaccard(env[0], env[1], CRIT7_W0, CRIT7_W1)
            passes += j >= 0.5
            details.append(f"{j:.2f}")
        else:
            details.append("miss")
    return passes, details


def test_c07_localization_end_to_end():
    """Top-ranked report names the planted segment with an overlapping window."""
    passes, details = _localized_days()
    report(7, "planted congestion localized", passes >= 9,
           f"{passes}/10 seeds, jaccard [{' '.join(details)}]")


def test_c08_day_ranking_by_containment():
    """Mean containment count ranks all 3 planted days in the top 3."""
    planted_days = {2, 5, 7}
    count_means = {}
    alpha_means = {}
    for day in range(10):
        day_start = day * 86400.0
        _, significant_alphas, counts, _ = _run_congestion_day(
            500 + day, n_records=1500, planted=(day in planted_days),
            day_start=day_start)
        count_means[day] = statistics.fmean(counts.values())
        alpha_means[day] = statistics.fmean(significant_alphas)
    top3_count = set(sorted(count_means, key=count_means.get, reverse=True)[:3])
    top3_alpha = sorted(alpha_means, key=alpha_means.get, reverse=True)[:3]
    ok = top3_count == planted_days
    report(8, "day ranking by mean containment", ok,
           f"top3 by count {sorted(top3_count)}, planted {sorted(planted_days)}; "
           f"top3 by alpha {sorted(top3_alpha)} (reported, not required)")


def test_c09_route_inference_round_trip():
    """Noise-free covering records recover every route; injected cycle breaks one."""
    cfg = SynthConfig(n_services=5, stops_per_service=7, n_records=0, seed=909)
    truth = generate_network(cfg)
    records = []
    n = 0
    for route in truth.network.routes.values():
        stops, cums = route.stops, route.cumulative_m
        pairs = [(i, i + 1) for i in range(len(stops) - 1)]
        pairs += [(0, len(stops) - 1), (1, len(stops) - 2)]
        for i, j in pairs:
            records.append(make_record(
                record_id=f"r{n}", service_id=route.service_id, origin=stops[i],
                destination=stops[j], t_start=0.0,
                t_end=(cums[j] - cums[i]) / 8.0, distance_m=cums[j] - cums[i]))
            n += 1
    outcome = infer_all_routes(table_of(records))
    exact = not outcome.rejected and set(outcome.accepted) == set(truth.network.routes)
    for service_id, route in truth.network.routes.items():
        got = outcome.accepted[service_id]
        exact &= got.stops == route.stops
        exact &= all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
                     for a, b in zip(got.cumulative_m, route.cumulative_m))

    # inject one cycle-sum violation into two chosen services
    broken = sorted(truth.network.routes)[:2]
    for service_id in broken:
        route = truth.network.routes[service_id]
        d = route.cumulative_m[2] - route.cumulative_m[0]
        records.append(make_record(
            record_id=f"bad_{service_id}", service_id=service_id,
            origin=route.stops[0], destination=route.stops[2],
            t_start=0.0, t_end=(d + 50.0) / 8.0, distance_m=d + 50.0))
    outcome2 = infer_all_routes(table_of(records))
    rejection = set(outcome2.rejected) == set(broken)
    rejection &= set(outcome2.accepted) == set(truth.network.routes) - set(broken)
    report(9, "route inference round trip + rejection", exact and rejection,
           f"{len(truth.network.routes)} routes, {len(broken)} injected violations")


def _pipeline(tmp_path, tag):
    base = tmp_path / tag
    base.mkdir()
    paths = {
        "records": base / "records.csv",
        "truth": base / "truth.csv",
        "routes": base / "routes.csv",
        "rejects": base / "rejects.csv",
        "model": base / "model.txt",
        "sse": base / "sse.csv",
        "scored": base / "scored.csv",
        "report": base / "report.csv",
        "daily": base / "daily.csv",
    }
    argv_sets = [
        ["simulate", "--out-records", str(paths["records"]),
         "--out-truth", str(paths["truth"]), "--services", "2", "--stops", "6",
         "--seg-len-min", "4000", "--seg-len-max", "6000",
         "--speed-min", "3.0", "--speed-max", "4.0",
         "--n-records", "800", "--noise-sigma2", "0.01", "--seed", "77",
         "--congest-index", "2", "--congest-start", "43200",
         "--congest-end", "50400", "--congest-factor", "3"],
        ["infer-routes", "--records", str(paths["records"]),
         "--out-routes", str(paths["routes"]), "--out-rejects", str(paths["rejects"])],
        ["train", "--records", str(paths["records"]), "--routes", str(paths["routes"]),
         "--kind", "edge", "--eta", "0.002", "--epochs", "10",
         "--shuffle-seed", "7", "--out-model", str(paths["model"]),
         "--out-sse", str(paths["sse"])],
        ["detect", "--records", str(paths["records"]), "--routes", str(paths["routes"]),
         "--model", str(paths["model"]), "--out", str(paths["scored"]),
         "--delta-quantile", "0.01"],
        ["localize", "--scored", str(paths["scored"]), "--routes", str(paths["routes"]),
         "--out-report", str(paths["report"]), "--out-daily", str(paths["daily"])],
    ]
    for argv in argv_sets:
        assert run_command(argv) == 0, f"pipeline step failed: {argv[0]}"
    return paths


def test_c10_pipeline_determinism(tmp_path, capsys):
    """Two identically seeded pipeline runs produce byte-identical files."""
    first = _pipeline(tmp_path, "one")
    second = _pipeline(tmp_path, "two")
    capsys.readouterr()
    identical = all(
        filecmp.cmp(str(first[k]), str(second[k]), shallow=False) for k in first
    )
    # the planted-congestion pipeline must also localize what it planted
    planted = None
    for ln in first["truth"].read_text().splitlines()[1:]:
        parts = ln.split(",")
        if parts[3]:
            planted = f"{parts[0]}>{parts[1]}@"
    top_rows = [ln for ln in first["report"].read_text().splitlines()[1:]
                if ln.split(",")[0] == "1"]
    named = planted is not None and any(planted in ln for ln in top_rows)
    report(10, "pipeline byte determinism", identical and named,
           f"{len(first)} files compared, top report names planted segment: {named}")
