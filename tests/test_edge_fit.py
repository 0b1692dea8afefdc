"""The closed-form edge fit (models.fit_edge_model) against independent oracles.

The fit is weighted least squares in slowness, solved once from per-path normal
equations; with psi > 0 (smoothed-edge) a penalty on consecutive segments joins
them. The oracles: a dense per-record least-squares solve (with penalty rows for
the smoothed fit), the c01 gradient summed over records, the SGD ascent's
weighted SSE, hand-built networks whose answer is known, and c07's congestion
days.
"""

import math

import numpy as np
import pytest

from flowanomaly import cli
from flowanomaly.core import Flows, build_network, resolve_paths
from flowanomaly.models import (
    EdgeModel,
    TrainConfig,
    expected_time,
    fit_baseline1,
    fit_edge_model,
    gradient,
    train_edge_model,
)
from flowanomaly.synth import SynthConfig, generate_network, generate_records

from conftest import flows_on, make_record, make_route
from test_acceptance import DESK, _localized_days


def corridor_set(seed):
    """A seeded network of 2-4 services sharing a corridor, and its records."""
    rng = np.random.default_rng(seed)
    stops = int(rng.integers(5, 9))
    cfg = SynthConfig(n_services=int(rng.integers(2, 5)), stops_per_service=stops,
                      shared_corridor_stops=int(rng.integers(2, stops - 1)),
                      n_records=int(rng.integers(300, 900)), noise_sigma2=0.05, seed=seed)
    truth = generate_network(cfg)
    records, _ = generate_records(truth, cfg)
    return truth.network, list(records), resolve_paths(truth.network, records)


def dense_wls(records, paths, keys, penalty=()):
    """Per-record design rows scaled by 1/sqrt(d_r), over penalty rows, by np.linalg.lstsq.

    penalty holds (i, j, weight) triples: a row weight * (e_i - e_j) with target 0.
    """
    col = {key: i for i, key in enumerate(keys)}
    design = np.zeros((len(records) + len(penalty), len(keys)))
    for row, p in enumerate(paths):
        for seg in p.segments:
            design[row, col[seg.key]] = seg.distance_m / math.sqrt(records[row].distance_m)
    for row, (i, j, weight) in enumerate(penalty, start=len(records)):
        design[row, col[i]], design[row, col[j]] = weight, -weight
    times = np.zeros(len(design))
    times[:len(records)] = [r.observed_s / math.sqrt(r.distance_m) for r in records]
    slowness, *_ = np.linalg.lstsq(design, times, rcond=None)
    return dict(zip(keys, 1.0 / slowness))


def smoothing_rows(network, records, paths, psi):
    """sqrt(mu * n_ij) per consecutive pair i, j: n_ij records cross it, and
    mu = psi * sigma2 * c0^4 from the unsmoothed fit's sigma2 and the global speed c0."""
    crossings = {}
    for p in paths:
        for a, b in zip(p.segments, p.segments[1:]):
            crossings[a.key, b.key] = crossings.get((a.key, b.key), 0) + 1
    flows = Flows.from_records(records, paths)
    mu = psi * fit_edge_model(network, flows)[0].sigma2 * fit_baseline1(flows).c ** 4
    return [(i, j, math.sqrt(mu * n)) for (i, j), n in crossings.items()]


def weighted_sse(model, records, paths):
    return sum((r.observed_s - expected_time(model, p, r.distance_m)) ** 2 / r.distance_m
               for r, p in zip(records, paths))


@pytest.mark.parametrize("seed", range(6))
def test_equals_dense_least_squares(seed):
    network, records, paths = corridor_set(seed)
    model, result = fit_edge_model(network, Flows.from_records(records, paths))
    assert result.unidentifiable == result.nonpositive == result.untraversed == ()
    want = dense_wls(records, paths, sorted(network.segments))
    for key, c in want.items():
        assert math.isclose(model.c_by_segment[key], c, rel_tol=1e-9), key
    resid = [r.observed_s - expected_time(model, p, r.distance_m)
             for r, p in zip(records, paths)]
    assert len(result.sse_by_epoch) == 1
    assert math.isclose(result.sse_by_epoch[0], sum(x * x for x in resid), rel_tol=1e-9)
    assert math.isclose(model.sigma2, result.sse_by_epoch[0]
                        / sum(r.distance_m for r in records), rel_tol=1e-12)
    assert not model.smoothed and model.kind == "edge"


@pytest.mark.parametrize("psi", [1e-3, 0.1])
@pytest.mark.parametrize("seed", range(6))
def test_smoothed_equals_dense_least_squares_with_penalty_rows(seed, psi):
    network, records, paths = corridor_set(seed)
    flows = Flows.from_records(records, paths)
    model, result = fit_edge_model(network, flows, psi=psi)
    assert result.unidentifiable == result.nonpositive == result.untraversed == ()
    keys = sorted(network.segments)
    want = dense_wls(records, paths, keys, smoothing_rows(network, records, paths, psi))
    for key, c in want.items():
        assert math.isclose(model.c_by_segment[key], c, rel_tol=1e-9), key
    edge, _ = fit_edge_model(network, flows)
    assert result.unsmoothed == edge  # the first solve is the edge fit, bit for bit
    assert max(abs(model.c_by_segment[k] / edge.c_by_segment[k] - 1.0) for k in keys) > 1e-6
    resid_sq = sum((r.observed_s - expected_time(model, p, r.distance_m)) ** 2
                   for r, p in zip(records, paths))
    assert result.sse_by_epoch == [pytest.approx(resid_sq, rel=1e-9)]
    assert model.sigma2 == result.sse_by_epoch[0] / sum(r.distance_m for r in records)


@pytest.mark.parametrize("seed", range(3))
def test_smoothed_edge_at_psi_zero_is_the_edge_fit(tmp_path, capsys, seed):
    rec_path, routes = tmp_path / "records.csv", tmp_path / "routes.csv"
    assert cli.run_command(["simulate", "--services", "3", "--stops", "6",
                            "--shared-corridor", "3", "--n-records", "400",
                            "--seed", str(seed), "--out-records", str(rec_path),
                            "--out-truth", str(tmp_path / "truth.csv")]) == 0
    assert cli.run_command(["infer-routes", "--records", str(rec_path),
                            "--out-routes", str(routes),
                            "--out-rejects", str(tmp_path / "rej.csv")]) == 0
    outputs = {}
    for kind, extra in (("edge", []), ("smoothed-edge", ["--psi", "0"])):
        capsys.readouterr()
        model, sse = tmp_path / f"{kind}.txt", tmp_path / f"{kind}_sse.csv"
        assert cli.run_command(["train", "--records", str(rec_path), "--routes", str(routes),
                                "--kind", kind, "--out-model", str(model),
                                "--out-sse", str(sse), *extra]) == 0
        head, *segs = model.read_text().splitlines()
        outputs[kind] = (head.split()[2], segs, sse.read_bytes(),
                         capsys.readouterr().out.replace(f"kind={kind} ", ""))
    assert outputs["edge"] == outputs["smoothed-edge"]


@pytest.mark.parametrize("seed", range(6))
def test_summed_gradient_vanishes_at_the_fit(seed):
    network, records, paths = corridor_set(seed)
    flows = Flows.from_records(records, paths)
    model, _ = fit_edge_model(network, flows)
    start = EdgeModel(dict.fromkeys(network.segments, fit_baseline1(flows).c), model.sigma2)
    cfg = TrainConfig(tau=0.0, psi=0.0)

    def summed(m):
        totals = dict.fromkeys(network.segments, 0.0)
        for r, p in zip(records, paths):
            for seg in p.segments:
                totals[seg.key] += gradient(m, r, p, seg, cfg)
        return np.array(list(totals.values()))

    at_start = np.abs(summed(start)).max()
    assert at_start > 0
    assert np.abs(summed(model)).max() <= 1e-7 * at_start


def test_weighted_sse_at_most_sgd_after_c03_epochs():
    truth = generate_network(DESK)
    records, _ = generate_records(truth, DESK)
    paths = resolve_paths(truth.network, records)
    cfg = TrainConfig(eta=0.002, tau=1e-4, epochs=30, c_min=0.1, shuffle_seed=7)
    flows = Flows.from_records(records, paths)
    sgd, _ = train_edge_model(truth.network, flows, cfg)
    closed, result = fit_edge_model(truth.network, flows)
    assert result.unidentifiable == result.nonpositive == ()
    assert weighted_sse(closed, records, paths) <= weighted_sse(sgd, records, paths)


@pytest.mark.parametrize("seed", range(6))
def test_unidentifiable_segments_are_the_dense_null_space(seed):
    # no record boards or alights at two inner stops, so each stop's incoming
    # and outgoing segments can trade time: all of them are unidentifiable
    network, records, paths = corridor_set(seed)
    inner = sorted({stop for route in network.routes.values() for stop in route.stops[1:-1]})
    dropped = set(np.random.default_rng(seed).choice(inner, size=2, replace=False).tolist())
    records, paths = map(list, zip(*[
        (r, p) for r, p in zip(records, paths)
        if r.origin not in dropped and r.destination not in dropped]))
    flows = Flows.from_records(records, paths)
    model, result = fit_edge_model(network, flows)
    keys = sorted({seg.key for p in paths for seg in p.segments})
    scale = 1.0 / np.sqrt([r.distance_m for r in records])
    design = np.zeros((len(records), len(keys)))
    for row, p in enumerate(paths):
        for seg in p.segments:
            design[row, keys.index(seg.key)] = seg.distance_m * scale[row]
    _, sv, vt = np.linalg.svd(design)
    null = vt[sv <= sv[0] * len(keys) * np.finfo(float).eps]
    assert len(null)
    want = {key for key, part in zip(keys, np.linalg.norm(null, axis=0)) if part > 1e-6}
    assert {key for key in keys if dropped & set(key)} <= want
    assert set(result.unidentifiable) == want
    assert result.nonpositive == ()

    # identifiable speeds are those of every least-squares solution
    times = np.array([r.observed_s for r in records]) * scale
    slowness = dict(zip(keys, np.linalg.lstsq(design, times, rcond=None)[0]))
    for key in set(keys) - want:
        assert math.isclose(model.c_by_segment[key], 1.0 / slowness[key], rel_tol=1e-9), key
    # the correction from the global slowness has no null-space part in the length-weighted norm
    s0 = 1.0 / fit_baseline1(flows).c
    length = np.array([network.segments[key].distance_m for key in keys])
    delta = np.array([1.0 / model.c_by_segment[key] - s0 for key in keys])
    assert np.abs(null @ (length * delta)).max() <= 1e-9 * np.linalg.norm(length * delta)


def write_inputs(tmp_path, rows, route):
    """A record file of rows and a routes file of one service s1 on route's stops."""
    rec_path, routes = tmp_path / "records.csv", tmp_path / "routes.csv"
    rec_path.write_text(
        "record_id,service_id,board_stop,alight_stop,board_time,alight_time,distance_m\n"
        + "".join(f"{r.record_id},s1,{r.origin},{r.destination},0,{r.t_end!r},"
                  f"{r.distance_m!r}\n" for r in rows))
    routes.write_text("service_id,seq,stop,cumulative_m\n" + "".join(
        f"s1,{i},{stop},{cum!r}\n" for i, (stop, cum) in enumerate(zip(*route))))
    return rec_path, routes


def train_edge(tmp_path, capsys, rows, route, kind="edge"):
    """train --kind <kind> through the CLI: its stdout lines; checks the one-row sse.csv."""
    rec_path, routes = write_inputs(tmp_path, rows, route)
    sse = tmp_path / "sse.csv"
    capsys.readouterr()
    assert cli.run_command(["train", "--records", str(rec_path), "--routes", str(routes),
                            "--kind", kind, "--out-model", str(tmp_path / "m.txt"),
                            "--out-sse", str(sse)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert len(sse.read_text().splitlines()) == 2
    return out.splitlines()


def trips(*rows):
    return [make_record(f"r{i}", "s1", o, d, 0.0, t, dist)
            for i, (o, d, t, dist) in enumerate(rows)]


def test_segments_no_trip_separates_are_unidentifiable(tmp_path, capsys):
    # every trip on a>b also crosses b>c, so only the sum of their times is known
    route = ("abcd", (0.0, 400.0, 1000.0, 1500.0))
    records = trips(("a", "c", 100.0, 1000.0), ("a", "c", 110.0, 1000.0),
                    ("c", "d", 50.0, 500.0), ("c", "d", 54.0, 500.0),
                    ("a", "c", 96.0, 1000.0))
    network = build_network([make_route("s1", *route)])
    model, result = fit_edge_model(network, flows_on(network, records))
    assert result.unidentifiable == (("a", "b"), ("b", "c"))
    assert result.nonpositive == result.untraversed == ()
    c = model.c_by_segment
    assert math.isclose(c[("a", "b")], c[("b", "c")], rel_tol=1e-12)  # one shared speed
    assert math.isclose(1000.0 / c[("a", "b")], (100.0 + 110.0 + 96.0) / 3, rel_tol=1e-12)
    assert math.isclose(500.0 / c[("c", "d")], 52.0, rel_tol=1e-12)

    out = train_edge(tmp_path, capsys, records, route)
    assert out[:5] == ["untraversed_segments=0", "unidentifiable_segments=2",
                       "unidentifiable a b", "unidentifiable b c", "nonpositive_segments=0"]
    assert out[5].startswith("trained kind=edge records=5 ")
    # one trip that boards at b separates them
    out = train_edge(tmp_path, capsys, records + trips(("b", "d", 105.0, 1100.0)), route)
    assert out[:2] == ["untraversed_segments=0", "unidentifiable_segments=0"]


def test_smoothing_separates_segments_no_trip_separates(tmp_path, capsys):
    # the penalty alone picks among the data's equally good splits of a>c: the
    # split with equal slowness, which is also the edge fit's shared speed
    route = ("abcd", (0.0, 400.0, 1000.0, 1500.0))
    records = trips(("a", "c", 100.0, 1000.0), ("a", "c", 110.0, 1000.0),
                    ("c", "d", 50.0, 500.0), ("c", "d", 54.0, 500.0),
                    ("a", "c", 96.0, 1000.0))
    network = build_network([make_route("s1", *route)])
    model, result = fit_edge_model(network, flows_on(network, records), psi=1e-3)
    assert result.unidentifiable == result.nonpositive == result.untraversed == ()
    c = model.c_by_segment
    assert math.isclose(1000.0 / c[("a", "b")], (100.0 + 110.0 + 96.0) / 3, rel_tol=1e-9)
    assert math.isclose(c[("a", "b")], c[("b", "c")], rel_tol=1e-9)
    out = train_edge(tmp_path, capsys, records, route, kind="smoothed-edge")
    assert out[:3] == ["untraversed_segments=0", "unidentifiable_segments=0",
                       "nonpositive_segments=0"]
    assert out[3].startswith("trained kind=smoothed-edge records=5 ")


def test_fit_rejects_a_negative_or_nonfinite_psi():
    network, records, paths = corridor_set(0)
    for psi in (-1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="psi"):
            fit_edge_model(network, Flows.from_records(records, paths), psi=psi)


def test_nonpositive_slowness_takes_the_global_speed(tmp_path, capsys):
    # a>c is faster than its first half a>b, so b>c gets slowness -0.1 s/m
    route = ("abc", (0.0, 500.0, 1000.0))
    records = trips(("a", "b", 100.0, 500.0), ("a", "b", 100.0, 500.0),
                    ("a", "c", 50.0, 1000.0), ("a", "c", 50.0, 1000.0))
    network = build_network([make_route("s1", *route)])
    flows = flows_on(network, records)
    model, result = fit_edge_model(network, flows)
    assert result.nonpositive == (("b", "c"),)
    assert result.unidentifiable == ()
    assert model.c_by_segment[("b", "c")] == fit_baseline1(flows).c
    assert math.isclose(model.c_by_segment[("a", "b")], 5.0, rel_tol=1e-12)
    assert model.sigma2 > 0 and math.isfinite(model.sigma2)

    out = train_edge(tmp_path, capsys, records, route)
    assert out[:4] == ["untraversed_segments=0", "unidentifiable_segments=0",
                       "nonpositive_segments=1", "nonpositive b c"]


def test_untraversed_segments_keep_the_global_speed():
    network = build_network([make_route("s1", "abc", (0.0, 500.0, 1000.0)),
                             make_route("s2", "xy", (0.0, 300.0))])
    records = [make_record("r1", "s1", "a", "c", 0.0, 100.0, 1000.0),
               make_record("r2", "s1", "a", "b", 0.0, 60.0, 500.0)]
    flows = flows_on(network, records)
    model, result = fit_edge_model(network, flows)
    assert result.untraversed == (("x", "y"),)
    assert model.c_by_segment[("x", "y")] == fit_baseline1(flows).c
    assert list(model.c_by_segment) == list(network.segments)


def test_c07_days_localize_with_the_closed_form():
    passes, details = _localized_days(closed_form=True)
    assert passes >= 9, details
