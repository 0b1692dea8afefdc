import io
import math
import random
from unittest import mock

import numpy as np
import pytest

from flowanomaly import models
from flowanomaly.anomaly import score
from flowanomaly.core import Flows, build_network, left_sum
from flowanomaly.errors import (
    EmptyInput,
    MissingSegmentSpeed,
    NonPositiveVariance,
    SegmentNotOnPath,
)
from flowanomaly.evaluation import CrossValResult, TrialRow, rmse
from flowanomaly.models import (
    SIGMA2_FLOOR,
    Baseline1Model,
    Baseline2Model,
    EdgeModel,
    TrainConfig,
    estimate_variance,
    expected_time,
    fit_baseline1,
    fit_baseline2,
    gradient,
    init_edge_model,
    load_model,
    log_likelihood,
    path_key,
    save_model,
    sgd_epoch,
    sse,
    train_edge_model,
)
from flowanomaly.synth import SynthConfig, SynthTruth, generate_network, generate_records
from flowanomaly.core import resolve_paths

from conftest import chain_path, flows_on, flows_straight, make_record, make_route


def rec(d, t_hat, rid="r1", origin="a", destination="b", service="s1", t0=0.0):
    return make_record(
        record_id=rid, service_id=service, origin=origin, destination=destination,
        t_start=t0, t_end=t0 + t_hat, distance_m=d,
    )


def two_speed_truth():
    """Hand-built line a->b->c, 1000 m per segment, speeds 10 and 5 m/s."""
    net = build_network([make_route("s1", "abc", (0.0, 1000.0, 2000.0))])
    return SynthTruth(
        network=net,
        true_speed={("a", "b"): 10.0, ("b", "c"): 5.0},
        congestion=None,
    )


class TestBaseline1:
    def test_zero_residual(self):
        m = fit_baseline1(flows_straight([rec(100.0, 10.0), rec(200.0, 20.0, "r2")]))
        assert m.c == 10.0
        assert m.sigma2 == 0.0

    def test_hand_computed(self):
        m = fit_baseline1(flows_straight([rec(100.0, 10.0), rec(100.0, 30.0, "r2")]))
        assert math.isclose(m.c, 5.0, rel_tol=1e-12)
        assert math.isclose(m.sigma2, 1.0, rel_tol=1e-12)

    def test_single_record(self):
        m = fit_baseline1(flows_straight([rec(300.0, 30.0)]))
        assert m.c == 10.0
        assert m.sigma2 == 0.0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            fit_baseline1(flows_straight([]))


class TestBaseline2:
    def test_zero_residual_per_path(self):
        records = [rec(100.0, 10.0), rec(100.0, 25.0, "r2", "c", "d")]
        paths = [chain_path("ab", [100.0]), chain_path("cd", [100.0])]
        m = fit_baseline2(Flows.from_records(records, paths))
        assert m.sigma2 == 0.0
        assert math.isclose(m.c_by_path["a>b"], 10.0, rel_tol=1e-12)
        assert math.isclose(m.c_by_path["c>d"], 4.0, rel_tol=1e-12)

    def test_hand_computed_pooled_variance(self):
        records = [
            rec(100.0, 10.0),
            rec(100.0, 30.0, "r2"),
            rec(100.0, 10.0, "r3", "c", "d"),
            rec(100.0, 10.0, "r4", "c", "d"),
        ]
        paths = [
            chain_path("ab", [100.0]),
            chain_path("ab", [100.0]),
            chain_path("cd", [100.0]),
            chain_path("cd", [100.0]),
        ]
        m = fit_baseline2(Flows.from_records(records, paths))
        assert math.isclose(m.c_by_path["a>b"], 5.0, rel_tol=1e-12)
        assert math.isclose(m.c_by_path["c>d"], 10.0, rel_tol=1e-12)
        assert math.isclose(m.sigma2, 0.5, rel_tol=1e-12)

    def test_single_path_degenerates_to_baseline1(self):
        records = [rec(100.0, 10.0), rec(100.0, 30.0, "r2")]
        paths = [chain_path("ab", [100.0])] * 2
        m = fit_baseline2(Flows.from_records(records, paths))
        b1 = fit_baseline1(Flows.from_records(records, paths))
        assert math.isclose(m.c_by_path["a>b"], b1.c, rel_tol=1e-12)

    def test_unseen_path_uses_fallback(self):
        records = [rec(100.0, 10.0)]
        paths = [chain_path("ab", [100.0])]
        m = fit_baseline2(Flows.from_records(records, paths))
        other = chain_path("xy", [100.0])
        assert expected_time(m, other, 100.0) == 100.0 / m.fallback_c

    def test_empty(self):
        with pytest.raises(EmptyInput):
            fit_baseline2(Flows.from_records([], []))


class TestExpectedTime:
    def test_edge_hand_sum(self):
        model = EdgeModel({("A", "B"): 10.0, ("B", "C"): 20.0}, sigma2=1.0)
        path = chain_path("ABC", [100.0, 200.0])
        assert math.isclose(expected_time(model, path, 300.0), 20.0, rel_tol=1e-12)

    def test_single_segment_unit(self):
        model = EdgeModel({("A", "B"): 5.0}, sigma2=1.0)
        assert expected_time(model, chain_path("AB", [5.0]), 5.0) == 1.0

    def test_baseline1(self):
        assert expected_time(Baseline1Model(10.0, 0.0), chain_path("AB", [300.0]), 300.0) == 30.0

    def test_missing_segment_speed(self):
        model = EdgeModel({("A", "B"): 10.0}, sigma2=1.0)
        with pytest.raises(MissingSegmentSpeed):
            expected_time(model, chain_path("BC", [100.0]), 100.0)


class TestLogLikelihood:
    def test_zero_residual_no_barrier(self):
        model = EdgeModel({("a", "b"): 10.0}, sigma2=0.5)
        path = chain_path("ab", [100.0])
        r = rec(100.0, 10.0)
        cfg = TrainConfig(tau=0.0)
        want = -0.5 * math.log(100.0 * 0.5)
        assert math.isclose(log_likelihood(model, r, path, cfg), want, rel_tol=1e-12)

    def test_smoothing_vanishes_on_equal_speeds(self):
        speeds = {("a", "b"): 7.0, ("b", "c"): 7.0}
        path = chain_path("abc", [100.0, 100.0])
        r = rec(200.0, 33.0)
        plain = log_likelihood(EdgeModel(dict(speeds), 1.0), r, path, TrainConfig(tau=0.0, psi=5.0))
        smooth = log_likelihood(
            EdgeModel(dict(speeds), 1.0, smoothed=True), r, path, TrainConfig(tau=0.0, psi=5.0)
        )
        assert plain == smooth

    def test_barrier_hand_value(self):
        # residual 0, tau=1, single segment with c=e and d*sigma2=1 -> L = 1
        model = EdgeModel({("a", "b"): math.e}, sigma2=0.25)
        path = chain_path("ab", [4.0])
        r = rec(4.0, 4.0 / math.e)
        cfg = TrainConfig(tau=1.0)
        assert math.isclose(log_likelihood(model, r, path, cfg), 1.0, rel_tol=1e-12)

    def test_nonpositive_variance(self):
        model = EdgeModel({("a", "b"): 10.0}, sigma2=0.0)
        with pytest.raises(NonPositiveVariance):
            log_likelihood(model, rec(100.0, 10.0), chain_path("ab", [100.0]), TrainConfig())


class TestGradient:
    def test_zero_residual_zero_tau(self):
        model = EdgeModel({("a", "b"): 10.0}, sigma2=0.5)
        path = chain_path("ab", [100.0])
        g = gradient(model, rec(100.0, 10.0), path, ("a", "b"), TrainConfig(tau=0.0))
        assert g == 0.0

    def test_barrier_only(self):
        model = EdgeModel({("a", "b"): 2.0}, sigma2=0.5)
        path = chain_path("ab", [100.0])
        g = gradient(model, rec(100.0, 50.0), path, ("a", "b"), TrainConfig(tau=1.0))
        assert math.isclose(g, 0.5, rel_tol=1e-12)

    def test_segment_not_on_path(self):
        model = EdgeModel({("a", "b"): 2.0}, sigma2=0.5)
        with pytest.raises(SegmentNotOnPath):
            gradient(model, rec(100.0, 50.0), chain_path("ab", [100.0]), ("x", "y"), TrainConfig())

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        cfg = TrainConfig(tau=0.01, psi=0.5)
        for smoothed in (False, True):
            for _ in range(20):
                n = int(rng.integers(1, 5))
                nodes = [f"n{i}" for i in range(n + 1)]
                dists = rng.uniform(50.0, 500.0, size=n)
                path = chain_path(nodes, dists)
                speeds = {s.key: float(rng.uniform(1.0, 15.0)) for s in path.segments}
                model = EdgeModel(dict(speeds), float(rng.uniform(0.05, 2.0)), smoothed=smoothed)
                d_r = float(sum(dists))
                t_hat = expected_time(model, path, d_r) * float(rng.uniform(0.7, 1.3))
                r = rec(d_r, t_hat, origin=nodes[0], destination=nodes[-1])
                for seg in path.segments:
                    got = gradient(model, r, path, seg, cfg)
                    h = 1e-4 * model.c_by_segment[seg.key]
                    hi = EdgeModel(dict(model.c_by_segment), model.sigma2, smoothed)
                    hi.c_by_segment[seg.key] += h
                    lo = EdgeModel(dict(model.c_by_segment), model.sigma2, smoothed)
                    lo.c_by_segment[seg.key] -= h
                    fd = (
                        log_likelihood(hi, r, path, cfg) - log_likelihood(lo, r, path, cfg)
                    ) / (2.0 * h)
                    assert abs(got - fd) <= 1e-5 * max(abs(got), abs(fd), 1e-9)


class TestInitAndVariance:
    def test_init_from_global_fit(self, line_network):
        records = [rec(100.0, 12.5, "r1", "a", "b"), rec(200.0, 25.0, "r2", "a", "c")]
        flows = flows_on(line_network, records)
        model = init_edge_model(line_network, flows)
        b1 = fit_baseline1(flows)
        assert set(model.c_by_segment) == set(line_network.segments)
        assert all(v == b1.c for v in model.c_by_segment.values())
        assert model.sigma2 == b1.sigma2

    def test_empty_records(self, line_network):
        with pytest.raises(EmptyInput):
            init_edge_model(line_network, flows_on(line_network, []))

    def test_estimate_variance_zero(self):
        model = EdgeModel({("a", "b"): 10.0}, sigma2=1.0)
        paths = [chain_path("ab", [100.0])]
        assert estimate_variance(model, Flows.from_records([rec(100.0, 10.0)], paths)) == 0.0

    def test_estimate_variance_hand(self):
        model = EdgeModel({("a", "b"): 10.0}, sigma2=1.0)
        paths = [chain_path("ab", [100.0])] * 2
        records = [rec(100.0, 20.0), rec(100.0, 0.5, "r2")]
        # residuals +10 and -9.5 -> (100 + 90.25) / 200
        want = (100.0 + 90.25) / 200.0
        assert math.isclose(estimate_variance(model, Flows.from_records(records, paths)), want, rel_tol=1e-12)

    def test_doubling_distance_halves_variance(self):
        model = EdgeModel({("a", "b"): 10.0, ("x", "y"): 10.0}, sigma2=1.0)
        r1 = [rec(100.0, 20.0)]
        p1 = [chain_path("ab", [100.0])]
        r2 = [rec(200.0, 30.0, origin="x", destination="y")]  # residual +10 again
        p2 = [chain_path("xy", [200.0])]
        v1 = estimate_variance(model, Flows.from_records(r1, p1))
        v2 = estimate_variance(model, Flows.from_records(r2, p2))
        assert math.isclose(v2, v1 / 2.0, rel_tol=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            estimate_variance(EdgeModel({}, 1.0), Flows.from_records([], []))


class TestRecordListWithoutPaths:
    """A FlowRecord list passed in place of its Flows is one ValueError, not an AttributeError."""

    @pytest.mark.parametrize("call", [
        lambda m, records: fit_baseline2(records),
        lambda m, records: sse(m, records),
        lambda m, records: estimate_variance(m, records),
        lambda m, records: rmse(m, records),
    ], ids=["fit_baseline2", "sse", "estimate_variance", "rmse"])
    def test_names_the_missing_paths(self, call):
        model = EdgeModel({("a", "b"): 10.0}, sigma2=1.0)
        with pytest.raises(ValueError, match="a record list needs its paths"):
            call(model, [rec(100.0, 10.0)])


class TestRecordsAndPaths:
    """Records and paths that are not parallel are one ValueError, not a TypeError."""

    @pytest.mark.parametrize("n_paths", [0, 1, 3], ids=["paths-left-out", "fewer", "more"])
    def test_non_parallel_is_one_value_error(self, n_paths):
        records = [rec(100.0, 10.0), rec(100.0, 12.0, "r2")]
        with pytest.raises(ValueError, match="records and paths must be parallel"):
            Flows.from_records(records, [chain_path("ab", [100.0])] * n_paths)


class TestSgdEpoch:
    def test_noiseless_fixed_point(self):
        truth = two_speed_truth()
        net = truth.network
        records = [
            rec(1000.0, 100.0, "r1", "a", "b"),
            rec(1000.0, 200.0, "r2", "b", "c"),
            rec(2000.0, 300.0, "r3", "a", "c"),
        ]
        model = EdgeModel({("a", "b"): 10.0, ("b", "c"): 5.0}, sigma2=0.0)
        cfg = TrainConfig(tau=0.0, eta=0.01)
        before = dict(model.c_by_segment)
        model, sse = sgd_epoch(model, flows_on(net, records), cfg)
        assert model.c_by_segment == before
        assert sse == 0.0

    def test_determinism(self):
        truth = two_speed_truth()
        cfg = SynthConfig(n_services=1, stops_per_service=3, n_records=400,
                          noise_sigma2=0.01, seed=5)
        records, _ = generate_records(truth, cfg)
        flows = flows_on(truth.network, records)
        tcfg = TrainConfig(eta=0.005, epochs=1, shuffle_seed=3)
        m1 = init_edge_model(truth.network, flows)
        m2 = init_edge_model(truth.network, flows)
        m1, s1 = sgd_epoch(m1, flows, tcfg, epoch=4)
        m2, s2 = sgd_epoch(m2, flows, tcfg, epoch=4)
        assert m1.c_by_segment == m2.c_by_segment
        assert s1 == s2
        assert m1.sigma2 == m2.sigma2

    def test_two_speed_recovery(self):
        truth = two_speed_truth()
        cfg = SynthConfig(n_services=1, stops_per_service=3, n_records=2000,
                          noise_sigma2=0.01, seed=5)
        records, _ = generate_records(truth, cfg)
        tcfg = TrainConfig(eta=0.005, tau=1e-4, epochs=20, c_min=0.1, shuffle_seed=3)
        model, trail = train_edge_model(truth.network, flows_on(truth.network, records), tcfg)
        for key, want in truth.true_speed.items():
            assert abs(model.c_by_segment[key] - want) / want < 0.10

    def test_positivity_with_aggressive_steps(self):
        truth = two_speed_truth()
        cfg = SynthConfig(n_services=1, stops_per_service=3, n_records=300,
                          noise_sigma2=0.2, seed=8)
        records, _ = generate_records(truth, cfg)
        tcfg = TrainConfig(eta=0.5, tau=1e-3, epochs=10, c_min=0.1, shuffle_seed=1)
        model, _ = train_edge_model(truth.network, flows_on(truth.network, records), tcfg)
        assert all(v >= tcfg.c_min for v in model.c_by_segment.values())

    def test_untraversed_segment_flagged_and_frozen(self):
        net = build_network([
            make_route("s1", "abc", (0.0, 1000.0, 2000.0)),
            make_route("s2", "xy", (0.0, 500.0)),
        ])
        records = [rec(1000.0, 100.0, f"r{i}", "a", "b") for i in range(20)]
        records += [rec(1000.0, 150.0, f"q{i}", "b", "c") for i in range(20)]
        tcfg = TrainConfig(eta=0.01, tau=0.0, epochs=3, shuffle_seed=2)
        flows = flows_on(net, records)
        model, trail = train_edge_model(net, flows, tcfg)
        assert trail.untraversed == (("x", "y"),)
        b1 = fit_baseline1(flows)
        assert model.c_by_segment[("x", "y")] == b1.c

    def test_smoothing_never_improves_training_sse(self):
        # needs near-converged runs: far from the optimum, psi also damps the
        # SGD oscillation, which can mask the fit penalty
        truth = two_speed_truth()
        cfg = SynthConfig(n_services=1, stops_per_service=3, n_records=1500,
                          noise_sigma2=0.01, seed=5)
        records, _ = generate_records(truth, cfg)
        flows = flows_on(truth.network, records)
        finals = []
        for psi in (0.0, 1e-2, 5e-2, 1e-1, 3e-1):
            tcfg = TrainConfig(eta=0.002, tau=1e-4, psi=psi, epochs=100, shuffle_seed=3)
            _, trail = train_edge_model(truth.network, flows, tcfg, smoothed=True)
            finals.append(trail.sse_by_epoch[-1])
        for a, b in zip(finals, finals[1:]):
            assert b >= a * (1.0 - 1e-9)

    def test_degeneracy_chain_single_segment(self):
        net = build_network([make_route("s1", "ab", (0.0, 1000.0))])
        records = [rec(1000.0, 95.0, "r1"), rec(1000.0, 105.0, "r2")]
        flows = flows_on(net, records)
        b1 = fit_baseline1(flows)
        b2 = fit_baseline2(flows)
        tcfg = TrainConfig(eta=1e-6, tau=0.0, epochs=5, shuffle_seed=0)
        edge, _ = train_edge_model(net, flows, tcfg)
        c_edge = edge.c_by_segment[("a", "b")]
        assert math.isclose(b1.c, b2.c_by_path["a>b"], rel_tol=1e-12)
        assert math.isclose(c_edge, b1.c, rel_tol=1e-6)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["eta", "tau", "psi", "c_min"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("c_min", [1e-170, 0.0, -1.0])
    def test_c_min_whose_square_underflows_rejected(self, c_min):
        with pytest.raises(ValueError, match="c_min"):
            TrainConfig(c_min=c_min)


class TestSgdSharesKernels:
    """sgd_epoch applies gradient()'s partials and reports sse()/estimate_variance()."""

    @pytest.mark.parametrize("smoothed", [False, True])
    def test_single_record_step_is_eta_times_gradient(self, smoothed):
        path = chain_path("abcd", [300.0, 500.0, 400.0])
        net = build_network([make_route("s1", "abcd", (0.0, 300.0, 800.0, 1200.0))])
        before = EdgeModel({("a", "b"): 6.0, ("b", "c"): 9.0, ("c", "d"): 4.0},
                           sigma2=0.7, smoothed=smoothed)
        r = rec(1200.0, 260.0, origin="a", destination="d")
        cfg = TrainConfig(eta=0.01, tau=0.05, psi=0.3, c_min=0.1)
        want = {
            seg.key: before.c_by_segment[seg.key] + cfg.eta * gradient(before, r, path, seg, cfg)
            for seg in path.segments
        }
        model = EdgeModel(dict(before.c_by_segment), before.sigma2, smoothed)
        model, _ = sgd_epoch(model, flows_on(net, [r]), cfg)
        assert model.c_by_segment == want
        assert want != before.c_by_segment

    @pytest.mark.parametrize("refresh", [False, True])
    def test_returned_sse_and_sigma2_match_the_estimators(self, refresh):
        truth = two_speed_truth()
        scfg = SynthConfig(n_services=1, stops_per_service=3, n_records=200,
                           noise_sigma2=0.05, seed=11)
        records, _ = generate_records(truth, scfg)
        flows = flows_on(truth.network, records)
        tcfg = TrainConfig(eta=0.005, shuffle_seed=2, variance_refresh=refresh)
        model = init_edge_model(truth.network, flows)
        sigma2_before = model.sigma2
        model, got = sgd_epoch(model, flows, tcfg, epoch=1)
        assert got == sse(model, flows)
        if refresh:
            assert model.sigma2 == estimate_variance(model, flows)
        else:
            assert model.sigma2 == sigma2_before


def oracle_sgd_epoch(model, records, paths, cfg, epoch=0):
    """The dict-keyed per-record epoch the columnar trainer replaced, as its reference.

    Returns the model, the post-epoch SSE and the number of c_min clamps.
    """
    rng = np.random.default_rng((cfg.shuffle_seed, epoch))
    order = rng.permutation(len(records)) if model.sigma2 >= SIGMA2_FLOOR else ()
    speeds = model.c_by_segment
    psi = cfg.psi if model.smoothed else 0.0
    clamps = 0
    for idx in order:
        r = records[idx]
        segs = paths[idx].segments
        segment_speeds = []
        expect = 0.0
        for seg in segs:
            c = speeds.get(seg.key)
            if c is None:
                raise MissingSegmentSpeed(seg.from_node, seg.to_node)
            segment_speeds.append(c)
            expect += seg.distance_m / c
        base = (r.observed_s - expect) / (r.distance_m * model.sigma2)
        grads = []
        for i, seg in enumerate(segs):
            c = segment_speeds[i]
            grad = -base * seg.distance_m / (c * c) + cfg.tau / c
            if psi:
                if i + 1 < len(segs):
                    grad -= psi * (c - segment_speeds[i + 1])
                if i > 0:
                    grad += psi * (segment_speeds[i - 1] - c)
            grads.append(grad)
        for seg, c, grad in zip(segs, segment_speeds, grads):
            updated = c + cfg.eta * grad
            clamps += not updated > cfg.c_min
            speeds[seg.key] = updated if updated > cfg.c_min else cfg.c_min
    resid_sq = 0.0
    total_d = 0.0
    for r, p in zip(records, paths):
        resid_sq += (r.observed_s - expected_time(model, p, r.distance_m)) ** 2
        total_d += r.distance_m
    if cfg.variance_refresh:
        model.sigma2 = resid_sq / total_d
    return model, resid_sq, clamps


def oracle_train(net, records, cfg, smoothed):
    paths = resolve_paths(net, records)
    model = init_edge_model(net, Flows.from_records(records, paths), smoothed=smoothed)
    trail, clamps = [], 0
    for epoch in range(cfg.epochs):
        model, sse_value, n = oracle_sgd_epoch(model, records, paths, cfg, epoch)
        trail.append(sse_value)
        clamps += n
    covered = {seg.key for p in paths for seg in p.segments}
    return model, trail, tuple(sorted(set(net.segments) - covered)), clamps


def corridor_set(n_records=600, seed=3, spare_route=False):
    """Three services sharing a 4-stop corridor, so equal stretches are distinct Paths."""
    cfg = SynthConfig(n_services=3, stops_per_service=7, shared_corridor_stops=4,
                      n_records=n_records, noise_sigma2=0.05, seed=seed)
    truth = generate_network(cfg)
    records, _ = generate_records(truth, cfg)
    net = truth.network
    if spare_route:
        net = build_network(list(net.routes.values()) + [make_route("zz", "pq", (0.0, 500.0))])
    return net, records


class TestColumnarTrainerMatchesOracle:
    """train_edge_model and sgd_epoch are bit-equal to the dict-keyed per-record loop."""

    @pytest.mark.parametrize("case", ["edge", "smoothed", "clamp", "untraversed",
                                      "no-refresh"])
    def test_train_edge_model(self, case):
        net, records = corridor_set(spare_route=(case == "untraversed"))
        smoothed = case == "smoothed"
        cfg = TrainConfig(eta=0.5 if case == "clamp" else 0.01, tau=1e-3, psi=0.05,
                          epochs=4, shuffle_seed=2, variance_refresh=(case != "no-refresh"))
        want, want_trail, want_untraversed, clamps = oracle_train(net, records, cfg, smoothed)
        got, result = train_edge_model(net, flows_on(net, records), cfg, smoothed=smoothed)
        assert got.c_by_segment == want.c_by_segment
        assert list(got.c_by_segment) == list(want.c_by_segment)
        assert got.sigma2 == want.sigma2
        assert result.sse_by_epoch == want_trail
        assert result.untraversed == want_untraversed
        assert bool(want_untraversed) == (case == "untraversed")
        assert (clamps > 0) == (case == "clamp")

    def test_equal_stretches_on_distinct_paths(self):
        net, records = corridor_set()
        paths = resolve_paths(net, records)
        by_nodes = {}
        for p in paths:
            by_nodes.setdefault(p.nodes, set()).add(id(p))
        assert any(len(ids) > 1 for ids in by_nodes.values())

    @pytest.mark.parametrize("smoothed", [False, True])
    def test_epochs_from_below_the_variance_floor(self, smoothed):
        net, records = corridor_set(n_records=300, seed=4)
        paths = resolve_paths(net, records)
        flows = Flows.from_records(records, paths)
        cfg = TrainConfig(eta=0.01, psi=0.05, shuffle_seed=1)
        want = init_edge_model(net, flows, smoothed=smoothed)
        want.sigma2 = SIGMA2_FLOOR / 2
        got = EdgeModel(dict(want.c_by_segment), want.sigma2, smoothed)
        frozen = dict(want.c_by_segment)
        for epoch in range(3):
            want, want_sse, _ = oracle_sgd_epoch(want, records, paths, cfg, epoch)
            got, got_sse = sgd_epoch(got, flows, cfg, epoch)
            assert got_sse == want_sse
            assert got.c_by_segment == want.c_by_segment
            assert got.sigma2 == want.sigma2
            if epoch == 0:
                assert got.c_by_segment == frozen
        assert got.c_by_segment != frozen

    def test_missing_speed_names_the_first_gap_in_record_order(self):
        net, records = corridor_set(n_records=200)
        paths = resolve_paths(net, records)
        flows = Flows.from_records(records, paths)
        cfg = TrainConfig()
        model = init_edge_model(net, flows)
        for key in (paths[9].segments[0].key, paths[5].segments[-1].key):
            model.c_by_segment.pop(key, None)
        with pytest.raises(MissingSegmentSpeed) as want:
            for r, p in zip(records, paths):
                expected_time(model, p, r.distance_m)
        for call in (lambda: sgd_epoch(model, flows, cfg),
                     lambda: sse(model, flows),
                     lambda: score(model, flows)):
            with pytest.raises(MissingSegmentSpeed) as got:
                call()
            assert str(got.value) == str(want.value)


def random_corridor(seed, n_records=150):
    """Two to four services through a shared corridor, with paths of 1 to 15 segments.

    Service 0 has five stops before and after the corridor, so its whole route
    is an 11- to 15-segment path; one record per service rides its whole route.
    """
    rng = random.Random(seed)
    corridor = [f"c{i}" for i in range(rng.randint(2, 6))]
    corridor_gap = [rng.uniform(50.0, 900.0) for _ in corridor[1:]]
    routes = []
    for s in range(rng.randint(2, 4)):
        n_head, n_tail = (5, 5) if s == 0 else (rng.randint(0, 5), rng.randint(0, 5))
        stops = [f"h{s}_{i}" for i in range(n_head)] + corridor
        stops += [f"t{s}_{i}" for i in range(n_tail)]
        gaps = [rng.uniform(50.0, 900.0) for _ in range(n_head)] + corridor_gap
        gaps += [rng.uniform(50.0, 900.0) for _ in range(n_tail)]
        cumulative = [0.0]
        for gap in gaps:
            cumulative.append(cumulative[-1] + gap)
        routes.append(make_route(f"s{s}", stops, cumulative))
    net = build_network(routes)
    speed = {key: rng.uniform(3.0, 15.0) for key in sorted(net.segments)}
    trips = [(route, 0, len(route.stops) - 1) for route in routes]
    for _ in range(n_records - len(trips)):
        route = rng.choice(routes)
        i, j = sorted(rng.sample(range(len(route.stops)), 2))
        trips.append((route, i, j))
    records = []
    for n, (route, i, j) in enumerate(trips):
        segs = [net.segments[a, b] for a, b in zip(route.stops[i:j], route.stops[i + 1:j + 1])]
        t_hat = left_sum(seg.distance_m / speed[seg.key] for seg in segs)
        t0 = rng.uniform(0.0, 86_400.0)
        records.append(rec(route.cumulative_m[j] - route.cumulative_m[i],
                           t_hat * rng.uniform(0.7, 1.4), f"r{n}", route.stops[i],
                           route.stops[j], route.service_id, t0))
    return net, records


def float_state(model, sse_value):
    """Speeds in key order, the SSE and sigma2, every float as hex."""
    return ([(key, c.hex()) for key, c in model.c_by_segment.items()],
            sse_value.hex(), model.sigma2.hex())


class TestInlineStepMatchesOracle:
    """sgd_epoch's inline step loop is bit-equal to oracle_sgd_epoch on random networks."""

    SEEDS = range(6)

    @pytest.mark.parametrize("smoothed", [False, True])
    @pytest.mark.parametrize("psi, tau", [(0.0, 0.0), (0.05, 1e-3)])
    @pytest.mark.parametrize("eta", [0.01, 5.0])  # 5.0 clamps at c_min
    @pytest.mark.parametrize("refresh", [True, False])
    def test_seeded_sweep(self, smoothed, psi, tau, eta, refresh):
        lengths, clamps = set(), 0
        for seed in self.SEEDS:
            net, records = random_corridor(seed)
            paths = resolve_paths(net, records)
            flows = Flows.from_records(records, paths)
            lengths.update(len(p.segments) for p in paths)
            cfg = TrainConfig(eta=eta, tau=tau, psi=psi, shuffle_seed=seed,
                              variance_refresh=refresh)
            want = init_edge_model(net, flows, smoothed=smoothed)
            if seed % 3 == 0:  # starts frozen; a refreshed sigma2 thaws it
                want.sigma2 = SIGMA2_FLOOR / 2
            got = EdgeModel(dict(want.c_by_segment), want.sigma2, smoothed)
            for epoch in range(3):
                want, want_sse, n = oracle_sgd_epoch(want, records, paths, cfg, epoch)
                got, got_sse = sgd_epoch(got, flows, cfg, epoch)
                assert float_state(got, got_sse) == float_state(want, want_sse)
                clamps += n
        assert min(lengths) == 1 and max(lengths) == 15
        assert (clamps > 0) == (eta > 1.0)

    @pytest.mark.parametrize("smoothed", [False, True])
    def test_squares_are_products(self, smoothed):
        # c ** 2 and c * c round apart for about one speed in a thousand, and only a
        # step of about half the speed carries that last bit into the result
        path = chain_path("ab", [1000.0])
        rng = np.random.default_rng(0)
        found = 0
        for c in (3.0 + 12.0 * rng.random(20_000)).tolist():
            if c ** 2 == c * c:
                continue
            r = rec(1000.0, 2000.0 / c)
            cfg = TrainConfig(eta=c ** 4 / 2000.0, tau=1e-3, psi=0.05)
            base = (r.observed_s - 1000.0 / c) / 1000.0
            if c + cfg.eta * (-base * 1000.0 / c ** 2 + cfg.tau / c) == \
                    c + cfg.eta * (-base * 1000.0 / (c * c) + cfg.tau / c):
                continue
            want, _, _ = oracle_sgd_epoch(EdgeModel({("a", "b"): c}, 1.0, smoothed), [r],
                                          [path], cfg)
            got, _ = sgd_epoch(EdgeModel({("a", "b"): c}, 1.0, smoothed),
                               Flows.from_records([r], [path]), cfg)
            assert got.c_by_segment[("a", "b")].hex() == want.c_by_segment[("a", "b")].hex()
            found += 1
        if not found:  # a correctly rounded libm pow gives c ** 2 == c * c throughout
            pytest.skip("no drawn speed whose one step tells c ** 2 from c * c")

    @pytest.mark.parametrize("smoothed, psi", [(False, 0.05), (True, 0.0), (True, 0.05)])
    def test_overflowing_step(self, smoothed, psi):
        # eta 1e308 steps a speed to inf; with psi = 0 the neighbour terms stay out
        # (psi * (inf - c) is nan), so an inf speed stays inf as in _partials
        net, records = random_corridor(2)
        paths = resolve_paths(net, records)
        flows = Flows.from_records(records, paths)
        cfg = TrainConfig(eta=1e308, tau=1e-3, psi=psi, shuffle_seed=3)
        want = init_edge_model(net, flows, smoothed=smoothed)
        got = EdgeModel(dict(want.c_by_segment), want.sigma2, smoothed)
        inf_speeds = 0
        for epoch in range(2):
            want, want_sse, _ = oracle_sgd_epoch(want, records, paths, cfg, epoch)
            got, got_sse = sgd_epoch(got, flows, cfg, epoch)
            assert float_state(got, got_sse) == float_state(want, want_sse)
            inf_speeds += sum(c == math.inf for c in got.c_by_segment.values())
        assert inf_speeds > 0

    def test_train_edge_model_passes_its_flows_each_epoch(self):
        net, records = random_corridor(1)
        cfg = TrainConfig(eta=0.01, epochs=2)
        flows = flows_on(net, records)
        with mock.patch.object(models, "sgd_epoch", wraps=models.sgd_epoch) as spy:
            train_edge_model(net, flows, cfg)
        assert spy.call_count == cfg.epochs
        want = [id(p) for p in resolve_paths(net, records)]
        for call in spy.call_args_list:
            assert call.args[1] is flows
            assert [id(p) for p in call.args[1].record_paths] == want


class TestExpectedTimesMatchPerRecordLoop:
    """score() and sse() read per-path expected times equal to expected_time per record."""

    def models(self, net, flows):
        edge, _ = train_edge_model(net, flows, TrainConfig(eta=0.01, epochs=2))
        return [edge, fit_baseline1(flows), fit_baseline2(flows)]

    def test_score_and_sse(self):
        net, records = corridor_set()
        paths = resolve_paths(net, records)
        flows = Flows.from_records(records, paths)
        for model in self.models(net, flows):
            want = [expected_time(model, p, r.distance_m) for r, p in zip(records, paths)]
            assert score(model, flows)[0] == want
            want_sse = 0.0
            for r, t in zip(records, want):
                want_sse += (r.observed_s - t) ** 2
            assert sse(model, flows) == want_sse

    def test_squares_are_pow_not_product(self):
        # x ** 2 and x * x round apart for about 1 in 1000 residuals
        ts = (100.0 + np.random.default_rng(0).random(10_000)).tolist()
        t_end = next(t for t in ts if (t - 100.0) ** 2 != (t - 100.0) * (t - 100.0))
        got = sse(Baseline1Model(1.0, 0.0),
                  Flows.from_records([rec(100.0, t_end)], [chain_path("ab", [100.0])]))
        assert got == (t_end - 100.0) ** 2


class TestLeftToRightSums:
    """Sums add left to right from 0.0; Python 3.12's compensated sum() gives 1e16 + 2."""

    DISTANCES = [1e16, 1.0, 1.0]

    @staticmethod
    def left_to_right(values):
        total = 0.0
        for v in values:
            total += v
        return total

    def test_path_distance(self):
        assert chain_path("abcd", self.DISTANCES).distance_m == 1e16

    def test_baselines(self):
        records = [rec(d, 10.0, f"r{i}") for i, d in enumerate(self.DISTANCES)]
        total_d = self.left_to_right(r.distance_m for r in records)
        assert total_d == 1e16
        c = total_d / 30.0
        want_sigma2 = self.left_to_right((10.0 - r.distance_m / c) ** 2 for r in records) / total_d
        flows = Flows.from_records(records, [chain_path("ab", [1.0])] * 3)
        b1 = fit_baseline1(flows)
        assert (b1.c, b1.sigma2) == (c, want_sigma2)
        b2 = fit_baseline2(flows)
        assert (b2.fallback_c, b2.sigma2) == (c, want_sigma2)

    def test_mean_test_rmse(self):
        rows = [TrialRow(fold=i, kind="edge", train_rmse=0.0, test_rmse=v, excluded=0)
                for i, v in enumerate(self.DISTANCES)]
        assert CrossValResult(rows).mean_test_rmse("edge") == 1e16 / 3


class TestPathKey:
    def test_same_segments_same_key(self):
        p1 = chain_path("abc", [100.0, 200.0])
        p2 = chain_path("abc", [100.0, 200.0])
        assert path_key(p1) == path_key(p2) == "a>b>c"


class TestPersistence:
    def roundtrip(self, model):
        buf = io.StringIO()
        save_model(model, buf)
        buf.seek(0)
        return load_model(buf)

    def test_baseline1_roundtrip(self):
        m = Baseline1Model(c=1.0 / 3.0, sigma2=2.0 / 7.0)
        got = self.roundtrip(m)
        assert got.c == m.c and got.sigma2 == m.sigma2

    def test_baseline2_roundtrip(self):
        m = Baseline2Model({"a>b": 0.1 + 0.2, "b>c>d": 5.5}, sigma2=math.pi, fallback_c=1.7)
        got = self.roundtrip(m)
        assert got.c_by_path == m.c_by_path
        assert got.sigma2 == m.sigma2
        assert got.fallback_c == m.fallback_c

    def test_edge_roundtrip_and_kind(self):
        m = EdgeModel({("a", "b"): 1.0 / 7.0, ("b", "c"): 9.99}, sigma2=1e-17)
        got = self.roundtrip(m)
        assert got.c_by_segment == m.c_by_segment
        assert got.sigma2 == m.sigma2
        assert got.smoothed is False
        sm = EdgeModel(dict(m.c_by_segment), m.sigma2, smoothed=True)
        assert self.roundtrip(sm).smoothed is True

    def test_expected_time_identical_after_reload(self):
        m = EdgeModel({("a", "b"): 3.123456789012345, ("b", "c"): 0.777}, sigma2=0.3)
        got = self.roundtrip(m)
        path = chain_path("abc", [123.4, 567.8])
        assert expected_time(got, path, 691.2) == expected_time(m, path, 691.2)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            load_model(io.StringIO("nonsense\n"))

    def test_wrong_line_kind_rejected(self):
        text = "model baseline1 sigma2=1\nseg a b 3\n"
        with pytest.raises(ValueError):
            load_model(io.StringIO(text))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "-3", "0", "-0"])
    @pytest.mark.parametrize("kind, line", [
        ("baseline1", "global {}"),
        ("baseline2", "path a>b {}"),
        ("edge", "seg a b {}"),
    ])
    def test_speed_that_no_fit_writes_rejected(self, value, kind, line):
        # a nan speed scored every record nan, inf or -3 gave times of 0 or -333 s
        body = {"baseline1": "", "baseline2": "global 5\n", "edge": "seg b c 5\n"}[kind]
        bad = line.format(value)
        text = f"model {kind} sigma2=1\n{body}{bad}\n"
        with pytest.raises(ValueError, match=rf"^bad model line: '{bad}': speed must be finite"):
            load_model(io.StringIO(text))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-5e-324"])
    def test_sigma2_that_no_fit_writes_rejected(self, value):
        text = f"model baseline1 sigma2={value}\nglobal 5\n"
        with pytest.raises(ValueError, match=r"sigma2 must be finite and >= 0"):
            load_model(io.StringIO(text))

    def test_zero_sigma2_and_tiny_speeds_load(self):
        # a perfect fit writes sigma2=0; detect names it as a ZeroVariance error
        m = load_model(io.StringIO("model edge sigma2=0\nseg a b 5e-324\nseg b c 1e308\n"))
        assert m.sigma2 == 0.0
        assert m.c_by_segment == {("a", "b"): 5e-324, ("b", "c"): 1e308}
