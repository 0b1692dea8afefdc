import io
import math

import pytest

from flowanomaly.core import resolve_paths
from flowanomaly.models import TrainConfig, train_edge_model
from flowanomaly.synth import (
    MAX_PHYSICAL_SPEED_MPS,
    PlantedCongestion,
    SynthConfig,
    _congested_base_time,
    generate_network,
    generate_records,
    write_truth,
)


class TestGenerateNetwork:
    def test_linear_service_shape(self):
        cfg = SynthConfig(n_services=1, stops_per_service=4, seed=0)
        truth = generate_network(cfg)
        assert len(truth.network.segments) == 3
        (route,) = truth.network.routes.values()
        assert len(route.stops) == 4

    def test_same_seed_same_truth(self):
        cfg = SynthConfig(n_services=3, stops_per_service=6, seed=42)
        a = generate_network(cfg)
        b = generate_network(cfg)
        assert a.true_speed == b.true_speed
        assert a.network.routes == b.network.routes

    def test_shared_corridor_one_speed(self):
        cfg = SynthConfig(n_services=2, stops_per_service=7,
                          shared_corridor_stops=3, seed=1)
        truth = generate_network(cfg)
        routes = list(truth.network.routes.values())
        shared = set(zip(routes[0].stops, routes[0].stops[1:])) & set(
            zip(routes[1].stops, routes[1].stops[1:])
        )
        assert shared  # corridor segments really are shared
        # 2 services x 6 segments each, minus the duplicated corridor pairs
        assert len(truth.network.segments) == 12 - len(shared)
        for key in shared:
            assert key in truth.true_speed

    def test_congestion_must_name_real_segment(self):
        cong = PlantedCongestion("no", "where", 0.0, 10.0, 2.0)
        cfg = SynthConfig(n_services=1, stops_per_service=3, seed=0, congestion=cong)
        with pytest.raises(ValueError):
            generate_network(cfg)

    def test_speed_range_respected(self):
        cfg = SynthConfig(n_services=3, stops_per_service=8,
                          speed_range_mps=(3.0, 5.0), seed=9)
        truth = generate_network(cfg)
        assert all(3.0 <= v <= 5.0 for v in truth.true_speed.values())


class TestGenerateRecords:
    def test_noiseless_times_exact(self):
        cfg = SynthConfig(n_services=2, stops_per_service=5, n_records=100,
                          noise_sigma2=0.0, seed=3)
        truth = generate_network(cfg)
        records, truncated = generate_records(truth, cfg)
        assert truncated == 0
        paths = resolve_paths(truth.network, records)
        for r, p in zip(records, paths):
            want = sum(s.distance_m / truth.true_speed[s.key] for s in p.segments)
            # exact up to the t_end - t_start cancellation the record
            # representation imposes
            assert math.isclose(r.observed_s, want, rel_tol=1e-12)

    def test_noiseless_uniform_speeds_train_to_zero_sse(self):
        cfg = SynthConfig(n_services=1, stops_per_service=4, n_records=100,
                          noise_sigma2=0.0, speed_range_mps=(8.0, 8.0), seed=3)
        truth = generate_network(cfg)
        records, _ = generate_records(truth, cfg)
        model, trail = train_edge_model(
            truth.network, records, TrainConfig(eta=0.01, tau=0.0, epochs=2))
        # init already sits at the optimum; SSE is zero up to the rounding
        # residue the time representation leaves in the records
        assert trail.sse_by_epoch[-1] < 1e-12
        assert all(math.isclose(v, 8.0, rel_tol=1e-9)
                   for v in model.c_by_segment.values())

    def test_same_seed_same_records(self):
        cfg = SynthConfig(n_services=2, stops_per_service=5, n_records=50,
                          noise_sigma2=0.05, seed=11)
        truth = generate_network(cfg)
        assert generate_records(truth, cfg) == generate_records(truth, cfg)

    def test_distance_matches_route_cumulative(self):
        cfg = SynthConfig(n_services=1, stops_per_service=6, n_records=100,
                          noise_sigma2=0.1, seed=5)
        truth = generate_network(cfg)
        records, _ = generate_records(truth, cfg)
        for r in records:
            route = truth.network.routes[r.service_id]
            i = route.stop_index(r.origin)
            j = route.stop_index(r.destination)
            assert r.distance_m == route.cumulative_m[j] - route.cumulative_m[i]

    def test_truncation_rare_at_default_noise(self):
        cfg = SynthConfig(n_services=1, stops_per_service=2, n_records=10000, seed=7)
        truth = generate_network(cfg)
        records, truncated = generate_records(truth, cfg)
        # single-segment trips: one Gaussian sample per record
        assert truncated / len(records) < 0.001

    def test_sample_mean_matches_expectation(self):
        cfg = SynthConfig(n_services=1, stops_per_service=2, n_records=10000, seed=7)
        truth = generate_network(cfg)
        records, _ = generate_records(truth, cfg)
        (key, speed), = truth.true_speed.items()
        (seg,) = truth.network.segments.values()
        want = seg.distance_m / speed
        got = sum(r.observed_s for r in records) / len(records)
        assert abs(got - want) / want < 0.01

    def test_congested_records_slower_inside_window(self):
        cong = PlantedCongestion("s00n00", "s00n01", 40000.0, 47200.0, 3.0)
        cfg = SynthConfig(n_services=1, stops_per_service=2, n_records=4000,
                          noise_sigma2=0.0, seed=13, congestion=cong)
        truth = generate_network(cfg)
        records, _ = generate_records(truth, cfg)
        (key, speed), = truth.true_speed.items()
        (seg,) = truth.network.segments.values()
        normal = seg.distance_m / speed
        for r in records:
            if cong.window_start <= r.t_start < cong.window_end:
                assert r.observed_s > normal * 1.001
            elif r.t_start >= cong.window_end:
                assert math.isclose(r.observed_s, normal, rel_tol=1e-12)


class TestPiecewiseCongestion:
    CONG = PlantedCongestion("a", "b", 100.0, 200.0, 3.0)

    def test_fully_inside_window(self):
        # 30 m at slow speed 1/3 m/s -> 90 s, finishing inside the window
        assert _congested_base_time(30.0, 1.0, 100.0, self.CONG) == 90.0

    def test_partial_overlap_from_midwindow(self):
        # entry at 150: 50 s slow covers 16.67 m, rest at 1 m/s
        want = 50.0 + (100.0 - 50.0 / 3.0)
        got = _congested_base_time(100.0, 1.0, 150.0, self.CONG)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_entry_before_window(self):
        # 50 m normal to reach window start, 100/3 m during window, rest normal
        want = 50.0 + 100.0 + (100.0 - 50.0 - 100.0 / 3.0)
        got = _congested_base_time(100.0, 1.0, 50.0, self.CONG)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_entry_after_window_is_normal(self):
        assert _congested_base_time(100.0, 1.0, 200.0, self.CONG) == 100.0


def load_truth(source):
    """Read a truth sidecar back into (speeds, congestion)."""
    with open(source, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    speeds = {}
    congestion = None
    for ln in lines[1:]:
        parts = ln.split(",")
        speeds[(parts[0], parts[1])] = float(parts[2])
        if parts[3]:
            congestion = PlantedCongestion(
                from_node=parts[0],
                to_node=parts[1],
                window_start=float(parts[3]),
                window_end=float(parts[4]),
                slowdown_factor=float(parts[5]),
            )
    return speeds, congestion


class TestTruthSidecar:
    def test_roundtrip(self):
        cong = PlantedCongestion("s00n01", "s00n02", 10.0, 20.0, 2.5)
        cfg = SynthConfig(n_services=1, stops_per_service=4, seed=2, congestion=cong)
        truth = generate_network(cfg)
        buf = io.StringIO()
        write_truth(truth, buf)
        text = buf.getvalue()
        import tempfile, os
        with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
            fh.write(text)
            name = fh.name
        try:
            speeds, got_cong = load_truth(name)
        finally:
            os.unlink(name)
        assert speeds == truth.true_speed
        assert got_cong == cong


class TestConfigValidation:
    def test_bad_corridor(self):
        with pytest.raises(ValueError):
            SynthConfig(shared_corridor_stops=1)

    def test_corridor_must_fit(self):
        with pytest.raises(ValueError):
            SynthConfig(stops_per_service=4, shared_corridor_stops=4)

    def test_speed_above_physical_cap(self):
        with pytest.raises(ValueError):
            SynthConfig(speed_range_mps=(10.0, MAX_PHYSICAL_SPEED_MPS + 1.0))

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            PlantedCongestion("a", "b", 0.0, 10.0, 1.0)
