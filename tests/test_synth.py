import dataclasses
import io
import math

import numpy as np
import pytest

import reference_synth

from flowanomaly.core import ServiceRoute, build_network, resolve_paths
from flowanomaly.models import TrainConfig, train_edge_model
from flowanomaly.synth import (
    MAX_PHYSICAL_SPEED_MPS,
    PlantedCongestion,
    RecordStream,
    SynthConfig,
    SynthTruth,
    _congested_base_time,
    generate_network,
    generate_records,
    write_truth,
)

from conftest import flows_on


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
            truth.network, flows_on(truth.network, records),
            TrainConfig(eta=0.01, tau=0.0, epochs=2))
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


def _hex(values):
    """Floats as hex strings, so that equal means equal bits, the sign of zero too."""
    return [float(v).hex() for v in values]


LOW32 = 0xFFFFFFFF


def _position(rng):
    """A generator's 128-bit state and its held 32-bit half, or None if none is held."""
    state = rng.bit_generator.state
    return state["state"]["state"], state["uinteger"] if state["has_uint32"] else None


class RawWords:
    """integers(0, n) and random() of a numpy Generator, rebuilt from its bit
    generator's raw 64-bit words as RecordStream rebuilds them.

    On entry it takes numpy's held 32-bit half over, and on exit it hands its own
    back, so that numpy's draws can run in between. `redraws` counts the draws
    that the multiply-and-reject step drew again.
    """

    def __init__(self, rng):
        self.bit_generator = rng.bit_generator
        self.redraws = 0

    def __enter__(self):
        state = self.bit_generator.state
        self.held = state["uinteger"] if state["has_uint32"] else None
        return self

    def __exit__(self, *exc):
        state = self.bit_generator.state
        if self.held is None:
            state["has_uint32"] = 0
        else:
            state["has_uint32"], state["uinteger"] = 1, self.held
        self.bit_generator.state = state

    def next32(self):
        if self.held is not None:
            x, self.held = self.held, None
            return x
        word = int(self.bit_generator.random_raw())
        self.held = word >> 32
        return word & LOW32

    def integers(self, n):
        if n == 1:
            return 0
        p = self.next32() * n
        while p & LOW32 < (2**32 - n) % n:
            self.redraws += 1
            p = self.next32() * n
        return p >> 32

    def random(self):
        return (int(self.bit_generator.random_raw()) >> 11) * 2.0**-53


# PCG64's 128-bit LCG multiplier. Each draw steps the state s to s * M + inc and
# returns rotr64(high ^ low, s >> 122) of the new s, which is 0 when high == low.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def next_word_zero(rng):
    """Set a PCG64 generator's state so that its next raw 64-bit word is 0."""
    state = rng.bit_generator.state
    after = (0x0123456789ABCDEF << 64) | 0x0123456789ABCDEF
    state["state"]["state"] = ((after - state["state"]["inc"])
                               * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128)
    rng.bit_generator.state = state
    return rng


class TestNumpyIdentities:
    """The numpy draws RecordStream takes in place of the reference's calls.

    Each pair must consume the same bits and return the same numbers on any
    generator state, so other draws run in between. A numpy release that
    changes one fails here by name, before any record differs.
    """

    SEEDS = range(40)

    @staticmethod
    def _other_draws(rngs, k):
        # leave a 32-bit half buffered on odd k, so the pair draws start from both states
        for rng in rngs:
            rng.integers(0, 7, size=k % 3)
            rng.standard_normal(k % 2)
            rng.random()

    def test_choice_of_two_is_floyd_and_one_shuffle_draw(self):
        for seed in self.SEEDS:
            want, got = np.random.default_rng(seed), np.random.default_rng(seed)
            for m in range(2, 41):
                self._other_draws((want, got), m)
                pair = sorted(want.choice(m, size=2, replace=False).tolist())
                i, j = int(got.integers(0, m - 1)), int(got.integers(0, m))
                if j == i:
                    j = m - 1
                got.integers(0, 2)
                assert sorted((i, j)) == pair, (seed, m)
                assert got.bit_generator.state == want.bit_generator.state, (seed, m)

    def test_normal_is_scaled_standard_normal(self):
        for seed in self.SEEDS:
            want, got = np.random.default_rng(seed), np.random.default_rng(seed)
            for k in range(1, 12):
                self._other_draws((want, got), k)
                sds = [0.0 if j % 3 == 0 else math.sqrt(j * 517.0 * 0.05) for j in range(k)]
                drawn = [want.normal(0.0, sd) for sd in sds]
                scaled = [0.0 + sd * z for sd, z in zip(sds, got.standard_normal(k).tolist())]
                assert _hex(scaled) == _hex(drawn), (seed, k)
                assert got.bit_generator.state == want.bit_generator.state, (seed, k)

    def test_uniform_is_scaled_random(self):
        for seed in self.SEEDS:
            want, got = np.random.default_rng(seed), np.random.default_rng(seed)
            for k, span in enumerate((86400.0, 1.0, 3600.5, 1e-9, 3e11)):
                self._other_draws((want, got), k)
                assert _hex([0.0 + span * got.random()]) == _hex([want.uniform(0.0, span)])
                assert got.bit_generator.state == want.bit_generator.state, (seed, span)


    BOUNDS = (1, 2, 15, 16, 17, 2**31 + 1, 3 * 2**30)

    def test_bounded_draw_from_raw_words_is_integers(self):
        redraws = dict.fromkeys(self.BOUNDS, 0)
        held = set()
        for seed in self.SEEDS:
            want, got = np.random.default_rng(seed), np.random.default_rng(seed)
            for k in range(6):
                for n in self.BOUNDS:
                    self._other_draws((want, got), k)
                    held.add(_position(got)[1] is not None)
                    with RawWords(got) as words:
                        drawn = [words.integers(n) for _ in range(3)]
                    assert drawn == [int(want.integers(0, n)) for _ in range(3)], (seed, k, n)
                    assert _position(got) == _position(want), (seed, k, n)
                    redraws[n] += words.redraws
        assert held == {False, True}  # draws start with and without a held half
        # 2**31 + 1 redraws about half its draws and 3 * 2**30 a quarter; a power
        # of two never does
        assert redraws[2**31 + 1] > 300 and redraws[3 * 2**30] > 100, redraws
        assert redraws[1] == redraws[2] == redraws[16] == 0

    def test_start_time_from_a_raw_word_is_random(self):
        for seed in self.SEEDS:
            want, got = np.random.default_rng(seed), np.random.default_rng(seed)
            for k in range(6):
                self._other_draws((want, got), k)
                with RawWords(got) as words:
                    u = words.random()
                assert _hex([u]) == _hex([want.random()]), (seed, k)
                assert _position(got) == _position(want), (seed, k)  # the held half stays

    def test_a_crafted_first_word_is_zero(self):
        rng = next_word_zero(np.random.default_rng((9, 1)))
        assert int(rng.bit_generator.random_raw()) == 0


class TestReferenceGenerator:
    """RecordStream against the reference, which takes one numpy call per draw."""

    CONFIGS = {
        "default": SynthConfig(n_records=3000, seed=1),
        "noiseless": SynthConfig(n_services=3, stops_per_service=6, n_records=2000,
                                 noise_sigma2=0.0, seed=2),
        "heavy-truncation": SynthConfig(n_services=2, stops_per_service=9, n_records=2000,
                                        noise_sigma2=40.0, seed=3),
        "two-stops": SynthConfig(n_services=5, stops_per_service=2, n_records=2000, seed=4),
        "corridor": SynthConfig(n_services=4, stops_per_service=16, shared_corridor_stops=6,
                                n_records=3000, noise_sigma2=0.2, seed=5),
        "planted": SynthConfig(
            n_services=3, stops_per_service=7, shared_corridor_stops=3, n_records=3000,
            seed=6, day_start_s=1.7e9, day_seconds=20000.0,
            congestion=PlantedCongestion("x00", "x01", 1.7e9 + 5000.0, 1.7e9 + 12000.0, 4.0)),
    }

    CONFIGS["one-service"] = SynthConfig(n_services=1, stops_per_service=7, n_records=2000,
                                         seed=7)
    CONFIGS["one-service-two-stops"] = SynthConfig(n_services=1, stops_per_service=2,
                                                   n_records=500, seed=8)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_same_records_and_truncations(self, name):
        cfg = self.CONFIGS[name]
        truth = generate_network(cfg)
        want_records, want_truncated = reference_synth.generate_records(truth, cfg)
        records, truncated = generate_records(truth, cfg)
        assert records == want_records
        assert truncated == want_truncated
        if name == "heavy-truncation":
            assert truncated > 1000
        if name == "planted":
            assert any(r.t_start < cfg.congestion.window_end and
                       r.t_end > cfg.congestion.window_start for r in records)

    def test_hand_built_routes_of_different_stop_counts(self):
        # a record on s1 takes three 32-bit draws and one on s2 or s3 four, so the
        # words fetched for the fewest do not always cover a record's draws
        routes = [ServiceRoute("s1", ("a0", "a1"), (0.0, 700.0)),
                  ServiceRoute("s2", ("b0", "b1", "b2"), (0.0, 500.0, 1300.0)),
                  ServiceRoute("s3", tuple(f"c{k}" for k in range(6)),
                               tuple(450.0 * k for k in range(6)))]
        network = build_network(routes)
        truth = SynthTruth(network, {key: 5.0 + k for k, key in
                                     enumerate(sorted(network.segments))}, None)
        cfg = SynthConfig(n_records=3000, seed=9)
        records, truncated = generate_records(truth, cfg)
        assert (records, truncated) == reference_synth.generate_records(truth, cfg)
        assert {r.service_id for r in records} == {"s1", "s2", "s3"}

    @pytest.mark.parametrize("stops", [2, 5])
    def test_redraws_take_the_words_after_the_fetched_ones(self, monkeypatch, stops):
        # A first word of 0 makes the first service draw below 3 draw again twice,
        # so the first record's draws run past the words fetched for it; numpy's
        # own integers, in the reference, must agree.
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: next_word_zero(default_rng(seed)))
        cfg = SynthConfig(n_services=3, stops_per_service=stops, n_records=200, seed=10)
        truth = generate_network(cfg)
        records, truncated = generate_records(truth, cfg)
        assert (records, truncated) == reference_synth.generate_records(truth, cfg)

    def test_stream_repeats_its_day(self):
        cfg = self.CONFIGS["heavy-truncation"]
        stream = RecordStream(generate_network(cfg), cfg)
        first = list(stream)
        truncated = stream.truncated
        assert list(stream) == first
        assert stream.truncated == truncated > 0
        # rows() draws the same day as the records' fields
        assert list(stream.rows()) == [dataclasses.astuple(r) for r in first]
        assert stream.truncated == truncated


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

    @pytest.mark.parametrize("field, value", [
        ("noise_sigma2", math.nan),
        ("noise_sigma2", math.inf),
        ("day_start_s", math.inf),
        ("day_start_s", -math.inf),
        ("day_seconds", math.nan),
        ("day_seconds", math.inf),
        ("segment_length_range_m", (400.0, math.inf)),
    ])
    def test_non_finite_float_names_its_field(self, field, value):
        # these used to pass, and records or numpy's draws failed with an error
        # that named neither the field nor the value
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            SynthConfig(**{field: value})

    def test_negative_seed(self):
        # numpy's seeding rejected it, in words that named no field
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            SynthConfig(seed=-1)

    def test_speed_above_physical_cap(self):
        with pytest.raises(ValueError):
            SynthConfig(speed_range_mps=(10.0, MAX_PHYSICAL_SPEED_MPS + 1.0))

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            PlantedCongestion("a", "b", 0.0, 10.0, 1.0)

    @pytest.mark.parametrize("window_start, window_end, factor, field", [
        (0.0, math.inf, math.inf, "window_end"),
        (0.0, 10.0, math.inf, "slowdown_factor"),
        (0.0, 10.0, math.nan, "slowdown_factor"),
        (-math.inf, 10.0, 3.0, "window_start"),
        (math.nan, 10.0, 3.0, "window_start"),
    ])
    def test_non_finite_congestion_names_its_field(self, window_start, window_end, factor,
                                                   field):
        # an infinite factor and window gave a congested speed of 0 and a nan time,
        # which failed later as a record whose t_end did not exceed its t_start
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            PlantedCongestion("a", "b", window_start, window_end, factor)

    @pytest.mark.parametrize("day_start, day_seconds", [
        (1e12, 86400.0),
        (-7e10, 86400.0),
        (253402300800.0 - 86400.0, 86400.0),
        (0.0, 3e11),
    ])
    def test_day_outside_the_readable_years(self, day_start, day_seconds):
        # such a day wrote records that the reader then rejected, every one of them
        with pytest.raises(ValueError, match="must lie within years 1-9999 UTC$"):
            SynthConfig(day_start_s=day_start, day_seconds=day_seconds)

    def test_day_at_the_edges_of_the_readable_years(self):
        SynthConfig(day_start_s=-62135596800.0)
        SynthConfig(day_start_s=253402300800.0 - 86401.0)
