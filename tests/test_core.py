import math

import numpy as np
import pytest

from flowanomaly.core import (
    Path,
    Segment,
    build_network,
    resolve_path,
    resolve_paths,
    validate_record,
)
from flowanomaly.errors import (
    DistanceConflict,
    DistanceMismatch,
    StopNotOnRoute,
    UnknownService,
    WrongDirection,
)

from conftest import make_record, make_route


class TestTypes:
    def test_segment_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            Segment("a", "b", 0.0)

    def test_segment_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Segment("a", "a", 10.0)

    def test_route_needs_increasing_cumulative(self):
        with pytest.raises(ValueError):
            make_route("s1", "abc", (0.0, 200.0, 100.0))

    def test_route_rejects_repeated_stop(self):
        with pytest.raises(ValueError):
            make_route("s1", ("a", "b", "a"), (0.0, 100.0, 200.0))

    def test_path_rejects_broken_chain(self):
        with pytest.raises(ValueError):
            Path((Segment("a", "b", 10.0), Segment("c", "d", 10.0)))

    def test_path_rejects_revisited_node(self):
        with pytest.raises(ValueError, match="visits a node twice"):
            Path((Segment("a", "b", 10.0), Segment("b", "a", 10.0), Segment("a", "b", 10.0)))

    def test_path_nodes_and_distance(self):
        p = Path((Segment("a", "b", 10.0), Segment("b", "c", 20.0)))
        assert p.nodes == ("a", "b", "c")
        assert p.distance_m == 30.0

    def test_record_invariants(self):
        with pytest.raises(ValueError):
            make_record(t_start=10.0, t_end=10.0)
        with pytest.raises(ValueError):
            make_record(distance_m=-5.0)
        with pytest.raises(ValueError):
            make_record(origin="a", destination="a")

    def test_observed_seconds(self):
        assert make_record(t_start=5.0, t_end=35.0).observed_s == 30.0


class TestBuildNetwork:
    def test_single_route_transcription(self):
        g = build_network([make_route("s1", "abc", (0.0, 100.0, 300.0))])
        assert set(g.segments) == {("a", "b"), ("b", "c")}
        assert g.segments[("a", "b")].distance_m == 100.0
        assert g.segments[("b", "c")].distance_m == 200.0
        assert g.nodes == {"a", "b", "c"}

    def test_shared_segment_deduplicated(self):
        g = build_network(
            [
                make_route("s1", "abc", (0.0, 100.0, 300.0)),
                make_route("s2", "xbc", (0.0, 50.0, 250.0)),
            ]
        )
        assert len(g.segments) == 3
        assert g.segments[("b", "c")].distance_m == 200.0
        assert set(g.routes) == {"s1", "s2"}

    def test_conflicting_distance_raises(self):
        with pytest.raises(DistanceConflict):
            build_network(
                [
                    make_route("s1", "abc", (0.0, 100.0, 300.0)),
                    make_route("s2", "xbc", (0.0, 50.0, 400.0)),
                ]
            )

    def test_conflict_within_tolerance_allowed(self):
        g = build_network(
            [
                make_route("s1", "abc", (0.0, 100.0, 300.0)),
                make_route("s2", "xbc", (0.0, 50.0, 250.5)),
            ],
            eps_d=1.0,
        )
        # first route in service-id order wins
        assert g.segments[("b", "c")].distance_m == 200.0

    def test_duplicate_service_id_rejected(self):
        with pytest.raises(ValueError):
            build_network(
                [
                    make_route("s1", "ab", (0.0, 100.0)),
                    make_route("s1", "cd", (0.0, 100.0)),
                ]
            )


class TestResolvePath:
    def test_contiguous_subpath(self, line_network):
        p = resolve_path(line_network, "s1", "a", "c")
        assert [s.key for s in p.segments] == [("a", "b"), ("b", "c")]
        assert p.distance_m == 200.0

    def test_same_stop_rejected(self, line_network):
        with pytest.raises(StopNotOnRoute):
            resolve_path(line_network, "s1", "b", "b")

    def test_wrong_direction(self, line_network):
        with pytest.raises(WrongDirection):
            resolve_path(line_network, "s1", "c", "a")

    def test_unknown_service(self, line_network):
        with pytest.raises(UnknownService):
            resolve_path(line_network, "nope", "a", "b")

    def test_stop_not_on_route(self, line_network):
        with pytest.raises(StopNotOnRoute):
            resolve_path(line_network, "s1", "a", "z")


class TestValidateRecord:
    def test_exact_distance_accepted(self, line_network):
        r = make_record(origin="a", destination="c", distance_m=200.0)
        assert validate_record(line_network, r).distance_m == 200.0

    def test_tolerated_distance_accepted(self, line_network):
        r = make_record(origin="a", destination="c", distance_m=202.0)
        assert validate_record(line_network, r, eps_d=5.0) is not None

    def test_mismatch_rejected(self, line_network):
        r = make_record(origin="a", destination="c", distance_m=210.0)
        with pytest.raises(DistanceMismatch):
            validate_record(line_network, r, eps_d=5.0)


class TestPathProperties:
    def test_chaining_additivity_concatenation(self):
        rng = np.random.default_rng(42)
        stops = [f"n{i:02d}" for i in range(12)]
        gaps = rng.uniform(50.0, 900.0, size=11)
        cumulative = [0.0]
        for g in gaps:
            cumulative.append(cumulative[-1] + g)
        net = build_network([make_route("s1", stops, cumulative)])
        for _ in range(200):
            i, j = sorted(rng.choice(12, size=2, replace=False))
            p = resolve_path(net, "s1", stops[i], stops[j])
            for s_a, s_b in zip(p.segments, p.segments[1:]):
                assert s_a.to_node == s_b.from_node
            want = cumulative[j] - cumulative[i]
            assert math.isclose(p.distance_m, want, rel_tol=1e-9)
            if j - i >= 2:
                k = rng.integers(i + 1, j)
                left = resolve_path(net, "s1", stops[i], stops[k])
                right = resolve_path(net, "s1", stops[k], stops[j])
                assert left.segments + right.segments == p.segments

    def test_resolve_paths_memoizes(self, line_network):
        records = [
            make_record(record_id=f"r{i}", origin="a", destination="c")
            for i in range(5)
        ]
        paths = resolve_paths(line_network, records)
        assert all(p is paths[0] for p in paths)
        # one memo on the network serves every resolver
        again = resolve_path(line_network, "s1", "a", "c")
        assert again is paths[0]
        full = make_record(origin="a", destination="c", distance_m=200.0)
        assert validate_record(line_network, full) is again
        assert resolve_paths(line_network, records[:1])[0] is again
        assert resolve_path(line_network, "s1", "a", "d") is not again
