import math

import pytest

from flowanomaly.errors import (
    DisconnectedEvidence,
    DuplicatePosition,
    InconsistentEvidence,
)
from flowanomaly.routeinfer import (
    DistanceEvidence,
    collect_evidence,
    infer_all_routes,
    infer_route,
)
from flowanomaly.synth import SynthConfig, generate_network

from conftest import make_record, table_of


def ev(frm, to, d, service="s1", support=1):
    return DistanceEvidence(service, frm, to, d, support)


def rec(service, frm, to, d, rid):
    return make_record(
        record_id=rid, service_id=service, origin=frm, destination=to,
        t_start=0.0, t_end=max(1.0, d / 10.0), distance_m=d,
    )


class TestCollectEvidence:
    def test_support_accumulates(self):
        records = [rec("s1", "a", "b", 300.0, "r1"), rec("s1", "a", "b", 300.0, "r2")]
        evidence, flagged = collect_evidence(table_of(records))
        assert not flagged
        (e,) = evidence["s1"]
        assert (e.from_node, e.to_node, e.distance_m, e.support) == ("a", "b", 300.0, 2)

    def test_conflict_flags_service(self):
        records = [rec("s1", "a", "b", 300.0, "r1"), rec("s1", "a", "b", 400.0, "r2")]
        evidence, flagged = collect_evidence(table_of(records))
        assert "s1" in flagged
        assert "disagree" in flagged["s1"]

    def test_empty_input(self):
        assert collect_evidence(table_of([])) == ({}, {})


class TestInferRoute:
    def test_propagated_positions(self):
        # positions by hand: a=0, b=300, c=500, d=900
        route = infer_route("s1", [ev("a", "b", 300.0), ev("a", "c", 500.0), ev("b", "d", 600.0)])
        assert route.stops == ("a", "b", "c", "d")
        assert route.cumulative_m == (0.0, 300.0, 500.0, 900.0)

    def test_inconsistent_cycle(self):
        with pytest.raises(InconsistentEvidence):
            infer_route("s1", [ev("a", "b", 300.0), ev("a", "c", 500.0), ev("b", "c", 100.0)])

    def test_single_pair(self):
        route = infer_route("s1", [ev("a", "b", 300.0)])
        assert route.stops == ("a", "b")
        assert route.cumulative_m == (0.0, 300.0)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedEvidence):
            infer_route("s1", [ev("a", "b", 300.0), ev("c", "d", 200.0)])

    def test_duplicate_position_rejected(self):
        with pytest.raises(DuplicatePosition):
            infer_route("s1", [ev("a", "b", 300.0), ev("a", "c", 300.5)])

    def test_anchor_independence(self):
        evidence = [ev("a", "b", 300.0), ev("a", "c", 500.0), ev("b", "d", 600.0)]
        routes = [infer_route("s1", evidence, anchor=stop) for stop in "abcd"]
        for route in routes[1:]:
            assert route.stops == routes[0].stops
            assert route.cumulative_m == routes[0].cumulative_m

    def test_backward_evidence_only(self):
        # propagation must walk -d against evidence direction
        route = infer_route("s1", [ev("b", "c", 200.0), ev("a", "c", 500.0)])
        assert route.stops == ("a", "b", "c")
        assert route.cumulative_m == (0.0, 300.0, 500.0)


class TestInferAllRoutes:
    def test_mixed_accept_reject(self):
        records = [
            rec("s1", "a", "b", 300.0, "r1"),
            rec("s1", "b", "c", 200.0, "r2"),
            rec("s2", "p", "q", 100.0, "r3"),
            rec("s2", "q", "r", 100.0, "r4"),
            rec("s3", "x", "y", 100.0, "r5"),
            rec("s3", "x", "y", 300.0, "r6"),
        ]
        outcome = infer_all_routes(table_of(records))
        assert set(outcome.accepted) == {"s1", "s2"}
        assert set(outcome.rejected) == {"s3"}

    def test_all_consistent(self):
        records = [rec("s1", "a", "b", 300.0, "r1"), rec("s2", "p", "q", 100.0, "r2")]
        outcome = infer_all_routes(table_of(records))
        assert not outcome.rejected

    def test_synthetic_round_trip(self):
        cfg = SynthConfig(n_services=4, stops_per_service=7, n_records=0, seed=3)
        truth = generate_network(cfg)
        records = []
        n = 0
        for route in truth.network.routes.values():
            for i in range(len(route.stops) - 1):
                for j in (i + 1, len(route.stops) - 1):
                    if j <= i:
                        continue
                    d = route.cumulative_m[j] - route.cumulative_m[i]
                    records.append(
                        rec(route.service_id, route.stops[i], route.stops[j], d, f"r{n}")
                    )
                    n += 1
        outcome = infer_all_routes(table_of(records))
        assert not outcome.rejected
        assert set(outcome.accepted) == set(truth.network.routes)
        for service_id, route in truth.network.routes.items():
            got = outcome.accepted[service_id]
            assert got.stops == route.stops
            for a, b in zip(got.cumulative_m, route.cumulative_m):
                assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)

    def test_cycle_violation_rejects_only_that_service(self):
        records = [
            rec("s1", "a", "b", 300.0, "r1"),
            rec("s1", "b", "c", 300.0, "r2"),
            rec("s1", "a", "c", 700.0, "r3"),  # violates 300 + 300
            rec("s2", "p", "q", 100.0, "r4"),
        ]
        outcome = infer_all_routes(table_of(records))
        assert set(outcome.rejected) == {"s1"}
        assert set(outcome.accepted) == {"s2"}
