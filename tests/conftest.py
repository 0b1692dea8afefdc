"""Shared builders for the test suite."""

import pytest

from flowanomaly.core import FlowRecord, Path, Segment, ServiceRoute, build_network, resolve_paths
from flowanomaly.models import Flows


def make_route(service_id, stops, cumulative):
    return ServiceRoute(service_id, tuple(stops), tuple(cumulative))


def make_record(
    record_id="r1",
    service_id="s1",
    origin="a",
    destination="b",
    t_start=0.0,
    t_end=10.0,
    distance_m=100.0,
):
    return FlowRecord(
        record_id=record_id,
        service_id=service_id,
        origin=origin,
        destination=destination,
        t_start=t_start,
        t_end=t_end,
        distance_m=distance_m,
    )


def chain_path(nodes, distances):
    segs = tuple(
        Segment(a, b, d) for a, b, d in zip(nodes, nodes[1:], distances)
    )
    return Path(segs)


def flows_on(network, records):
    """The records as a Flows, each on its path in the network."""
    return Flows.from_records(records, resolve_paths(network, records))


def flows_straight(records):
    """The records as a Flows, each on one segment of its own length from its
    origin to its destination: for fits that read no path, such as baseline1."""
    return Flows.from_records(
        records, [chain_path([r.origin, r.destination], [r.distance_m]) for r in records])


@pytest.fixture
def line_network():
    """One service a->b->c->d with 100 m gaps."""
    return build_network([make_route("s1", "abcd", (0.0, 100.0, 200.0, 300.0))])
