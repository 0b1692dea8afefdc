"""Shared builders for the test suite, and the brute-force containment oracle."""

import os
from typing import NamedTuple

import pytest

from flowanomaly.anomaly import containment_counts, rank_anomalies
from flowanomaly.core import (
    FlowRecord, Flows, Path, Segment, ServiceRoute, build_network, resolve_paths,
)
from flowanomaly.recordio import RecordTable

# Before numpy loads, as the console script does: its BLAS then starts no thread,
# so the test process forks workers for a record file of several ranges as the CLI does.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


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


def table_of(records):
    """The records as the RecordTable that read_table would parse from their file."""
    table, index = RecordTable(), {}
    for r in records:
        table.record_ids.append(r.record_id)
        table.key_of.append(index.setdefault((r.service_id, r.origin, r.destination), len(index)))
        table.t_start.append(r.t_start)
        table.t_end.append(r.t_end)
        table.distance.append(r.distance_m)
    table.keys.extend(index)
    return table


def flows_straight(records):
    """The records as a Flows, each on one segment of its own length from its
    origin to its destination: for fits that read no path, such as baseline1."""
    return Flows.from_records(
        records, [chain_path([r.origin, r.destination], [r.distance_m]) for r in records])


@pytest.fixture
def line_network():
    """One service a->b->c->d with 100 m gaps."""
    return build_network([make_route("s1", "abcd", (0.0, 100.0, 200.0, 300.0))])


class Trip(NamedTuple):
    """A record on its path, with its deviation ratio: one row of a significant set."""

    record: FlowRecord
    path: Path
    alpha: float = 1.0


def contains(outer, inner):
    """True when the outer trip spatially and temporally covers the inner's.

    The brute-force oracle of the containment index: the inner node sequence
    must be a contiguous run of the outer's, the outer must start strictly
    earlier and end strictly later.
    """
    if not (
        outer.record.t_start < inner.record.t_start
        and outer.record.t_end > inner.record.t_end
    ):
        return False
    inner_nodes, outer_nodes = inner.path.nodes, outer.path.nodes
    n, m = len(inner_nodes), len(outer_nodes)
    if n > m:
        return False
    first = inner_nodes[0]
    for i in range(m - n + 1):
        if outer_nodes[i] == first and outer_nodes[i : i + n] == inner_nodes:
            return True
    return False


def trips_flows(trips):
    """The trips as one Flows, with the per-row ratios and expected times (each
    its observed time) that rank_anomalies reads."""
    flows = Flows.from_records([t.record for t in trips], [t.path for t in trips])
    return flows, [t.alpha for t in trips], list(flows.observed)


def rank_trips(trips):
    """rank_anomalies over every row of the trips."""
    flows, alphas, expected = trips_flows(trips)
    return rank_anomalies(flows, range(len(trips)), alphas, expected)


def count_trips(trips):
    """containment_counts over every row of the trips."""
    return containment_counts(trips_flows(trips)[0], range(len(trips)))


def trip_key(trip):
    """The fields of a trip that its report repeats: equal keys get equal reports."""
    r = trip.record
    return (r.record_id, trip.path.nodes, r.t_start, r.t_end, trip.alpha)


def report_key(rep):
    return (rep.record_id, rep.path.nodes, rep.t_start, rep.t_end, rep.alpha)
