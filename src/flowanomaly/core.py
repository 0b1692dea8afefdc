"""Domain types for flow records and service networks, path resolution, and Flows.

Units are meters and seconds throughout; any conversion happens at the
ingestion boundary, never here.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import reduce
from operator import add, sub
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    DistanceConflict,
    DistanceMismatch,
    EmptyInput,
    FlowError,
    StopNotOnRoute,
    UnknownService,
    WrongDirection,
)

if TYPE_CHECKING:  # recordio imports this module
    from .recordio import RecordTable

NodeId = str

# Distances that disagree by no more than this are treated as the same
# measurement (real feeds round distances).
DEFAULT_DISTANCE_TOLERANCE_M = 1.0


def left_sum(values: Iterable[float]) -> float:
    """Float sum from 0.0, left to right: sum() compensates from Python 3.12 on."""
    return reduce(add, values, 0.0)


@dataclass(frozen=True)
class Segment:
    """A directed edge between consecutive route stops with a fixed length."""

    from_node: NodeId
    to_node: NodeId
    distance_m: float

    def __post_init__(self):
        if not self.from_node or not self.to_node:
            raise ValueError("segment endpoints must be non-empty node ids")
        if self.from_node == self.to_node:
            raise ValueError(f"segment endpoints must differ ({self.from_node!r})")
        if not self.distance_m > 0:
            raise ValueError(f"segment distance must be positive, got {self.distance_m}")

    @property
    def key(self) -> tuple[NodeId, NodeId]:
        return (self.from_node, self.to_node)


@dataclass(frozen=True)
class ServiceRoute:
    """One travel direction of a service: ordered stops with cumulative positions.

    ``cumulative_m[k]`` is the distance of ``stops[k]`` from the route origin;
    it starts at 0 and is strictly increasing.
    """

    service_id: str
    stops: tuple[NodeId, ...]
    cumulative_m: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "stops", tuple(self.stops))
        object.__setattr__(self, "cumulative_m", tuple(float(x) for x in self.cumulative_m))
        if not self.service_id:
            raise ValueError("service_id must be non-empty")
        if len(self.stops) != len(self.cumulative_m):
            raise ValueError("stops and cumulative_m must have equal length")
        if len(self.stops) < 2:
            raise ValueError("a route needs at least two stops")
        if len(set(self.stops)) != len(self.stops):
            raise ValueError(f"route {self.service_id!r} repeats a stop")
        for a, b in zip(self.cumulative_m, self.cumulative_m[1:]):
            if not b > a:
                raise ValueError(
                    f"route {self.service_id!r}: cumulative_m must be strictly increasing"
                )
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.stops)})

    def stop_index(self, stop: NodeId) -> int | None:
        return self._index.get(stop)


@dataclass(frozen=True)
class Path:
    """An ordered chain of segments; consecutive segments share a node.

    A path visits each node once, as every stretch of a route does, so its
    segments are distinct; the trainer's in-place update relies on that.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("a path needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            if a.to_node != b.from_node:
                raise ValueError(
                    f"path breaks between {a.to_node!r} and {b.from_node!r}"
                )
        nodes = (self.segments[0].from_node,) + tuple(s.to_node for s in self.segments)
        if len(set(nodes)) != len(nodes):
            raise ValueError("a path visits a node twice")
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_distance", left_sum(s.distance_m for s in self.segments))

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return self._nodes

    @property
    def distance_m(self) -> float:
        return self._distance


def check_record(
    record_id: str, origin: NodeId, destination: NodeId,
    t_start: float, t_end: float, distance_m: float,
) -> None:
    """The checks every FlowRecord passes, for parsers that skip building one."""
    if not t_end > t_start:
        raise ValueError(f"record {record_id!r}: t_end must exceed t_start")
    if not distance_m > 0:
        raise ValueError(f"record {record_id!r}: distance must be positive")
    if origin == destination:
        raise ValueError(f"record {record_id!r}: origin equals destination")


@dataclass(frozen=True)
class FlowRecord:
    """One end-to-end flow: where it boarded/alighted, when, and how far."""

    record_id: str
    service_id: str
    origin: NodeId
    destination: NodeId
    t_start: float
    t_end: float
    distance_m: float

    def __post_init__(self):
        check_record(self.record_id, self.origin, self.destination,
                     self.t_start, self.t_end, self.distance_m)

    @property
    def observed_s(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class NetworkGraph:
    """Immutable network: nodes, directed segments, and per-service routes.

    Safe for concurrent read-only sharing once built. The only mutable part is
    resolve_path's memo of resolved paths; a concurrent fill is a benign race
    that at worst builds two equal Path objects for one key.
    """

    nodes: frozenset[NodeId]
    segments: dict[tuple[NodeId, NodeId], Segment]
    routes: dict[str, ServiceRoute]
    _paths: dict[tuple[str, NodeId, NodeId], Path] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


def build_network(
    routes: Iterable[ServiceRoute],
    eps_d: float = DEFAULT_DISTANCE_TOLERANCE_M,
) -> NetworkGraph:
    """Combine service routes into one network, deduplicating shared segments.

    Routes are processed in service-id order so the surviving distance of a
    shared segment is deterministic. Distances differing by more than
    ``eps_d`` raise DistanceConflict.
    """
    segments: dict[tuple[NodeId, NodeId], Segment] = {}
    nodes: set[NodeId] = set()
    route_map: dict[str, ServiceRoute] = {}
    for route in sorted(routes, key=lambda r: r.service_id):
        if route.service_id in route_map:
            raise ValueError(f"duplicate service id {route.service_id!r}")
        route_map[route.service_id] = route
        nodes.update(route.stops)
        for stop_a, stop_b, cum_a, cum_b in zip(
            route.stops, route.stops[1:], route.cumulative_m, route.cumulative_m[1:]
        ):
            dist = cum_b - cum_a
            key = (stop_a, stop_b)
            known = segments.get(key)
            if known is None:
                segments[key] = Segment(stop_a, stop_b, dist)
            elif abs(known.distance_m - dist) > eps_d:
                raise DistanceConflict(stop_a, stop_b, known.distance_m, dist)
    return NetworkGraph(frozenset(nodes), segments, route_map)


def resolve_path(
    g: NetworkGraph, service_id: str, origin: NodeId, destination: NodeId
) -> Path:
    """Return the contiguous sub-path of a service between two of its stops.

    Paths are memoized on the network per (service, origin, destination), so
    every caller asking for the same stretch gets the same Path object.
    """
    key = (service_id, origin, destination)
    path = g._paths.get(key)
    if path is not None:
        return path
    route = g.routes.get(service_id)
    if route is None:
        raise UnknownService(service_id)
    i = route.stop_index(origin)
    if i is None:
        raise StopNotOnRoute(service_id, origin)
    j = route.stop_index(destination)
    if j is None:
        raise StopNotOnRoute(service_id, destination)
    if origin == destination:
        raise StopNotOnRoute(service_id, origin, "origin equals destination")
    if j < i:
        raise WrongDirection(service_id, origin, destination)
    segs = tuple(
        g.segments[(route.stops[k], route.stops[k + 1])] for k in range(i, j)
    )
    path = g._paths[key] = Path(segs)
    return path


def validate_record(
    g: NetworkGraph, r: FlowRecord, eps_d: float = DEFAULT_DISTANCE_TOLERANCE_M
) -> Path:
    """Resolve a record's path and check its distance against the route."""
    path = resolve_path(g, r.service_id, r.origin, r.destination)
    if abs(path.distance_m - r.distance_m) > eps_d:
        raise DistanceMismatch(r.record_id, path.distance_m, r.distance_m)
    return path


def resolve_paths(g: NetworkGraph, records: Sequence[FlowRecord]) -> list[Path]:
    """Resolve every record's path; records on the same stretch share one Path."""
    return [resolve_path(g, r.service_id, r.origin, r.destination) for r in records]


class Flows:
    """Records on their resolved paths, as columns: what every fit, fold, score and rank reads.

    Build one with from_table (a parsed RecordTable on a network, as the CLI
    does) or from_records (a FlowRecord list and its parallel paths). Record k
    has record_ids[k], t_start[k], t_end[k], observed[k] (their difference; the
    three are float arrays), distance[k], record_paths[k] and path_of[k];
    distinct Path object j (in order of first use) is paths[j], with segs[j]
    (speed positions) and dists[j]; keys[i] is the segment of speed position i.
    """

    def __init__(self, record_ids: list[str], t_start: array, t_end: array,
                 distance: list[float], paths: Sequence[Path]):
        self.record_ids, self.t_start, self.t_end = record_ids, t_start, t_end
        self.observed = array("d", map(sub, t_end, t_start))
        self.distance, self.record_paths = distance, paths
        first: dict[int, int] = {}
        self.path_of = [first.setdefault(id(p), len(first)) for p in paths]
        self.paths = list({id(p): p for p in paths}.values())
        index: dict[tuple[NodeId, NodeId], int] = {}
        # lists: resized tuple(generator) rows piled up in CPython's tuple free lists
        self.segs = [[index.setdefault(s.key, len(index)) for s in p.segments]
                     for p in self.paths]
        self.dists = [[s.distance_m for s in p.segments] for p in self.paths]
        self.keys = list(index)

    @classmethod
    def from_table(cls, table: RecordTable, network: NetworkGraph,
                   eps_d: float) -> tuple[Flows, list[int]]:
        """The table rows that resolve on the network, and those rows' indices.

        A row is kept when its (service, origin, destination) resolves and its
        distance is within eps_d of its path's. Each distinct key is resolved
        once; only the distance check runs per row. A table with no row kept
        raises EmptyInput.
        """
        by_key: list[Path | None] = []
        for key in table.keys:
            try:
                by_key.append(resolve_path(network, *key))
            except FlowError:
                by_key.append(None)
        rows, paths = [], []
        for i, (k, d) in enumerate(zip(table.key_of, table.distance)):
            path = by_key[k]
            if path is not None and not abs(path.distance_m - d) > eps_d:
                rows.append(i)
                paths.append(path)
        if not rows:
            raise EmptyInput(
                f"no usable records after validation (skipped_unresolvable={len(table)})"
            )
        return cls._take(table, rows, paths), rows

    @classmethod
    def from_records(cls, records: Sequence[FlowRecord], paths: Sequence[Path]) -> Flows:
        """The records on their paths, paths[k] being records[k]'s."""
        if len(records) != len(paths):
            raise ValueError("records and paths must be parallel")
        return cls(
            [r.record_id for r in records],
            array("d", [r.t_start for r in records]),
            array("d", [r.t_end for r in records]),
            [r.distance_m for r in records],
            paths,
        )

    def __len__(self) -> int:
        return len(self.path_of)

    def view(self, rows: Sequence[int]) -> Flows:
        """The given records, in the given order: the Flows of those records and paths."""
        return Flows._take(self, rows, list(map(self.record_paths.__getitem__, rows)))

    @classmethod
    def _take(cls, columns: RecordTable | Flows, rows: Sequence[int],
              paths: Sequence[Path]) -> Flows:
        """The given rows of a table's or a Flows' columns, on the given paths."""
        return cls(
            list(map(columns.record_ids.__getitem__, rows)),
            array("d", map(columns.t_start.__getitem__, rows)),
            array("d", map(columns.t_end.__getitem__, rows)),
            list(map(columns.distance.__getitem__, rows)),
            paths,
        )
