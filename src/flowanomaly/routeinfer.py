"""Reconstruct service routes from origin/destination distance evidence.

Each record of a service asserts one distance between two of its stops.
Embedding the stops on a line and propagating those distance constraints
recovers the stop order exactly for linear routes, and exposes every
inconsistency as a constraint violation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from .core import DEFAULT_DISTANCE_TOLERANCE_M, NodeId, ServiceRoute
from .errors import DisconnectedEvidence, DuplicatePosition, InconsistentEvidence
from .recordio import RecordTable


@dataclass(frozen=True)
class DistanceEvidence:
    """A distance between two stops of one service, asserted by `support` records."""

    service_id: str
    from_node: NodeId
    to_node: NodeId
    distance_m: float
    support: int = 1


@dataclass
class RouteInferenceOutcome:
    """Routes recovered without error, and the services rejected with reasons."""

    accepted: dict[str, ServiceRoute] = field(default_factory=dict)
    rejected: dict[str, str] = field(default_factory=dict)


def collect_evidence(
    table: RecordTable,
    eps_d: float = DEFAULT_DISTANCE_TOLERANCE_M,
) -> tuple[dict[str, list[DistanceEvidence]], dict[str, str]]:
    """Aggregate a parsed record table into per-service evidence.

    Returns the evidence map and a map of services flagged inconsistent
    because two records disagree (beyond eps_d) on the same stop pair.
    Conflicts are recorded, never raised.
    """
    rows = zip(map(table.keys.__getitem__, table.key_of), table.distance)
    first: dict[tuple[str, NodeId, NodeId], float] = {}  # each pair's first distance
    support: dict[tuple[str, NodeId, NodeId], int] = {}
    flagged: dict[str, str] = {}
    for key, distance in rows:
        known = first.get(key)
        if known is None:
            first[key] = distance
            support[key] = 1
            continue
        support[key] += 1
        if abs(known - distance) > eps_d and key[0] not in flagged:
            service_id, origin, destination = key
            flagged[service_id] = (
                f"records disagree on {origin}->{destination}: "
                f"{known:g} m vs {distance:g} m"
            )
    evidence: dict[str, list[DistanceEvidence]] = {}
    for key, distance in first.items():
        evidence.setdefault(key[0], []).append(DistanceEvidence(*key, distance, support[key]))
    return evidence, flagged


def infer_route(
    service_id: str,
    evidence: Sequence[DistanceEvidence],
    eps_d: float = DEFAULT_DISTANCE_TOLERANCE_M,
    anchor: NodeId | None = None,
) -> ServiceRoute:
    """Embed the service's stops on a line and read off the route.

    One stop anchors the embedding at 0 (any choice yields the same route;
    `anchor` exists so tests can prove that). Positions propagate breadth-first
    over the undirected constraint graph, +d forward and -d backward, are
    verified against every piece of evidence, and are then shifted so the
    first stop sits at 0.
    """
    if not evidence:
        raise ValueError(f"service {service_id!r}: no evidence")
    stops = sorted({e.from_node for e in evidence} | {e.to_node for e in evidence})
    adjacency: dict[NodeId, list[tuple[NodeId, float]]] = {s: [] for s in stops}
    for e in evidence:
        adjacency[e.from_node].append((e.to_node, e.distance_m))
        adjacency[e.to_node].append((e.from_node, -e.distance_m))
    for neighbors in adjacency.values():
        neighbors.sort()

    start = anchor if anchor is not None else stops[0]
    if start not in adjacency:
        raise ValueError(f"anchor {start!r} is not a stop of service {service_id!r}")
    pos: dict[NodeId, float] = {start: 0.0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nbr, delta in adjacency[cur]:
            if nbr not in pos:
                pos[nbr] = pos[cur] + delta
                queue.append(nbr)
    if len(pos) < len(stops):
        raise DisconnectedEvidence(service_id, len(pos), len(stops))

    for e in evidence:
        gap = pos[e.to_node] - pos[e.from_node]
        if abs(gap - e.distance_m) > eps_d:
            raise InconsistentEvidence(
                service_id,
                f"{e.from_node}->{e.to_node} asserts {e.distance_m:g} m "
                f"but positions give {gap:g} m",
            )

    lowest = min(pos.values())
    ordered = sorted(stops, key=lambda s: (pos[s] - lowest, s))
    positions = [pos[s] - lowest for s in ordered]
    for (sa, pa), (sb, pb) in zip(
        zip(ordered, positions), zip(ordered[1:], positions[1:])
    ):
        if pb - pa <= eps_d:
            raise DuplicatePosition(service_id, sa, sb)
    return ServiceRoute(service_id, tuple(ordered), tuple(positions))


def infer_all_routes(
    table: RecordTable,
    eps_d: float = DEFAULT_DISTANCE_TOLERANCE_M,
) -> RouteInferenceOutcome:
    """Run evidence collection and per-service inference over a record table."""
    evidence, flagged = collect_evidence(table, eps_d)
    outcome = RouteInferenceOutcome()
    for service_id in sorted(evidence):
        if service_id in flagged:
            outcome.rejected[service_id] = flagged[service_id]
            continue
        try:
            outcome.accepted[service_id] = infer_route(
                service_id, evidence[service_id], eps_d
            )
        except (DisconnectedEvidence, InconsistentEvidence, DuplicatePosition) as exc:
            outcome.rejected[service_id] = str(exc)
    return outcome
