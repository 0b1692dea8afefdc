"""Synthetic networks and trip records with known speeds and planted congestion.

Ground truth from this generator backs every oracle comparison: recovered
speeds, detected anomalies, and localized segments are all checked against
what was planted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterator

from .core import NetworkGraph, FlowRecord, NodeId, ServiceRoute, build_network
from .recordio import _EPOCH_MAX, _EPOCH_MIN, format_float, write_lines

# Per-segment times are truncated below at distance over this speed so a
# Gaussian tail cannot produce superluminal (or negative) travel.
MAX_PHYSICAL_SPEED_MPS = 40.0


@dataclass(frozen=True)
class PlantedCongestion:
    """One segment slowed by `slowdown_factor` for entries inside the window."""

    from_node: NodeId
    to_node: NodeId
    window_start: float
    window_end: float
    slowdown_factor: float

    def __post_init__(self):
        for name in ("window_start", "window_end", "slowdown_factor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.slowdown_factor > 1:
            raise ValueError("slowdown_factor must be > 1")
        if not self.window_end > self.window_start:
            raise ValueError("congestion window must have positive length")


@dataclass(frozen=True)
class SynthConfig:
    n_services: int = 4
    stops_per_service: int = 8
    segment_length_range_m: tuple[float, float] = (400.0, 1600.0)
    speed_range_mps: tuple[float, float] = (4.0, 16.0)
    n_records: int = 2000
    noise_sigma2: float = 0.05
    congestion: PlantedCongestion | None = None
    seed: int = 0
    shared_corridor_stops: int = 0
    day_start_s: float = 0.0
    day_seconds: float = 86400.0

    def __post_init__(self):
        floats = {
            "segment_length_range_m": self.segment_length_range_m,
            "speed_range_mps": self.speed_range_mps,
            "noise_sigma2": (self.noise_sigma2,),
            "day_start_s": (self.day_start_s,),
            "day_seconds": (self.day_seconds,),
        }
        for name, values in floats.items():
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite")
        if self.n_services < 1 or self.stops_per_service < 2:
            raise ValueError("need at least one service with two stops")
        lo, hi = self.segment_length_range_m
        if not 0 < lo <= hi:
            raise ValueError("segment_length_range_m must be positive and ordered")
        lo, hi = self.speed_range_mps
        if not 0 < lo <= hi:
            raise ValueError("speed_range_mps must be positive and ordered")
        if hi > MAX_PHYSICAL_SPEED_MPS:
            raise ValueError(f"speeds above {MAX_PHYSICAL_SPEED_MPS} m/s are not sampleable")
        if self.n_records < 0:
            raise ValueError("n_records must be >= 0")
        if self.noise_sigma2 < 0:
            raise ValueError("noise_sigma2 must be >= 0")
        if self.shared_corridor_stops == 1 or self.shared_corridor_stops < 0:
            raise ValueError("shared_corridor_stops must be 0 or >= 2")
        if self.shared_corridor_stops >= self.stops_per_service:
            raise ValueError("corridor must be shorter than the route")
        if self.day_seconds <= 0:
            raise ValueError("day_seconds must be positive")
        day_end = self.day_start_s + self.day_seconds
        if not (_EPOCH_MIN <= self.day_start_s and day_end < _EPOCH_MAX):  # recordio's range
            raise ValueError("day_start_s and day_start_s + day_seconds must lie within "
                             "years 1-9999 UTC")


@dataclass(frozen=True)
class SynthTruth:
    network: NetworkGraph
    true_speed: dict[tuple[NodeId, NodeId], float]
    congestion: PlantedCongestion | None


def generate_network(cfg: SynthConfig) -> SynthTruth:
    """Build linear routes (optionally sharing a middle corridor) with drawn speeds."""
    import numpy as np  # imported here: only seeded draws need numpy, which is slow to load
    rng = np.random.default_rng((cfg.seed, 0))
    len_lo, len_hi = cfg.segment_length_range_m
    spd_lo, spd_hi = cfg.speed_range_mps

    corridor = cfg.shared_corridor_stops
    corridor_stops = [f"x{i:02d}" for i in range(corridor)]
    corridor_gaps = [rng.uniform(len_lo, len_hi) for _ in range(max(0, corridor - 1))]

    routes = []
    true_speed: dict[tuple[NodeId, NodeId], float] = {}
    for s in range(cfg.n_services):
        own = cfg.stops_per_service - corridor
        n_prefix = own // 2 if corridor else 0
        n_suffix = own - n_prefix if corridor else 0
        prefix = [f"s{s:02d}a{j:02d}" for j in range(n_prefix)]
        suffix = [f"s{s:02d}b{j:02d}" for j in range(n_suffix)]
        if corridor:
            stops = prefix + corridor_stops + suffix
        else:
            stops = [f"s{s:02d}n{j:02d}" for j in range(cfg.stops_per_service)]
        cum = [0.0]
        for a, b in zip(stops, stops[1:]):
            if corridor and a in corridor_stops and b in corridor_stops:
                gap = corridor_gaps[corridor_stops.index(a)]
            else:
                gap = rng.uniform(len_lo, len_hi)
            cum.append(cum[-1] + gap)
        routes.append(ServiceRoute(f"svc{s:02d}", tuple(stops), tuple(cum)))
        for a, b in zip(stops, stops[1:]):
            if (a, b) not in true_speed:
                true_speed[(a, b)] = rng.uniform(spd_lo, spd_hi)

    network = build_network(routes)
    if cfg.congestion is not None:
        key = (cfg.congestion.from_node, cfg.congestion.to_node)
        if key not in network.segments:
            raise ValueError(f"congestion names unknown segment {key[0]}->{key[1]}")
    return SynthTruth(network=network, true_speed=true_speed, congestion=cfg.congestion)


def _congested_base_time(
    d: float, c: float, t_entry: float, cong: PlantedCongestion
) -> float:
    """Noise-free traversal of the planted segment entered at t_entry.

    Speed is c / slowdown_factor exactly while the clock is inside the
    window and c outside it, so late entrants shed part of the slowdown.
    """
    c_slow = c / cong.slowdown_factor
    t = t_entry
    remaining = d
    while True:
        if t < cong.window_start:
            speed, horizon = c, cong.window_start
        elif t < cong.window_end:
            speed, horizon = c_slow, cong.window_end
        else:
            return (t - t_entry) + remaining / c
        covered = speed * (horizon - t)
        if covered >= remaining:
            return (t - t_entry) + remaining / speed
        remaining -= covered
        t = horizon


class RecordStream:
    """The trip records of one seeded day, drawn as they are iterated.

    Boarding/alighting pairs are uniform over ordered stop pairs of a uniform
    service; each segment's time is Gaussian around its noise-free traversal
    with variance d*noise_sigma2, truncated below at d / MAX_PHYSICAL_SPEED_MPS.
    The planted segment runs at true speed over the slowdown factor while the
    clock is inside the congestion window. Each pass draws the day afresh from
    its seed, so every pass yields the same records, and `truncated` counts the
    segment times the latest pass raised to their floor. A record that would
    alight after year 9999 UTC, which no reader accepts, raises ValueError.
    """

    def __init__(self, truth: SynthTruth, cfg: SynthConfig):
        self.truth = truth
        self.cfg = cfg
        self.truncated = 0

    def __iter__(self) -> Iterator[FlowRecord]:
        import numpy as np  # imported here: only seeded draws need numpy, which is slow to load
        truth, cfg, cong = self.truth, self.cfg, self.truth.congestion
        planted = None if cong is None else (cong.from_node, cong.to_node)
        # per service, in id order: its route and each segment's (d, c, sd, floor, congested)
        tables = []
        for service_id in sorted(truth.network.routes):
            route = truth.network.routes[service_id]
            segments = []
            for k, seg in enumerate(zip(route.stops, route.stops[1:])):
                d = route.cumulative_m[k + 1] - route.cumulative_m[k]
                segments.append((d, truth.true_speed[seg], math.sqrt(d * cfg.noise_sigma2),
                                 d / MAX_PHYSICAL_SPEED_MPS, seg == planted))
            tables.append((route, segments))
        rng = np.random.default_rng((cfg.seed, 1))
        integers, random, standard_normal = rng.integers, rng.random, rng.standard_normal
        n_services, day_start, span = len(tables), cfg.day_start_s, cfg.day_seconds
        self.truncated = 0
        # Each record takes the draws of a service index, choice(m, 2, replace=False),
        # uniform(0, span) and one normal(0, sd) per segment, from cheaper calls that
        # tests/test_synth.py holds equal. choice runs Floyd's algorithm: a draw below
        # m - 1, then one below m that becomes m - 1 if it repeats the first, then one
        # 32-bit draw that shuffles the pair, whose order (a, b) discards.
        for n in range(cfg.n_records):
            route, segments = tables[integers(n_services)]
            m = len(route.stops)
            i = int(integers(0, m - 1))
            j = int(integers(0, m))
            if j == i:
                j = m - 1
            integers(0, 2)
            a, b = (i, j) if i < j else (j, i)
            t_start = day_start + (0.0 + span * random())
            t_cur = t_start
            for (d, c, sd, floor, congested), z in zip(segments[a:b],
                                                      standard_normal(b - a).tolist()):
                base = _congested_base_time(d, c, t_cur, cong) if congested else d / c
                t_seg = base + (0.0 + sd * z)
                if t_seg < floor:
                    t_seg = floor
                    self.truncated += 1
                t_cur += t_seg
            if t_cur >= _EPOCH_MAX:
                raise ValueError(f"record r{n:06d} alights at {format_float(t_cur)}, outside "
                                 "years 1-9999 UTC; an earlier day_start_s keeps trips inside")
            yield FlowRecord(
                record_id=f"r{n:06d}",
                service_id=route.service_id,
                origin=route.stops[a],
                destination=route.stops[b],
                t_start=t_start,
                t_end=t_cur,
                distance_m=route.cumulative_m[b] - route.cumulative_m[a],
            )


def generate_records(
    truth: SynthTruth, cfg: SynthConfig
) -> tuple[list[FlowRecord], int]:
    """Sample trip records under the truth; returns (records, truncation count).

    The records are RecordStream's, in a list.
    """
    stream = RecordStream(truth, cfg)
    return list(stream), stream.truncated


def write_truth(truth: SynthTruth, dest: str | IO[str]) -> None:
    """Truth sidecar: one row per segment with its speed and any planted window."""
    lines = ["from,to,true_speed_mps,window_start,window_end,slowdown_factor"]
    cong = truth.congestion
    for key in sorted(truth.true_speed):
        row = [key[0], key[1], format_float(truth.true_speed[key])]
        if cong is not None and key == (cong.from_node, cong.to_node):
            window = (cong.window_start, cong.window_end, cong.slowdown_factor)
            row += [format_float(v) for v in window]
        else:
            row += ["", "", ""]
        lines.append(",".join(row))
    write_lines(dest, lines)

