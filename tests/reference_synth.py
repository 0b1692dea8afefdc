"""Reference for synth.generate_records: one numpy call per draw, as first written.

`rng.choice` picks each record's stop pair, `rng.uniform` its start time and
`rng.normal` each segment's noise. The library draws the same numbers from
cheaper calls; tests/test_synth.py requires equal records and truncation
counts from both.
"""

from __future__ import annotations

import math

from flowanomaly.core import FlowRecord
from flowanomaly.synth import (
    MAX_PHYSICAL_SPEED_MPS,
    SynthConfig,
    SynthTruth,
    _congested_base_time,
)


def generate_records(truth: SynthTruth, cfg: SynthConfig) -> tuple[list[FlowRecord], int]:
    import numpy as np

    rng = np.random.default_rng((cfg.seed, 1))
    services = sorted(truth.network.routes)
    cong = truth.congestion
    records = []
    truncated = 0
    for n in range(cfg.n_records):
        route = truth.network.routes[services[rng.integers(len(services))]]
        m = len(route.stops)
        a, b = sorted(rng.choice(m, size=2, replace=False))
        t_start = cfg.day_start_s + rng.uniform(0.0, cfg.day_seconds)
        t_cur = t_start
        for k in range(a, b):
            seg = (route.stops[k], route.stops[k + 1])
            d = route.cumulative_m[k + 1] - route.cumulative_m[k]
            c = truth.true_speed[seg]
            if cong is not None and seg == (cong.from_node, cong.to_node):
                base = _congested_base_time(d, c, t_cur, cong)
            else:
                base = d / c
            t_seg = base + rng.normal(0.0, math.sqrt(d * cfg.noise_sigma2))
            floor = d / MAX_PHYSICAL_SPEED_MPS
            if t_seg < floor:
                t_seg = floor
                truncated += 1
            t_cur += t_seg
        records.append(
            FlowRecord(
                record_id=f"r{n:06d}",
                service_id=route.service_id,
                origin=route.stops[a],
                destination=route.stops[b],
                t_start=t_start,
                t_end=t_cur,
                distance_m=route.cumulative_m[b] - route.cumulative_m[a],
            )
        )
    return records, truncated
