"""Score the rows of a Flows (defined in core) against a model, filter, and localize.

A row's deviation ratio is its residual travel time normalized by
sigma*sqrt(distance); rows above a cutoff form the significant set, as indices
into the Flows. Within that set, a row is contained by another when its stop
sequence is a contiguous stretch of the other's and its times nest strictly
inside. Per-row containment counts rank the rows, and the innermost contained
rows pin down which segments were congested and when. Containment is found
through an index that buckets the significant set by node sequence, so its cost
follows the number of nested pairs, not the square of the set size.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Sequence

from .core import Flows, Path, Segment
from .core import resolve_paths  # noqa: F401 - perfbench/tracing.py wraps this name here
from .errors import EmptyInput, ZeroVariance

if TYPE_CHECKING:  # only score needs models at run time, so localize never loads it
    from .models import Model

PROVENANCE_WITNESS = "innermost-witness"
PROVENANCE_SELF = "self-path"


@dataclass(frozen=True)
class DetectConfig:
    """Cutoff selection: a quantile of the ratio values, or an absolute override."""

    delta_quantile: float = 0.01
    delta_override: float | None = None

    def __post_init__(self):
        if not 0.0 < self.delta_quantile < 1.0:
            raise ValueError("delta_quantile must be in (0, 1)")
        if self.delta_override is not None and math.isnan(self.delta_override):
            raise ValueError("delta_override must not be nan")  # +-inf keep all or none


@dataclass(frozen=True)
class AnomalyReport:
    """One significant row, with its containment count and congested segments."""

    record_id: str
    path: Path
    t_start: float
    t_end: float
    alpha: float
    expected_s: float
    containment_count: int
    congested_segments: tuple[tuple[Segment, float, float], ...]
    provenance: str


def score(model: Model, flows: Flows) -> tuple[list[float], list[float]]:
    """Per row of the flows, its expected time and its deviation ratio."""
    from .models import expected_times

    if model.sigma2 <= 0:
        raise ZeroVariance("sigma = 0: ratios are undefined (degenerate training)")
    sigma = math.sqrt(model.sigma2)
    expected = expected_times(model, flows)
    alphas = [(t - expect) / (sigma * math.sqrt(d))
              for t, expect, d in zip(flows.observed, expected, flows.distance)]
    return expected, alphas


def filter_significant(
    alphas: Sequence[float], cfg: DetectConfig
) -> tuple[list[int], float]:
    """The rows whose ratio exceeds the cutoff, ascending, and the cutoff.

    With a quantile q the cutoff is the nearest-rank (1-q) quantile of all
    ratios, and only rows strictly above it pass (so an all-tied set filters
    to nothing).
    """
    if not alphas:
        raise EmptyInput("filter_significant needs scored records")
    delta = cfg.delta_override
    if delta is None:
        n = len(alphas)
        # tiny slack keeps ceil() from tipping up on exact-integer products
        rank = min(n, max(1, math.ceil((1.0 - cfg.delta_quantile) * n - 1e-9)))
        delta = sorted(alphas)[rank - 1]
    return [i for i, alpha in enumerate(alphas) if alpha > delta], delta


def _contained(flows: Flows, rows: Sequence[int]) -> list[list[int]]:
    """Per position in rows, the ascending positions of the rows it contains.

    Rows are bucketed by node sequence, each bucket sorted by start time.
    The contiguous runs of each distinct sequence are looked up once, L(L-1)/2
    for L nodes, and every row on the sequence bisects the buckets they hit
    to the starts strictly inside its window, so the scan touches only rows
    that board during its trip: the candidates found, not n^2.
    """
    t_start, t_end, paths, path_of = flows.t_start, flows.t_end, flows.paths, flows.path_of
    buckets: dict[tuple, list[tuple[float, float, int]]] = {}
    for p, i in enumerate(rows):
        buckets.setdefault(paths[path_of[i]].nodes, []).append((t_start[i], t_end[i], p))
    index = {}
    for key, entries in buckets.items():
        entries.sort()
        index[key] = ([e[0] for e in entries], entries)
    out: list[list[int]] = [[] for _ in rows]
    for nodes, (_, entries) in index.items():
        # the buckets that the runs of this node sequence hit, shared by its rows
        n = len(nodes)
        runs = {nodes[a:b] for a in range(n - 1) for b in range(a + 2, n + 1)}
        hits = [index[run] for run in runs if run in index]
        for t0, t1, p in entries:
            inner = out[p]
            for starts, bucket in hits:
                for _, end, q in bucket[bisect_right(starts, t0) : bisect_left(starts, t1)]:
                    if end < t1:
                        inner.append(q)
            inner.sort()
    return out


def containment_counts(flows: Flows, rows: Sequence[int]) -> dict[str, int]:
    """For each record id of the rows, how many other rows contain it; rows that
    share a record id add up under it, where rank_anomalies counts per row."""
    record_ids = flows.record_ids
    counts = dict.fromkeys(map(record_ids.__getitem__, rows), 0)
    for nested in _contained(flows, rows):
        for q in nested:
            counts[record_ids[rows[q]]] += 1
    return counts


def _congestion_entries(flows: Flows, rows: list[int]) -> list[tuple[Segment, float, float]]:
    """The segments of the rows, each with its row's window, by start and record id."""
    t_start, t_end, paths, path_of = flows.t_start, flows.t_end, flows.paths, flows.path_of
    entries: list[tuple[Segment, float, float]] = []
    seen = set()
    for j in sorted(rows, key=lambda j: (t_start[j], flows.record_ids[j])):
        w0, w1 = t_start[j], t_end[j]
        for seg in paths[path_of[j]].segments:
            key = (seg.from_node, seg.to_node, w0, w1)
            if key not in seen:
                seen.add(key)
                entries.append((seg, w0, w1))
    return entries


def rank_anomalies(
    flows: Flows, rows: Sequence[int], alphas: Sequence[float], expected: Sequence[float]
) -> list[AnomalyReport]:
    """Order the given rows of the flows and localize each one.

    alphas and expected are per row of the flows, as score gives them. Sorted
    by containment count descending, ratio descending, record id ascending; a
    row's count is how many other given rows contain it, so rows that share a
    record id keep their own counts. The innermost rows nested in a row (those
    containing no further given row) witness its congestion, and their segments
    are reported, each stamped with its witness's window; a row with none
    nested falls back to its own path and window. One containment index serves
    the counts and the witnesses.
    """
    contained = _contained(flows, rows)
    has_inner = [bool(inner) for inner in contained]
    counts = [0] * len(rows)
    for nested in contained:
        for q in nested:
            counts[q] += 1

    record_ids = flows.record_ids
    order = sorted(
        range(len(rows)),
        key=lambda p: (-counts[p], -alphas[rows[p]], record_ids[rows[p]]),
    )
    reports = []
    for p in order:
        i = rows[p]
        witnesses = [rows[q] for q in contained[p] if not has_inner[q]]
        reports.append(AnomalyReport(
            record_id=record_ids[i], path=flows.paths[flows.path_of[i]], t_start=flows.t_start[i],
            t_end=flows.t_end[i], alpha=alphas[i], expected_s=expected[i],
            containment_count=counts[p],
            congested_segments=tuple(_congestion_entries(flows, witnesses or [i])),
            provenance=PROVENANCE_WITNESS if witnesses else PROVENANCE_SELF,
        ))
    return reports


@dataclass(frozen=True)
class DailyStats:
    date: str
    mean_count: float
    median_count: float
    mean_alpha: float
    median_alpha: float


def _utc_date(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).date().isoformat()


def daily_series(reports: Sequence[AnomalyReport]) -> list[DailyStats]:
    """Per-day mean/median of containment counts and ratios, date-sorted.

    Days without reports are absent, not zero-filled.
    """
    import statistics  # imported here: it loads fractions and decimal, which only localize needs

    by_day: dict[str, list[AnomalyReport]] = {}
    for rep in reports:
        by_day.setdefault(_utc_date(rep.t_start), []).append(rep)
    rows = []
    for day in sorted(by_day):
        counts = [r.containment_count for r in by_day[day]]
        alphas = [r.alpha for r in by_day[day]]
        rows.append(
            DailyStats(
                date=day,
                mean_count=statistics.fmean(counts),
                median_count=float(statistics.median(counts)),
                mean_alpha=statistics.fmean(alphas),
                median_alpha=float(statistics.median(alphas)),
            )
        )
    return rows
