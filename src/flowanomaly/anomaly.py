"""Score records against a model, filter the significant ones, and localize.

A record's deviation ratio is its residual travel time normalized by
sigma*sqrt(distance); records above a cutoff form the significant set. Within
that set, a record is contained by another when its stop sequence is a
contiguous stretch of the other's and its times nest strictly inside.
Per-record containment counts rank the records, and the innermost contained
records pin down which segments were congested and when. Containment is found
through an index that buckets the significant set by node sequence, so its cost
follows the number of nested pairs, not the square of the set size.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Sequence

from .core import FlowRecord, NetworkGraph, Path, Segment, resolve_paths
from .errors import EmptyInput, ZeroVariance

if TYPE_CHECKING:  # only score needs models at run time, so localize never loads it
    from .models import Model, _Columns

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


@dataclass(frozen=True)
class ScoredRecord:
    record: FlowRecord
    path: Path
    alpha: float
    expected_s: float


@dataclass(frozen=True)
class AnomalyReport:
    scored: ScoredRecord
    containment_count: int
    congested_segments: tuple[tuple[Segment, float, float], ...]
    provenance: str


def _deviations(model: Model, cols: _Columns) -> tuple[list[float], list[float]]:
    """Per record of the columns, its expected time and its deviation ratio."""
    if model.sigma2 <= 0:
        raise ZeroVariance("sigma = 0: ratios are undefined (degenerate training)")
    sigma = math.sqrt(model.sigma2)
    expected = cols.expected_times(model)
    alphas = [
        (t - expect) / (sigma * math.sqrt(d))
        for t, expect, d in zip(cols.observed, expected, cols.distance)
    ]
    return expected, alphas


def score(
    model: Model, records: Sequence[FlowRecord], network: NetworkGraph
) -> list[ScoredRecord]:
    """Attach a deviation ratio to every record."""
    from .models import _Columns

    paths = resolve_paths(network, records)
    expected, alphas = _deviations(model, _Columns.of(records, paths))
    return [
        ScoredRecord(record=r, path=p, alpha=alpha, expected_s=expect)
        for r, p, alpha, expect in zip(records, paths, alphas, expected)
    ]


def _cutoff(alphas: Sequence[float], cfg: DetectConfig) -> float:
    """The cutoff delta of filter_significant over these ratios."""
    if not alphas:
        raise EmptyInput("filter_significant needs scored records")
    if cfg.delta_override is not None:
        return cfg.delta_override
    ordered = sorted(alphas)
    n = len(ordered)
    # tiny slack keeps ceil() from tipping up on exact-integer products
    rank = min(n, max(1, math.ceil((1.0 - cfg.delta_quantile) * n - 1e-9)))
    return ordered[rank - 1]


def filter_significant(
    scored: Sequence[ScoredRecord], cfg: DetectConfig
) -> tuple[list[ScoredRecord], float]:
    """Keep records whose ratio exceeds the cutoff; also return the cutoff.

    With a quantile q the cutoff is the nearest-rank (1-q) quantile of all
    ratios, and only records strictly above it pass (so an all-tied set
    filters to nothing).
    """
    delta = _cutoff([s.alpha for s in scored], cfg)
    return [s for s in scored if s.alpha > delta], delta


def contains(r_outer: ScoredRecord, r_inner: ScoredRecord) -> bool:
    """True when the outer record's trip spatially and temporally covers the inner's.

    The inner node sequence must be a contiguous run of the outer's, the outer
    must start strictly earlier and end strictly later.
    """
    if not (
        r_outer.record.t_start < r_inner.record.t_start
        and r_outer.record.t_end > r_inner.record.t_end
    ):
        return False
    inner = r_inner.path.nodes
    outer = r_outer.path.nodes
    n, m = len(inner), len(outer)
    if n > m:
        return False
    first = inner[0]
    for i in range(m - n + 1):
        if outer[i] == first and outer[i : i + n] == inner:
            return True
    return False


def _contained(filtered: Sequence[ScoredRecord]) -> list[list[int]]:
    """Per record, the ascending indices of the records it contains.

    Records are bucketed by node sequence, each bucket sorted by start time.
    The contiguous runs of each distinct sequence are looked up once, L(L-1)/2
    for L nodes, and every record on the sequence bisects the buckets they hit
    to the starts strictly inside its window, so the scan touches only records
    that board during its trip: the candidates found, not n^2.
    """
    buckets: dict[tuple, list[tuple[float, float, int]]] = {}
    for j, s in enumerate(filtered):
        buckets.setdefault(s.path.nodes, []).append((s.record.t_start, s.record.t_end, j))
    index = {}
    for key, entries in buckets.items():
        entries.sort()
        index[key] = ([e[0] for e in entries], entries)
    out: list[list[int]] = [[] for _ in filtered]
    for nodes, (_, entries) in index.items():
        # the buckets that the runs of this node sequence hit, shared by its records
        n = len(nodes)
        runs = {nodes[a:b] for a in range(n - 1) for b in range(a + 2, n + 1)}
        hits = [index[run] for run in runs if run in index]
        for t0, t1, i in entries:
            inner = out[i]
            for starts, bucket in hits:
                for _, end, j in bucket[bisect_right(starts, t0) : bisect_left(starts, t1)]:
                    if end < t1:
                        inner.append(j)
            inner.sort()
    return out


def containment_counts(filtered: Sequence[ScoredRecord]) -> dict[str, int]:
    """For each record id, how many other significant records contain it.

    Rows that share a record id add up under that id; rank_anomalies counts
    per row.
    """
    counts = {s.record.record_id: 0 for s in filtered}
    for nested in _contained(filtered):
        for j in nested:
            counts[filtered[j].record.record_id] += 1
    return counts


def _congestion_entries(
    r_outer: ScoredRecord, witnesses: list[ScoredRecord]
) -> tuple[list[tuple[Segment, float, float]], str]:
    """Segments-with-windows from the witnesses, or the record's own path."""
    if not witnesses:
        w0, w1 = r_outer.record.t_start, r_outer.record.t_end
        return [(seg, w0, w1) for seg in r_outer.path.segments], PROVENANCE_SELF
    witnesses = sorted(witnesses, key=lambda s: (s.record.t_start, s.record.record_id))
    entries: list[tuple[Segment, float, float]] = []
    seen = set()
    for w in witnesses:
        w0, w1 = w.record.t_start, w.record.t_end
        for seg in w.path.segments:
            key = (seg.from_node, seg.to_node, w0, w1)
            if key not in seen:
                seen.add(key)
                entries.append((seg, w0, w1))
    return entries, PROVENANCE_WITNESS


def rank_anomalies(filtered: Sequence[ScoredRecord]) -> list[AnomalyReport]:
    """Order the significant records and localize each one.

    Sorted by containment count descending, ratio descending, record id
    ascending; a row's count is how many other rows contain it, so rows that
    share a record id keep their own counts. The innermost records nested in a
    record (those containing no further significant record) witness its
    congestion, and their segments are reported, each stamped with its
    witness's window; a record with none nested falls back to its own path and
    window. One containment index serves the counts and the witnesses, so the
    cost follows the number of nested pairs, not the square of the set size.
    """
    contained = _contained(filtered)
    has_inner = [bool(inner) for inner in contained]
    counts = [0] * len(filtered)
    for nested in contained:
        for j in nested:
            counts[j] += 1

    order = sorted(
        range(len(filtered)),
        key=lambda i: (-counts[i], -filtered[i].alpha, filtered[i].record.record_id),
    )
    reports = []
    for i in order:
        outer = filtered[i]
        witnesses = [filtered[j] for j in contained[i] if not has_inner[j]]
        entries, provenance = _congestion_entries(outer, witnesses)
        reports.append(
            AnomalyReport(
                scored=outer,
                containment_count=counts[i],
                congested_segments=tuple(entries),
                provenance=provenance,
            )
        )
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
    by_day: dict[str, list[AnomalyReport]] = {}
    for rep in reports:
        by_day.setdefault(_utc_date(rep.scored.record.t_start), []).append(rep)
    rows = []
    for day in sorted(by_day):
        counts = [r.containment_count for r in by_day[day]]
        alphas = [r.scored.alpha for r in by_day[day]]
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
