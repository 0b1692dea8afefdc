import math
import time
from collections import Counter

import numpy as np
import pytest

from flowanomaly.anomaly import (
    PROVENANCE_SELF,
    PROVENANCE_WITNESS,
    AnomalyReport,
    DetectConfig,
    daily_series,
    filter_significant,
    score,
)
from flowanomaly.core import build_network
from flowanomaly.errors import EmptyInput, ZeroVariance
from flowanomaly.models import Baseline1Model

from conftest import (
    Trip,
    chain_path,
    contains,
    count_trips,
    flows_on,
    make_record,
    make_route,
    rank_trips,
    report_key,
    trip_key,
)

ROUTE_NODES = "ABCDEFGH"


def scored(rid, o, d, t0, t1, alpha=1.0):
    """A trip on the shared A..H line with 100 m gaps."""
    i, j = ROUTE_NODES.index(o), ROUTE_NODES.index(d)
    path = chain_path(ROUTE_NODES[i : j + 1], [100.0] * (j - i))
    r = make_record(
        record_id=rid, service_id="s1", origin=o, destination=d,
        t_start=t0, t_end=t1, distance_m=100.0 * (j - i),
    )
    return Trip(r, path, alpha)


class TestScore:
    def setup_method(self):
        self.net = build_network([make_route("s1", "ab", (0.0, 300.0))])

    def test_hand_ratio(self):
        model = Baseline1Model(c=15.0, sigma2=1.0)  # expected 300/15 = 20 s
        r = make_record(origin="a", destination="b", t_start=0.0, t_end=30.0,
                        distance_m=300.0)
        [expected], [alpha] = score(model, flows_on(self.net, [r]))
        assert math.isclose(alpha, 10.0 / math.sqrt(300.0), rel_tol=1e-12)
        assert expected == 20.0

    def test_zero_and_negative(self):
        model = Baseline1Model(c=15.0, sigma2=1.0)
        r_eq = make_record(origin="a", destination="b", t_start=0.0, t_end=20.0,
                           distance_m=300.0)
        r_fast = make_record(record_id="r2", origin="a", destination="b",
                             t_start=0.0, t_end=10.0, distance_m=300.0)
        _, (a_eq, a_fast) = score(model, flows_on(self.net, [r_eq, r_fast]))
        assert a_eq == 0.0
        assert a_fast < 0.0

    def test_zero_variance(self):
        model = Baseline1Model(c=15.0, sigma2=0.0)
        r = make_record(origin="a", destination="b", distance_m=300.0)
        with pytest.raises(ZeroVariance):
            score(model, flows_on(self.net, [r]))


class TestFilterSignificant:
    def test_top_one_of_hundred(self):
        alphas = [float(i + 1) for i in range(100)]
        kept, delta = filter_significant(alphas, DetectConfig(delta_quantile=0.01))
        assert delta == 99.0
        assert kept == [99]

    def test_override_zero_keeps_positive(self):
        kept, delta = filter_significant([-1.0, 0.0, 2.0], DetectConfig(delta_override=0.0))
        assert delta == 0.0
        assert kept == [2]

    def test_all_tied_filters_to_nothing(self):
        kept, delta = filter_significant([3.0] * 10, DetectConfig(delta_quantile=0.1))
        assert delta == 3.0
        assert kept == []

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(1)
        alphas = rng.normal(size=200).tolist()
        previous = None
        for delta in (-1.0, 0.0, 0.5, 1.5):
            kept, _ = filter_significant(alphas, DetectConfig(delta_override=delta))
            ids = set(kept)
            if previous is not None:
                assert ids <= previous
            previous = ids

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            filter_significant([], DetectConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectConfig(delta_quantile=0.0)
        # nan kept no row and printed delta=nan
        with pytest.raises(ValueError, match="delta_override must not be nan"):
            DetectConfig(delta_override=math.nan)

    def test_infinite_override_keeps_all_or_none(self):
        alphas = [0.0, 1.0, 2.0]
        kept, _ = filter_significant(alphas, DetectConfig(delta_override=-math.inf))
        assert kept == [0, 1, 2]
        assert filter_significant(alphas, DetectConfig(delta_override=math.inf))[0] == []


class TestContains:
    def test_nested_true(self):
        outer = scored("out", "A", "D", 600.0, 1800.0)
        inner = scored("in", "B", "C", 900.0, 1200.0)
        assert contains(outer, inner)
        assert not contains(inner, outer)

    def test_earlier_boarding_breaks_nesting(self):
        outer = scored("out", "A", "D", 600.0, 1800.0)
        inner = scored("in", "B", "C", 599.0, 1200.0)
        assert not contains(outer, inner)

    def test_identical_records_not_contained(self):
        a = scored("a", "A", "D", 600.0, 1800.0)
        b = scored("b", "A", "D", 600.0, 1800.0)
        assert not contains(a, b)
        assert not contains(a, a)

    def test_non_contiguous_nodes_rejected(self):
        outer = scored("out", "A", "D", 0.0, 100.0)
        # same endpoints on a different route: nodes A,X,D are not a run of A,B,C,D
        other_path = chain_path(("A", "X", "D"), [100.0, 100.0])
        r = make_record(record_id="in", service_id="s2", origin="A", destination="D",
                        t_start=10.0, t_end=90.0, distance_m=200.0)
        inner = Trip(r, other_path)
        assert not contains(outer, inner)

    def test_cross_service_containment_allowed(self):
        # only node sequences and times matter, not service ids
        outer = scored("out", "A", "D", 0.0, 1000.0)
        r = make_record(record_id="in", service_id="other", origin="B",
                        destination="C", t_start=100.0, t_end=900.0, distance_m=100.0)
        inner = Trip(r, chain_path("BC", [100.0]))
        assert contains(outer, inner)


def oracle_row_counts(filtered):
    """Independent containment counter, per row: delimited-string node matching."""
    counts = []
    for inner in filtered:
        n = 0
        inner_key = "|" + "|".join(inner.path.nodes) + "|"
        for outer in filtered:
            if outer is inner:
                continue
            if not (outer.record.t_start < inner.record.t_start
                    and outer.record.t_end > inner.record.t_end):
                continue
            outer_key = "|" + "|".join(outer.path.nodes) + "|"
            if inner_key in outer_key:
                n += 1
        counts.append(n)
    return counts


def oracle_counts(filtered):
    """oracle_row_counts, where records sharing a record id add up under that id."""
    counts = {}
    for s, n in zip(filtered, oracle_row_counts(filtered)):
        counts[s.record.record_id] = counts.get(s.record.record_id, 0) + n
    return counts


def random_scored(rng, n, rid_prefix="r", repeat_ids=False):
    """n scored trips on the A..H line; with repeat_ids, rows 2k and 2k+1 share an id."""
    out = []
    for i in range(n):
        a, b = sorted(rng.choice(len(ROUTE_NODES), size=2, replace=False))
        t0 = float(rng.uniform(0.0, 5000.0))
        t1 = t0 + float(rng.uniform(10.0, 3000.0))
        rid = f"{rid_prefix}{i // 2 if repeat_ids else i}"
        out.append(scored(rid, ROUTE_NODES[a], ROUTE_NODES[b], t0, t1,
                          alpha=float(rng.normal())))
    return out


def oracle_localize(r_outer, filtered):
    """Brute-force congestion entries and provenance of one record, from contains().

    The innermost records nested in r_outer (those containing no further record)
    are its witnesses, visited by start time then record id; each of their
    segments is listed once per witness window. Without witnesses the record's
    own path and window stand in.
    """
    witnesses = [s for s in filtered if contains(r_outer, s)
                 and not any(contains(s, t) for t in filtered)]
    if not witnesses:
        w0, w1 = r_outer.record.t_start, r_outer.record.t_end
        return [(seg, w0, w1) for seg in r_outer.path.segments], PROVENANCE_SELF
    entries, seen = [], set()
    for w in sorted(witnesses, key=lambda s: (s.record.t_start, s.record.record_id)):
        for seg in w.path.segments:
            if (seg.key, w.record.t_start, w.record.t_end) not in seen:
                seen.add((seg.key, w.record.t_start, w.record.t_end))
                entries.append((seg, w.record.t_start, w.record.t_end))
    return entries, PROVENANCE_WITNESS


def report_for(r_outer, filtered):
    """The rank_anomalies report of one record of the significant set."""
    return next(rep for rep in rank_trips(filtered) if report_key(rep) == trip_key(r_outer))


def assert_reports_match_oracle(reports, filtered):
    """Each row has one report, whose count, segments and provenance are the
    oracle's; rows with equal trip keys have equal reports, so keys pair them."""
    assert Counter(map(report_key, reports)) == Counter(map(trip_key, filtered))
    want = {trip_key(s): (n, *oracle_localize(s, filtered))
            for s, n in zip(filtered, oracle_row_counts(filtered))}
    for rep in reports:
        count, entries, provenance = want[report_key(rep)]
        assert rep.containment_count == count
        assert rep.provenance == provenance
        assert list(rep.congested_segments) == entries


def entry_keys(rep):
    return [(seg.key, w0, w1) for seg, w0, w1 in rep.congested_segments]


class TestContainmentCounts:
    def test_russian_dolls(self):
        outer = scored("outer", "A", "F", 0.0, 1000.0)
        middle = scored("middle", "B", "E", 100.0, 900.0)
        inner = scored("inner", "C", "D", 200.0, 800.0)
        counts = count_trips([outer, middle, inner])
        assert counts == {"outer": 0, "middle": 1, "inner": 2}

    def test_disjoint_records(self):
        a = scored("a", "A", "B", 0.0, 100.0)
        b = scored("b", "C", "D", 200.0, 300.0)
        assert count_trips([a, b]) == {"a": 0, "b": 0}

    def test_single(self):
        assert count_trips([scored("a", "A", "B", 0.0, 1.0)]) == {"a": 0}

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            filtered = random_scored(rng, 60)
            assert count_trips(filtered) == oracle_counts(filtered)


class TestRankAnomalies:
    def test_count_ordering(self):
        r1 = scored("r1", "A", "F", 0.0, 1000.0, alpha=1.0)
        r2 = scored("r2", "B", "E", 100.0, 900.0, alpha=2.0)
        r3 = scored("r3", "C", "D", 200.0, 800.0, alpha=0.5)
        filtered = [r1, r2, r3]
        reports = rank_trips(filtered)
        assert [rep.record_id for rep in reports] == ["r3", "r2", "r1"]

    def test_alpha_breaks_count_ties(self):
        a = scored("a", "A", "B", 0.0, 100.0, alpha=3.0)
        b = scored("b", "C", "D", 0.0, 100.0, alpha=2.0)
        reports = rank_trips([b, a])
        assert [rep.record_id for rep in reports] == ["a", "b"]

    def test_id_breaks_full_ties(self):
        a = scored("a", "A", "B", 0.0, 100.0, alpha=1.0)
        b = scored("b", "C", "D", 0.0, 100.0, alpha=1.0)
        reports = rank_trips([b, a])
        assert [rep.record_id for rep in reports] == ["a", "b"]

    def test_rows_sharing_a_record_id_keep_their_own_counts(self):
        # "dup" A>B starts with o0 and ends before o1 does, so nothing contains it;
        # "dup" B>C nests in all three outer trips
        outers = [scored(f"o{k}", "A", "D", 10.0 * k, 1000.0 - 10.0 * k) for k in range(3)]
        free = scored("dup", "A", "B", 0.0, 50.0)
        nested = scored("dup", "B", "C", 400.0, 500.0)
        reports = rank_trips([*outers, free, nested])
        by_row = {report_key(rep): rep.containment_count for rep in reports}
        assert by_row[trip_key(free)] == 0
        assert by_row[trip_key(nested)] == 3

    def test_row_counts_match_oracle_with_repeated_ids(self):
        rng = np.random.default_rng(78)
        for _ in range(5):
            filtered = random_scored(rng, 60, repeat_ids=True)
            assert count_trips(filtered) == oracle_counts(filtered)
            reports = rank_trips(filtered)
            assert any(rep.containment_count for rep in reports)
            assert_reports_match_oracle(reports, filtered)

    def test_congestion_matches_standalone_localize(self):
        rng = np.random.default_rng(5)
        filtered = random_scored(rng, 40)
        assert_reports_match_oracle(rank_trips(filtered), filtered)


class TestLocalize:
    def test_dolls_localize_to_innermost(self):
        outer = scored("outer", "A", "F", 0.0, 1000.0)
        middle = scored("middle", "B", "E", 100.0, 900.0)
        inner = scored("inner", "C", "D", 200.0, 800.0)
        rep = report_for(outer, [outer, middle, inner])
        assert rep.provenance == PROVENANCE_WITNESS
        assert entry_keys(rep) == [(("C", "D"), 200.0, 800.0)]

    def test_no_nested_falls_back_to_own_path(self):
        only = scored("only", "A", "C", 0.0, 1000.0)
        rep = report_for(only, [only])
        assert rep.provenance == PROVENANCE_SELF
        assert entry_keys(rep) == [
            (("A", "B"), 0.0, 1000.0),
            (("B", "C"), 0.0, 1000.0),
        ]

    def test_two_disjoint_innermost_witnesses(self):
        outer = scored("outer", "A", "H", 0.0, 10000.0)
        w1 = scored("w1", "B", "C", 100.0, 900.0)
        w2 = scored("w2", "E", "F", 2000.0, 2900.0)
        rep = report_for(outer, [outer, w1, w2])
        assert rep.provenance == PROVENANCE_WITNESS
        assert entry_keys(rep) == [
            (("B", "C"), 100.0, 900.0),
            (("E", "F"), 2000.0, 2900.0),
        ]


def corridor_nodes(k):
    """Stops of service k: two own stops, the corridor x0..x3 all services share,
    then two more own stops, so different services yield equal node sequences.
    """
    return (f"p{k}a", f"p{k}b", "x0", "x1", "x2", "x3", f"q{k}a", f"q{k}b")


class CorridorTrips:
    """Scored trips on four services sharing a corridor; one Path per stretch."""

    def __init__(self):
        self.paths = {}

    def trip(self, rid, k, i, j, t0, t1, alpha=1.0):
        nodes = corridor_nodes(k)[i : j + 1]
        path = self.paths.get(nodes)
        if path is None:
            path = self.paths[nodes] = chain_path(nodes, [100.0] * (len(nodes) - 1))
        r = make_record(record_id=rid, service_id=f"svc{k}", origin=nodes[0],
                        destination=nodes[-1], t_start=t0, t_end=t1,
                        distance_m=path.distance_m)
        return Trip(r, path, alpha)

    def random_set(self, rng, n):
        """n trips on a 10 s time grid (ties are common), with duplicated ids,
        identical copies, and inner trips starting or ending exactly at an
        outer's bounds.
        """
        out = []
        for m in range(n):
            i, j = sorted(rng.choice(8, size=2, replace=False).tolist())
            t0 = 10.0 * int(rng.integers(0, 60))
            t1 = t0 + 10.0 * int(rng.integers(1, 40))
            rid = f"r{m // 2}" if m % 7 == 0 else f"r{m}"
            out.append(self.trip(rid, int(rng.integers(0, 4)), i, j, t0, t1,
                                 alpha=float(rng.normal())))
        for m, outer in enumerate(out[:10]):
            rec = outer.record
            k = int(rec.service_id[3:])
            i = corridor_nodes(k).index(rec.origin)
            j = corridor_nodes(k).index(rec.destination)
            t0, t1 = rec.t_start, rec.t_end
            out.append(self.trip(rec.record_id, k, i, j, t0, t1, alpha=outer.alpha))
            if j - i >= 2 and t1 - t0 >= 30.0:
                out.append(self.trip(f"s{m}", k, i, j - 1, t0, t1 - 10.0))
                out.append(self.trip(f"e{m}", k, i + 1, j, t0 + 10.0, t1))
                out.append(self.trip(f"n{m}", k, i + 1, j, t0 + 10.0, t1 - 10.0))
        order = rng.permutation(len(out))
        return [out[m] for m in order]


class TestContainmentIndex:
    def test_matches_brute_force_on_shared_corridor(self):
        rng = np.random.default_rng(2024)
        trips = CorridorTrips()
        for _ in range(4):
            filtered = trips.random_set(rng, 120)
            counts = count_trips(filtered)
            assert counts == oracle_counts(filtered)
            assert_reports_match_oracle(rank_trips(filtered), filtered)

    def test_matches_brute_force_on_a_few_shared_node_sequences(self):
        # most rows share one of five node sequences, so each sequence's runs,
        # built once, serve many records
        rng = np.random.default_rng(31)
        trips = CorridorTrips()
        stretches = [(0, 0, 7), (1, 1, 6), (2, 2, 5), (3, 2, 4), (0, 3, 4)]
        filtered = []
        for m in range(100):
            k, i, j = stretches[int(rng.integers(0, len(stretches)))]
            t0 = 10.0 * int(rng.integers(0, 60))
            t1 = t0 + 10.0 * int(rng.integers(1, 40))
            filtered.append(trips.trip(f"r{m // 2}" if m % 5 == 0 else f"r{m}", k, i, j,
                                       t0, t1, alpha=float(rng.normal())))
        assert len({s.path.nodes for s in filtered}) == len(stretches)
        assert count_trips(filtered) == oracle_counts(filtered)
        reports = rank_trips(filtered)
        assert sum(rep.provenance == PROVENANCE_WITNESS for rep in reports) > 10
        assert_reports_match_oracle(reports, filtered)

    def test_strict_nesting_at_window_bounds(self):
        trips = CorridorTrips()
        outer = trips.trip("outer", 0, 1, 6, 100.0, 200.0)
        same_start = trips.trip("a", 1, 2, 4, 100.0, 150.0)
        same_end = trips.trip("b", 2, 3, 5, 150.0, 200.0)
        inside = trips.trip("c", 3, 2, 5, 100.5, 199.5)
        twin = trips.trip("outer", 0, 1, 6, 100.0, 200.0)
        filtered = [outer, same_start, same_end, inside, twin]
        assert count_trips(filtered) == {"outer": 0, "a": 0, "b": 0, "c": 2}
        rep = report_for(outer, filtered)
        assert rep.provenance == PROVENANCE_WITNESS
        assert entry_keys(rep) == [
            (("x0", "x1"), 100.5, 199.5),
            (("x1", "x2"), 100.5, 199.5),
            (("x2", "x3"), 100.5, 199.5),
        ]

    def test_tied_witnesses_keep_input_order(self):
        # equal start time and record id: only the order in the set separates them
        trips = CorridorTrips()
        outer = trips.trip("outer", 0, 1, 6, 100.0, 200.0)
        a = trips.trip("w", 1, 2, 3, 120.0, 130.0)
        b = trips.trip("w", 2, 4, 5, 120.0, 140.0)
        for filtered in ([outer, a, b], [outer, b, a]):
            rep = report_for(outer, filtered)
            assert list(rep.congested_segments) == oracle_localize(outer, filtered)[0]

    def test_twenty_thousand_short_trips_stay_fast(self):
        rng = np.random.default_rng(9)
        trips = CorridorTrips()
        filtered = []
        for m in range(20000):
            i = int(rng.integers(0, 6))
            j = i + int(rng.integers(1, 3))
            t0 = float(rng.uniform(0.0, 86400.0))
            filtered.append(trips.trip(f"r{m}", int(rng.integers(0, 4)), i, j, t0,
                                       t0 + float(rng.uniform(60.0, 600.0))))
        started = time.perf_counter()
        counts = count_trips(filtered)
        reports = rank_trips(filtered)
        elapsed = time.perf_counter() - started
        assert len(reports) == 20000
        assert sum(counts.values()) > 0
        assert elapsed < 10.0, f"containment and ranking of 20k trips took {elapsed:.1f}s"


class TestRelationProperties:
    def test_partial_order_properties(self):
        rng = np.random.default_rng(123)
        pool = random_scored(rng, 150)
        for s in pool:
            assert not contains(s, s)
        idx = rng.integers(0, len(pool), size=(2000, 3))
        for i, j, k in idx:
            a, b, c = pool[i], pool[j], pool[k]
            if a is not b:
                assert not (contains(a, b) and contains(b, a))
            if contains(a, b) and contains(b, c):
                assert contains(a, c)

    def test_scale_invariance_of_alpha(self):
        net = build_network([make_route("s1", "ab", (0.0, 300.0))])
        records = [
            make_record(record_id=f"r{i}", origin="a", destination="b",
                        t_start=0.0, t_end=20.0 + i, distance_m=300.0)
            for i in range(5)
        ]
        _, base = score(Baseline1Model(c=15.0, sigma2=4.0), flows_on(net, records))
        k = 7.0
        scaled_records = [
            make_record(record_id=r.record_id, origin="a", destination="b",
                        t_start=0.0, t_end=k * r.t_end, distance_m=300.0)
            for r in records
        ]
        _, scaled = score(Baseline1Model(c=15.0 / k, sigma2=4.0 * k * k),
                          flows_on(net, scaled_records))
        for s, t in zip(base, scaled):
            assert math.isclose(s, t, rel_tol=1e-12)


class TestDailySeries:
    def mkreport(self, rid, day_ts, count, alpha):
        return AnomalyReport(record_id=rid, path=chain_path("AB", [100.0]), t_start=day_ts,
                             t_end=day_ts + 60.0, alpha=alpha, expected_s=60.0,
                             containment_count=count, congested_segments=(),
                             provenance=PROVENANCE_SELF)

    def test_single_day_stats(self):
        day = 86400.0 * 10
        reports = [self.mkreport("r1", day + 100, 0, 1.0),
                   self.mkreport("r2", day + 200, 2, 2.0),
                   self.mkreport("r3", day + 300, 4, 3.0)]
        (row,) = daily_series(reports)
        assert row.mean_count == 2.0
        assert row.median_count == 2.0
        assert row.mean_alpha == 2.0
        assert row.median_alpha == 2.0

    def test_empty_day_absent(self):
        reports = [self.mkreport("r1", 86400.0 * 3 + 10, 1, 1.0)]
        rows = daily_series(reports)
        assert len(rows) == 1
        assert rows[0].date == "1970-01-04"

    def test_two_days_sorted(self):
        reports = [self.mkreport("r1", 86400.0 * 7 + 10, 1, 1.0),
                   self.mkreport("r2", 86400.0 * 2 + 10, 1, 1.0)]
        rows = daily_series(reports)
        assert [r.date for r in rows] == ["1970-01-03", "1970-01-08"]
