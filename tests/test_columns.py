"""The column paths of the CLI and kfold against per-record references.

`train`, `crossval` and `detect` parse records into a RecordTable and build
their Flows from it (Flows.from_table), resolving each distinct (service,
origin, destination) once; kfold fits and tests on 0/1 row masks over one set
of numpy columns (models._Columns). The references below are the per-record
versions they replace: the parser's reference row parser plus validate_record
per record, then Flows.from_records; kfold's per-fold record lists with
left-to-right sums; each fit on the Flows of the masked rows; and anomaly.score
per record. Results must be equal: floats bit for bit, but for kfold's (to a
relative 1e-9) and the masked fits' (1e-12), which sum in another order.
"""

import io
import math
import random
from dataclasses import replace
from unittest import mock

import pytest

from flowanomaly import anomaly, cli, models
from flowanomaly.anomaly import DetectConfig, filter_significant, score
from flowanomaly.core import (
    FlowRecord,
    Flows,
    build_network,
    left_sum,
    resolve_paths,
    validate_record,
)
from flowanomaly.errors import FlowError
from flowanomaly.evaluation import TrialRow, kfold, make_folds
from flowanomaly.models import (
    MODEL_KINDS,
    Baseline1Model,
    Baseline2Model,
    expected_time,
    fit_baseline1,
    fit_baseline2,
    fit_edge_model,
    load_model,
    path_key,
)
from flowanomaly.recordio import (
    RECORD_HEADER,
    SCORED_HEADER,
    format_float,
    parse_records,
    read_routes,
    read_table,
    write_records,
)
from flowanomaly.routeinfer import collect_evidence
from flowanomaly.synth import SynthConfig, generate_network, generate_records

from conftest import flows_on, make_record, make_route, table_of
from test_ingest_oracles import oracle_parse_row, random_records, to_csv


def column_fields(flows):
    """Everything a Flows holds, with Paths by identity and floats as hex."""
    return (
        flows.record_ids,
        [t.hex() for t in flows.t_start],
        [t.hex() for t in flows.t_end],
        [t.hex() for t in flows.observed],
        [d.hex() for d in flows.distance],
        [id(flows.paths[j]) for j in flows.path_of],
        flows.path_of,
        [id(p) for p in flows.paths],
        flows.segs,
        flows.dists,
        flows.keys,
    )


# Two services sharing the stretch b->c (100 m), plus stops no route has.
ROUTES = [
    make_route("s1", "abcd", (0.0, 100.0, 200.0, 300.0)),
    make_route("s2", "xbcy", (0.0, 50.0, 150.0, 250.0)),
]


def random_row(rng):
    """A row that parses, fails to parse, fails to resolve or fails the distance check."""
    service = rng.choice(["s1", "s1", "s2", "s2", "s9"])
    origin, destination = rng.sample("abcdxyq", 2) if rng.random() < 0.3 else rng.choice(
        [("a", "b"), ("a", "d"), ("b", "c"), ("x", "y"), ("b", "y"), ("c", "b")])
    t0 = rng.choice([0.0, 10.0, 55.5])
    t1 = t0 + rng.choice([30.0, 61.25, 0.0, -5.0, 100.0])
    distance = rng.choice([100.0, 100.5, 101.0, 101.5, 200.0, 250.0, 300.0, 150.0, 0.0, 7e3])
    row = [f"r{rng.randrange(12)}", service, origin, destination,
           format_float(t0), format_float(t1), format_float(distance)]
    if rng.random() < 0.05:
        row = row[:6]
    if rng.random() < 0.05:
        row[4] = "soon"
    return row


def oracle_load(network, text, eps_d):
    """The parent's per-row parse, then validate_record per record."""
    records, rejects = [], []
    for line_no, line in enumerate(text.splitlines()[1:], start=2):
        try:
            records.append(FlowRecord(*oracle_parse_row(line.split(","))))
        except ValueError as exc:
            rejects.append(f"reject line={line_no} reason={exc}")
    kept, paths = [], []
    for r in records:
        try:
            paths.append(validate_record(network, r, eps_d))
        except FlowError:
            continue
        kept.append(r)
    return kept, paths, len(records) - len(kept), rejects


class TestTableValidationMatchesPerRecord:
    @pytest.mark.parametrize("eps_d", [0.0, 0.5, 1.0, 1e9, math.nan])
    def test_seeded_rows(self, eps_d, tmp_path, capsys):
        seen = {"kept": 0, "skipped": 0, "rejected": 0}
        for seed in range(40):
            rng = random.Random(seed)
            rows = [random_row(rng) for _ in range(rng.randrange(1, 40))]
            rows.append(["ok", "s1", "a", "b", "0", "60", "100"])
            text = to_csv(rows).replace("\r\n", "\n")
            path = tmp_path / "records.csv"
            path.write_text(text)
            network = build_network(ROUTES)
            want_kept, want_paths, want_skipped, want_rejects = oracle_load(network, text, eps_d)
            capsys.readouterr()
            table, rows_kept, flows = cli._load_table(network, str(path), eps_d)
            err = capsys.readouterr().err.splitlines()
            assert [ln for ln in err if ln.startswith("reject ")] == want_rejects
            skipped = [ln for ln in err if ln.startswith("skipped_unresolvable=")]
            assert skipped == ([f"skipped_unresolvable={want_skipped}"] if want_skipped else [])
            got = [
                (table.record_ids[i], *table.keys[table.key_of[i]],
                 table.t_start[i].hex(), table.t_end[i].hex(), table.distance[i].hex())
                for i in rows_kept
            ]
            assert got == [
                (r.record_id, r.service_id, r.origin, r.destination,
                 r.t_start.hex(), r.t_end.hex(), r.distance_m.hex())
                for r in want_kept
            ]
            assert all(p is q for p, q in zip([flows.paths[j] for j in flows.path_of],
                                              want_paths))
            assert column_fields(flows) == column_fields(Flows.from_records(want_kept, want_paths))
            seen["kept"] += len(want_kept)
            seen["skipped"] += want_skipped
            seen["rejected"] += len(want_rejects)
        assert seen["kept"] > 40 and seen["rejected"] > 0
        assert seen["skipped"] > (0 if math.isnan(eps_d) or eps_d > 1e3 else 100)

    def test_table_records_equal_parsed_records(self):
        rng = random.Random(7)
        rows = [random_row(rng) for _ in range(30)] + [["ok", "s1", "a", "b", "0", "6", "1"]]
        text = to_csv(rows)
        table, rejects = read_table(io.StringIO(text, newline=""))
        records, rejects2 = parse_records(io.StringIO(text, newline=""))
        assert table.records() == records and rejects == rejects2
        assert len(table.keys) == len(set(table.keys)) <= len(table)


class TestEvidenceFromTable:
    def test_seeded_conflicting_inputs(self):
        for seed in range(100):
            rng = random.Random(seed)
            records = random_records(rng, rng.randrange(1, 40))
            buf = io.StringIO()
            buf.write(",".join(RECORD_HEADER) + "\n")
            for r in records:
                buf.write(f"{r.record_id},{r.service_id},{r.origin},{r.destination},"
                          f"{format_float(r.t_start)},{format_float(r.t_end)},"
                          f"{format_float(r.distance_m)}\n")
            table, _ = read_table(io.StringIO(buf.getvalue()))
            for eps_d in (0.0, 0.5, 1.0, 1e9):
                got = collect_evidence(table, eps_d)
                want = collect_evidence(table_of(records), eps_d)
                assert [list(d.items()) for d in got] == [list(d.items()) for d in want]


def crossval_set(seed=4):
    """A corridor set plus a lone trip on its own service and repeated record ids."""
    cfg = SynthConfig(n_services=3, stops_per_service=5, shared_corridor_stops=3,
                      n_records=240, noise_sigma2=0.05, seed=seed)
    truth = generate_network(cfg)
    network = build_network(list(truth.network.routes.values())
                            + [make_route("zz", "uv", (0.0, 1000.0))])
    records, _ = generate_records(truth, cfg)
    records = list(records)
    rng = random.Random(seed)
    for r in rng.sample(records, 12):  # the same id twice, on another trip
        records.insert(rng.randrange(len(records)),
                       replace(r, t_end=r.t_end + rng.choice([-1.0, 5.0, 30.0])))
    records.insert(rng.randrange(len(records)), make_record(
        record_id="lonely", service_id="zz", origin="u", destination="v",
        t_start=0.0, t_end=100.0, distance_m=1000.0))
    return network, records


def oracle_fit(kind, network, records, paths, psi):
    """The fits as they were, summing per record left to right; the edge kinds'
    solve is fit_edge_model's on the fold's own Flows."""
    if kind == "baseline1":
        return Baseline1Model(left_sum(r.distance_m for r in records)
                              / left_sum(r.observed_s for r in records), 0.0)
    if kind == "baseline2":
        sums = {}
        for r, p in zip(records, paths):
            d, t = sums.get(path_key(p), (0.0, 0.0))
            sums[path_key(p)] = (d + r.distance_m, t + r.observed_s)
        return Baseline2Model({key: d / t for key, (d, t) in sums.items()}, 0.0,
                              oracle_fit("baseline1", network, records, paths, psi).c)
    flows = Flows.from_records(records, paths)
    return fit_edge_model(network, flows, psi=psi if kind == "smoothed-edge" else 0.0)[0]


def oracle_rmse(model, records, paths):
    return math.sqrt(left_sum((r.observed_s - expected_time(model, p, r.distance_m)) ** 2
                              for r, p in zip(records, paths)) / len(records))


def oracle_kfold(network, records, k, model_kinds, psi, seed):
    """kfold as it was: record lists copied per fold, each rmse summed left to right."""
    paths = resolve_paths(network, records)
    fold_of = make_folds(Flows.from_records(records, paths), k, seed).tolist()
    rows = []
    for fold in range(k):
        train_recs, train_paths, test_recs, test_paths = [], [], [], []
        for r, p, f in zip(records, paths, fold_of):
            if f == fold:
                test_recs.append(r)
                test_paths.append(p)
            else:
                train_recs.append(r)
                train_paths.append(p)
        covered = {seg.key for p in train_paths for seg in p.segments}
        kept_recs, kept_paths = [], []
        excluded = 0
        for r, p in zip(test_recs, test_paths):
            if all(seg.key in covered for seg in p.segments):
                kept_recs.append(r)
                kept_paths.append(p)
            else:
                excluded += 1
        for kind in model_kinds:
            model = oracle_fit(kind, network, train_recs, train_paths, psi)
            rows.append(TrialRow(fold, kind, oracle_rmse(model, train_recs, train_paths),
                                 oracle_rmse(model, kept_recs, kept_paths), excluded))
    return rows


def assert_rows_close(got, want):
    """fold, kind and excluded exactly, the RMSEs to a relative 1e-9."""
    assert [(r.fold, r.kind, r.excluded) for r in got] == [(r.fold, r.kind, r.excluded)
                                                            for r in want]
    for g, w in zip(got, want):
        assert math.isclose(g.train_rmse, w.train_rmse, rel_tol=1e-9)
        assert math.isclose(g.test_rmse, w.test_rmse, rel_tol=1e-9)


class TestKfoldViewsMatchOracle:
    """kfold on fold masks against per-fold record lists summed left to right."""

    @pytest.mark.parametrize("seed", [4, 9])
    def test_all_kinds_with_an_excluded_record_and_repeated_ids(self, seed, tmp_path):
        network, records = crossval_set(seed)
        want = oracle_kfold(network, records, 3, MODEL_KINDS, psi=1e-3, seed=seed)
        assert sum(row.excluded for row in want) == len(MODEL_KINDS)  # the lone trip
        flows = flows_on(network, records)
        assert_rows_close(kfold(network, flows, 3, MODEL_KINDS, psi=1e-3, seed=seed).rows, want)
        write_records(records, str(tmp_path / "records.csv"))
        table, _ = read_table(str(tmp_path / "records.csv"))
        flows, rows = Flows.from_table(table, network, eps_d=1.0)
        assert rows == list(range(len(records)))
        assert_rows_close(kfold(network, flows, 3, MODEL_KINDS, psi=1e-3, seed=seed).rows, want)


class TestMaskedFitsMatchSubsetFits:
    """A fit on a 0/1 row mask is the same fit on the Flows of the masked rows."""

    @staticmethod
    def close(a, b):
        return math.isclose(a, b, rel_tol=1e-12)

    @pytest.mark.parametrize("seed", [4, 9])
    def test_every_fit_on_random_masks(self, seed):
        network, records = crossval_set(seed)
        paths = resolve_paths(network, records)
        cols = models._Columns(Flows.from_records(records, paths))
        rng = random.Random(seed)
        # no kept record boards or alights at a dropped inner stop, so the segments
        # on either side of it are unidentifiable
        inner = sorted({s for route in network.routes.values() for s in route.stops[1:-1]})
        sets = {"untraversed": 0, "unidentifiable": 0}
        for trial in range(12):  # seeded: no mask keeps no row
            dropped = rng.choice(inner) if trial % 2 else None
            keep = [rng.random() < (0.3, 0.7, 0.95)[trial % 3]
                    and dropped not in (r.origin, r.destination) for r in records]
            sub = Flows.from_records([r for r, k in zip(records, keep) if k],
                                     [p for p, k in zip(paths, keep) if k])
            mask = cols.np.array(keep, dtype=float)
            for got, want in ((cols.baseline1(mask)[0], fit_baseline1(sub)),
                              (cols.baseline2(mask)[0], fit_baseline2(sub))):
                assert self.close(got.sigma2, want.sigma2)
                if isinstance(want, Baseline1Model):
                    assert self.close(got.c, want.c)
                else:
                    assert got.c_by_path.keys() == want.c_by_path.keys()
                    assert all(map(self.close, map(got.c_by_path.get, want.c_by_path),
                                   want.c_by_path.values()))
                    assert self.close(got.fallback_c, want.fallback_c)
            for psi in (0.0, 1e-3):
                got, got_trail, _ = cols.edge(network, mask, psi)
                want, want_trail = fit_edge_model(network, sub, psi=psi)
                for name in ("untraversed", "unidentifiable", "nonpositive"):
                    assert getattr(got_trail, name) == getattr(want_trail, name)
                    sets[name] = sets.get(name, 0) + bool(getattr(want_trail, name))
                assert got.c_by_segment.keys() == want.c_by_segment.keys()
                assert all(self.close(got.c_by_segment[key], c)
                           for key, c in want.c_by_segment.items())
                assert self.close(got.sigma2, want.sigma2)
                assert self.close(got_trail.sse_by_epoch[0], want_trail.sse_by_epoch[0])
        assert sets["untraversed"] and sets["unidentifiable"]  # both sets are exercised


def detect_inputs(tmp_path):
    """A simulated file plus a repeated id, a parse reject and an unresolvable row."""
    rec_path, routes = tmp_path / "records.csv", tmp_path / "routes.csv"
    assert cli.run_command([
        "simulate", "--out-records", str(rec_path), "--out-truth", str(tmp_path / "t.csv"),
        "--services", "2", "--stops", "5", "--n-records", "300", "--seed", "2",
        "--congest-index", "1", "--congest-start", "30000", "--congest-end", "40000",
        "--congest-factor", "3"]) == 0
    assert cli.run_command(["infer-routes", "--records", str(rec_path), "--out-routes",
                            str(routes), "--out-rejects", str(tmp_path / "rej.csv")]) == 0
    lines = rec_path.read_text().splitlines()
    again = lines[5].split(",")
    again[5] = repr(float(again[5]) + 500.0)
    elsewhere = lines[6].split(",")
    elsewhere[1] = "nowhere"
    lines += [",".join(again), ",".join(elsewhere), "bad,row"]
    rec_path.write_text("\n".join(lines) + "\n")
    return rec_path, routes


class TestDetectMatchesScore:
    @pytest.mark.parametrize("kind", ["edge", "baseline1", "baseline2"])
    def test_rows_equal_per_record_score(self, kind, tmp_path, capsys):
        rec_path, routes = detect_inputs(tmp_path)
        model_path, scored = tmp_path / "model.txt", tmp_path / "scored.csv"
        assert cli.run_command(["train", "--records", str(rec_path), "--routes", str(routes),
                                "--kind", kind, "--epochs", "3", "--eta", "2e-3",
                                "--out-model", str(model_path)]) == 0
        assert cli.run_command(["detect", "--records", str(rec_path), "--routes", str(routes),
                                "--model", str(model_path), "--out", str(scored),
                                "--delta-quantile", "0.05"]) == 0
        capsys.readouterr()
        network = cli.build_network(read_routes(str(routes)))
        records, _ = parse_records(str(rec_path))
        kept = []
        for r in records:
            try:
                validate_record(network, r)
            except FlowError:
                continue
            kept.append(r)
        assert len(kept) == len(records) - 1
        expected, alphas = score(load_model(str(model_path)), flows_on(network, kept))
        _, delta = filter_significant(alphas, DetectConfig(delta_quantile=0.05))
        f = format_float
        want = [f"# delta={f(delta)}", SCORED_HEADER] + [
            f"{r.record_id},{r.service_id},{r.origin},"
            f"{r.destination},{f(r.t_start)},{f(r.t_end)},"
            f"{f(r.observed_s)},{f(expect)},{f(alpha)},"
            f"{1 if alpha > delta else 0}"
            for r, expect, alpha in zip(kept, expected, alphas)
        ]
        assert scored.read_text().splitlines() == want


def test_localize_builds_the_containment_index_once(tmp_path):
    rec_path, routes = detect_inputs(tmp_path)
    model_path, scored = tmp_path / "model.txt", tmp_path / "scored.csv"
    assert cli.run_command(["train", "--records", str(rec_path), "--routes", str(routes),
                            "--kind", "baseline2", "--out-model", str(model_path)]) == 0
    assert cli.run_command(["detect", "--records", str(rec_path), "--routes", str(routes),
                            "--model", str(model_path), "--out", str(scored),
                            "--delta-quantile", "0.2"]) == 0
    argv = ["localize", "--scored", str(scored), "--routes", str(routes),
            "--out-report", str(tmp_path / "report.csv"), "--out-daily", str(tmp_path / "d.csv")]
    with mock.patch.object(anomaly, "_contained", wraps=anomaly._contained) as spy:
        assert cli.run_command(argv) == 0
    assert spy.call_count == 1
