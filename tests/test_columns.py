"""The column paths of the CLI and kfold against per-record references.

`train`, `crossval` and `detect` parse records into a RecordTable, resolve each
distinct (service, origin, destination) once, and hand kfold index views of one
_Columns. The references below are the per-record versions they replace: the
parser's reference row parser plus validate_record per record, kfold's
per-fold record-list loop, and anomaly.score per record. Results must be
equal, floats bit for bit.
"""

import io
import math
import random
from dataclasses import replace
from unittest import mock

import pytest

from flowanomaly import anomaly, cli
from flowanomaly.anomaly import DetectConfig, filter_significant, score
from flowanomaly.core import FlowRecord, build_network, resolve_paths, validate_record
from flowanomaly.errors import FlowError
from flowanomaly.evaluation import TrialRow, kfold, make_folds, rmse
from flowanomaly.models import (
    MODEL_KINDS,
    _Columns,
    fit_baseline1,
    fit_baseline2,
    fit_edge_model,
    load_model,
)
from flowanomaly.recordio import (
    RECORD_HEADER,
    SCORED_HEADER,
    format_float,
    parse_records,
    read_routes,
    read_table,
)
from flowanomaly.routeinfer import collect_evidence
from flowanomaly.synth import SynthConfig, generate_network, generate_records

from conftest import make_record, make_route
from test_ingest_oracles import oracle_parse_row, random_records, to_csv


def column_fields(cols):
    """Everything a _Columns holds, with Paths by identity and floats as hex."""
    return (
        cols.record_ids,
        [t.hex() for t in cols.observed],
        [d.hex() for d in cols.distance],
        [id(p) for p in cols.record_paths],
        cols.path_of,
        [id(p) for p in cols.paths],
        cols.segs,
        cols.dists,
        cols.keys,
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
            table, rows_kept, cols = cli._load_table(network, str(path), eps_d)
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
            assert all(p is q for p, q in zip(cols.record_paths, want_paths))
            assert column_fields(cols) == column_fields(_Columns.of(want_kept, want_paths))
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
                want = collect_evidence(records, eps_d)
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
    if kind == "baseline1":
        return fit_baseline1(records)
    if kind == "baseline2":
        return fit_baseline2(records, paths)
    return fit_edge_model(network, records, paths, psi=psi if kind == "smoothed-edge" else 0.0)[0]


def oracle_kfold(network, records, k, model_kinds, psi, seed):
    """kfold as it was: record lists copied per fold, each rmse on lists."""
    split = make_folds(records, k, seed)
    paths = resolve_paths(network, records)
    rows = []
    for fold in range(k):
        train_recs, train_paths, test_recs, test_paths = [], [], [], []
        for r, p in zip(records, paths):
            if split.assignments[r.record_id] == fold:
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
            rows.append(TrialRow(fold, kind, rmse(model, train_recs, train_paths),
                                 rmse(model, kept_recs, kept_paths), excluded))
    return rows


class TestKfoldViewsMatchOracle:
    @pytest.mark.parametrize("seed", [4, 9])
    def test_all_kinds_with_an_excluded_record_and_repeated_ids(self, seed):
        network, records = crossval_set(seed)
        want = oracle_kfold(network, records, 3, MODEL_KINDS, psi=1e-3, seed=seed)
        assert sum(row.excluded for row in want) == len(MODEL_KINDS)  # the lone trip
        assert kfold(network, records, 3, MODEL_KINDS, psi=1e-3, seed=seed).rows == want
        cols = _Columns.of(records, resolve_paths(network, records))
        assert kfold(network, cols, 3, MODEL_KINDS, psi=1e-3, seed=seed).rows == want

    def test_view_equals_columns_of_its_rows(self):
        network, records = crossval_set()
        paths = resolve_paths(network, records)
        cols = _Columns.of(records, paths)
        rng = random.Random(1)
        for _ in range(20):
            rows = rng.sample(range(len(records)), rng.randrange(0, len(records)))
            if rng.random() < 0.5:
                rows.sort()
            want = _Columns.of([records[i] for i in rows], [paths[i] for i in rows])
            assert column_fields(cols.view(rows)) == column_fields(want)


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
        rows = score(load_model(str(model_path)), kept, network)
        _, delta = filter_significant(rows, DetectConfig(delta_quantile=0.05))
        f = format_float
        want = [f"# delta={f(delta)}", SCORED_HEADER] + [
            f"{s.record.record_id},{s.record.service_id},{s.record.origin},"
            f"{s.record.destination},{f(s.record.t_start)},{f(s.record.t_end)},"
            f"{f(s.record.observed_s)},{f(s.expected_s)},{f(s.alpha)},"
            f"{1 if s.alpha > delta else 0}"
            for s in rows
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
