import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import flowanomaly
from flowanomaly import anomaly, cli, evaluation, models
from flowanomaly.cli import run_command
from flowanomaly.models import expected_time, load_model
from flowanomaly.core import build_network, resolve_path
from flowanomaly.recordio import (
    REPORT_HEADER,
    SCORED_HEADER,
    format_float,
    parse_records,
    read_routes,
    read_significant,
)

from conftest import flows_on


def run(*argv):
    return run_command(list(argv))


def simulate_small(tmp_path, seed=1, n_records=300, congest=False):
    rec_path = tmp_path / "records.csv"
    truth_path = tmp_path / "truth.csv"
    argv = [
        "simulate",
        "--out-records", str(rec_path),
        "--out-truth", str(truth_path),
        "--services", "2", "--stops", "5",
        "--n-records", str(n_records),
        "--noise-sigma2", "0.02",
        "--seed", str(seed),
    ]
    if congest:
        argv += [
            "--congest-index", "0",
            "--congest-start", "30000", "--congest-end", "37200",
            "--congest-factor", "3",
        ]
    assert run(*argv) == 0
    return rec_path, truth_path


def append_bad_row(rec_path, field, value):
    """Append a copy of the first row with one field replaced; return its line number."""
    lines = rec_path.read_text().splitlines()
    bad = lines[1].split(",")
    bad[0], bad[field] = "bad1", value
    rec_path.write_text("\n".join(lines + [",".join(bad)]) + "\n")
    return len(lines) + 1


class TestValidation:
    def test_train_zero_epochs(self, tmp_path, capsys):
        rec_path, _ = simulate_small(tmp_path)
        routes = tmp_path / "routes.csv"
        rejects = tmp_path / "rej.csv"
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes), "--out-rejects", str(rejects)) == 0
        code = run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--out-model", str(tmp_path / "m.txt"), "--epochs", "0")
        assert code != 0
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err.startswith("error:")
        assert "\n" not in err

    def test_detect_requires_model(self, tmp_path, capsys):
        code = run("detect", "--records", "r.csv", "--routes", "x.csv",
                   "--out", str(tmp_path / "out.csv"))
        assert code != 0
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_kind(self, tmp_path, capsys):
        rec_path, _ = simulate_small(tmp_path)
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        code = run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--out-model", str(tmp_path / "m.txt"), "--kind", "banana")
        assert code != 0
        assert "unknown kind" in capsys.readouterr().err

    def test_missing_records_file(self, tmp_path, capsys):
        code = run("infer-routes", "--records", str(tmp_path / "absent.csv"),
                   "--out-routes", str(tmp_path / "r.csv"),
                   "--out-rejects", str(tmp_path / "j.csv"))
        assert code != 0
        assert capsys.readouterr().err.startswith("error:")

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        capsys.readouterr()

    def test_congest_flags_must_be_complete(self, tmp_path, capsys):
        # without the index the other three used to plant nothing and exit 0
        for congest in (["--congest-index", "0"],
                        ["--congest-start", "1", "--congest-end", "2", "--congest-factor", "3"]):
            code = run("simulate", "--out-records", str(tmp_path / "r.csv"),
                       "--out-truth", str(tmp_path / "t.csv"), *congest)
            assert code == 2
            assert capsys.readouterr().err == (
                "error: --congest-index, --congest-start, --congest-end and --congest-factor "
                "go together\n")
            assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command, tunable, want", [
        *[pytest.param(command, ["--eps-d", value],
                       f"eps_d must be finite and >= 0, got {shown}", id=f"{command}-{value}")
          for command in ("infer-routes", "train", "crossval", "detect")
          for value, shown in (("nan", "nan"), ("inf", "inf"), ("-1", "-1.0"))],
        pytest.param("detect", ["eps_d=nan"], "eps_d must be finite and >= 0, got nan",
                     id="detect-config-nan"),
        pytest.param("train", ["eps_d=-1"], "eps_d must be finite and >= 0, got -1.0",
                     id="train-config-negative"),
        pytest.param("detect", ["--delta-override", "nan"], "delta_override must not be nan",
                     id="delta-override-nan"),
        pytest.param("simulate", ["--noise-sigma2", "nan"], "noise_sigma2 must be finite",
                     id="noise-sigma2-nan"),
        pytest.param("simulate", ["--day-start", "inf"], "day_start_s must be finite",
                     id="day-start-inf"),
        pytest.param("simulate", ["--day-seconds", "nan"], "day_seconds must be finite",
                     id="day-seconds-nan"),
        pytest.param("simulate", ["--seg-len-max", "inf"],
                     "segment_length_range_m must be finite", id="seg-len-max-inf"),
        pytest.param("simulate", ["--congest-index", "0", "--congest-start", "0",
                                  "--congest-end", "inf", "--congest-factor", "inf"],
                     "window_end must be finite", id="congestion-inf"),
        pytest.param("simulate", ["--day-start", "1e12"],
                     "day_start_s and day_start_s + day_seconds must lie within "
                     "years 1-9999 UTC", id="day-start-1e12"),
        # numpy's seeding said only `expected non-negative integer`, and crossval
        # said it after reading and resolving the whole record file
        pytest.param("simulate", ["--seed", "-1"], "seed must be >= 0, got -1",
                     id="simulate-seed-negative"),
        pytest.param("crossval", ["--seed", "-3"], "seed must be >= 0, got -3",
                     id="crossval-seed-negative"),
        pytest.param("crossval", ["seed=-1"], "seed must be >= 0, got -1",
                     id="crossval-config-seed-negative"),
        # TrainConfig took it, and train exited 0 with an edge fit that never reads it
        pytest.param("train", ["--shuffle-seed", "-1"], "shuffle_seed must be >= 0, got -1",
                     id="train-shuffle-seed-negative"),
    ])
    def test_non_finite_tunable_is_one_error_line(self, tmp_path, capsys, command, tunable,
                                                  want):
        # eps_d nan passed every distance check, inf rejected every service and -1
        # every record; the others printed delta=nan or failed inside the records
        # or numpy's draws. The files need not exist: the value is checked first.
        if "=" in tunable[0]:
            (tmp_path / "run.cfg").write_text(tunable[0] + "\n")
            tunable = ["--config", str(tmp_path / "run.cfg")]
        files = [arg for dest in cli._SUBCOMMANDS[command][2]
                 for arg in ("--" + dest.replace("_", "-"), str(tmp_path / dest))]
        assert run(command, *files, *tunable) == 2
        assert capsys.readouterr().err == f"error: {want}\n"
        assert [p.name for p in tmp_path.iterdir()] in ([], ["run.cfg"])

    def test_failed_day_leaves_no_file(self, tmp_path, capsys):
        # 1 nm segments add no time to a 1.7e9 s clock, so the fourth record fails
        # after three were drawn and written
        code = run("simulate", "--out-records", str(tmp_path / "r.csv"),
                   "--out-truth", str(tmp_path / "t.csv"), "--services", "2", "--stops", "4",
                   "--seed", "1", "--seg-len-min", "1e-9", "--seg-len-max", "1e-9",
                   "--day-start", "1.7e9")
        assert code == 2
        assert capsys.readouterr().err == "error: record 'r000003': t_end must exceed t_start\n"
        assert list(tmp_path.iterdir()) == []
        # a day that starts in range but whose record r000016 alights after year
        # 9999 UTC, which no reader accepts: nothing is written either
        code = run("simulate", "--out-records", str(tmp_path / "r.csv"),
                   "--out-truth", str(tmp_path / "t.csv"), "--services", "2", "--stops", "4",
                   "--n-records", "50", "--seed", "1", "--day-start", "253402300000",
                   "--day-seconds", "700")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: record r000016 alights at 253402300812.24295, outside years 1-9999 UTC; "
            "an earlier day_start_s keeps trips inside\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "crossval", "detect"])
    def test_no_usable_records_is_one_error_line(self, tmp_path, capsys, command):
        # every row parses, and every row names a service the routes lack
        rec_path, routes = tmp_path / "records.csv", tmp_path / "routes.csv"
        rec_path.write_text(
            "record_id,service_id,board_stop,alight_stop,board_time,alight_time,distance_m\n"
            "r1,s9,a,b,0,100,500\nr2,s9,a,b,200,300,500\nr3,s9,a,b,400,500,500\n")
        routes.write_text("service_id,seq,stop,cumulative_m\ns1,0,a,0\ns1,1,b,500\n")
        model = tmp_path / "model.txt"
        model.write_text("model baseline1 sigma2=1\nglobal 5\n")
        files = {"train": ["--out-model", str(tmp_path / "m.txt")],
                 "crossval": ["--out", str(tmp_path / "cv.csv")],
                 "detect": ["--model", str(model), "--out", str(tmp_path / "scored.csv")]}
        code = run(command, "--records", str(rec_path), "--routes", str(routes), *files[command])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: no usable records after validation (skipped_unresolvable=3)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "model.txt", "records.csv", "routes.csv"]

    def test_flag_tables_follow_the_config_classes(self):
        # cli names these without importing models, which only train and crossval load
        assert cli._HELP["kind"] == f"one of {', '.join(models.MODEL_KINDS)}"
        assert set(cli._ASCENT_ONLY) <= {f.name for f in fields(models.TrainConfig)} - {"psi"}

    def test_config_key_no_subcommand_knows_is_rejected(self, tmp_path, capsys):
        rec_path, _ = simulate_small(tmp_path)
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epoch=1\n")
        capsys.readouterr()
        code = run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--config", str(cfg), "--out-model", str(tmp_path / "m.txt"))
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "epoch" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.txt").exists()
        # a key another subcommand reads stays allowed in a shared file, and train
        # still reads its own key there
        cfg.write_text("psi=0.05\ndelta_quantile=0.05\n")
        assert run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--kind", "smoothed-edge",
                   "--config", str(cfg), "--out-model", str(tmp_path / "m.txt")) == 0
        assert run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--kind", "smoothed-edge", "--psi", "0.05",
                   "--out-model", str(tmp_path / "flag.txt")) == 0
        assert (tmp_path / "m.txt").read_bytes() == (tmp_path / "flag.txt").read_bytes()

    def test_one_inf_distance_row_keeps_its_service(self, tmp_path, capsys):
        self.check_bad_distance_row_is_a_reject(
            tmp_path, capsys, "inf", "distance 'inf' is not finite")

    def test_one_longer_than_equator_distance_row_keeps_its_service(self, tmp_path, capsys):
        # finite, so it used to reach route inference and contradict every
        # other record of its stop pair, rejecting the whole service
        self.check_bad_distance_row_is_a_reject(
            tmp_path, capsys, "1e308", "distance '1e308' is longer than the Earth's equator")

    @staticmethod
    def check_bad_distance_row_is_a_reject(tmp_path, capsys, distance, reason):
        rec_path, _ = simulate_small(tmp_path)
        line_no = append_bad_row(rec_path, 6, distance)
        routes = tmp_path / "routes.csv"
        rejects = tmp_path / "rej.csv"
        capsys.readouterr()
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes), "--out-rejects", str(rejects)) == 0
        captured = capsys.readouterr()
        assert "accepted=2 rejected=0 parse_rejected=1" in captured.out
        assert f"reject line={line_no} reason={reason}" in captured.err
        assert rejects.read_text().splitlines() == ["service_id,reason"]

    def test_overflow_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        rec_path, _ = simulate_small(tmp_path)
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0

        def overflow(records):
            raise OverflowError(34, "Numerical result out of range")

        monkeypatch.setattr(models, "fit_baseline1", overflow)
        capsys.readouterr()
        code = run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--kind", "baseline1", "--out-model", str(tmp_path / "m.txt"))
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_zero_division_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        rec_path, _ = simulate_small(tmp_path)
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0

        def divide(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(models, "fit_edge_model", divide)
        capsys.readouterr()
        code = run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--kind", "smoothed-edge", "--out-model", str(tmp_path / "m.txt"))
        assert code == 2
        assert capsys.readouterr().err == "error: float division by zero\n"
        assert not (tmp_path / "m.txt").exists()

    def test_edge_fit_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        rec_path, _ = simulate_small(tmp_path)
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0

        def divide(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(models, "fit_edge_model", divide)
        capsys.readouterr()
        code = run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--kind", "edge", "--out-model", str(tmp_path / "m.txt"))
        assert code == 2
        assert capsys.readouterr().err == "error: float division by zero\n"
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    def test_crossval_fold_with_every_test_record_excluded(self, tmp_path, capsys, seed):
        # on seeds 1 and 3 fold 0 trains on both trips of one service and tests
        # only on the other service, whose segment it never saw
        rec_path = tmp_path / "records.csv"
        rec_path.write_text(
            "record_id,service_id,board_stop,alight_stop,board_time,alight_time,distance_m\n"
            "r1,s1,a,b,0,100,500\nr2,s2,c,d,0,100,500\n"
            "r3,s1,a,b,200,300,500\nr4,s2,c,d,200,300,500\n"
        )
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path), "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        capsys.readouterr()
        out = tmp_path / "cv.csv"
        code = run("crossval", "--records", str(rec_path), "--routes", str(routes),
                   "--folds", "2", "--kinds", "baseline1,edge", "--epochs", "1",
                   "--seed", seed, "--out", str(out))
        if seed in ("0", "2"):
            assert code == 0 and out.read_text().splitlines()[1] == "0,baseline1,0,0,0"
            return
        assert code == 2
        assert capsys.readouterr().err == (
            "error: fold 0 has no test record left: all 2 cross a segment that no "
            "training record covers; fewer folds or more records would help\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["0", "2", "3"])
    def test_crossval_fold_holding_every_record_by_repeated_ids(self, tmp_path, capsys, seed):
        # r1 twice takes one fold; on these seeds r2 lands in the same fold
        rec_path = tmp_path / "records.csv"
        rec_path.write_text(
            "record_id,service_id,board_stop,alight_stop,board_time,alight_time,distance_m\n"
            "r1,s1,a,b,0,100,500\nr1,s1,a,b,200,300,500\nr2,s1,a,b,400,500,500\n"
        )
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path), "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        flows = flows_on(build_network(read_routes(str(routes))),
                         parse_records(str(rec_path))[0])
        fold_of = evaluation.make_folds(flows, 2, int(seed))
        assert len(set(fold_of.tolist())) == 1
        capsys.readouterr()
        out = tmp_path / "cv.csv"
        code = run("crossval", "--records", str(rec_path), "--routes", str(routes),
                   "--folds", "2", "--kinds", "baseline1", "--epochs", "1",
                   "--seed", seed, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: fold {fold_of[0]} has every one of the 3 records and none "
            "to train on: records that share a record id share a fold; fewer folds or "
            "distinct record ids would help\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    def test_crossval_fold_left_empty_by_repeated_ids(self, tmp_path, capsys, seed):
        # two record ids fill at most two of three folds
        rec_path = tmp_path / "records.csv"
        rec_path.write_text(
            "record_id,service_id,board_stop,alight_stop,board_time,alight_time,distance_m\n"
            "r1,s1,a,b,0,100,500\nr1,s1,a,b,200,300,500\nr1,s1,a,b,400,500,500\n"
            "r2,s1,a,b,600,700,500\nr2,s1,a,b,800,900,500\n"
        )
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path), "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        flows = flows_on(build_network(read_routes(str(routes))),
                         parse_records(str(rec_path))[0])
        sizes = [int((evaluation.make_folds(flows, 3, int(seed)) == f).sum()) for f in range(3)]
        assert 5 not in sizes
        capsys.readouterr()
        out = tmp_path / "cv.csv"
        code = run("crossval", "--records", str(rec_path), "--routes", str(routes),
                   "--folds", "3", "--kinds", "baseline1", "--seed", seed, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: fold {sizes.index(0)} has no records: the 5 records carry 2 distinct "
            "record ids, and records that share a record id share a fold; fewer folds or "
            "distinct record ids would help\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["baseline1", "baseline2", "edge"])
    def test_absurd_time_row_is_a_reject_line(self, tmp_path, capsys, kind):
        rec_path, _ = simulate_small(tmp_path)
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        line_no = append_bad_row(rec_path, 4, "-1e300")
        capsys.readouterr()
        assert run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--kind", kind, "--epochs", "2",
                   "--out-model", str(tmp_path / "m.txt")) == 0
        err = capsys.readouterr().err
        assert (f"reject line={line_no} reason=time '-1e300' is outside years 1-9999 UTC"
                in err)
        assert "parse_rejected=1" in err


class TestPipeline:
    def test_end_to_end(self, tmp_path, capsys):
        rec_path, truth_path = simulate_small(tmp_path, seed=3, n_records=500,
                                              congest=True)
        routes = tmp_path / "routes.csv"
        rejects = tmp_path / "rejects.csv"
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes), "--out-rejects", str(rejects)) == 0

        model_path = tmp_path / "model.txt"
        sse_path = tmp_path / "sse.csv"
        capsys.readouterr()
        assert run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--kind", "smoothed-edge", "--psi", "0.01",
                   "--out-model", str(model_path), "--out-sse", str(sse_path)) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [ln.split("=")[0] for ln in printed if "_segments=" in ln] == [
            "untraversed_segments", "unidentifiable_segments", "nonpositive_segments"]
        header, row = sse_path.read_text().splitlines()  # one closed-form fit, one row
        assert header == "epoch,sse" and row.startswith("0,")
        records, _ = parse_records(str(rec_path))
        net = build_network(read_routes(str(routes)))
        model = load_model(str(model_path))
        assert model.kind == "smoothed-edge"
        want = sum((r.observed_s - expected_time(
            model, resolve_path(net, r.service_id, r.origin, r.destination), r.distance_m)) ** 2
            for r in records)
        assert math.isclose(float(row.split(",")[1]), want, rel_tol=1e-9)

        scored_path = tmp_path / "scored.csv"
        assert run("detect", "--records", str(rec_path), "--routes", str(routes),
                   "--model", str(model_path), "--out", str(scored_path),
                   "--delta-quantile", "0.05") == 0
        lines = scored_path.read_text().splitlines()
        assert lines[0].startswith("# delta=")
        n_sig = sum(1 for ln in lines[2:] if ln.endswith(",1"))
        assert n_sig > 0

        report_path = tmp_path / "report.csv"
        daily_path = tmp_path / "daily.csv"
        assert run("localize", "--scored", str(scored_path), "--routes", str(routes),
                   "--out-report", str(report_path),
                   "--out-daily", str(daily_path)) == 0
        report_lines = report_path.read_text().splitlines()
        assert report_lines[0].startswith("rank,record_id,")
        assert len(report_lines) > 1
        first = report_lines[1].split(",")
        assert first[0] == "1"
        assert first[-1] in ("innermost-witness", "self-path")
        daily_lines = daily_path.read_text().splitlines()
        assert daily_lines[0] == "date,mean_count,median_count,mean_alpha,median_alpha"
        assert len(daily_lines) == 2  # single generated day
        capsys.readouterr()

    def test_detect_marks_significance_per_row(self, tmp_path, capsys):
        # a copy of one row, same record id, 2000 s slower: only the copy is
        # significant, so the 1s in scored.csv must match the printed count
        rec_path, _ = simulate_small(tmp_path)
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path), "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        model = tmp_path / "model.txt"
        assert run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--kind", "baseline1", "--out-model", str(model)) == 0
        lines = rec_path.read_text().splitlines()
        slow = lines[1].split(",")
        slow[5] = repr(float(slow[5]) + 2000.0)
        rec_path.write_text("\n".join(lines + [",".join(slow)]) + "\n")
        scored = tmp_path / "scored.csv"
        capsys.readouterr()
        assert run("detect", "--records", str(rec_path), "--routes", str(routes),
                   "--model", str(model), "--out", str(scored)) == 0
        printed = capsys.readouterr().out
        rows = [ln.split(",") for ln in scored.read_text().splitlines()[2:]]
        delta = float(printed.split("delta=")[1])
        assert [row[0] for row in rows].count(slow[0]) == 2
        assert all((row[9] == "1") == (float(row[8]) > delta) for row in rows)
        assert f"significant={sum(row[9] == '1' for row in rows)} " in printed

    def test_crossval_output(self, tmp_path, capsys):
        rec_path, _ = simulate_small(tmp_path, seed=5, n_records=400)
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        out = tmp_path / "cv.csv"
        assert run("crossval", "--records", str(rec_path), "--routes", str(routes),
                   "--folds", "3", "--kinds", "baseline1,baseline2",
                   "--epochs", "2", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "fold,kind,train_rmse,test_rmse,excluded"
        assert len(lines) == 1 + 3 * 2
        assert "mean_test_rmse" in capsys.readouterr().out

    def test_model_file_roundtrips_through_cli(self, tmp_path):
        rec_path, _ = simulate_small(tmp_path, seed=9)
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        model_path = tmp_path / "model.txt"
        assert run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--kind", "smoothed-edge", "--epochs", "3", "--psi", "0.01",
                   "--out-model", str(model_path)) == 0
        model = load_model(str(model_path))
        assert model.smoothed is True
        records, _ = parse_records(str(rec_path))
        net = build_network(read_routes(str(routes)))
        r = records[0]
        path = resolve_path(net, r.service_id, r.origin, r.destination)
        t1 = expected_time(model, path, r.distance_m)
        model2 = load_model(str(model_path))
        assert expected_time(model2, path, r.distance_m) == t1

    def test_config_file_supplies_defaults(self, tmp_path):
        rec_path, _ = simulate_small(tmp_path, seed=2)
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("psi=0.05\n# comment line\n\n")
        models_by = {}
        for name, extra in (("config", ["--config", str(cfg)]), ("flag", ["--psi", "0.05"]),
                            ("default", [])):
            out = tmp_path / f"{name}.txt"
            assert run("train", "--records", str(rec_path), "--routes", str(routes),
                       "--kind", "smoothed-edge", "--out-model", str(out), *extra) == 0
            models_by[name] = out.read_bytes()
        assert models_by["config"] == models_by["flag"] != models_by["default"]

    def test_localize_with_no_significant_rows(self, tmp_path, capsys):
        rec_path, _ = simulate_small(tmp_path, seed=4)
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        model_path = tmp_path / "m.txt"
        assert run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--kind", "baseline1", "--out-model", str(model_path)) == 0
        scored_path = tmp_path / "scored.csv"
        # an absurdly high absolute cutoff keeps nothing
        assert run("detect", "--records", str(rec_path), "--routes", str(routes),
                   "--model", str(model_path), "--out", str(scored_path),
                   "--delta-override", "1e9") == 0
        report_path = tmp_path / "report.csv"
        daily_path = tmp_path / "daily.csv"
        assert run("localize", "--scored", str(scored_path), "--routes", str(routes),
                   "--out-report", str(report_path),
                   "--out-daily", str(daily_path)) == 0
        assert len(report_path.read_text().splitlines()) == 1  # header only
        assert len(daily_path.read_text().splitlines()) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("row, error", [
        ("r2,s1,b,c,-1e300,120,600,60,9,1",
         "bad scored row: 'r2,s1,b,c,-1e300,120,600,60,9,1': "
         "time '-1e300' is outside years 1-9999 UTC"),
        ("r2,s1,b,c,60,inf,600,60,9,1",
         "bad scored row: 'r2,s1,b,c,60,inf,600,60,9,1': time 'inf' is not finite"),
        ("r2,s1,b,c,60,120,60,60,nan,1",
         "bad scored row: 'r2,s1,b,c,60,120,60,60,nan,1': expected_s and alpha must be finite"),
        ("r2,s1,b,c,60,120,60,inf,9,1",
         "bad scored row: 'r2,s1,b,c,60,120,60,inf,9,1': expected_s and alpha must be finite"),
        ("r2,s1,b,c,120,120,0,60,9,1", "record 'r2': t_end must exceed t_start"),
        ("r2,s9,b,c,60,120,60,60,9,1", "unknown service 's9'"),
        ("r2,s1,c,a,60,120,60,60,9,1", "destination 'a' precedes origin 'c' on service 's1'"),
        ("r2,s1,b,b,60,120,60,60,9,1",
         "stop 'b' cannot anchor a path on service 's1' (origin equals destination)"),
    ], ids=["early-start", "infinite-end", "nan-alpha", "infinite-expected", "no-duration",
            "unknown-service", "wrong-direction", "origin-is-destination"])
    def test_localize_bad_significant_row_is_one_error_line(self, tmp_path, capsys, row, error):
        routes, scored = tmp_path / "routes.csv", tmp_path / "scored.csv"
        routes.write_text("service_id,seq,stop,cumulative_m\n"
                          "s1,0,a,0\ns1,1,b,400\ns1,2,c,1000\ns1,3,d,1500\n")
        scored.write_text(f"# delta=1\n{SCORED_HEADER}\nr1,s1,a,d,0,200,200,150,5,1\n{row}\n")
        report, daily = tmp_path / "report.csv", tmp_path / "daily.csv"
        assert run("localize", "--scored", str(scored), "--routes", str(routes),
                   "--out-report", str(report), "--out-daily", str(daily)) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert not report.exists() and not daily.exists()

    @pytest.mark.parametrize("via_config", [False, True])
    def test_localize_takes_the_routes_detect_took(self, tmp_path, capsys, via_config):
        # segment A>B is 1000 m on s1 and 1003 m on s2: within eps_d 5, beyond 1 m
        rec = tmp_path / "two.csv"
        rec.write_text(
            "record_id,service_id,board_stop,alight_stop,board_time,alight_time,distance_m\n"
            "r1,s1,A,B,0,100,1000\nr2,s1,B,C,200,300,1000\nr3,s1,A,C,400,600,2000\n"
            "r4,s2,A,B,0,110,1003\nr5,s2,B,D,200,300,1000\nr6,s2,A,D,400,610,2003\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("eps_d=5\n")
        tol = ["--config", str(cfg)] if via_config else ["--eps-d", "5"]
        routes, model = tmp_path / "routes.csv", tmp_path / "m.txt"
        scored, report = tmp_path / "scored.csv", tmp_path / "report.csv"
        assert run("infer-routes", "--records", str(rec), "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv"), *tol) == 0
        assert run("train", "--records", str(rec), "--routes", str(routes), "--kind",
                   "baseline1", "--out-model", str(model), *tol) == 0
        assert run("detect", "--records", str(rec), "--routes", str(routes), "--model",
                   str(model), "--out", str(scored), "--delta-quantile", "0.5", *tol) == 0
        tail = tol if via_config else []
        assert run("localize", "--scored", str(scored), "--routes", str(routes),
                   "--out-report", str(report), "--out-daily", str(tmp_path / "d.csv"),
                   *tail) == 0
        assert capsys.readouterr().err == ""
        labels = {label for row in report.read_text().splitlines()[1:]
                  for label in row.split(",")[10].strip("|").split("|")}
        # the first distance in service-id order, as in detect's network
        assert labels == {"A>B@1000", "B>D@1000"}

    @pytest.mark.parametrize("value", ["nan", "inf", "-3", "0", "sigma2=nan", "sigma2=0"])
    def test_detect_rejects_model_values_no_fit_writes(self, tmp_path, capsys, value):
        rec_path, _ = simulate_small(tmp_path, seed=3)
        routes, model = tmp_path / "routes.csv", tmp_path / "m.txt"
        assert run("infer-routes", "--records", str(rec_path), "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        assert run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--out-model", str(model)) == 0
        lines = model.read_text().splitlines()
        n = 0 if value.startswith("sigma2=") else 1
        lines[n] = f"{lines[n].rsplit(' ', 1)[0]} {value}"
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("detect", "--records", str(rec_path), "--routes", str(routes),
                   "--model", str(model), "--out", str(tmp_path / "s.csv")) == 2
        if value == "sigma2=0":  # a perfect fit's model loads; detect names its sigma2
            want = "sigma = 0: ratios are undefined (degenerate training)"
        elif n == 0:
            want = f"bad model header: {lines[0]!r}: sigma2 must be finite and >= 0"
        else:
            want = f"bad model line: {lines[1]!r}: speed must be finite and > 0"
        assert capsys.readouterr().err == f"error: {want}\n"

    def test_flag_overrides_config(self, tmp_path):
        rec_path, _ = simulate_small(tmp_path, seed=2)
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("psi=0.05\n")
        models_by = {}
        for name, extra in (("both", ["--config", str(cfg), "--psi", "0.2"]),
                            ("flag", ["--psi", "0.2"]), ("config", ["--config", str(cfg)])):
            out = tmp_path / f"{name}.txt"
            assert run("train", "--records", str(rec_path), "--routes", str(routes),
                       "--kind", "smoothed-edge", "--out-model", str(out), *extra) == 0
            models_by[name] = out.read_bytes()
        assert models_by["both"] == models_by["flag"] != models_by["config"]

    def test_ascent_flags_change_no_output(self, tmp_path, capsys):
        # accepted and checked, because the benchmark passes them, but no subcommand
        # runs the ascent they tune
        rec_path, _ = simulate_small(tmp_path, seed=6)
        routes = tmp_path / "routes.csv"
        assert run("infer-routes", "--records", str(rec_path),
                   "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        common = ["--records", str(rec_path), "--routes", str(routes)]
        for removed, key in ((["--tau", "0.1"], "tau=0.1"), (["--c-min", "0.2"], "c_min=0.2"),
                             (["--no-variance-refresh"], "variance_refresh=0")):
            for command, out in (("train", "--out-model"), ("crossval", "--out")):
                capsys.readouterr()
                argv = [command, *common, out, str(tmp_path / "x")]
                assert run(*argv, *removed) == 2
                assert f"unrecognized arguments: {removed[0]}" in capsys.readouterr().err
                (tmp_path / "run.cfg").write_text(key + "\n")
                assert run(*argv, "--config", str(tmp_path / "run.cfg")) == 2
                assert capsys.readouterr().err == (
                    f"error: unknown config key(s): {key.split('=')[0]}\n")
        assert not (tmp_path / "x").exists()
        ascent = ["--epochs", "7", "--eta", "0.5", "--shuffle-seed", "9"]
        runs = []
        for extra in ([], ascent):
            capsys.readouterr()
            tag = "ascent" if extra else "plain"
            assert run("train", "--records", str(rec_path), "--routes", str(routes),
                       "--kind", "smoothed-edge", "--out-model", str(tmp_path / f"m_{tag}.txt"),
                       "--out-sse", str(tmp_path / f"sse_{tag}.csv"), *extra) == 0
            assert run("crossval", "--records", str(rec_path), "--routes", str(routes),
                       "--folds", "3", "--out", str(tmp_path / f"cv_{tag}.csv"), *extra) == 0
            runs.append((capsys.readouterr(), *[(tmp_path / f"{name}_{tag}.{ext}").read_bytes()
                         for name, ext in (("m", "txt"), ("sse", "csv"), ("cv", "csv"))]))
        assert runs[0] == runs[1]


def oracle_report_lines(reports):
    """The report.csv line loop that formatted every field of every window afresh."""
    lines = [REPORT_HEADER]
    for rank, rep in enumerate(reports, start=1):
        window_order = []
        grouped = {}
        for seg, w0, w1 in rep.congested_segments:
            key = (w0, w1)
            if key not in grouped:
                grouped[key] = []
                window_order.append(key)
            grouped[key].append(seg)
        for w0, w1 in window_order:
            segs = "|" + "|".join(
                f"{s.from_node}>{s.to_node}@{format_float(s.distance_m)}"
                for s in grouped[(w0, w1)]
            ) + "|"
            lines.append(
                f"{rank},{rep.record_id},{format_float(rep.alpha)},"
                f"{rep.containment_count},{rep.path.nodes[0]},{rep.path.nodes[-1]},"
                f"{format_float(rep.t_start)},{format_float(rep.t_end)},"
                f"{format_float(rep.t_end - rep.t_start)},{format_float(rep.expected_s)},"
                f"{segs},{format_float(w0)},{format_float(w1)},{rep.provenance}"
            )
    return lines


class TestReportWriterMatchesLoop:
    """localize's report.csv is byte-equal to the per-window formatting loop."""

    def localize(self, tmp_path, scored, routes):
        report = tmp_path / "report.csv"
        assert run("localize", "--scored", str(scored), "--routes", str(routes),
                   "--out-report", str(report), "--out-daily", str(tmp_path / "daily.csv")) == 0
        network = build_network(read_routes(str(routes)))
        flows, expected, alphas = cli._load_scored(str(scored), network)
        reports = anomaly.rank_anomalies(flows, range(len(flows)), alphas, expected)
        want = "".join(ln + "\n" for ln in oracle_report_lines(reports))
        assert report.read_text() == want
        return [ln.split(",") for ln in want.splitlines()[1:]]

    def test_shared_corridor_pipeline(self, tmp_path):
        rec_path = tmp_path / "records.csv"
        assert run("simulate", "--out-records", str(rec_path),
                   "--out-truth", str(tmp_path / "truth.csv"), "--services", "3",
                   "--stops", "7", "--shared-corridor", "4", "--n-records", "800",
                   "--seed", "2", "--congest-index", "2", "--congest-start", "20000",
                   "--congest-end", "60000", "--congest-factor", "3") == 0
        routes, model = tmp_path / "routes.csv", tmp_path / "model.txt"
        scored = tmp_path / "scored.csv"
        assert run("infer-routes", "--records", str(rec_path), "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        assert run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--epochs", "3", "--eta", "0.01", "--out-model", str(model)) == 0
        assert run("detect", "--records", str(rec_path), "--routes", str(routes),
                   "--model", str(model), "--delta-quantile", "0.3", "--out", str(scored)) == 0
        rows = self.localize(tmp_path, scored, routes)
        service_of = {row[0]: row[1] for row in read_significant(str(scored))}
        windows_of, services_of = {}, {}
        for row in rows:
            windows_of.setdefault((row[0], row[13]), set()).add((row[11], row[12]))
            for label in row[10].strip("|").split("|"):
                services_of.setdefault(label, set()).add(service_of[row[1]])
        assert any(len(w) > 1 for (_, prov), w in windows_of.items()
                   if prov == anomaly.PROVENANCE_WITNESS)
        assert any(prov == anomaly.PROVENANCE_SELF for _, prov in windows_of)
        assert any(len(services) > 1 for services in services_of.values())

    def test_signed_zero_windows(self, tmp_path):
        # -0.0 == 0.0, so a window keyed by its bounds must not reuse the other's text
        routes = tmp_path / "routes.csv"
        routes.write_text("service_id,seq,stop,cumulative_m\n"
                          + "".join(f"s1,{i},{stop},{100 * i}\n" for i, stop in enumerate("abcd")))
        scored = tmp_path / "scored.csv"
        scored.write_text(
            "# delta=1\n" + SCORED_HEADER + "\n"
            "outer,s1,a,d,-10,1000,1010,100,10,1\n"
            "neg,s1,b,c,-0,500,500,10,50,1\n"
            "pos,s1,c,d,0,500,500,10,40,1\n"
        )
        rows = self.localize(tmp_path, scored, routes)
        assert {(row[1], row[11]) for row in rows} >= {("neg", "-0"), ("pos", "0")}


def fresh_interpreter(script):
    """Run a script in a new interpreter with the package on its path; its stdout."""
    src = str(Path(flowanomaly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Loaded by the package root or cli whatever the subcommand: cli's own imports.
ALWAYS_LOADED = {"flowanomaly", "flowanomaly.cli", "flowanomaly.core", "flowanomaly.errors",
                 "flowanomaly.recordio"}


class TestStartup:
    def test_importing_the_package_loads_no_submodule(self):
        out = fresh_interpreter(
            "import sys, flowanomaly\n"
            "print(sorted(m for m in sys.modules if m.startswith('flowanomaly.')))\n"
            "print(flowanomaly.generate_network.__module__, flowanomaly.score.__module__)\n")
        assert out.splitlines() == ["[]", "flowanomaly.synth flowanomaly.anomaly"]

    @pytest.mark.parametrize("command, absent", [
        ("infer-routes", {"flowanomaly.anomaly", "flowanomaly.models", "flowanomaly.evaluation",
                          "flowanomaly.synth"}),
        # statistics loads fractions and decimal; only localize's daily_series uses it
        ("detect", {"flowanomaly.evaluation", "flowanomaly.synth", "flowanomaly.routeinfer",
                    "statistics"}),
        ("localize", {"flowanomaly.models", "flowanomaly.evaluation", "flowanomaly.synth",
                      "flowanomaly.routeinfer"}),
    ])
    def test_each_subcommand_loads_only_its_modules(self, tmp_path, command, absent):
        # each module is compiled afresh where no bytecode is cached, so a module a
        # subcommand does not run is start-up time spent for nothing
        rec_path, _ = simulate_small(tmp_path, congest=True)
        routes, model = tmp_path / "routes.csv", tmp_path / "m.txt"
        scored = tmp_path / "scored.csv"
        argv_of = {
            "infer-routes": ["infer-routes", "--records", str(rec_path),
                             "--out-routes", str(routes), "--out-rejects", str(tmp_path / "rej.csv")],
            "detect": ["detect", "--records", str(rec_path), "--routes", str(routes),
                       "--model", str(model), "--out", str(scored)],
            "localize": ["localize", "--scored", str(scored), "--routes", str(routes),
                         "--out-report", str(tmp_path / "report.csv"),
                         "--out-daily", str(tmp_path / "daily.csv")],
        }
        assert run(*argv_of["infer-routes"]) == 0
        assert run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--out-model", str(model)) == 0
        assert run(*argv_of["detect"]) == 0
        out = fresh_interpreter(
            "import json, sys\n"
            "from flowanomaly.cli import run_command\n"
            f"code = run_command({argv_of[command]!r})\n"
            "print(json.dumps([code, list(sys.modules)]))\n")
        code, loaded = json.loads(out.splitlines()[-1])
        assert code == 0
        loaded = set(loaded)
        assert ALWAYS_LOADED <= loaded
        assert not loaded & absent

    def test_commands_without_seeded_draws_never_import_numpy(self, tmp_path):
        # importing numpy costs a large share of a short command's run time
        rec_path, _ = simulate_small(tmp_path)
        routes, model = tmp_path / "routes.csv", tmp_path / "m.txt"
        assert run("infer-routes", "--records", str(rec_path), "--out-routes", str(routes),
                   "--out-rejects", str(tmp_path / "rej.csv")) == 0
        assert run("train", "--records", str(rec_path), "--routes", str(routes),
                   "--epochs", "2", "--out-model", str(model)) == 0
        scored = tmp_path / "scored.csv"
        argv_sets = [
            ["infer-routes", "--records", str(rec_path),
             "--out-routes", str(tmp_path / "routes2.csv"),
             "--out-rejects", str(tmp_path / "rej2.csv")],
            ["detect", "--records", str(rec_path), "--routes", str(routes),
             "--model", str(model), "--out", str(scored)],
            ["localize", "--scored", str(scored), "--routes", str(routes),
             "--out-report", str(tmp_path / "report.csv"),
             "--out-daily", str(tmp_path / "daily.csv")],
        ]
        out = fresh_interpreter(
            "import sys\n"
            "from flowanomaly.cli import run_command\n"
            f"codes = [run_command(argv) for argv in {argv_sets!r}]\n"
            "print('exit codes', codes, 'numpy loaded', 'numpy' in sys.modules)\n"
        )
        assert out.splitlines()[-1] == "exit codes [0, 0, 0] numpy loaded False"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_simulate_peak_does_not_grow_with_its_records(tmp_path):
    # records are written as they are drawn; when simulate built every record
    # first, its peak grew by about 45 MB from 10k to 100k records
    def peak_kb(n_records):
        argv = ["simulate", "--out-records", str(tmp_path / "r.csv"),
                "--out-truth", str(tmp_path / "t.csv"), "--services", "8", "--stops", "12",
                "--n-records", str(n_records), "--seed", "1"]
        out = fresh_interpreter(
            "from flowanomaly.cli import run_command\n"
            f"assert run_command({argv!r}) == 0\n"
            "print(next(ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')))\n")
        return int(out.split()[-2])  # VmHWM: <n> kB

    assert peak_kb(100_000) - peak_kb(10_000) < 4 * 1024
