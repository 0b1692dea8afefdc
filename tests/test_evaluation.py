import math

import numpy as np
import pytest

from flowanomaly import models
from flowanomaly.core import Flows, build_network
from flowanomaly.errors import EmptyInput, TooFewRecords
from flowanomaly.evaluation import CrossValResult, kfold, make_folds, rmse
from flowanomaly.models import Baseline1Model, fit_baseline1, sse
from flowanomaly.synth import SynthConfig, generate_network, generate_records

from conftest import chain_path, flows_on, flows_straight, make_record, make_route


def rec(d, t_hat, rid="r1", origin="a", destination="b"):
    return make_record(record_id=rid, origin=origin, destination=destination,
                       t_start=0.0, t_end=t_hat, distance_m=d)


class TestMetrics:
    def test_sse_perfect_fit(self):
        model = Baseline1Model(c=10.0, sigma2=0.0)
        records = [rec(100.0, 10.0), rec(200.0, 20.0, "r2")]
        paths = [chain_path("ab", [100.0]), chain_path("ab", [200.0])]
        assert sse(model, Flows.from_records(records, paths)) == 0.0

    def test_sse_hand_sum(self):
        model = Baseline1Model(c=10.0, sigma2=0.0)
        records = [rec(100.0, 20.0), rec(100.0, 0.5, "r2")]
        paths = [chain_path("ab", [100.0])] * 2
        # residuals -10 and +9.5
        assert math.isclose(sse(model, Flows.from_records(records, paths)), 100.0 + 90.25, rel_tol=1e-12)

    def test_sse_zero_residual_record_is_neutral(self):
        model = Baseline1Model(c=10.0, sigma2=0.0)
        records = [rec(100.0, 20.0)]
        paths = [chain_path("ab", [100.0])]
        base = sse(model, Flows.from_records(records, paths))
        records.append(rec(300.0, 30.0, "r2"))
        paths.append(chain_path("ab", [300.0]))
        assert sse(model, Flows.from_records(records, paths)) == base

    def test_rmse_hand(self):
        model = Baseline1Model(c=10.0, sigma2=0.0)
        records = [rec(100.0, 20.0), rec(100.0, 0.0001, "r2")]
        paths = [chain_path("ab", [100.0])] * 2
        want = math.sqrt(((20.0 - 10.0) ** 2 + (0.0001 - 10.0) ** 2) / 2.0)
        assert math.isclose(rmse(model, Flows.from_records(records, paths)), want, rel_tol=1e-12)

    def test_rmse_perfect(self):
        model = Baseline1Model(c=10.0, sigma2=0.0)
        assert rmse(model, Flows.from_records([rec(100.0, 10.0)], [chain_path("ab", [100.0])])) == 0.0

    def test_rmse_duplication_invariant(self):
        model = Baseline1Model(c=10.0, sigma2=0.0)
        records = [rec(100.0, 17.0), rec(200.0, 14.0, "r2")]
        paths = [chain_path("ab", [100.0]), chain_path("ab", [200.0])]
        doubled = rmse(model, Flows.from_records(records * 2, paths * 2))
        assert math.isclose(rmse(model, Flows.from_records(records, paths)), doubled, rel_tol=1e-12)

    def test_rmse_empty(self):
        with pytest.raises(EmptyInput):
            rmse(Baseline1Model(1.0, 0.0), Flows.from_records([], []))


class TestFolds:
    def records(self, n):
        return [rec(100.0, 10.0, f"r{i}") for i in range(n)]

    def flows(self, n):
        return flows_straight(self.records(n))

    def test_partition_and_sizes(self):
        records = self.records(23)
        fold_of = make_folds(flows_straight(records), 5, seed=3)
        assert len(fold_of) == len(records)
        sizes = [0] * 5
        for fold in fold_of.tolist():
            sizes[fold] += 1
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 23

    def test_determinism(self):
        flows = self.flows(40)
        assert make_folds(flows, 4, seed=9).tolist() == make_folds(flows, 4, seed=9).tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_repeated_id_takes_the_fold_of_its_last_shuffle_position(self, seed):
        records = [rec(100.0, 10.0, f"r{i % 7}") for i in range(20)]
        order = np.random.default_rng(seed).permutation(len(records)).tolist()
        want = {records[i].record_id: pos % 3 for pos, i in enumerate(order)}
        got = make_folds(flows_straight(records), 3, seed).tolist()
        assert got == [want[r.record_id] for r in records]

    def test_two_records_two_folds(self):
        assert sorted(make_folds(self.flows(2), 2, seed=0).tolist()) == [0, 1]

    def test_too_few(self):
        with pytest.raises(TooFewRecords):
            make_folds(self.flows(3), 5, seed=0)

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            make_folds(self.flows(5), 1, seed=0)

    def test_a_negative_seed_is_named(self):
        # a library caller got numpy's `expected non-negative integer`
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            make_folds(self.flows(5), 2, seed=-1)


class TestKfold:
    def test_baselines_permutation_blind(self):
        cfg = SynthConfig(n_services=2, stops_per_service=5, n_records=120,
                          noise_sigma2=0.05, seed=2)
        truth = generate_network(cfg)
        records, _ = generate_records(truth, cfg)
        forward = fit_baseline1(flows_on(truth.network, records))
        backward = fit_baseline1(flows_on(truth.network, list(reversed(records))))
        assert math.isclose(forward.c, backward.c, rel_tol=1e-12)
        assert math.isclose(forward.sigma2, backward.sigma2, rel_tol=1e-12)

    def test_rows_shape_and_exclusion(self):
        net = build_network([
            make_route("s1", "ab", (0.0, 1000.0)),
            make_route("s2", "xy", (0.0, 1000.0)),
        ])
        records = [rec(1000.0, 100.0 + i, f"r{i}") for i in range(9)]
        # one lonely record on x->y: unseen whenever it lands in the test fold
        records.append(make_record(record_id="lonely", service_id="s2", origin="x",
                                   destination="y", t_start=0.0, t_end=100.0,
                                   distance_m=1000.0))
        result = kfold(net, flows_on(net, records), 5, ["baseline1"], psi=0.0, seed=1)
        assert len(result.rows) == 5
        assert sum(row.excluded for row in result.rows) == 1
        assert all(row.kind == "baseline1" for row in result.rows)

    def test_identical_folds_across_kinds(self):
        cfg = SynthConfig(n_services=2, stops_per_service=5, n_records=200,
                          noise_sigma2=0.05, seed=4)
        truth = generate_network(cfg)
        records, _ = generate_records(truth, cfg)
        result = kfold(truth.network, flows_on(truth.network, records), 4, ["baseline1", "baseline2"],
                       psi=0.0, seed=6)
        by_fold = {}
        for row in result.rows:
            by_fold.setdefault(row.fold, []).append(row.excluded)
        for excludeds in by_fold.values():
            assert len(set(excludeds)) == 1  # same test subset for every kind

    def test_both_edge_kinds_come_from_one_fit_per_fold(self, monkeypatch):
        cfg = SynthConfig(n_services=3, stops_per_service=6, shared_corridor_stops=3,
                          n_records=300, noise_sigma2=0.05, seed=4)
        truth = generate_network(cfg)
        records, _ = generate_records(truth, cfg)
        flows = flows_on(truth.network, records)
        alone = {kind: kfold(truth.network, flows, 3, [kind], psi=0.05, seed=6).rows
                 for kind in ("edge", "smoothed-edge")}
        calls = []
        fit = models._Columns.edge
        monkeypatch.setattr(models._Columns, "edge",
                            lambda cols, g, mask, psi: calls.append(psi) or fit(cols, g, mask, psi))
        for kinds in (["edge", "smoothed-edge"], ["smoothed-edge", "edge"]):
            calls.clear()
            rows = kfold(truth.network, flows, 3, kinds, psi=0.05, seed=6).rows
            assert calls == [0.05] * 3
            assert [row.kind for row in rows] == kinds * 3
            for kind in kinds:
                assert [row for row in rows if row.kind == kind] == alone[kind]

    def test_unknown_kind_rejected(self):
        cfg = SynthConfig(n_services=1, stops_per_service=3, n_records=20,
                          noise_sigma2=0.0, seed=1)
        truth = generate_network(cfg)
        records, _ = generate_records(truth, cfg)
        with pytest.raises(ValueError):
            kfold(truth.network, flows_on(truth.network, records), 2, ["nope"], psi=0.0, seed=0)

    def test_mean_test_rmse_unknown_kind(self):
        with pytest.raises(ValueError):
            CrossValResult().mean_test_rmse("edge")
