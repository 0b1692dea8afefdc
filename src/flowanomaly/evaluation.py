"""Goodness-of-fit metrics and the K-fold cross-validation harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .core import NetworkGraph, FlowRecord, Path, left_sum, resolve_paths
from .errors import EmptyInput, TooFewRecords
from .models import (
    KIND_BASELINE1,
    KIND_BASELINE2,
    KIND_EDGE,
    KIND_SMOOTHED,
    MODEL_KINDS,
    Model,
    TrainConfig,
    fit_baseline1,
    fit_baseline2,
    sse,
    train_edge_model,
)


@dataclass(frozen=True)
class FoldSplit:
    """Assignment of every record id to one of k folds."""

    k: int
    assignments: dict[str, int]
    seed: int


@dataclass(frozen=True)
class TrialRow:
    fold: int
    kind: str
    train_rmse: float
    test_rmse: float
    excluded: int


@dataclass
class CrossValResult:
    rows: list[TrialRow] = field(default_factory=list)

    def mean_test_rmse(self, kind: str) -> float:
        values = [row.test_rmse for row in self.rows if row.kind == kind]
        if not values:
            raise ValueError(f"no rows for kind {kind!r}")
        return left_sum(values) / len(values)


def rmse(model: Model, records: Sequence[FlowRecord], paths: Sequence[Path]) -> float:
    if not records:
        raise EmptyInput("rmse needs records")
    return math.sqrt(sse(model, records, paths) / len(records))


def make_folds(records: Sequence[FlowRecord], k: int, seed: int) -> FoldSplit:
    """Seeded uniform shuffle then round-robin; fold sizes differ by at most 1."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(records) < k:
        raise TooFewRecords(len(records), k)
    import numpy as np  # imported here: only seeded draws need numpy, which is slow to load
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    assignments = {
        records[idx].record_id: pos % k for pos, idx in enumerate(order)
    }
    return FoldSplit(k=k, assignments=assignments, seed=seed)


def _fit_kind(
    kind: str,
    network: NetworkGraph,
    records: Sequence[FlowRecord],
    paths: Sequence[Path],
    cfg: TrainConfig,
) -> Model:
    if kind == KIND_BASELINE1:
        return fit_baseline1(records)
    if kind == KIND_BASELINE2:
        return fit_baseline2(records, paths)
    if kind in (KIND_EDGE, KIND_SMOOTHED):
        model, _ = train_edge_model(
            network, records, cfg, smoothed=(kind == KIND_SMOOTHED), paths=paths
        )
        return model
    raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def kfold(
    network: NetworkGraph,
    records: Sequence[FlowRecord],
    k: int,
    model_kinds: Sequence[str],
    train_cfg: TrainConfig,
    seed: int,
) -> CrossValResult:
    """Train each model kind on k-1 folds and test on the held-out fold.

    The same folds are reused for every kind (paired comparison). Test records
    whose path crosses a segment no training record covered are excluded from
    the test metric and counted in the row's `excluded` column.
    """
    for kind in model_kinds:
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
    split = make_folds(records, k, seed)
    paths = resolve_paths(network, records)
    result = CrossValResult()
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
            model = _fit_kind(kind, network, train_recs, train_paths, train_cfg)
            result.rows.append(
                TrialRow(
                    fold=fold,
                    kind=kind,
                    train_rmse=rmse(model, train_recs, train_paths),
                    test_rmse=rmse(model, kept_recs, kept_paths),
                    excluded=excluded,
                )
            )
    return result
