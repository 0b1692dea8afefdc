"""Goodness-of-fit metrics and the K-fold cross-validation harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .core import NetworkGraph, Path, left_sum, resolve_paths
from .errors import EmptyInput, TooFewRecords
from .models import (
    KIND_BASELINE1,
    KIND_BASELINE2,
    KIND_EDGE,
    KIND_SMOOTHED,
    MODEL_KINDS,
    Model,
    Records,
    _Columns,
    fit_baseline1,
    fit_baseline2,
    fit_edge_model,
    sse,
    train_edge_model,  # noqa: F401 - perfbench/tracing.py wraps this name here
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


def rmse(model: Model, records: Records, paths: Sequence[Path] | None = None) -> float:
    if not records:
        raise EmptyInput("rmse needs records")
    return math.sqrt(sse(model, records, paths) / len(records))


def make_folds(records: Records, k: int, seed: int) -> FoldSplit:
    """Seeded uniform shuffle then round-robin; fold sizes differ by at most 1.

    A record id that repeats takes the fold of its last position in the shuffle,
    so repeated ids can leave one fold with every record (kfold names it).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(records) < k:
        raise TooFewRecords(len(records), k)
    if isinstance(records, _Columns):
        record_ids = records.record_ids
    else:
        record_ids = [r.record_id for r in records]
    import numpy as np  # imported here: only seeded draws need numpy, which is slow to load
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    assignments = {record_ids[idx]: pos % k for pos, idx in enumerate(order)}
    return FoldSplit(k=k, assignments=assignments, seed=seed)


def _fit_kind(
    kind: str, kinds: Sequence[str], network: NetworkGraph, cols: _Columns, psi: float
) -> dict[str, Model]:
    """The kind's model on the columns, by kind.

    With both edge kinds in `kinds`, one normal matrix serves the two: the
    smoothed-edge fit's first solve is the edge fit, bit for bit.
    """
    if kind == KIND_BASELINE1:
        return {kind: fit_baseline1(cols)}
    if kind == KIND_BASELINE2:
        return {kind: fit_baseline2(cols)}
    if KIND_SMOOTHED in kinds:
        smoothed, trail = fit_edge_model(network, cols, psi=psi)
        return {KIND_SMOOTHED: smoothed, KIND_EDGE: trail.unsmoothed}
    return {kind: fit_edge_model(network, cols)[0]}


def kfold(
    network: NetworkGraph,
    records: Records,
    k: int,
    model_kinds: Sequence[str],
    psi: float,
    seed: int,
) -> CrossValResult:
    """Train each model kind on k-1 folds and test on the held-out fold.

    psi is the smoothed-edge kind's smoothing strength (fit_edge_model's).

    The same folds are reused for every kind (paired comparison). Test records
    whose path crosses a segment no training record covered are excluded from
    the test metric and counted in the row's `excluded` column; a fold whose
    test records are all excluded raises EmptyInput, naming the fold, and so does
    a fold that holds every record (records with a repeated id share a fold).

    The records' columns are built once; each fold's train and test sets are
    views of them in the records' order.
    """
    for kind in model_kinds:
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
    split = make_folds(records, k, seed)
    paths = None if isinstance(records, _Columns) else resolve_paths(network, records)
    cols = _Columns.of(records, paths)
    fold_of = [split.assignments[record_id] for record_id in cols.record_ids]
    result = CrossValResult()
    for fold in range(k):
        train = cols.view([i for i, f in enumerate(fold_of) if f != fold])
        covered = set(train.keys)
        seen = [all(cols.keys[s] in covered for s in segs) for segs in cols.segs]
        test_rows = [i for i, f in enumerate(fold_of) if f == fold]
        test = cols.view([i for i in test_rows if seen[cols.path_of[i]]])
        excluded = len(test_rows) - len(test)
        if model_kinds and not train:
            raise EmptyInput(
                f"fold {fold} has every one of the {len(cols)} records and none to train on: "
                "records that share a record id share a fold; fewer folds or distinct "
                "record ids would help"
            )
        if model_kinds and excluded and not test:
            raise EmptyInput(
                f"fold {fold} has no test record left: all {excluded} cross a segment "
                "that no training record covers; fewer folds or more records would help"
            )
        fits: dict[str, Model] = {}
        for kind in model_kinds:
            if kind not in fits:
                fits.update(_fit_kind(kind, model_kinds, network, train, psi))
            model = fits[kind]
            result.rows.append(
                TrialRow(
                    fold=fold,
                    kind=kind,
                    train_rmse=rmse(model, train),
                    test_rmse=rmse(model, test),
                    excluded=excluded,
                )
            )
    return result
