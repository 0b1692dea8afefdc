"""Goodness-of-fit metrics and the K-fold cross-validation harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .core import Flows, NetworkGraph, left_sum
from .core import resolve_paths  # noqa: F401 - perfbench/tracing.py wraps this name here
from .errors import EmptyInput, TooFewRecords
from .models import (
    KIND_BASELINE1,
    KIND_BASELINE2,
    KIND_SMOOTHED,
    MODEL_KINDS,
    Model,
    _Columns,
    fit_baseline1,  # noqa: F401 - perfbench/tracing.py wraps these three names here
    fit_baseline2,  # noqa: F401
    sse,
    train_edge_model,  # noqa: F401
)

if TYPE_CHECKING:  # numpy is imported where a fold needs it: it is slow to load
    import numpy as np


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


def rmse(model: Model, flows: Flows) -> float:
    if not flows:
        raise EmptyInput("rmse needs records")
    return math.sqrt(sse(model, flows) / len(flows))


def make_folds(flows: Flows, k: int, seed: int) -> np.ndarray:
    """Each row's fold, from a seeded uniform shuffle dealt round-robin.

    Fold sizes differ by at most 1. A record id that repeats takes the fold of
    its last position in the shuffle, so repeated ids can leave one fold with
    every record (kfold names it).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if seed < 0:  # numpy's seeding would reject it in words that name no seed
        raise ValueError(f"seed must be >= 0, got {seed}")
    if len(flows) < k:
        raise TooFewRecords(len(flows), k)
    import numpy as np  # imported here: only seeded draws need numpy, which is slow to load
    rng = np.random.default_rng(seed)
    record_ids = flows.record_ids
    order = rng.permutation(len(flows)).tolist()
    last = dict(zip(map(record_ids.__getitem__, order), range(len(order))))  # later ones win
    return np.fromiter(map(last.__getitem__, record_ids), np.intp, len(record_ids)) % k


def _rmse(cols: _Columns, squares: np.ndarray, mask: np.ndarray) -> float:
    """Root mean of the squares over the masked rows; no rows is EmptyInput, as in rmse."""
    count = float(mask.sum())
    if not count:
        raise EmptyInput("rmse needs records")
    return math.sqrt(cols.sum(squares, mask) / count)


def _check_folds(flows: Flows, fold_of: np.ndarray, k: int) -> None:
    """EmptyInput naming the first fold that holds every row, else the first that holds none.

    Either can happen only through repeated record ids, which share a fold.
    """
    import numpy as np

    sizes = np.bincount(fold_of, minlength=k).tolist()
    cause = ("records that share a record id share a fold; fewer folds or distinct "
             "record ids would help")
    if len(flows) in sizes:
        raise EmptyInput(f"fold {sizes.index(len(flows))} has every one of the {len(flows)} "
                         f"records and none to train on: {cause}")
    if 0 in sizes:
        raise EmptyInput(f"fold {sizes.index(0)} has no records: the {len(flows)} records "
                         f"carry {len(set(flows.record_ids))} distinct record ids, and {cause}")


def kfold(
    network: NetworkGraph,
    flows: Flows,
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
    a fold that holds every record or none, before any fit (records with a
    repeated id share a fold).

    A fold's train and test sets are 0/1 row masks over one models._Columns of
    the flows. The rows equal those of fits on each fold's own Flows, the RMSEs
    to a relative 1e-9: they sum per path, then pairwise over paths.
    """
    for kind in model_kinds:
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
    fold_of = make_folds(flows, k, seed)
    if model_kinds:
        _check_folds(flows, fold_of, k)
    cols = _Columns(flows)
    result = CrossValResult()
    for fold in range(k):
        held = fold_of == fold
        train = 1.0 - held
        test = (held & cols.seen(train)) * 1.0
        excluded = int(held.sum() - test.sum())
        if model_kinds and excluded and not test.any():
            raise EmptyInput(
                f"fold {fold} has no test record left: all {excluded} cross a segment "
                "that no training record covers; fewer folds or more records would help"
            )
        squares: dict[str, np.ndarray] = {}  # per row, of the kind's fit on the train rows
        for kind in model_kinds:
            if kind == KIND_BASELINE1:
                squares[kind] = cols.baseline1(train)[1]
            elif kind == KIND_BASELINE2:
                squares[kind] = cols.baseline2(train)[1]
            elif kind not in squares:  # one normal matrix serves both edge kinds
                smoothed = KIND_SMOOTHED in model_kinds
                squares.update(cols.edge(network, train, psi if smoothed else 0.0)[2])
            result.rows.append(TrialRow(fold, kind, _rmse(cols, squares[kind], train),
                                        _rmse(cols, squares[kind], test), excluded))
    return result
