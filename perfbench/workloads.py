"""The benchmark's workloads: seeded input shapes plus the CLI flags each run uses.

Every workload runs the same five subcommands in the same order, so every
end-to-end metric exists on every workload; the shapes and flags decide which
layer does most of the work. See README.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

PIPELINE = ("infer-routes", "train", "detect", "localize", "crossval")


@dataclass(frozen=True)
class Planted:
    """One segment slowed by `factor` for entries between start_s and end_s."""

    segment: tuple[str, str]
    start_s: float
    end_s: float
    factor: float


@dataclass(frozen=True)
class Workload:
    name: str
    services: int
    stops: int
    n_records: int
    heldout_records: int
    shared_corridor: int = 0
    planted: Optional[Planted] = None
    iso_times: bool = False
    # share of extra rows that are malformed at parse level
    reject_share: float = 0.0
    # epoch of the first simulated second; ISO rows need a real calendar date
    day_start_s: float = 0.0
    train_args: tuple[str, ...] = ()
    delta_quantile: float = 0.01
    folds: int = 2
    kinds: tuple[str, ...] = ("baseline1", "edge")
    crossval_args: tuple[str, ...] = ()

    @classmethod
    def from_json(cls, data: dict) -> "Workload":
        """Inverse of dataclasses.asdict, for the spec file gen.py reads."""
        data = dict(data)
        planted = data.pop("planted")
        if planted is not None:
            planted = Planted(**{**planted, "segment": tuple(planted["segment"])})
        for key in ("train_args", "kinds", "crossval_args"):
            data[key] = tuple(data[key])
        return cls(planted=planted, **data)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit",
            services=8,
            stops=12,
            n_records=16_000,
            heldout_records=10_000,
            # index 3 of the sorted segment keys, as `simulate --congest-index 3`
            planted=Planted(("s00n03", "s00n04"), 43_200, 50_400, 3.0),
            train_args=("--epochs", "10", "--eta", "0.025"),
            delta_quantile=0.003,
            kinds=("baseline1", "baseline2", "edge"),
            crossval_args=("--epochs", "1", "--eta", "0.01"),
        ),
        Workload(
            name="contain",
            services=4,
            stops=16,
            shared_corridor=6,
            n_records=24_000,
            heldout_records=10_000,
            planted=Planted(("x02", "x03"), 28_800, 57_600, 3.0),
            iso_times=True,
            reject_share=0.01,
            day_start_s=1_700_006_400.0,
            train_args=("--epochs", "3", "--eta", "0.05"),
            delta_quantile=0.1,
            kinds=("baseline1", "edge", "smoothed-edge"),
            crossval_args=("--epochs", "1", "--eta", "0.05"),
        ),
    )
}
