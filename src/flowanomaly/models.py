"""Travel-time models: global speed, per-path speed, and per-segment speed.

The per-segment model treats each record's time as Gaussian with mean
sum(d_ij/c_ij) over its path and variance d_r*sigma2. Both per-segment kinds are
fitted in closed form (fit_edge_model): in slowness 1/c the mean is linear, so the
maximum-likelihood speeds are one weighted least-squares solve, which also
reports the segments the records cannot separate (unidentifiable) and those
whose fitted slowness is not positive; the smoothed kind adds its penalty on
consecutive segments, linearized, to the same solve. The paper's stochastic
gradient ascent (train_edge_model, with TrainConfig's knobs) remains the
reference that the gradient, convergence and speed-recovery tests exercise; no
subcommand runs it.

Every fit, fold and residual takes a Flows, which lives in core: records on
their resolved paths, as columns of interned segment positions. expected_times
gives each record its expected time from one per distinct path; anomaly.score
reads it too. Output stays byte-identical only while float sums are
left-to-right += and squares are ** 2: on CPython 3.11, x ** 2 != x * x on 73 of
100k normal draws and np.add.reduceat differed from the left-to-right sum on 699
of 2000 random 1-15-segment paths; sum() of floats compensates from Python 3.12
on, so sums go through left_sum. The same holds for a view (kfold's folds): it
keeps its records' order and copies their stored floats, so its sums add the
values a record list would, in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import IO, Sequence, Union

from .core import FlowRecord, Flows, NetworkGraph, NodeId, Path, Segment, left_sum
from .core import resolve_paths  # noqa: F401 - perfbench/tracing.py wraps this name here
from .errors import (
    EmptyInput,
    MissingSegmentSpeed,
    NonPositiveVariance,
    SegmentNotOnPath,
)
from .recordio import format_float, read_lines, write_lines

KIND_BASELINE1 = "baseline1"
KIND_BASELINE2 = "baseline2"
KIND_EDGE = "edge"
KIND_SMOOTHED = "smoothed-edge"
MODEL_KINDS = (KIND_BASELINE1, KIND_BASELINE2, KIND_EDGE, KIND_SMOOTHED)

# Below this variance the fit explains the data to sub-nanosecond-per-meter
# precision: the 1/sigma2 gradient is singular there and constant-step ascent
# would amplify rounding residue into divergence, so training treats the model
# as converged. Estimators are never floored.
SIGMA2_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the stochastic gradient ascent (train_edge_model).

    eta is the step size, tau the log-barrier strength, psi the smoothing
    strength (only the smoothed model reads it; the CLI passes it to
    fit_edge_model), c_min the hard positivity floor applied after each step.
    """

    eta: float = 1e-3
    tau: float = 1e-4
    psi: float = 1e-3
    epochs: int = 30
    c_min: float = 0.1
    shuffle_seed: int = 0
    variance_refresh: bool = True

    def __post_init__(self):
        if not all(map(math.isfinite, (self.eta, self.tau, self.psi, self.c_min))):
            raise ValueError("eta, tau, psi and c_min must be finite")
        if not self.eta > 0:
            raise ValueError("eta must be > 0")
        if self.tau < 0 or self.psi < 0:
            raise ValueError("tau and psi must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.c_min > 0 and self.c_min * self.c_min > 0):
            raise ValueError("c_min must be > 0 with a square that does not underflow to 0")


@dataclass
class Baseline1Model:
    """One global speed for every flow."""

    c: float
    sigma2: float

    kind = KIND_BASELINE1


@dataclass
class Baseline2Model:
    """One speed per distinct path; fallback_c covers paths never seen in training."""

    c_by_path: dict[str, float]
    sigma2: float
    fallback_c: float

    kind = KIND_BASELINE2


@dataclass
class EdgeModel:
    """One speed per directed segment, with a shared variance parameter."""

    c_by_segment: dict[tuple[NodeId, NodeId], float]
    sigma2: float
    smoothed: bool = False

    @property
    def kind(self) -> str:
        return KIND_SMOOTHED if self.smoothed else KIND_EDGE


Model = Union[Baseline1Model, Baseline2Model, EdgeModel]


@dataclass
class TrainResult:
    """Per-epoch SSE trail (one entry for a closed-form fit) and the segments it reports.

    untraversed: no training record crosses them. unidentifiable and
    nonpositive come from fit_edge_model only: segments whose speed the records
    cannot separate from their neighbours', and segments whose fitted slowness
    was not positive (both defined there). unsmoothed, from fit_edge_model only,
    is its first solve: the `edge` fit, bit for bit, even when psi > 0.
    """

    sse_by_epoch: list[float] = field(default_factory=list)
    untraversed: tuple[tuple[NodeId, NodeId], ...] = ()
    unidentifiable: tuple[tuple[NodeId, NodeId], ...] = ()
    nonpositive: tuple[tuple[NodeId, NodeId], ...] = ()
    unsmoothed: EdgeModel | None = None


def path_key(path: Path) -> str:
    """Canonical key of a resolved path: its node sequence.

    Records resolved to identical segment sequences share a key even when
    they rode different services over the same stretch.
    """
    return ">".join(path.nodes)


def expected_times(model: Model, flows: Flows) -> list[float]:
    """Per record, from one sum (edge model) or one speed (baseline) per distinct path."""
    if isinstance(model, EdgeModel):
        by_path = [expected_time(model, p, 0.0) for p in flows.paths]
        return [by_path[j] for j in flows.path_of]
    speed = [_path_speed(model, p) for p in flows.paths]
    return [d / speed[j] for j, d in zip(flows.path_of, flows.distance)]


def _need_flows(flows: Flows) -> None:
    """A FlowRecord list passed where a Flows belongs is one ValueError, not an AttributeError."""
    if not isinstance(flows, Flows):
        raise ValueError("a record list needs its paths: pass Flows.from_records(records, paths)")


def _need_records(flows: Flows, caller: str) -> None:
    _need_flows(flows)
    if not flows:
        raise EmptyInput(f"{caller} needs records")


def fit_baseline1(flows: Flows) -> Baseline1Model:
    """Closed-form global speed: total distance over total observed time."""
    _need_records(flows, "fit_baseline1")
    observed, distance = flows.observed, flows.distance
    total_d = left_sum(distance)
    c = total_d / left_sum(observed)
    sigma2 = left_sum((t - d / c) ** 2 for t, d in zip(observed, distance)) / total_d
    return Baseline1Model(c=c, sigma2=sigma2)


def fit_baseline2(flows: Flows) -> Baseline2Model:
    """Closed-form per-path speeds with a variance pooled across paths."""
    _need_records(flows, "fit_baseline2")
    key_of = [path_key(p) for p in flows.paths]
    sums: dict[str, tuple[float, float]] = {}
    for j, d_r, t_r in zip(flows.path_of, flows.distance, flows.observed):
        key = key_of[j]
        d, t = sums.get(key, (0.0, 0.0))
        sums[key] = (d + d_r, t + t_r)
    c_by_path = {key: d / t for key, (d, t) in sums.items()}
    fallback = left_sum(flows.distance) / left_sum(flows.observed)
    model = Baseline2Model(c_by_path=c_by_path, sigma2=0.0, fallback_c=fallback)
    resid_sq, total_d = _residual_pass(model, flows)
    model.sigma2 = resid_sq / total_d
    return model


def _path_speed(model: Baseline1Model | Baseline2Model, path: Path) -> float:
    """A baseline's speed on a path: the global one, or the path's own."""
    if isinstance(model, Baseline1Model):
        return model.c
    return model.c_by_path.get(path_key(path), model.fallback_c)


def expected_time(model: Model, path: Path, d_r: float) -> float:
    """Expected seconds to cover the record's distance along its path."""
    if not isinstance(model, EdgeModel):
        return d_r / _path_speed(model, path)
    total = 0.0
    for seg in path.segments:
        c = model.c_by_segment.get(seg.key)
        if c is None:
            raise MissingSegmentSpeed(seg.from_node, seg.to_node)
        total += seg.distance_m / c
    return total


def log_likelihood(
    model: EdgeModel, r: FlowRecord, path: Path, cfg: TrainConfig
) -> float:
    """Per-record objective the gradient ascends.

    Gaussian log density (constant dropped) plus tau * sum(log c) as the
    positivity barrier; the smoothed model subtracts psi/2 times the squared
    speed difference of each consecutive segment pair in the path.
    """
    if model.sigma2 <= 0:
        raise NonPositiveVariance(f"sigma2 = {model.sigma2}")
    expect = expected_time(model, path, r.distance_m)
    dv = r.distance_m * model.sigma2
    value = -0.5 * math.log(dv) - (r.observed_s - expect) ** 2 / (2.0 * dv)
    if cfg.tau:
        value += cfg.tau * sum(
            math.log(model.c_by_segment[s.key]) for s in path.segments
        )
    if model.smoothed and cfg.psi:
        speeds = [model.c_by_segment[s.key] for s in path.segments]
        value -= (
            cfg.psi
            / 2.0
            * sum((a - b) ** 2 for a, b in zip(speeds, speeds[1:]))
        )
    return value


def _partials(
    dists: Sequence[float], speeds: Sequence[float], base: float, tau: float, psi: float
) -> list[float]:
    """Per-segment partials of one record's objective, in path order.

    dists and speeds are the path's segment lengths and speeds, base is the
    residual over d_r * sigma2, and psi is 0 unless the model is smoothed.
    """
    grads = []  # a loop, not a comprehension, which CPython 3.11 runs as a call
    for d, c in zip(dists, speeds):
        grads.append(-base * d / (c * c) + tau / c)
    if psi:
        last = len(speeds) - 1
        for i, c in enumerate(speeds):
            if i < last:
                grads[i] -= psi * (c - speeds[i + 1])
            if i > 0:
                grads[i] += psi * (speeds[i - 1] - c)
    return grads


def gradient(
    model: EdgeModel,
    r: FlowRecord,
    path: Path,
    segment: Segment | tuple[NodeId, NodeId],
    cfg: TrainConfig,
) -> float:
    """Partial derivative of the per-record objective w.r.t. one segment speed."""
    key = segment.key if isinstance(segment, Segment) else tuple(segment)
    keys = [seg.key for seg in path.segments]
    if key not in keys:
        raise SegmentNotOnPath(key[0], key[1])
    expect = expected_time(model, path, r.distance_m)
    base = (r.observed_s - expect) / (r.distance_m * max(model.sigma2, SIGMA2_FLOOR))
    speeds = [model.c_by_segment[k] for k in keys]
    dists = [seg.distance_m for seg in path.segments]
    psi = cfg.psi if model.smoothed else 0.0
    return _partials(dists, speeds, base, cfg.tau, psi)[keys.index(key)]


def init_edge_model(g: NetworkGraph, flows: Flows, smoothed: bool = False) -> EdgeModel:
    """Start every segment at the global speed, variance at the global fit's."""
    _need_records(flows, "init_edge_model")
    base = fit_baseline1(flows)
    speeds = {key: base.c for key in g.segments}
    return EdgeModel(c_by_segment=speeds, sigma2=base.sigma2, smoothed=smoothed)


def _residual_pass(model: Model, flows: Flows) -> tuple[float, float]:
    """Sum of squared residuals and total distance, each summed left to right."""
    _need_flows(flows)
    resid = zip(flows.observed, expected_times(model, flows))
    return left_sum((t - expect) ** 2 for t, expect in resid), left_sum(flows.distance)


def sse(model: Model, flows: Flows) -> float:
    """Sum of squared residuals between expected and observed times."""
    return _residual_pass(model, flows)[0]


def estimate_variance(model: Model, flows: Flows) -> float:
    """Residual-based variance: sum of squared residuals over total distance."""
    _need_records(flows, "estimate_variance")
    resid_sq, total_d = _residual_pass(model, flows)
    return resid_sq / total_d


def sgd_epoch(
    model: EdgeModel, flows: Flows, cfg: TrainConfig, epoch: int = 0
) -> tuple[EdgeModel, float]:
    """One ascent pass over the records in a seeded random order.

    Mutates the model in place: each record updates every speed on its path
    (all partials taken at the pre-update state), clamped at c_min. A model
    whose variance sits below SIGMA2_FLOOR is treated as converged and the
    pass leaves the speeds in place. With variance_refresh the variance is
    re-estimated at epoch end. Returns the model and the post-epoch sum of
    squared residuals.
    """
    _need_records(flows, "sgd_epoch")
    import numpy as np  # imported here: only seeded draws need numpy, which is slow to load
    rng = np.random.default_rng((cfg.shuffle_seed, epoch))
    order = rng.permutation(len(flows)).tolist() if model.sigma2 >= SIGMA2_FLOOR else ()
    try:  # the first gap in key order is the first a record-order pass meets
        speeds = [model.c_by_segment[key] for key in flows.keys]
    except KeyError as exc:
        raise MissingSegmentSpeed(*exc.args[0]) from None
    psi = cfg.psi if model.smoothed else 0.0
    for k in order:
        j = flows.path_of[k]
        segs, dists = flows.segs[j], flows.dists[j]
        before = [speeds[i] for i in segs]
        expect = left_sum(d / c for d, c in zip(dists, before))
        base = (flows.observed[k] - expect) / (flows.distance[k] * model.sigma2)
        for i, c, grad in zip(segs, before, _partials(dists, before, base, cfg.tau, psi)):
            updated = c + cfg.eta * grad
            speeds[i] = updated if updated > cfg.c_min else cfg.c_min
    model.c_by_segment.update(zip(flows.keys, speeds))
    resid_sq, total_d = _residual_pass(model, flows)
    if cfg.variance_refresh:
        model.sigma2 = resid_sq / total_d
    return model, resid_sq


def train_edge_model(
    g: NetworkGraph, flows: Flows, cfg: TrainConfig, smoothed: bool = False
) -> tuple[EdgeModel, TrainResult]:
    """Initialize from the global fit and run cfg.epochs ascent passes."""
    model = init_edge_model(g, flows, smoothed=smoothed)
    result = TrainResult(untraversed=_untraversed(g, flows))
    for epoch in range(cfg.epochs):
        model, sse = sgd_epoch(model, flows, cfg, epoch=epoch)
        result.sse_by_epoch.append(sse)
    return model, result


def _untraversed(g: NetworkGraph, flows: Flows) -> tuple[tuple[NodeId, NodeId], ...]:
    return tuple(sorted(set(g.segments) - set(flows.keys)))


# A segment whose unit vector has a null-space component above this norm is
# unidentifiable. A computed null-space basis is off by about eps * cond(N),
# far below this unless N is all but singular.
NULL_COMPONENT_TOL = 1e-6


def fit_edge_model(
    g: NetworkGraph, flows: Flows, psi: float = 0.0
) -> tuple[EdgeModel, TrainResult]:
    """Maximum-likelihood segment speeds in closed form: weighted least squares in slowness.

    In slowness s = 1/c a record's expected time a_p . s is linear, a_p being
    the segment lengths along its path p, so with variance d_r*sigma2 the
    likelihood is maximal where sum((t_r - a_p . s)^2 / d_r) is least. Records
    on one path share a_p: the normal equations are N s = b with
    N = sum_p w_p a_p a_p' and b = sum_p u_p a_p, where w_p and u_p sum 1/d_r
    and t_r/d_r over the path's records.

    The solve starts at the global fit's slowness s0 and adds the least-squares
    correction delta of smallest length-weighted norm sum(l_i * delta_i^2),
    from one eigendecomposition of N scaled by the square roots of the segment
    lengths l; eigenvalues up to lambda_max * S * eps count as zero. A segment
    with a component in that null space is unidentifiable: no record separates
    its time from its neighbours' (consecutive segments that every trip crosses
    together, say), and the weighted norm gives such a stretch one shared
    correction, so one speed. A fitted slowness that is not positive (or a
    speed that is not finite) is reported as nonpositive and replaced by the
    global speed; untraversed segments keep the global speed too. sigma2 is the
    residual variance, and sse_by_epoch holds the one fit's SSE.

    psi > 0 (the smoothed kind) adds the paper's psi/2 * (c_i - c_j)^2 per record
    and consecutive pair i, j of its path, linearized at the global speed c0 as
    c_i - c_j = c_i c_j (s_j - s_i): in the objective above, -2 sigma2 times the
    log likelihood, that is mu * n_ij * (s_i - s_j)^2 with mu = psi * sigma2 * c0^4,
    sigma2 the unsmoothed solve's and n_ij the records crossing the pair. A second
    solve, of N + mu * L with L the Laplacian of the n_ij, fits it: L s0 = 0, and
    L's null space (constant along chained segments) meets N's only at 0.
    """
    _need_records(flows, "fit_edge_model")
    if not 0.0 <= psi < math.inf:
        raise ValueError("psi must be finite and >= 0")
    base = fit_baseline1(flows)
    import numpy as np  # imported here, as for the seeded draws: numpy is slow to load
    distance = np.array(flows.distance)  # every record distance is > 0 (check_record)
    path_of = np.array(flows.path_of)
    w = np.bincount(path_of, 1.0 / distance)
    u = np.bincount(path_of, np.frombuffer(flows.observed) / distance)
    crossings = np.bincount(path_of).tolist()  # records per path
    n_seg = len(flows.keys)
    normal, rhs, length = np.zeros((n_seg, n_seg)), np.zeros(n_seg), np.zeros(n_seg)
    pairs = np.zeros((n_seg, n_seg)) if psi else None  # n_ij, for i before j
    for segs, dists, w_p, u_p, n_p in zip(flows.segs, flows.dists, w.tolist(), u.tolist(),
                                          crossings):
        i, a = np.array(segs), np.array(dists)  # a path's segments are distinct: no repeats
        normal[i[:, None], i] += (w_p * a)[:, None] * a
        rhs[i] += u_p * a
        length[i] = a
        if psi:
            pairs[i[:-1], i[1:]] += n_p
    s0 = 1.0 / base.c
    root = np.sqrt(length)  # y = root * delta: the plain smallest norm in y is the weighted one
    free = (rhs - normal.sum(axis=1) * s0) / root

    def solve(matrix):
        lam, vec = np.linalg.eigh(matrix / np.outer(root, root))
        null = lam <= lam[-1] * n_seg * np.finfo(float).eps
        kept = vec[:, ~null]
        y = kept @ ((kept.T @ free) / lam[~null])
        with np.errstate(divide="ignore"):
            speed = 1.0 / (s0 + y / root)
        bad = ~(np.isfinite(speed) & (speed > 0))
        speeds = dict.fromkeys(g.segments, base.c)
        speeds.update(zip(flows.keys, np.where(bad, base.c, speed).tolist()))
        model = EdgeModel(c_by_segment=speeds, sigma2=0.0)
        resid_sq, total_d = _residual_pass(model, flows)
        model.sigma2 = resid_sq / total_d
        return model, resid_sq, np.linalg.norm(vec[:, null], axis=1) > NULL_COMPONENT_TOL, bad

    model, resid_sq, unidentifiable, bad = solve(normal)
    unsmoothed = model
    if psi:
        pairs += pairs.T
        mu = psi * model.sigma2 * base.c ** 4
        model, resid_sq, unidentifiable, bad = solve(normal + mu * (np.diag(pairs.sum(1)) - pairs))
    return model, TrainResult(
        sse_by_epoch=[resid_sq],
        untraversed=_untraversed(g, flows),
        unidentifiable=tuple(sorted(compress(flows.keys, unidentifiable))),
        nonpositive=tuple(sorted(compress(flows.keys, bad))),
        unsmoothed=unsmoothed,
    )


def save_model(model: Model, dest: str | IO[str]) -> None:
    """Write a model in the line-oriented text format (17 significant digits)."""
    lines = [f"model {model.kind} sigma2={format_float(model.sigma2)}"]
    if isinstance(model, Baseline1Model):
        lines.append(f"global {format_float(model.c)}")
    elif isinstance(model, Baseline2Model):
        lines.append(f"global {format_float(model.fallback_c)}")
        for key in sorted(model.c_by_path):
            lines.append(f"path {key} {format_float(model.c_by_path[key])}")
    else:
        for key in sorted(model.c_by_segment):
            lines.append(f"seg {key[0]} {key[1]} {format_float(model.c_by_segment[key])}")
    write_lines(dest, lines)


def load_model(source: str | IO[str]) -> Model:
    """Read a model written by save_model.

    Every speed must be finite and > 0, and sigma2 finite and >= 0, as a fit
    writes them, and no path or seg key may repeat; anything else is a
    ValueError naming its line.
    """
    lines = [ln for ln in read_lines(source) if ln.strip()]
    if not lines:
        raise ValueError("empty model file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "model" or not head[2].startswith("sigma2="):
        raise ValueError(f"bad model header: {lines[0]!r}")
    kind = head[1]
    sigma2 = float(head[2][len("sigma2=") :])
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if not 0.0 <= sigma2 < math.inf:  # 0 loads, so that detect names it (ZeroVariance)
        raise ValueError(f"bad model header: {lines[0]!r}: sigma2 must be finite and >= 0")
    globals_seen: list[float] = []
    by_path: dict[str, float] = {}
    by_segment: dict[tuple[NodeId, NodeId], float] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if (parts[0], len(parts)) not in (("global", 2), ("path", 3), ("seg", 4)):
            raise ValueError(f"bad model line: {ln!r}")
        c = float(parts[-1])
        if not 0.0 < c < math.inf:
            raise ValueError(f"bad model line: {ln!r}: speed must be finite and > 0")
        if parts[0] == "global":
            globals_seen.append(c)
            continue
        table, key = (by_path, parts[1]) if parts[0] == "path" else (by_segment, tuple(parts[1:3]))
        if key in table:
            raise ValueError(f"bad model line: {ln!r}: repeats a {parts[0]} key")
        table[key] = c
    if kind == KIND_BASELINE1:
        if len(globals_seen) != 1 or by_path or by_segment:
            raise ValueError("baseline1 model needs exactly one global line")
        return Baseline1Model(c=globals_seen[0], sigma2=sigma2)
    if kind == KIND_BASELINE2:
        if len(globals_seen) != 1 or by_segment:
            raise ValueError("baseline2 model needs one global line and path lines")
        return Baseline2Model(
            c_by_path=by_path, sigma2=sigma2, fallback_c=globals_seen[0]
        )
    if globals_seen or by_path or not by_segment:
        raise ValueError("edge model needs seg lines only")
    return EdgeModel(
        c_by_segment=by_segment, sigma2=sigma2, smoothed=(kind == KIND_SMOOTHED)
    )
