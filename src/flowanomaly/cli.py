"""Command-line entry point.

Subcommands cover the whole pipeline: simulate, infer-routes, train,
crossval, detect, localize. Every random choice is seeded from explicit
flags, so identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from array import array
from dataclasses import fields, replace
from typing import Sequence

from . import anomaly, evaluation, models, recordio, routeinfer, synth
from .core import (
    DEFAULT_DISTANCE_TOLERANCE_M,
    NetworkGraph,
    FlowRecord,
    Path,
    Segment,
    ServiceRoute,
    build_network,
    resolve_path,
    resolve_paths,  # noqa: F401 - perfbench/tracing.py wraps these two names here
    validate_record,  # noqa: F401
)
from .errors import FlowError
from .recordio import format_float as _fmt, write_lines

ROUTES_HEADER = "service_id,seq,stop,cumulative_m"
SCORED_HEADER = (
    "record_id,service_id,origin,destination,t_start,t_end,"
    "observed_s,expected_s,alpha,significant"
)
REPORT_HEADER = (
    "rank,record_id,alpha,count,origin,destination,t_start,t_end,"
    "observed_s,expected_s,segments,window_start,window_end,provenance"
)
DAILY_HEADER = "date,mean_count,median_count,mean_alpha,median_alpha"


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"config line {raw.strip()!r} is not key=value")
            values[key.strip()] = val.strip()
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# TrainConfig's fields as flags and config keys, cast by the type of their default.
_TRAIN_TUNABLES = {
    f.name: ({float: float, int: int, bool: _parse_bool}[type(f.default)], f.default)
    for f in fields(models.TrainConfig)
}

# dest -> (caster, default); None default means the flag is optional with no value.
_TUNABLES: dict[str, dict[str, tuple]] = {
    "train": {
        **_TRAIN_TUNABLES,
        "eps_d": (float, DEFAULT_DISTANCE_TOLERANCE_M),
        "kind": (str, models.KIND_EDGE),
    },
    "crossval": {
        **_TRAIN_TUNABLES,
        "eps_d": (float, DEFAULT_DISTANCE_TOLERANCE_M),
        "folds": (int, 5),
        "kinds": (str, ",".join(models.MODEL_KINDS)),
        "seed": (int, 0),
    },
    "detect": {
        "delta_quantile": (float, anomaly.DetectConfig.delta_quantile),
        "delta_override": (float, anomaly.DetectConfig.delta_override),
        "eps_d": (float, DEFAULT_DISTANCE_TOLERANCE_M),
    },
    "localize": {},
    "infer-routes": {
        "eps_d": (float, DEFAULT_DISTANCE_TOLERANCE_M),
    },
    "simulate": {
        "services": (int, 4),
        "stops": (int, 8),
        "shared_corridor": (int, 0),
        "seg_len_min": (float, 400.0),
        "seg_len_max": (float, 1600.0),
        "speed_min": (float, 4.0),
        "speed_max": (float, 16.0),
        "n_records": (int, 2000),
        "noise_sigma2": (float, 0.05),
        "seed": (int, 0),
        "day_start": (float, 0.0),
        "day_seconds": (float, 86400.0),
        "congest_index": (int, None),
        "congest_from": (str, None),
        "congest_to": (str, None),
        "congest_start": (float, None),
        "congest_end": (float, None),
        "congest_factor": (float, None),
    },
}


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset tunables from the config file, then from hard defaults.

    One file may serve several subcommands, so a key is rejected only when no
    subcommand knows it.
    """
    table = _TUNABLES.get(args.command, {})
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values).difference(*_TUNABLES.values()))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    for dest, (caster, default) in table.items():
        if getattr(args, dest, None) is not None:
            continue
        if dest in file_values:
            setattr(args, dest, caster(file_values[dest]))
        else:
            setattr(args, dest, default)


def _require(args: argparse.Namespace, *dests: str) -> None:
    for dest in dests:
        if getattr(args, dest, None) is None:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} is required for {args.command}")


def _print_rejects(rejects: Sequence[recordio.RejectedRow]) -> None:
    for rej in rejects:
        print(f"reject line={rej.line_no} reason={rej.reason}", file=sys.stderr)
    if rejects:
        print(f"parse_rejected={len(rejects)}", file=sys.stderr)


def _write_routes(routes: Sequence[ServiceRoute], path: str) -> None:
    lines = [ROUTES_HEADER]
    for route in sorted(routes, key=lambda r: r.service_id):
        for seq, (stop, cum) in enumerate(zip(route.stops, route.cumulative_m)):
            lines.append(f"{route.service_id},{seq},{stop},{_fmt(cum)}")
    write_lines(path, lines)


def _load_routes(path: str) -> list[ServiceRoute]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ROUTES_HEADER:
        raise ValueError(f"bad routes header in {path!r}")
    acc: dict[str, list[tuple[int, str, float]]] = {}
    for ln in lines[1:]:
        if not ln.strip():
            continue
        service_id, seq, stop, cum = ln.split(",")
        acc.setdefault(service_id, []).append((int(seq), stop, float(cum)))
    routes = []
    for service_id in sorted(acc):
        rows = sorted(acc[service_id])
        routes.append(
            ServiceRoute(
                service_id,
                tuple(stop for _, stop, _ in rows),
                tuple(cum for _, _, cum in rows),
            )
        )
    return routes


def _network_from(args: argparse.Namespace) -> NetworkGraph:
    return build_network(_load_routes(args.routes), eps_d=args.eps_d)


def _load_table(
    network: NetworkGraph, path: str, eps_d: float
) -> tuple[recordio.RecordTable, list[int], models._Columns]:
    """The parsed table, the rows that resolve cleanly on the network, and their columns.

    Prints the parse rejects and the skipped count. Each distinct (service,
    origin, destination) is resolved once; only validate_record's distance
    check runs per row.
    """
    table, rejects = recordio.read_table(path)
    _print_rejects(rejects)
    by_key: list[Path | None] = []
    for key in table.keys:
        try:
            by_key.append(resolve_path(network, *key))
        except FlowError:
            by_key.append(None)
    rows, paths = [], []
    for i, (k, d) in enumerate(zip(table.key_of, table.distance)):
        path = by_key[k]
        if path is not None and not abs(path.distance_m - d) > eps_d:
            rows.append(i)
            paths.append(path)
    if len(rows) < len(table):
        print(f"skipped_unresolvable={len(table) - len(rows)}", file=sys.stderr)
    t_start, t_end = table.t_start, table.t_end
    cols = models._Columns(
        list(map(table.record_ids.__getitem__, rows)),
        array("d", [t_end[i] - t_start[i] for i in rows]),
        list(map(table.distance.__getitem__, rows)),
        paths,
    )
    return table, rows, cols


def _train_config(args: argparse.Namespace) -> models.TrainConfig:
    return models.TrainConfig(**{name: getattr(args, name) for name in _TRAIN_TUNABLES})


def _cmd_simulate(args: argparse.Namespace) -> int:
    _require(args, "out_records", "out_truth")
    cfg = synth.SynthConfig(
        n_services=args.services,
        stops_per_service=args.stops,
        segment_length_range_m=(args.seg_len_min, args.seg_len_max),
        speed_range_mps=(args.speed_min, args.speed_max),
        n_records=args.n_records,
        noise_sigma2=args.noise_sigma2,
        congestion=None,
        seed=args.seed,
        shared_corridor_stops=args.shared_corridor,
        day_start_s=args.day_start,
        day_seconds=args.day_seconds,
    )
    wants_congestion = any(
        v is not None
        for v in (args.congest_index, args.congest_from, args.congest_to)
    )
    if wants_congestion:
        if args.congest_start is None or args.congest_end is None or args.congest_factor is None:
            raise ValueError(
                "--congest-start, --congest-end and --congest-factor are required "
                "with a congested segment"
            )
        if args.congest_index is not None:
            truth0 = synth.generate_network(cfg)
            keys = sorted(truth0.network.segments)
            if not 0 <= args.congest_index < len(keys):
                raise ValueError(
                    f"--congest-index {args.congest_index} out of range 0..{len(keys) - 1}"
                )
            frm, to = keys[args.congest_index]
        else:
            if args.congest_from is None or args.congest_to is None:
                raise ValueError("--congest-from and --congest-to go together")
            frm, to = args.congest_from, args.congest_to
        cfg = replace(
            cfg,
            congestion=synth.PlantedCongestion(
                from_node=frm,
                to_node=to,
                window_start=args.congest_start,
                window_end=args.congest_end,
                slowdown_factor=args.congest_factor,
            ),
        )
    truth = synth.generate_network(cfg)
    records, truncated = synth.generate_records(truth, cfg)
    recordio.write_records(records, args.out_records)
    synth.write_truth(truth, args.out_truth)
    print(
        f"records={len(records)} truncated={truncated} "
        f"segments={len(truth.network.segments)} services={len(truth.network.routes)}"
    )
    return 0


def _cmd_infer_routes(args: argparse.Namespace) -> int:
    _require(args, "records", "out_routes", "out_rejects")
    table, parse_rejects = recordio.read_table(args.records)
    _print_rejects(parse_rejects)
    outcome = routeinfer.infer_all_routes(table, eps_d=args.eps_d)
    _write_routes(list(outcome.accepted.values()), args.out_routes)
    with open(args.out_rejects, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["service_id", "reason"])
        for service_id in sorted(outcome.rejected):
            writer.writerow([service_id, outcome.rejected[service_id]])
    print(
        f"accepted={len(outcome.accepted)} rejected={len(outcome.rejected)} "
        f"parse_rejected={len(parse_rejects)}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    _require(args, "records", "routes", "out_model")
    if args.kind not in models.MODEL_KINDS:
        raise ValueError(
            f"unknown kind {args.kind!r}; expected one of {', '.join(models.MODEL_KINDS)}"
        )
    cfg = _train_config(args)
    network = _network_from(args)
    _, _, cols = _load_table(network, args.records, args.eps_d)
    if not cols:
        raise ValueError("no usable records after validation")
    if args.kind == models.KIND_BASELINE1:
        model: models.Model = models.fit_baseline1(cols)
        sse_rows = None
    elif args.kind == models.KIND_BASELINE2:
        model = models.fit_baseline2(cols)
        sse_rows = None
    else:
        if args.kind == models.KIND_EDGE:
            model, trail = models.fit_edge_model(network, cols)
            reported = ("untraversed", "unidentifiable", "nonpositive")
        else:
            model, trail = models.train_edge_model(network, cols, cfg, smoothed=True)
            reported = ("untraversed",)
        sse_rows = trail.sse_by_epoch
        for name in reported:
            keys = getattr(trail, name)
            print(f"{name}_segments={len(keys)}")
            for frm, to in keys:
                print(f"{name} {frm} {to}")
    models.save_model(model, args.out_model)
    if args.out_sse:
        if sse_rows is None:
            sse_rows = [models.sse(model, cols)]
        lines = ["epoch,sse"]
        lines += [f"{i},{_fmt(v)}" for i, v in enumerate(sse_rows)]
        write_lines(args.out_sse, lines)
    print(f"trained kind={args.kind} records={len(cols)} sigma2={_fmt(model.sigma2)}")
    return 0


def _cmd_crossval(args: argparse.Namespace) -> int:
    _require(args, "records", "routes", "out")
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    cfg = _train_config(args)
    network = _network_from(args)
    _, _, cols = _load_table(network, args.records, args.eps_d)
    result = evaluation.kfold(network, cols, args.folds, kinds, cfg, args.seed)
    lines = ["fold,kind,train_rmse,test_rmse,excluded"]
    for row in result.rows:
        lines.append(
            f"{row.fold},{row.kind},{_fmt(row.train_rmse)},"
            f"{_fmt(row.test_rmse)},{row.excluded}"
        )
    write_lines(args.out, lines)
    for kind in kinds:
        print(f"mean_test_rmse kind={kind} value={_fmt(result.mean_test_rmse(kind))}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    _require(args, "records", "routes", "model", "out")
    network = _network_from(args)
    model = models.load_model(args.model)
    table, rows, cols = _load_table(network, args.records, args.eps_d)
    if not rows:
        raise ValueError("no usable records after validation")
    expected, alphas = anomaly._deviations(model, cols)
    cfg = anomaly.DetectConfig(
        delta_quantile=args.delta_quantile, delta_override=args.delta_override
    )
    delta = anomaly._cutoff(alphas, cfg)
    keys = [",".join(key) for key in table.keys]
    lines = [f"# delta={_fmt(delta)}", SCORED_HEADER]
    significant = 0
    for i, observed, expect, alpha in zip(rows, cols.observed, expected, alphas):
        flag = 1 if alpha > delta else 0  # per row: two rows may share a record id
        significant += flag
        lines.append(
            f"{table.record_ids[i]},{keys[table.key_of[i]]},"
            f"{_fmt(table.t_start[i])},{_fmt(table.t_end[i])},{_fmt(observed)},"
            f"{_fmt(expect)},{_fmt(alpha)},{flag}"
        )
    write_lines(args.out, lines)
    print(f"scored={len(rows)} significant={significant} delta={_fmt(delta)}")
    return 0


def _load_scored(path: str, network: NetworkGraph) -> list[anomaly.ScoredRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body or body[0] != SCORED_HEADER:
        raise ValueError(f"bad scored-file header in {path!r}")
    out = []
    for ln in body[1:]:
        parts = ln.split(",")
        if len(parts) != 10:
            raise ValueError(f"bad scored row: {ln!r}")
        if parts[9] != "1":
            continue
        path_obj = resolve_path(network, parts[1], parts[2], parts[3])
        record = FlowRecord(
            record_id=parts[0],
            service_id=parts[1],
            origin=parts[2],
            destination=parts[3],
            t_start=float(parts[4]),
            t_end=float(parts[5]),
            distance_m=path_obj.distance_m,
        )
        out.append(
            anomaly.ScoredRecord(
                record=record,
                path=path_obj,
                alpha=float(parts[8]),
                expected_s=float(parts[7]),
            )
        )
    return out


def _cmd_localize(args: argparse.Namespace) -> int:
    _require(args, "scored", "routes", "out_report", "out_daily")
    network = build_network(_load_routes(args.routes))
    filtered = _load_scored(args.scored, network)
    contained = anomaly._contained(filtered)
    counts = anomaly.containment_counts(filtered, contained)
    reports = anomaly.rank_anomalies(filtered, counts, contained)
    lines = [REPORT_HEADER]
    labels: dict[Segment, str] = {}
    windows: dict[tuple[float, float], str] = {}
    for rank, rep in enumerate(reports, start=1):
        s, r = rep.scored, rep.scored.record
        head = (
            f"{rank},{r.record_id},{_fmt(s.alpha)},{rep.containment_count},"
            f"{r.origin},{r.destination},{_fmt(r.t_start)},{_fmt(r.t_end)},"
            f"{_fmt(r.observed_s)},{_fmt(s.expected_s)},|"
        )
        grouped: dict[tuple[float, float], list[str]] = {}  # windows in first-seen order
        for seg, w0, w1 in rep.congested_segments:
            label = labels.get(seg)
            if label is None:
                label = labels[seg] = f"{seg.from_node}>{seg.to_node}@{_fmt(seg.distance_m)}"
            grouped.setdefault((w0, w1), []).append(label)
        for key, segs in grouped.items():
            window = windows.get(key)
            if window is None:
                window = f"{_fmt(key[0])},{_fmt(key[1])}"
                if key[0] and key[1]:  # -0.0 == 0.0 as a key but formats as -0
                    windows[key] = window
            lines.append(f"{head}{'|'.join(segs)}|,{window},{rep.provenance}")
    write_lines(args.out_report, lines)
    daily = anomaly.daily_series(reports)
    daily_lines = [DAILY_HEADER]
    for row in daily:
        daily_lines.append(
            f"{row.date},{_fmt(row.mean_count)},{_fmt(row.median_count)},"
            f"{_fmt(row.mean_alpha)},{_fmt(row.median_alpha)}"
        )
    write_lines(args.out_daily, daily_lines)
    print(f"reports={len(reports)} days={len(daily)}")
    return 0


_TRAIN_HELP = {
    "eta": "step size",
    "tau": "log-barrier strength",
    "psi": "smoothing strength",
    "epochs": "passes over the records",
    "c_min": "speed floor after each step",
    "shuffle_seed": "seed of each epoch's record order",
    "variance_refresh": "keep the first sigma2 instead of re-estimating it each epoch",
}


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field; a boolean field that defaults on gets --no-<name>."""
    group = p.add_argument_group(
        "gradient ascent",
        "These act on the smoothed-edge kind only; edge is fitted in closed form.",
    )
    for dest, (caster, default) in _TRAIN_TUNABLES.items():
        flag = dest.replace("_", "-")
        if caster is _parse_bool:
            group.add_argument(f"--no-{flag}", dest=dest, action="store_const",
                               const=not default, help=_TRAIN_HELP[dest])
        else:
            group.add_argument(f"--{flag}", type=caster,
                               help=f"{_TRAIN_HELP[dest]} (default {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowanomaly",
        description="Detect and localize flow anomalies from origin/destination records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic records plus a truth sidecar")
    p.add_argument("--out-records")
    p.add_argument("--out-truth")
    p.add_argument("--services", type=int)
    p.add_argument("--stops", type=int)
    p.add_argument("--shared-corridor", type=int)
    p.add_argument("--seg-len-min", type=float)
    p.add_argument("--seg-len-max", type=float)
    p.add_argument("--speed-min", type=float)
    p.add_argument("--speed-max", type=float)
    p.add_argument("--n-records", type=int)
    p.add_argument("--noise-sigma2", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--day-start", type=float)
    p.add_argument("--day-seconds", type=float)
    p.add_argument("--congest-index", type=int)
    p.add_argument("--congest-from")
    p.add_argument("--congest-to")
    p.add_argument("--congest-start", type=float)
    p.add_argument("--congest-end", type=float)
    p.add_argument("--congest-factor", type=float)

    p = sub.add_parser("infer-routes", help="reconstruct service routes from records")
    p.add_argument("--records")
    p.add_argument("--out-routes")
    p.add_argument("--out-rejects")
    p.add_argument("--eps-d", type=float)

    p = sub.add_parser("train", help="fit a travel-time model")
    p.add_argument("--records")
    p.add_argument("--routes")
    p.add_argument("--out-model")
    p.add_argument("--out-sse", help="epoch,sse rows: one per epoch for smoothed-edge, "
                                     "one for the closed-form kinds")
    p.add_argument("--kind", help=f"one of {', '.join(models.MODEL_KINDS)} "
                                  f"(default {models.KIND_EDGE})")
    _add_train_flags(p)
    p.add_argument("--eps-d", type=float)

    p = sub.add_parser("crossval", help="k-fold cross validation over model kinds")
    p.add_argument("--records")
    p.add_argument("--routes")
    p.add_argument("--out")
    p.add_argument("--folds", type=int)
    p.add_argument("--kinds")
    p.add_argument("--seed", type=int)
    _add_train_flags(p)
    p.add_argument("--eps-d", type=float)

    p = sub.add_parser("detect", help="score records and filter the significant set")
    p.add_argument("--records")
    p.add_argument("--routes")
    p.add_argument("--model")
    p.add_argument("--out")
    p.add_argument("--delta-quantile", type=float)
    p.add_argument("--delta-override", type=float)
    p.add_argument("--eps-d", type=float)

    p = sub.add_parser("localize", help="rank anomalies and localize congested segments")
    p.add_argument("--scored")
    p.add_argument("--routes")
    p.add_argument("--out-report")
    p.add_argument("--out-daily")

    for sp in sub.choices.values():
        sp.add_argument("--config", help="key=value file; flags override it")

    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "infer-routes": _cmd_infer_routes,
    "train": _cmd_train,
    "crossval": _cmd_crossval,
    "detect": _cmd_detect,
    "localize": _cmd_localize,
}


def run_command(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch, and map failures to a single-line error."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(args)
        return _COMMANDS[args.command](args)
    except (FlowError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    # Before numpy loads: the edge fit's one solve is segments x segments, and a
    # second BLAS thread made it take 0.1 s instead of 1 ms in some processes
    # while another process held the second core of a 2-core host.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run_command())


if __name__ == "__main__":
    console_main()
