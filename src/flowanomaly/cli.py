"""Command-line entry point.

Subcommands cover the whole pipeline: simulate, infer-routes, train,
crossval, detect, localize. Every random choice is seeded from explicit
flags, so identical invocations produce byte-identical output files.

Each flag is declared once: a subcommand's file flags in _SUBCOMMANDS, and its
tunables in _tunables, which are also its config-file keys (psi and the
_ASCENT_ONLY fields of TrainConfig, and SynthConfig's defaults for simulate).
The file formats live in recordio; this module parses flags, runs the library
and prints the summaries.

A process imports the modules of the subcommand it runs and no others: only
that subcommand's flags are declared, and each command imports its modules
itself, since compiling the rest is a measurable share of a short run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from array import array
from dataclasses import fields, replace
from typing import TYPE_CHECKING, Sequence

from . import recordio
from .core import (
    DEFAULT_DISTANCE_TOLERANCE_M,
    Flows,
    NetworkGraph,
    Path,
    build_network,
    check_record,
    resolve_path,
    resolve_paths,  # noqa: F401 - perfbench/tracing.py wraps these two names here
    validate_record,  # noqa: F401
)
from .errors import FlowError
from .recordio import format_float as _fmt, write_lines

if TYPE_CHECKING:  # each command imports the modules it runs, when it runs
    from . import anomaly, models


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


def _tunables(command: str) -> dict[str, tuple]:
    """A subcommand's tunables, each a flag and a config key, in flag order.

    dest -> (caster, default), each default read from the subcommand's config
    class (TrainConfig's psi and _ASCENT_ONLY fields, cast by the type of their
    default; SynthConfig's defaults for simulate). A None default means the flag
    is optional with no value. Only the modules of that subcommand are imported.
    """
    eps_d = {"eps_d": (float, DEFAULT_DISTANCE_TOLERANCE_M)}
    if command == "simulate":
        from .synth import SynthConfig

        cfg = SynthConfig()
        return {
            "services": (int, cfg.n_services),
            "stops": (int, cfg.stops_per_service),
            "shared_corridor": (int, cfg.shared_corridor_stops),
            "seg_len_min": (float, cfg.segment_length_range_m[0]),
            "seg_len_max": (float, cfg.segment_length_range_m[1]),
            "speed_min": (float, cfg.speed_range_mps[0]),
            "speed_max": (float, cfg.speed_range_mps[1]),
            "n_records": (int, cfg.n_records),
            "noise_sigma2": (float, cfg.noise_sigma2),
            "seed": (int, cfg.seed),
            "day_start": (float, cfg.day_start_s),
            "day_seconds": (float, cfg.day_seconds),
            "congest_index": (int, None),
            "congest_start": (float, None),
            "congest_end": (float, None),
            "congest_factor": (float, None),
        }
    if command in ("train", "crossval"):
        from .models import KIND_EDGE, MODEL_KINDS, TrainConfig

        # only psi reaches a fit; the others are the ascent's, which no subcommand runs
        fit = {f.name: (type(f.default), f.default) for f in fields(TrainConfig)
               if f.name == "psi" or f.name in _ASCENT_ONLY}
        if command == "train":
            return {"kind": (str, KIND_EDGE), **fit, **eps_d}
        return {"folds": (int, 5), "kinds": (str, ",".join(MODEL_KINDS)), "seed": (int, 0),
                **fit, **eps_d}
    if command == "detect":
        from .anomaly import DetectConfig

        return {
            "delta_quantile": (float, DetectConfig.delta_quantile),
            "delta_override": (float, DetectConfig.delta_override),
            **eps_d,
        }
    return eps_d if command == "infer-routes" else {}


# Help text of the flags that have one; a tunable's also names its default.
_HELP = {
    "out_sse": "epoch,sse: one row, the fit's sum of squared residuals",
    "kind": "one of baseline1, baseline2, edge, smoothed-edge",  # models.MODEL_KINDS; tested
    "eta": "step size",
    "psi": "smoothed-edge's penalty on speed differences of consecutive segments",
    "epochs": "passes over the records",
    "shuffle_seed": "seed of each epoch's record order",
}
# The gradient ascent's TrainConfig fields that perfbench/run.py still passes, in
# their own help group; the ascent's other fields keep their defaults.
_ASCENT_ONLY = ("eta", "epochs", "shuffle_seed")


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset tunables from the config file, then from hard defaults.

    One file may serve several subcommands, so a key is rejected only when no
    subcommand knows it.
    """
    table = _tunables(args.command)
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = set(file_values).difference(table)
    if unknown:  # the other subcommands' tables are built only for a key this one lacks
        unknown.difference_update(*map(_tunables, _SUBCOMMANDS))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    for dest, (caster, default) in table.items():
        if getattr(args, dest) is not None:
            continue
        if dest in file_values:
            setattr(args, dest, caster(file_values[dest]))
        else:
            setattr(args, dest, default)
    # nan would pass every distance check, inf or a negative one would fail them all
    if "eps_d" in table and not 0 <= args.eps_d < math.inf:
        raise ValueError(f"eps_d must be finite and >= 0, got {args.eps_d}")


def _require_files(args: argparse.Namespace) -> None:
    for dest in _SUBCOMMANDS[args.command][2]:
        if getattr(args, dest) is None and dest != "out_sse":  # the one optional file
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} is required for {args.command}")


def _print_rejects(rejects: Sequence[recordio.RejectedRow]) -> None:
    for rej in rejects:
        print(f"reject line={rej.line_no} reason={rej.reason}", file=sys.stderr)
    if rejects:
        print(f"parse_rejected={len(rejects)}", file=sys.stderr)


def _network_from(args: argparse.Namespace) -> NetworkGraph:
    return build_network(recordio.read_routes(args.routes), eps_d=args.eps_d)


def _load_table(
    network: NetworkGraph, path: str, eps_d: float
) -> tuple[recordio.RecordTable, list[int], Flows]:
    """The parsed table, the rows that resolve cleanly on the network, and their flows.

    Prints the parse rejects and the skipped count.
    """
    table, rejects = recordio.read_table(path)
    _print_rejects(rejects)
    flows, rows = Flows.from_table(table, network, eps_d)
    if len(rows) < len(table):
        print(f"skipped_unresolvable={len(table) - len(rows)}", file=sys.stderr)
    return table, rows, flows


def _train_config(args: argparse.Namespace) -> models.TrainConfig:
    from .models import TrainConfig

    return TrainConfig(psi=args.psi, **{name: getattr(args, name) for name in _ASCENT_ONLY})


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import synth

    cfg = synth.SynthConfig(
        n_services=args.services,
        stops_per_service=args.stops,
        segment_length_range_m=(args.seg_len_min, args.seg_len_max),
        speed_range_mps=(args.speed_min, args.speed_max),
        n_records=args.n_records,
        noise_sigma2=args.noise_sigma2,
        seed=args.seed,
        shared_corridor_stops=args.shared_corridor,
        day_start_s=args.day_start,
        day_seconds=args.day_seconds,
    )
    congest = (args.congest_index, args.congest_start, args.congest_end, args.congest_factor)
    if any(v is not None for v in congest) and None in congest:
        raise ValueError(
            "--congest-index, --congest-start, --congest-end and --congest-factor go together"
        )
    truth = synth.generate_network(cfg)
    if args.congest_index is not None:  # the network's draws do not depend on the congestion
        keys = sorted(truth.network.segments)
        if not 0 <= args.congest_index < len(keys):
            raise ValueError(
                f"--congest-index {args.congest_index} out of range 0..{len(keys) - 1}"
            )
        frm, to = keys[args.congest_index]
        truth = replace(
            truth,
            congestion=synth.PlantedCongestion(
                from_node=frm,
                to_node=to,
                window_start=args.congest_start,
                window_end=args.congest_end,
                slowdown_factor=args.congest_factor,
            ),
        )
    # Records are written as they are drawn, into a sibling file that replaces
    # the records file only once the whole day has been drawn and the truth
    # written: a day that fails part way leaves neither file.
    records = synth.RecordStream(truth, cfg)
    partial = args.out_records + ".partial"
    try:
        recordio.write_records(records, partial)
        synth.write_truth(truth, args.out_truth)
        os.replace(partial, args.out_records)
    finally:
        if os.path.exists(partial):  # the day failed part way
            os.remove(partial)
    print(
        f"records={cfg.n_records} truncated={records.truncated} "
        f"segments={len(truth.network.segments)} services={len(truth.network.routes)}"
    )
    return 0


def _cmd_infer_routes(args: argparse.Namespace) -> int:
    from . import routeinfer

    table, parse_rejects = recordio.read_table(args.records)
    _print_rejects(parse_rejects)
    outcome = routeinfer.infer_all_routes(table, eps_d=args.eps_d)
    recordio.write_routes(outcome.accepted.values(), args.out_routes)
    recordio.write_route_rejects(outcome.rejected, args.out_rejects)
    print(
        f"accepted={len(outcome.accepted)} rejected={len(outcome.rejected)} "
        f"parse_rejected={len(parse_rejects)}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from . import models

    if args.kind not in models.MODEL_KINDS:
        raise ValueError(
            f"unknown kind {args.kind!r}; expected one of {', '.join(models.MODEL_KINDS)}"
        )
    cfg = _train_config(args)  # validates the ascent's flags too, though no kind reads them
    network = _network_from(args)
    _, _, flows = _load_table(network, args.records, args.eps_d)
    sse = None  # a closed-form edge fit has its own; a baseline's is summed when asked for
    if args.kind == models.KIND_BASELINE1:
        model: models.Model = models.fit_baseline1(flows)
    elif args.kind == models.KIND_BASELINE2:
        model = models.fit_baseline2(flows)
    else:
        smoothed = args.kind == models.KIND_SMOOTHED
        model, trail = models.fit_edge_model(network, flows, psi=cfg.psi if smoothed else 0.0)
        model.smoothed = smoothed
        [sse] = trail.sse_by_epoch
        for name in ("untraversed", "unidentifiable", "nonpositive"):
            keys = getattr(trail, name)
            print(f"{name}_segments={len(keys)}")
            for frm, to in keys:
                print(f"{name} {frm} {to}")
    models.save_model(model, args.out_model)
    if args.out_sse:
        sse = models.sse(model, flows) if sse is None else sse
        write_lines(args.out_sse, ["epoch,sse", f"0,{_fmt(sse)}"])
    print(f"trained kind={args.kind} records={len(flows)} sigma2={_fmt(model.sigma2)}")
    return 0


def _cmd_crossval(args: argparse.Namespace) -> int:
    from . import evaluation

    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    cfg = _train_config(args)
    network = _network_from(args)
    _, _, flows = _load_table(network, args.records, args.eps_d)
    result = evaluation.kfold(network, flows, args.folds, kinds, cfg.psi, args.seed)
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
    from . import anomaly, models

    cfg = anomaly.DetectConfig(
        delta_quantile=args.delta_quantile, delta_override=args.delta_override
    )
    network = _network_from(args)
    model = models.load_model(args.model)
    table, rows, flows = _load_table(network, args.records, args.eps_d)
    expected, alphas = anomaly.score(model, flows)
    significant, delta = anomaly.filter_significant(alphas, cfg)
    recordio.write_scored(table, rows, flows.observed, expected, alphas, delta, args.out)
    print(f"scored={len(rows)} significant={len(significant)} delta={_fmt(delta)}")
    return 0


def _load_scored(
    source: str, network: NetworkGraph
) -> tuple[Flows, Sequence[float], Sequence[float]]:
    """The significant rows of a scored file as flows on the network, and their
    expected times and ratios. Each distinct key is resolved once; a row's
    distance is its path's."""
    found: dict[tuple[str, ...], Path] = {}
    rows, paths = [], []
    for row in recordio.read_significant(source):
        key = row[1:4]
        if key not in found:
            found[key] = resolve_path(network, *key)
        paths.append(found[key])
        check_record(row[0], *row[2:6], paths[-1].distance_m)
        rows.append(row)
    record_ids, _, _, _, t_start, t_end, expected, alphas = zip(*rows) if rows else [()] * 8
    flows = Flows(list(record_ids), array("d", t_start), array("d", t_end),
                  [p.distance_m for p in paths], paths)
    return flows, expected, alphas


def _cmd_localize(args: argparse.Namespace) -> int:
    from . import anomaly

    # detect has checked the routes at its eps_d; here segment lengths only label
    # the report, so build_network keeps the first of each without a conflict check
    network = build_network(recordio.read_routes(args.routes), eps_d=math.inf)
    flows, expected, alphas = _load_scored(args.scored, network)
    reports = anomaly.rank_anomalies(flows, range(len(flows)), alphas, expected)
    recordio.write_report(reports, args.out_report)
    daily = anomaly.daily_series(reports)
    recordio.write_daily(daily, args.out_daily)
    print(f"reports={len(reports)} days={len(daily)}")
    return 0


_SUBCOMMANDS = {  # name -> (function, help, file flags)
    "simulate": (_cmd_simulate, "generate synthetic records plus a truth sidecar",
                 ("out_records", "out_truth")),
    "infer-routes": (_cmd_infer_routes, "reconstruct service routes from records",
                     ("records", "out_routes", "out_rejects")),
    "train": (_cmd_train, "fit a travel-time model",
              ("records", "routes", "out_model", "out_sse")),
    "crossval": (_cmd_crossval, "k-fold cross validation over model kinds",
                 ("records", "routes", "out")),
    "detect": (_cmd_detect, "score records and filter the significant set",
               ("records", "routes", "model", "out")),
    "localize": (_cmd_localize, "rank anomalies and localize congested segments",
                 ("scored", "routes", "out_report", "out_daily")),
}


def _add_tunables(p: argparse.ArgumentParser, table: dict[str, tuple]) -> None:
    """One flag per tunable, the ascent's in their own group."""
    group = p
    if not table.keys().isdisjoint(_ASCENT_ONLY):
        group = p.add_argument_group(
            "gradient ascent",
            "No subcommand runs the ascent: every kind is fitted in closed form. These "
            "flags are still accepted and checked, and change no output.",
        )
    for dest, (caster, default) in table.items():
        target = group if dest in _ASCENT_ONLY else p
        help_text = _HELP.get(dest)
        if help_text is not None:
            help_text += f" (default {default})"
        target.add_argument("--" + dest.replace("_", "-"), type=caster, help=help_text)


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of every subcommand, with the flags of `command`'s declared.

    The other subparsers are left bare, so that no other subcommand's modules
    are imported for their defaults.
    """
    parser = argparse.ArgumentParser(
        prog="flowanomaly",
        description="Detect and localize flow anomalies from origin/destination records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, files) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            for dest in files:
                p.add_argument("--" + dest.replace("_", "-"), help=_HELP.get(dest))
            _add_tunables(p, _tunables(name))
            p.add_argument("--config", help="key=value file; flags override it")
    return parser


def run_command(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch, and map failures to a single-line error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top level takes no option with a value, so argparse dispatches on the
    # first argument that names a subcommand: a positional before it is an
    # invalid choice, whichever flags are declared.
    parser = build_parser(next((arg for arg in argv if arg in _SUBCOMMANDS), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(args)
        _require_files(args)
        return _SUBCOMMANDS[args.command][0](args)
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
