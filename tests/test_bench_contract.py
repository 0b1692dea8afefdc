"""The benchmark's contract with the package: the argv it runs and the names it traces.

perfbench/ is imported as its own tests import it, and left unpatched: if a flag it
passes stops parsing, or a name it wraps goes away, every benchmark run fails.
"""

import importlib
import sys
from pathlib import Path

import pytest

from flowanomaly import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import PIPELINE, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("command", PIPELINE)
def test_every_benchmark_argv_parses_and_configures(tmp_path, workload, command):
    argv = run.subcommand_argv(WORKLOADS[workload], command, tmp_path / "in", tmp_path / "out")
    args = cli.build_parser(command).parse_args(argv)
    assert args.command == command
    cli._apply_config(args)
    cli._require_files(args)
    if command in ("train", "crossval"):
        cli._train_config(args)


def test_every_traced_name_exists():
    missing = []
    for name, (modules, _) in tracing.TRACED.items():
        func = name.split(".", 1)[1]
        missing += [f"{module}.{func}" for module in modules
                    if not hasattr(importlib.import_module("flowanomaly." + module), func)]
    assert missing == []
