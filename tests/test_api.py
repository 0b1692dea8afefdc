"""The package root exports exactly the names of the README's library example."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import flowanomaly

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_example_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", library_example()], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_root_exports_the_names_the_example_imports_and_uses():
    tree = ast.parse(library_example())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "flowanomaly"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported) == sorted(flowanomaly.__all__)
    assert set(imported) <= used


def test_readme_library_path_and_cli_path_agree(tmp_path, capsys):
    """The example's fit and scores equal `train --kind edge` and `detect` on the same day."""
    from flowanomaly import cli
    from flowanomaly.models import save_model
    from flowanomaly.recordio import write_records, write_routes
    from flowanomaly.synth import SynthConfig, generate_network, generate_records

    cfg = SynthConfig(n_services=2, stops_per_service=8, n_records=4000, seed=7)
    assert ("cfg = SynthConfig(n_services=2, stops_per_service=8, n_records=4000, seed=7)\n"
            in library_example())
    truth = generate_network(cfg)
    records, _ = generate_records(truth, cfg)
    flows = flowanomaly.Flows.from_records(records,
                                           flowanomaly.resolve_paths(truth.network, records))
    model, _ = flowanomaly.fit_edge_model(truth.network, flows)
    save_model(model, str(tmp_path / "library.txt"))

    rec_path, routes = tmp_path / "records.csv", tmp_path / "routes.csv"
    write_records(records, str(rec_path))
    write_routes(truth.network.routes.values(), str(routes))
    files = ["--records", str(rec_path), "--routes", str(routes)]
    assert cli.run_command(["train", *files, "--kind", "edge",
                            "--out-model", str(tmp_path / "cli.txt")]) == 0
    assert (tmp_path / "cli.txt").read_bytes() == (tmp_path / "library.txt").read_bytes()

    scored = tmp_path / "scored.csv"
    assert cli.run_command(["detect", *files, "--model", str(tmp_path / "cli.txt"),
                            "--out", str(scored)]) == 0
    assert "skipped_unresolvable" not in capsys.readouterr().err
    alpha = scored.read_text().splitlines()[1].split(",").index("alpha")
    got = [float(line.split(",")[alpha]) for line in scored.read_text().splitlines()[2:]]
    assert got == flowanomaly.score(model, flows)[1]
    assert len(got) == len(records)
