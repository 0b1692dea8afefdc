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
