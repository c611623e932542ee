"""The benchmark harness still runs against this tree: its smoke mode passes,
and every layer its tracer wraps is a module of the package in ``src/``."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import groverlab

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_run_is_correct():
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True


def tracer_constants() -> dict:
    """The literal top-level constants of the tracer, read without running it."""
    tree = ast.parse((ROOT / "benchmarks" / "tracer.py").read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id.isupper()
    }


def test_traced_layers_import_from_src():
    constants = tracer_constants()
    assert constants["PACKAGE"] == "groverlab"
    assert Path(groverlab.__file__).resolve().parent == ROOT / "src" / "groverlab"
    for layer in constants["LAYERS"]:
        module = importlib.import_module(f"groverlab.{layer}")
        assert Path(module.__file__).resolve().parent == ROOT / "src" / "groverlab", layer
