"""Benchmark smoke tests: correctness at tiny sizes, no timing gate."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import run
import worker
from spans import Tracer

BENCH = Path(__file__).resolve().parent


def test_every_workload_is_correct_at_tiny_size():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    # two modes per workload, two operations each (one of them traced in the second)
    assert result["attempted"] == 4 * len(run.DOMINANT)
    metrics = result["metrics"]
    for pattern in run.PATTERNS:
        assert metrics[f"ontology-extract.extract.{pattern}.rules"]["value"] > 0, pattern


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.DOMINANT)


def test_missing_hook_is_reported_absent():
    module = SimpleNamespace(parse_ontology=lambda text, name: (SimpleNamespace(axioms=()), []))
    tracer = Tracer()
    hooks = worker.Hooks(tracer, module, worker.CLI_HOOKS)
    assert "model.merge" in hooks.absent and "parser.parse_ontology" not in hooks.absent
    module.parse_ontology("", name="x")
    assert tracer.spans == []
    hooks.enable(True)
    module.parse_ontology("", name="x")
    hooks.enable(False)
    module.parse_ontology("", name="x")
    assert [s.name for s in tracer.spans] == ["parser.parse_ontology"]
    assert not hasattr(module, "merge")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mixed-infer"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
