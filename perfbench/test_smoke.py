"""Smoke test of the benchmark at its smallest size (one round per mode).

    python -m pytest perfbench/test_smoke.py -q

Checks that every workload prints, as its last line, a result with exactly
the metrics BENCHMARK.json names, each with its unit, and that the traced run
sees eig_hermitian called from metrics, transport and divergences.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    env, result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    for key in ("python", "numpy", "blas", "thread_cap", "nproc", "seed", "trials_per_round"):
        assert key in env
    assert env["thread_cap"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload, tmp_path):
    spans = tmp_path / "spans.jsonl"
    env, result = run(workload, 1, "--spans", str(spans))
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert metrics["linalg.eig_hermitian.calls"]["value"] > 0
    assert spans.stat().st_size > 0
    if workload == "suite-epath":
        for caller in ("metrics", "transport", "divergences"):
            assert metrics[f"linalg.eig_hermitian.calls_from.{caller}"]["value"] > 0, caller
    if workload == "compute-table":
        tables = env["trials_per_round"]["tables"]
        assert metrics["cli.main.calls"]["value"] == tables
        assert metrics["serialize.load_state.calls"]["value"] == 2 * tables
    else:
        assert metrics["harness.run_claim.calls"]["value"] == len(env["trials_per_round"])
