"""The benchmark's own check on the pair-path workloads: a traced run must find every reference
value, verdict and pinned count of perfbench/reference.json unchanged."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["ensemble-cli", "brownian", "poisson"])
def test_traced_benchmark_run_is_correct(workload):
    pytest.importorskip("scipy")  # perfbench/child.py imports it
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "2024", "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout[-4000:]
