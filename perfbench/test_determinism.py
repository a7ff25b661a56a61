"""Self-checks of the benchmark: exact counts repeat, and a held-out
seed passes the output checks.

Run from the repository root (a few minutes)::

    python3 -m pytest -q perfbench/test_determinism.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import EXACT_COUNTS, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
TUNING_SEED = 3
HELD_OUT_SEED = 1009  # never used while the benchmark was tuned


def run_benchmark(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counts_repeat_across_runs(workload):
    first = run_benchmark(workload, TUNING_SEED, trace=1)
    second = run_benchmark(workload, TUNING_SEED, trace=1)
    exact = {name: first[name] for name in EXACT_COUNTS[workload]}
    assert all(value != 0 for value in exact.values()), exact
    assert exact == {name: second[name] for name in EXACT_COUNTS[workload]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_held_out_seed_passes_output_checks(workload):
    run_benchmark(workload, HELD_OUT_SEED, trace=0)
