"""Smoke test of the benchmark itself.

Runs one timed pass of every workload at seed 0 and at seed 7, untraced and
traced, and checks that every metric named in BENCHMARK.json is printed with
its unit and that every output check passes. The seed-0 traced runs must
reproduce the layer counts of the reference workloads.

Run: python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

SEED0_COUNTS = {
    "sweep": {"noise.simulate_noisy.calls": 297, "noise.gates_propagated": 14740,
              "tomography.process_tomography.calls": 0,
              "scheduler.schedule.calls": 0, "scheduler.validate.calls": 0},
    "tomo": {"noise.simulate_noisy.calls": 1190, "noise.gates_propagated": 8568,
             "tomography.channel_evals": 1120,
             "scheduler.schedule.calls": 0, "scheduler.validate.calls": 0},
    "pulse": {"noise.simulate_noisy.calls": 0, "noise.gates_propagated": 0,
              "tomography.process_tomography.calls": 0,
              "tomography.channel_evals": 0, "scheduler.violations": 10},
}
PULSE_FAILED_PER_PASS = 3  # the theta = 0 schedules of xy, heisenberg, ising


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass(workload, seed, trace):
    proc = run_bench("--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1

    declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"[{workload}] {m['name']} = ")
                   and f" {m['unit']}" in line for line in lines), m["name"]
    assert f"[{workload}] mismatch_frac = 0 ratio" in lines

    passes = result["attempted"] // {"sweep": 297, "tomo": 70, "pulse": 103}[workload]
    expected_failed = PULSE_FAILED_PER_PASS * passes if workload == "pulse" else 0
    assert result["failed"] == expected_failed
    if trace and seed == 0:
        for name, count in SEED0_COUNTS[workload].items():
            assert result["metrics"][name]["value"] == count, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "pulse", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
