"""The benchmark's output contract, on the current sources.

A traced run of each workload must exit 0 and end its standard output
with one strict-JSON result line that is correct, has no failed operation
and carries every per-layer metric that ``BENCHMARK.json`` names.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("workload", ["propagate", "mono", "solve_check"])
def test_traced_run_ends_with_a_complete_result_line(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, lines[-2]
    assert result["failed"] == 0
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in result["metrics"]]
    assert missing == []
    assert lines[-2].startswith("detail: ")
    assert json.loads(lines[-2][len("detail: "):])["absent"] == []
