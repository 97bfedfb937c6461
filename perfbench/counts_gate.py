"""Steadiness gate: the traced work counts must repeat exactly.

Runs the traced benchmark twice on one workload and seed and compares every
per-layer metric whose unit is ``count``.  Run from the repository root:

    python3 perfbench/counts_gate.py --workload mono --seed 1 --seconds 15

Exits 0 when both runs are correct and every count matches, 1 otherwise.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()

    first, second = (traced_run(args.workload, args.seed, args.seconds) for _ in range(2))
    counts = sorted(name for name, m in first["metrics"].items() if m["unit"] == "count")
    differ = [name for name in counts
              if second["metrics"].get(name, {}).get("value") != first["metrics"][name]["value"]]
    for name in counts:
        mark = "DIFFERS" if name in differ else "same"
        print(f"{name}: {first['metrics'][name]['value']} "
              f"{second['metrics'].get(name, {}).get('value')} {mark}")
    ok = first["correct"] and second["correct"] and not differ
    print("counts repeat exactly" if ok else f"gate failed: {differ or 'incorrect run'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
