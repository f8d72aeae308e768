#!/usr/bin/env python3
"""Checks that the simulated metrics (`dram.*`) repeat bit-for-bit: runs
each workload's traced benchmark twice on one seed and compares them.

    python3 perfbench/check_sim.py --seed 1 [--seconds 2]

Exits non-zero on any difference. Host-time metrics are not compared.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def simulated(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: run reported failed ops")
    return {k: v["value"] for k, v in result["metrics"].items() if k.startswith("dram.")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = (simulated(workload, args.seed, args.seconds) for _ in range(2))
        same = first == second
        ok &= same
        print(f"{workload}: {'identical' if same else 'DIFFERENT'} {json.dumps(first)}")
        if not same:
            print(f"  second run: {json.dumps(second)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
