#!/usr/bin/env python3
"""Repository benchmark: build the `perfbench` binary from source, run one
workload, and print every metric by name with its unit.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

Run from the repository root. `--trace 0` reports the end-to-end metrics
of BENCHMARK.json, `--trace 1` its per-layer metrics. Set-up time is the
median over the timed run and SETUP_REPEATS extra set-ups, each in a fresh
process so every one starts with cold process-wide caches. The last line
of standard output is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 2
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the release binary; returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target / "release" / "perfbench"


def run(exe, args, *extra):
    """Runs the binary once; returns its notes and parsed result."""
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(cmd)}: {e}")
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(cmd)} printed nothing")
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    exe = build()
    notes, result = run(exe, args)
    attempted, failed = result["attempted"], result["failed"]
    metrics = result["metrics"]
    if not args.trace:
        setups = [metrics["setup_s"]]
        for _ in range(SETUP_REPEATS):
            _, extra = run(exe, args, "--setup-only")
            setups.append(extra["metrics"]["setup_s"])
            attempted += extra["attempted"]
            failed += extra["failed"]
        metrics["setup_s"] = statistics.median(setups)
        notes.append("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))

    names = [m["name"] for m in declared]
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        fail(f"binary reported undeclared metrics {unknown}")
    missing = [n for n in names if n not in metrics]
    if missing and not args.trace:
        fail(f"binary did not report {missing}")
    # A per-layer metric the workload does not exercise reads 0.
    out = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
           for m in declared}

    for line in notes:
        print(line)
    for name, m in out.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": bool(result["correct"]) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))


if __name__ == "__main__":
    main()
