#!/usr/bin/env bash
# The full offline CI gate. Run locally before pushing; after checkout
# and a toolchain printout, the GitHub workflow
# (.github/workflows/ci.yml) runs exactly these steps, under the same
# labels.
#
# Offline invariant: the workspace has zero crates.io dependencies, so
# every step below must succeed with no network and an empty registry.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> Format"
cargo fmt --all -- --check

echo "==> Clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> Docs (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> Build (release)"
cargo build --release --workspace

echo "==> Test"
PLUTO_QUICK=1 cargo test -q --workspace

echo "==> Timing-backend differential (tests/timing_backend.rs, analytic == banked bit-for-bit)"
PLUTO_QUICK=1 cargo test -q --test timing_backend

echo "==> Query-path differential (tests/plan_replay.rs + tests/plan_key.rs + tests/partition_fused.rs + tests/query_differential.rs + tests/partition_differential.rs, plans-on == plans-off, every input the plan key omits leaves lane cost unchanged, fused == serial lanes, the executor matches the scalar oracle phase by phase, and partitioned == unpartitioned queries)"
PLUTO_QUICK=1 cargo test -q --test plan_replay --test plan_key --test partition_fused --test query_differential --test partition_differential

echo "==> Cache residency and shared row tables (tests/cache_residency.rs, a repeated CRC-32 run above the old 512-entry caps has zero plan and packed misses; array/store/partition shared_table unit tests + cache_is_immune_to_in_dram_destruction, no write reaches a shared row table and a shared-table load reads like a per-row load)"
PLUTO_QUICK=1 cargo test -q --test cache_residency
PLUTO_QUICK=1 cargo test -q -p pluto-dram -p pluto-core --lib -- shared_table cache_is_immune_to_in_dram_destruction

echo "==> Worker-pool soak (tests/serve.rs + tests/cluster.rs + deque/cluster/serve unit tests, 5 rounds; a hang fails the step)"
timeout 600 bash -c 'set -euo pipefail; for round in 1 2 3 4 5; do PLUTO_QUICK=1 cargo test -q --test serve --test cluster; PLUTO_QUICK=1 cargo test -q -p pluto-core --lib -- deque:: cluster:: serve::; done'

echo "==> Session API quickstart (examples/session.rs)"
cargo run --release --quiet --example session

echo "==> Cluster executor quickstart (examples/cluster.rs)"
cargo run --release --quiet --example cluster

echo "==> 4-worker cluster smoke (fig07 --quick --workers 4)"
cargo run --release --quiet -p pluto-bench --bin fig07_speedup -- --quick --workers 4

echo "==> Query-engine throughput guard (benches/query.rs, word-parallel >= 2x scalar packing, warm-plan production store >= 2x issuing)"
PLUTO_QUICK=1 cargo bench -p pluto-bench --bench query

echo "==> Partitioned-LUT guard (benches/partition.rs, fused §5.6 path — 4-seg query < 2x single and exactly 4x its sweep steps, cached load < query)"
PLUTO_QUICK=1 cargo bench -p pluto-bench --bench partition

echo "==> Serve queue-behavior guard (benches/serve.rs, mixed p99 bounded + plan-cache hits + stealing live)"
PLUTO_QUICK=1 cargo bench -p pluto-bench --bench serve

echo "==> QNN pipeline guard (benches/qnn.rs, warm-layer plan replay + direct w8 energy >= 100x nibble, latency <= 2x)"
PLUTO_QUICK=1 cargo bench -p pluto-bench --bench qnn

echo "==> 4-worker MLP smoke (examples/qnn_inference.rs --workers 4, cluster bit-identical to serial)"
cargo run --release --quiet --example qnn_inference -- --workers 4

echo "==> 4-worker serve smoke (examples/serve.rs traffic replay)"
cargo run --release --quiet --example serve -- --workers 4

echo "==> Banked-backend serve smoke (examples/serve.rs --timing banked)"
cargo run --release --quiet --example serve -- --workers 4 --timing banked

echo "==> QNN serve smoke (examples/serve.rs --qnn, streamed inference bit-identical to the host oracle)"
cargo run --release --quiet --example serve -- --qnn --workers 4

echo "==> Bench harness smoke (writes BENCH_simulator.json and BENCH_session.json)"
PLUTO_QUICK=1 cargo bench -p pluto-bench --bench simulator --bench session

echo "==> Repository benchmark smoke (perfbench builds against the public API; every op validates; dram.* repeat bit-for-bit)"
python3 perfbench/check_sim.py --seed 1 --seconds 1

echo "==> CI green"
