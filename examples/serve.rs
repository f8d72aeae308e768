//! Serve quickstart: replay a recorded query stream through the
//! streaming `Server` (`DESIGN.md` §9).
//!
//! Synthesizes a deterministic "traffic trace" — small tone-map /
//! adder / bit-count queries with an occasional heavyweight partitioned
//! Gamma12 sweep, exactly the PULSAR-style mix — enqueues it in arrival
//! order, and waits each ticket, spot-checking the replies against the
//! serial oracle. Prints per-class latency and the server's scheduling
//! telemetry (affinity classes, steals).
//!
//! With `--qnn`, replays inference traffic instead: single-sample
//! quantized MLP forward passes stream through the server as per-layer
//! product + requantization queries (`DESIGN.md` §12), each checked
//! bit-for-bit against the host `i32` oracle.
//!
//! ```sh
//! cargo run --release --example serve            # one worker per CPU
//! cargo run --release --example serve -- --workers 4
//! cargo run --release --example serve -- --timing banked
//! cargo run --release --example serve -- --qnn --workers 4
//! ```

use pluto_repro::baselines::WorkloadId;
use pluto_repro::core::lut::Lut;
use pluto_repro::core::plan::plan_stats;
use pluto_repro::core::serve::{serial_oracle, QuerySpec, ServeConfig, Server};
use pluto_repro::core::session::ExecConfig;
use pluto_repro::core::{DesignKind, PlutoError};
use pluto_repro::dram::TimingBackend;
use pluto_repro::workloads::serve_lut;
use sim_support::{Rng, SeedableRng, StdRng};
use std::sync::Arc;
use std::time::Instant;

/// One recorded arrival in the replayed trace.
struct TraceEntry {
    class: &'static str,
    spec: QuerySpec,
}

fn registry_lut(id: WorkloadId) -> Arc<Lut> {
    Arc::new(serve_lut(id).expect("workload serves a single LUT"))
}

/// A deterministic 60-query trace: ~1 in 6 arrivals is a 32-element
/// Gamma12 sweep (partitioned across 8 subarray segments); the rest are
/// small latency-class queries.
fn synthesize_trace(seed: u64, timing: TimingBackend) -> Vec<TraceEntry> {
    let add4 = registry_lut(WorkloadId::Add4);
    let bc8 = registry_lut(WorkloadId::Bc8);
    let gamma = registry_lut(WorkloadId::Gamma12);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..60)
        .map(|i| {
            let (class, lut, modulo, len, design) = match i % 6 {
                0 => ("gamma12-sweep", &gamma, 4096u64, 32usize, DesignKind::Gmc),
                1 | 3 => ("add4", &add4, 256, 8, DesignKind::Gmc),
                _ => ("bc8", &bc8, 256, 6, DesignKind::Bsa),
            };
            let mut config = ExecConfig::measurement(design);
            config.timing_backend = timing;
            TraceEntry {
                class,
                spec: QuerySpec {
                    config,
                    lut: Arc::clone(lut),
                    inputs: (0..len).map(|_| rng.gen_range(0..modulo)).collect(),
                },
            }
        })
        .collect()
}

fn parse_workers() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--workers") {
        return args.get(pos + 1).and_then(|v| v.parse().ok());
    }
    std::env::var("PLUTO_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// `--timing analytic|banked` (or `PLUTO_TIMING`) selects the timing
/// backend every trace query runs on (`DESIGN.md` §11).
fn parse_timing() -> TimingBackend {
    let args: Vec<String> = std::env::args().collect();
    let value = args
        .iter()
        .position(|a| a == "--timing")
        .and_then(|pos| args.get(pos + 1).cloned())
        .or_else(|| std::env::var("PLUTO_TIMING").ok());
    match value.as_deref() {
        Some("banked") => TimingBackend::Banked,
        Some("analytic") | None => TimingBackend::Analytic,
        Some(other) => panic!("unknown --timing '{other}' (expected analytic|banked)"),
    }
}

/// `--qnn` traffic mode: stream single-sample inferences through the
/// server — per layer one signed-product query stream and one
/// requantization query, host PnM-core accumulation in between — and
/// check every sample's logits against the host oracle.
fn qnn_traffic(workers: usize, timing: TimingBackend) -> Result<(), PlutoError> {
    use pluto_repro::qnn::model::{sample_batch, QuantModel};
    use pluto_repro::qnn::pluto_exec::mlp_exec_config;

    let model = QuantModel::mnist_mlp(7);
    let samples = sample_batch(11, 4);
    let mut config = mlp_exec_config(DesignKind::Gmc);
    config.timing_backend = timing;
    println!(
        "streaming {} single-sample inferences on {workers} worker(s), {timing} timing",
        samples.len()
    );
    let mut server = Server::with_workers(workers);
    let start = Instant::now();
    for (digit, x) in &samples {
        let logits = model.serve_infer(&mut server, &config, x)?;
        assert_eq!(
            logits,
            model.forward_reference(x),
            "digit {digit}: served logits must match the host oracle"
        );
        let class = logits
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .map(|(i, _)| i)
            .unwrap();
        println!("  digit {digit}: logits validated bit-for-bit, argmax class {class}");
    }
    let stats = server.stats();
    println!(
        "served in {:.1} ms wall: {} queries across {} affinity classes, plan cache {} hit(s)",
        start.elapsed().as_secs_f64() * 1e3,
        stats.enqueued,
        stats.affinities,
        plan_stats().hits
    );
    println!("all inferences bit-identical to the host i32 oracle");
    Ok(())
}

fn main() -> Result<(), PlutoError> {
    let timing = parse_timing();
    let workers = parse_workers().unwrap_or_else(|| ServeConfig::default().workers);
    if std::env::args().any(|a| a == "--qnn") {
        return qnn_traffic(workers, timing);
    }
    let trace = synthesize_trace(42, timing);
    println!(
        "replaying {} queries on {workers} worker(s), {timing} timing",
        trace.len()
    );
    let mut server = Server::with_workers(workers);

    // 1. Ingest the whole trace in arrival order. enqueue() never
    //    blocks; each query starts on its affinity class's home lane.
    let start = Instant::now();
    let tickets: Vec<_> = trace
        .iter()
        .map(|e| server.enqueue(e.spec.clone()))
        .collect();

    // 2. Wait every ticket in arrival order, folding per-class latency
    //    (time from replay start to that reply, i.e. sojourn under the
    //    whole backlog).
    let mut by_class: Vec<(&str, u32, f64, f64)> = Vec::new();
    let (mut row_hits, mut row_misses, mut row_conflicts, mut queue_stalls) =
        (0u64, 0u64, 0u64, 0u64);
    for (entry, ticket) in trace.iter().zip(tickets) {
        let reply = ticket.wait()?;
        let sojourn_ms = start.elapsed().as_secs_f64() * 1e3;
        let time_ns = reply.report.time.as_secs() * 1e9;
        row_hits += reply.report.row_hits;
        row_misses += reply.report.row_misses;
        row_conflicts += reply.report.row_conflicts;
        queue_stalls += reply.report.queue_stalls;
        match by_class.iter_mut().find(|(c, ..)| *c == entry.class) {
            Some((_, n, ms, ns)) => {
                *n += 1;
                *ms = ms.max(sojourn_ms);
                *ns += time_ns;
            }
            None => by_class.push((entry.class, 1, sojourn_ms, time_ns)),
        }
        assert!(reply.report.validated, "{} failed validation", entry.class);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    // 3. Spot-check three replies against the serial oracle (the full
    //    sweep lives in tests/serve.rs).
    for probe in [0usize, 1, 7] {
        let (values, report) = serial_oracle(&trace[probe].spec)?;
        let mut check = Server::with_workers(1);
        let reply = check.enqueue(trace[probe].spec.clone()).wait()?;
        assert_eq!(reply.values, values, "query {probe} vs oracle");
        assert_eq!(reply.report, report, "query {probe} report vs oracle");
    }

    println!(
        "\n{:<14} {:>7} {:>16} {:>18}",
        "class", "queries", "last-done (ms)", "device time (ns)"
    );
    for (class, n, ms, ns) in &by_class {
        println!("{class:<14} {n:>7} {ms:>16.2} {ns:>18.1}");
    }
    println!(
        "\nreplayed in {wall_ms:.1} ms wall: {} affinity classes, {} cross-lane steal(s)",
        server.stats().affinities,
        server.steals()
    );
    let plans = plan_stats();
    println!(
        "plan cache: {} hit(s), {} miss(es), {} fallback(s), {} eviction(s) across {} cached plan(s)",
        plans.hits, plans.misses, plans.fallbacks, plans.evictions, plans.entries
    );
    println!(
        "{timing} timing: {row_hits} row-buffer hit(s), {row_misses} miss(es), \
         {row_conflicts} conflict(s), {queue_stalls} queue stall(s)"
    );
    println!("all replies validated and spot-checked against the serial oracle");
    Ok(())
}
