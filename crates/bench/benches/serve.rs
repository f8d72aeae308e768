//! Serve-path benchmarks (`DESIGN.md` §9): sustained query throughput at
//! 1/2/4 workers and small-query latency distributions, isolated vs.
//! mixed with large partitioned-LUT sweeps. Writes the machine-readable
//! `BENCH_serve.json` baseline.
//!
//! Two in-process **queue-behavior guards** run alongside the
//! measurements (this is what CI enforces — on a 1-CPU container the
//! interesting property is scheduling, not wall-clock speedup):
//!
//! 1. **Tail-latency bound.** The p99 latency of small queries under
//!    mixed traffic must stay within `TAIL_FACTOR`× their isolated
//!    *median* — work-stealing lets an idle worker lift a small batch
//!    over another lane's in-flight sweep, so the tail grows by
//!    timesharing, not by queueing behind whole sweeps.
//! 2. **Stealing is live.** Under skewed lane load (many sweep batches
//!    on one affinity's home lane, an otherwise idle second worker) the
//!    pool's steal counter must move.
//!
//! Latency records use `Criterion::record_ns` (each measured query is
//! one sample), so `median_ns` is p50. Derived statistics — the isolated
//! p50, the mixed-traffic p99, the plan-cache hit count — go through
//! `Criterion::summary_ns` into the baseline's `"summaries"` object, not
//! as fake one-sample benchmark rows. The `queue/steals_count` record is
//! a *count*, not nanoseconds — it exists so the baseline documents that
//! stealing occurred.
//!
//! A third guard compares the mixed-traffic p99 against the committed
//! `BENCH_serve.json` baseline (generously, wall-clock on shared runners
//! is noisy): the compiled-plan cache must not let the serve tail
//! regress.
//!
//! `PLUTO_QUICK=1` shrinks query counts and sample sizes for the CI
//! smoke run; the committed baseline comes from a full run.

use pluto_baselines::WorkloadId;
use pluto_core::lut::Lut;
use pluto_core::plan::plan_stats;
use pluto_core::serve::{QuerySpec, Server};
use pluto_core::session::ExecConfig;
use pluto_core::DesignKind;
use pluto_dram::TimingBackend;
use pluto_workloads::serve_lut;
use sim_support::bench::{percentile_ns, BenchmarkId, Criterion};
use sim_support::{bench_group, bench_main};
use std::sync::Arc;
use std::time::Instant;

/// Mixed-traffic p99 budget, as a multiple of the isolated small-query
/// median. Generous because a 1-CPU container timeshares every worker
/// thread over one core (each in-flight sweep inflates wall latency even
/// with perfect scheduling); without stealing, a small query stuck
/// behind a lane's whole sweep backlog blows well past this.
const TAIL_FACTOR: f64 = 64.0;

fn quick() -> bool {
    std::env::var("PLUTO_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn config() -> ExecConfig {
    ExecConfig::measurement(DesignKind::Gmc)
}

/// The measurement configuration on the banked timing backend
/// (`DESIGN.md` §11) — its own affinity/machine pool key, so banked
/// traffic never shares a pooled machine with analytic traffic.
fn banked_config() -> ExecConfig {
    ExecConfig {
        timing_backend: TimingBackend::Banked,
        ..config()
    }
}

/// The small latency-sensitive query class: a handful of lookups against
/// the registry's 256-entry nibble-adder LUT (fits one subarray).
fn small_spec(lut: &Arc<Lut>, i: u64) -> QuerySpec {
    QuerySpec {
        config: config(),
        lut: Arc::clone(lut),
        inputs: (0..8).map(|k| (i * 13 + k * 7) % 256).collect(),
    }
}

/// The heavyweight sweep class: a wide batch against the 4096-entry
/// Gamma12 tone map, served through the §5.6 partitioned store.
fn sweep_spec(lut: &Arc<Lut>, i: u64) -> QuerySpec {
    let n = if quick() { 12 } else { 32 };
    QuerySpec {
        config: config(),
        lut: Arc::clone(lut),
        inputs: (0..n).map(|k| (i * 97 + k * 31) % 4096).collect(),
    }
}

fn add_lut() -> Arc<Lut> {
    Arc::new(serve_lut(WorkloadId::Add4).expect("Add4 serves a single LUT"))
}

fn gamma_lut() -> Arc<Lut> {
    Arc::new(serve_lut(WorkloadId::Gamma12).expect("Gamma12 serves a single LUT"))
}

/// Sustained small-query throughput at 1/2/4 workers: one iteration is a
/// burst of enqueues, a flush, and a wait for every ticket. The
/// per-query rate is `1e9 * queries / mean_ns`.
fn bench_throughput(c: &mut Criterion) {
    let lut = add_lut();
    let queries: u64 = if quick() { 8 } else { 32 };
    let mut group = c.benchmark_group("throughput");
    for workers in [1usize, 2, 4] {
        let mut server = Server::with_workers(workers);
        group.bench_with_input(
            BenchmarkId::new(format!("burst{queries}"), workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    let tickets: Vec<_> = (0..queries)
                        .map(|i| server.enqueue(small_spec(&lut, i)))
                        .collect();
                    server.flush();
                    tickets
                        .into_iter()
                        .map(|t| t.wait().expect("query served").values[0])
                        .sum::<u64>()
                });
            },
        );
    }
    group.finish();
}

/// Small-query latency, isolated vs. mixed with sweep traffic, plus the
/// two queue-behavior guards.
fn bench_latency(c: &mut Criterion) {
    let add = add_lut();
    let gamma = gamma_lut();
    let measured = if quick() { 16 } else { 48 };
    let mut server = Server::with_workers(4);

    // Warm the pools (machine construction, packed-row caches) so the
    // distributions measure steady-state serving.
    for i in 0..4 {
        let t = server.enqueue(small_spec(&add, i));
        let s = server.enqueue(sweep_spec(&gamma, i));
        server.flush();
        t.wait().expect("warmup query");
        s.wait().expect("warmup sweep");
    }

    // Isolated: one small query in flight at a time.
    let mut isolated = Vec::with_capacity(measured);
    for i in 0..measured {
        let start = Instant::now();
        let t = server.enqueue(small_spec(&add, i as u64));
        server.flush();
        t.wait().expect("isolated query");
        isolated.push(start.elapsed().as_nanos() as f64);
    }
    c.record_ns("latency/small_isolated", isolated.clone());

    // Mixed: keep sweep batches landing on the gamma affinity's home
    // lane while small queries arrive on theirs; stealing (or simply a
    // free worker) must keep the small-query tail bounded. The sweep
    // backlog is capped at 4 in flight — steady-state mixed traffic,
    // not unbounded accumulation: on a 1-CPU container every in-flight
    // worker timeshares the core, so an ever-growing pile would charge
    // late small queries for the whole backlog no matter how well the
    // scheduler behaves.
    let mut mixed = Vec::with_capacity(measured);
    let mut backlog = std::collections::VecDeque::new();
    for i in 0..measured {
        for j in 0..2 {
            backlog.push_back(server.enqueue(sweep_spec(&gamma, (i * 2 + j) as u64)));
        }
        while backlog.len() > 4 {
            let t = backlog.pop_front().expect("non-empty backlog");
            t.wait().expect("sweep served");
        }
        let start = Instant::now();
        let t = server.enqueue(small_spec(&add, 1000 + i as u64));
        server.flush();
        t.wait().expect("mixed query");
        mixed.push(start.elapsed().as_nanos() as f64);
    }
    server.drain();
    for t in backlog {
        t.wait().expect("sweep served");
    }
    c.record_ns("latency/small_mixed_w4", mixed.clone());

    let isolated_p50 = percentile_ns(&isolated, 50.0);
    let mixed_p99 = percentile_ns(&mixed, 99.0);
    c.summary_ns("latency/small_isolated_p50", isolated_p50);
    c.summary_ns("latency/small_mixed_w4_p99", mixed_p99);

    // Guard 1: mixed-traffic tail within budget of the isolated median.
    assert!(
        mixed_p99 <= TAIL_FACTOR * isolated_p50,
        "queue-behavior guard: small-query p99 under mixed traffic \
         ({mixed_p99:.0} ns) exceeds {TAIL_FACTOR}x the isolated median \
         ({isolated_p50:.0} ns) — small queries are queuing behind sweeps"
    );

    // Guard 3: compiled-plan cache live on the serve path. The measured
    // traffic repeats two plan shapes dozens of times, so the workers'
    // warm queries must be replaying memoized tapes, not re-simulating.
    let plans = plan_stats();
    c.summary_ns("plan/hits_count", plans.hits as f64);
    assert!(
        plans.hits > 0,
        "plan-cache guard: zero warm-plan hits under mixed serve traffic ({plans:?})"
    );

    // Guard 4: the mixed-traffic p99 must not regress past the committed
    // baseline. The allowance is deliberately generous — wall-clock on a
    // shared 1-CPU container is noisy — so this catches order-of-
    // magnitude queueing regressions, not jitter.
    const BASELINE_FACTOR: f64 = 8.0;
    if let Some(baseline_p99) = baseline_summary("latency/small_mixed_w4_p99") {
        assert!(
            mixed_p99 <= BASELINE_FACTOR * baseline_p99,
            "serve-tail guard: mixed p99 ({mixed_p99:.0} ns) exceeds \
             {BASELINE_FACTOR}x the committed baseline ({baseline_p99:.0} ns)"
        );
    } else {
        println!("serve-tail guard skipped: no committed baseline summary");
    }
}

/// Reads one `"summaries"` value from the committed `BENCH_serve.json`
/// at the repo root (`None` if the file or key is missing — first run
/// after a baseline format change, or a pruned checkout).
fn baseline_summary(key: &str) -> Option<f64> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let json = std::fs::read_to_string(path).ok()?;
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Skewed-lane contention: every sweep batch homes on lane 0 while the
/// second worker's lane stays empty, so any batch worker 1 executes is a
/// steal. Repeats bounded rounds until the counter moves (thread
/// scheduling decides *when* a steal happens, never *whether results
/// change*).
fn bench_steals(c: &mut Criterion) {
    let gamma = gamma_lut();
    let mut server = Server::with_workers(2);
    let mut rounds = 0u64;
    while server.steals() == 0 && rounds < 50 {
        let tickets: Vec<_> = (0..8)
            .map(|i| {
                let t = server.enqueue(sweep_spec(&gamma, rounds * 8 + i));
                server.flush(); // one batch per query -> 8 queued batches
                t
            })
            .collect();
        for t in tickets {
            t.wait().expect("sweep served");
        }
        rounds += 1;
    }
    let steals = server.steals();
    c.record_ns("queue/steals_count", vec![steals as f64]);
    // Guard 2: work-stealing is live under contention.
    assert!(
        steals > 0,
        "queue-behavior guard: no cross-lane steal after {rounds} contended rounds"
    );
}

/// Banked-backend serve traffic (`DESIGN.md` §11): the same mixed
/// small + sweep mix, served on the event-driven backend. The guard
/// checks the backend is actually live on the serve path — GMC's
/// charge-share sweep chains must report row-buffer hits in the query
/// replies' `CostReport`s — and the baseline records the hit/stall
/// counters so `BENCH_serve.json` documents queueing effects.
fn bench_banked(c: &mut Criterion) {
    let add = add_lut();
    let gamma = gamma_lut();
    let queries = if quick() { 8u64 } else { 24 };
    let mut server = Server::with_workers(2);
    let mut hits = 0u64;
    let mut stalls = 0u64;
    let mut conflicts = 0u64;
    let tickets: Vec<_> = (0..queries)
        .map(|i| {
            let small = QuerySpec {
                config: banked_config(),
                ..small_spec(&add, i)
            };
            let sweep = QuerySpec {
                config: banked_config(),
                ..sweep_spec(&gamma, i)
            };
            (server.enqueue(small), server.enqueue(sweep))
        })
        .collect();
    server.flush();
    for (small, sweep) in tickets {
        for reply in [
            small.wait().expect("banked small"),
            sweep.wait().expect("banked sweep"),
        ] {
            hits += reply.report.row_hits;
            stalls += reply.report.queue_stalls;
            conflicts += reply.report.row_conflicts;
        }
    }
    c.record_ns("banked/row_hits_count", vec![hits as f64]);
    c.summary_ns("banked/queue_stalls_count", stalls as f64);
    c.summary_ns("banked/row_conflicts_count", conflicts as f64);
    // Guard 5: the banked backend is live under mixed serve traffic.
    assert!(
        hits > 0,
        "banked-backend guard: zero row-buffer hits across {queries} \
         mixed banked queries — the backend is not classifying ACTs"
    );
}

bench_group!(
    benches,
    bench_throughput,
    bench_latency,
    bench_steals,
    bench_banked
);
bench_main!(benches);
