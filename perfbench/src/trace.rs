//! Spans and counter deltas recorded from the benchmark's side of each
//! layer boundary: host time around calls into the serve and cluster
//! APIs, and the process-wide cache and scheduling counters read around
//! the traced ops.

use crate::replay::Sim;
use crate::{ratio, Outcome};
use pluto_core::plan::plan_stats;
use pluto_core::serve::Server;
use pluto_core::store::packed_cache_stats;
use std::time::Instant;

/// Accumulated host time of one kind of call.
#[derive(Debug, Default)]
pub struct Span {
    secs: f64,
    calls: u64,
}

impl Span {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let value = f();
        self.secs += t.elapsed().as_secs_f64();
        self.calls += 1;
        value
    }

    pub fn secs(&self) -> f64 {
        self.secs
    }

    pub fn mean_us(&self) -> f64 {
        ratio(self.secs * 1e6, self.calls as f64)
    }
}

/// Spans around the client-side serve calls.
#[derive(Debug, Default)]
pub struct ServeSpans {
    pub enqueue: Span,
    pub flush: Span,
    pub wait: Span,
}

impl ServeSpans {
    pub fn report(&self, out: &mut Outcome) {
        out.set("serve.enqueue_us", self.enqueue.mean_us());
        out.set("serve.flush_us", self.flush.mean_us());
        out.set("serve.wait_us", self.wait.mean_us());
    }
}

/// Activity of the process-wide plan and packed-row caches, summed over
/// the calls wrapped by [`CacheDelta::around`].
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheDelta {
    plan_hits: u64,
    plan_misses: u64,
    plan_fallbacks: u64,
    packed_hits: u64,
    packed_misses: u64,
}

impl CacheDelta {
    /// Runs `f`, adding the cache activity seen meanwhile. Exact only
    /// while no other thread of this process queries: the benchmark
    /// wraps whole bursts, sweeps, or jobs it waits for.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (plan, packed) = (plan_stats(), packed_cache_stats());
        let value = f();
        let (plan2, packed2) = (plan_stats(), packed_cache_stats());
        self.plan_hits += plan2.hits - plan.hits;
        self.plan_misses += plan2.misses - plan.misses;
        self.plan_fallbacks += plan2.fallbacks - plan.fallbacks;
        self.packed_hits += packed2.hits - packed.hits;
        self.packed_misses += packed2.misses - packed.misses;
        value
    }

    pub fn plan_hit_ratio(&self) -> f64 {
        let tries = self.plan_hits + self.plan_misses + self.plan_fallbacks;
        ratio(self.plan_hits as f64, tries as f64)
    }

    /// Folds the activity into `out`, counts per op.
    pub fn report(&self, out: &mut Outcome, ops: u64) {
        let n = ops.max(1) as f64;
        out.set("plan.hit_ratio", self.plan_hit_ratio());
        out.set("plan.misses", self.plan_misses as f64 / n);
        out.set("plan.fallbacks", self.plan_fallbacks as f64 / n);
        out.set("plan.entries", plan_stats().entries as f64);
        let tries = self.packed_hits + self.packed_misses;
        out.set(
            "store.packed_hit_ratio",
            ratio(self.packed_hits as f64, tries as f64),
        );
    }
}

/// Batching and stealing counters of one `Server`.
#[derive(Debug, Clone, Copy)]
pub struct ServeCounters {
    enqueued: u64,
    batches: u64,
    steals: u64,
}

impl ServeCounters {
    pub fn of(server: &Server) -> Self {
        let stats = server.stats();
        ServeCounters {
            enqueued: stats.enqueued,
            batches: stats.batches,
            steals: server.steals(),
        }
    }

    /// Folds the deltas since `self` into `out`, steals per op.
    pub fn report(&self, server: &Server, out: &mut Outcome, ops: u64) {
        let later = ServeCounters::of(server);
        out.set(
            "serve.batch_occupancy",
            ratio(
                (later.enqueued - self.enqueued) as f64,
                (later.batches - self.batches) as f64,
            ),
        );
        out.set(
            "cluster.steals",
            (later.steals - self.steals) as f64 / ops.max(1) as f64,
        );
    }
}

/// Folds the simulated per-op cost into `out`, printing every digit.
pub fn report_sim(out: &mut Outcome, sim: &Sim, ops: u64) {
    let n = ops.max(1) as f64;
    let per = [
        ("dram.sim_us_per_op", sim.us / n),
        ("dram.sim_uj_per_op", sim.uj / n),
        ("dram.acts_per_op", sim.acts as f64 / n),
        ("dram.row_hits_per_op", sim.row_hits as f64 / n),
    ];
    for (name, value) in per {
        out.set(name, value);
    }
    out.note(format!(
        "simulated per op over {ops} fixed ops: {}",
        per.map(|(name, value)| format!("{name}={value:?}"))
            .join(" ")
    ));
}

/// Folds the served-versus-replayed comparison into `out`: per-query
/// serve overhead, attributed coverage, and tracing overhead.
pub fn report_attribution(
    out: &mut Outcome,
    served_s: f64,
    traced_s: f64,
    replayed_s: f64,
    queries_per_op: f64,
) {
    out.set(
        "serve.overhead_us",
        (served_s - replayed_s) * 1e6 / queries_per_op,
    );
    out.set("trace.coverage", replayed_s / served_s);
    out.set(
        "trace.overhead_pct",
        (traced_s - served_s) / served_s * 100.0,
    );
    out.note(format!(
        "served {:.2} us/op untraced, {:.2} traced; replayed steps {:.2} us/op ({:.1}% coverage)",
        served_s * 1e6,
        traced_s * 1e6,
        replayed_s * 1e6,
        replayed_s / served_s * 100.0
    ));
}
