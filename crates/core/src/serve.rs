//! `pluto-serve` — a streaming LUT-query service with affinity lanes and
//! work-stealing workers on top of [`Cluster`] (`DESIGN.md` §9).
//!
//! The batch [`Cluster`] answers "run this job list and wait"; the north
//! star's serving scenario — millions of users hitting a tone-map / CRC /
//! inference endpoint backed by pLUTo DRAM — needs the opposite shape: a
//! long-lived [`Server`] ingesting a *continuous stream* of independent
//! queries, each a `(ExecConfig, LUT, inputs)` triple, and streaming its
//! result back to the caller as soon as it completes. PALUTE
//! (arXiv:2606.08891) frames LUT-PIM as exactly this request-stream
//! backend, and PULSAR (arXiv:2312.02880) motivates the queueing problem
//! the design solves: latency-sensitive small queries coexisting with
//! heavyweight sweeps on one substrate.
//!
//! The pipeline (ingestion → affinity lanes → work-stealing deques →
//! per-ticket replies); each query travels it as one job closure on the
//! [`Cluster`]'s pool:
//!
//! 1. **Ingestion.** [`Server::enqueue`] is non-blocking: it hands back a
//!    [`Ticket`] immediately; the caller later blocks on
//!    [`Ticket::wait`] (or holds a bag of tickets and waits for each in
//!    arrival order).
//! 2. **Affinity lanes.** A query's affinity class is its effective
//!    [`ExecConfig`] and the [`Lut`] itself (name, shape and elements) —
//!    the config is the same key the cluster workers pool their
//!    [`Session`]s under, so a class's queries land on machines already
//!    sized for them, and repeat LUTs hit the process-wide packed-row
//!    cache ([`crate::store`]). Each class has a *home lane*, assigned
//!    round-robin in first-appearance order (deterministic, no hash
//!    iteration), and `enqueue` pushes the query onto it as one job at
//!    once: nothing waits for a batch to fill or for a flush.
//! 3. **Work-stealing dispatch.** An idle worker steals from the back of
//!    a busy lane, so a small query never queues behind another lane's
//!    in-flight sweep (the crate-internal `deque` module).
//! 4. **Per-ticket replies.** Every query's job owns its ticket's `mpsc`
//!    reply channel and replies the moment it completes; a job dropped
//!    unrun (the pool has shut down) disconnects it, resolving the
//!    ticket with [`PlutoError::WorkerLost`] instead of leaving the
//!    caller hanging.
//!
//! **Determinism contract.** Each query runs as its own
//! [`Session::run`] on a pristine (reset) machine, so its output words
//! and [`CostReport`] are bit-identical to [`serial_oracle`] — the same
//! query run serially through a fresh [`Session`] — regardless of
//! worker count, arrival order, or whether a steal moved the query.
//! Scheduling decides only *when*, never *what*.
//!
//! ```
//! use pluto_core::serve::{QuerySpec, Server, ServeConfig};
//! use pluto_core::session::ExecConfig;
//! use pluto_core::lut::{catalog, Lut};
//! use pluto_core::DesignKind;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), pluto_core::PlutoError> {
//! let mut server = Server::new(ServeConfig { workers: 2 });
//! let lut = Arc::new(catalog::add(4)?);
//! let tickets: Vec<_> = (0..8)
//!     .map(|i| {
//!         server.enqueue(QuerySpec {
//!             config: ExecConfig::measurement(DesignKind::Gmc),
//!             lut: Arc::clone(&lut),
//!             inputs: vec![i, i + 1],
//!         })
//!     })
//!     .collect();
//! for (i, t) in tickets.into_iter().enumerate() {
//!     let reply = t.wait()?;
//!     assert_eq!(reply.values[0], (i as u64 >> 4) + (i as u64 & 0xf));
//!     assert!(reply.report.validated);
//! }
//! # Ok(())
//! # }
//! ```

use crate::cluster::{default_workers, run_pooled, Cluster, Pool};
use crate::error::PlutoError;
use crate::lut::Lut;
use crate::session::{encode_words, CostReport, ExecConfig, Session, Workload};
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};

/// One independent LUT query: apply `lut` to `inputs` under `config`.
///
/// The LUT is shared by `Arc` so that thousands of queries against one
/// registry LUT (the serving steady state) carry a pointer, not a table
/// copy; affinity classes key on the LUT itself, so clones (and equal
/// rebuilds) of one logical LUT share a home lane while a different
/// table reusing a name opens its own affinity class.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Execution configuration (design, memory kind, geometry, seed).
    pub config: ExecConfig,
    /// The lookup table to query. Any size — large LUTs route through
    /// the §5.6 partitioned store exactly as in a serial session.
    pub lut: Arc<Lut>,
    /// Input elements, one LUT lookup each.
    pub inputs: Vec<u64>,
}

/// A completed query's results, delivered through its [`Ticket`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// The query's arrival sequence number ([`Ticket::seq`]).
    pub seq: u64,
    /// Output elements, one per input.
    pub values: Vec<u64>,
    /// The query's cost report — bit-identical to the [`serial_oracle`]
    /// report for the same spec.
    pub report: CostReport,
}

/// Claim check for one enqueued query: resolves to the query's
/// [`QueryReply`] (or error) exactly once.
#[derive(Debug)]
pub struct Ticket {
    seq: u64,
    rx: mpsc::Receiver<Result<QueryReply, PlutoError>>,
}

impl Ticket {
    /// The query's arrival sequence number (dense, starting at 0 per
    /// server).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until the query completes.
    ///
    /// # Errors
    /// The query's own failure (bad input index, layout mismatch, a
    /// panic caught on the worker as [`PlutoError::WorkerPanic`]), or
    /// [`PlutoError::WorkerLost`] if the query's job was dropped before
    /// it could reply (the pool had shut down) — a ticket never blocks
    /// forever.
    pub fn wait(self) -> Result<QueryReply, PlutoError> {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => Err(PlutoError::WorkerLost {
                reason: format!(
                    "reply channel for ticket {} closed before a result arrived",
                    self.seq
                ),
            }),
        }
    }

    /// Non-blocking probe: `Some` once the query has completed.
    pub fn try_wait(&self) -> Option<Result<QueryReply, PlutoError>> {
        match self.rx.try_recv() {
            Ok(outcome) => Some(outcome),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(PlutoError::WorkerLost {
                reason: format!(
                    "reply channel for ticket {} closed before a result arrived",
                    self.seq
                ),
            })),
        }
    }
}

/// Construction parameters for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (and deque lanes). Clamped to at least one.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: default_workers(),
        }
    }
}

/// Scheduling/ingestion telemetry of a [`Server`] (monotonic since
/// construction). Results never depend on any of these numbers — they
/// describe *when* work ran, not *what* it computed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries accepted by [`Server::enqueue`].
    pub enqueued: u64,
    /// Jobs dispatched to worker lanes. Every query is dispatched as its
    /// own job when it arrives, so this always equals `enqueued`; it is
    /// kept for the repository benchmark's occupancy metric.
    pub batches: u64,
    /// Distinct affinity classes seen (effective config × LUT table).
    pub affinities: usize,
}

/// Count of enqueued-but-unresolved queries, shared between the server
/// handle and in-flight jobs; [`Server::drain`] blocks on it reaching
/// zero. Each job decrements it from a drop guard, so even a panicking
/// worker accounts for its query.
#[derive(Debug, Default)]
struct Outstanding {
    count: Mutex<u64>,
    zero: Condvar,
}

impl Outstanding {
    /// Counts one more unresolved query; the returned guard releases it.
    fn track(self: &Arc<Self>) -> DoneGuard {
        let mut count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        *count += 1;
        DoneGuard(Arc::clone(self))
    }

    fn release(&self) {
        let mut count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        *count = count.saturating_sub(1);
        if *count == 0 {
            self.zero.notify_all();
        }
    }

    fn current(&self) -> u64 {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_zero(&self) {
        let mut count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        while *count > 0 {
            count = self
                .zero
                .wait(count)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Releases its query from the outstanding counter when dropped. The
/// query's job owns it, so ticket accounting survives a job that ran and
/// one dropped unrun alike.
struct DoneGuard(Arc<Outstanding>);

impl Drop for DoneGuard {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Identity of an affinity class: queries that share a home lane, a
/// pooled session and packed LUT rows. `Arc<Lut>` compares by pointer
/// first, then by the table ([`Lut`]'s `Eq`), so equal tables share a
/// class and same-name tables with other contents never do.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AffinityKey {
    /// Effective configuration: the submitted one with its subarray
    /// floor already raised to the LUT's demand ([`effective_config`]),
    /// so pooling keys match what [`Session::run`] sizes the machine to.
    config: ExecConfig,
    lut: Arc<Lut>,
}

/// A streaming LUT-query service: non-blocking ingestion, affinity
/// lanes, work-stealing execution on a [`Cluster`] worker pool, and
/// per-ticket result delivery. See the [module docs](self).
pub struct Server {
    cluster: Cluster,
    /// Home lane per affinity class, assigned round-robin in
    /// first-appearance order.
    lanes: HashMap<AffinityKey, usize>,
    next_lane: usize,
    next_seq: u64,
    outstanding: Arc<Outstanding>,
    stats: ServeStats,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.cluster.workers())
            .field("outstanding", &self.outstanding.current())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Starts a server with its own worker pool.
    pub fn new(config: ServeConfig) -> Self {
        Server {
            cluster: Cluster::new(config.workers),
            lanes: HashMap::new(),
            next_lane: 0,
            next_seq: 0,
            outstanding: Arc::new(Outstanding::default()),
            stats: ServeStats::default(),
        }
    }

    /// Starts a server with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        Server::new(ServeConfig { workers })
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.cluster.workers()
    }

    /// Cross-lane steals performed by the pool so far (scheduling
    /// telemetry; see [`Cluster::steals`]).
    pub fn steals(&self) -> u64 {
        self.cluster.steals()
    }

    /// Enqueued queries not yet resolved to their tickets.
    pub fn outstanding(&self) -> u64 {
        self.outstanding.current()
    }

    /// Ingestion and scheduling telemetry so far.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Accepts one query, dispatches it onto its affinity class's home
    /// lane, and returns its [`Ticket`] immediately.
    ///
    /// Non-blocking, and no later call is needed to start the query.
    /// Invalid queries (e.g. an input exceeding the LUT's index range)
    /// are still accepted here; the failure arrives through the ticket,
    /// leaving every other query untouched.
    pub fn enqueue(&mut self, spec: QuerySpec) -> Ticket {
        let QuerySpec {
            config,
            lut,
            inputs,
        } = spec;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.enqueued += 1;
        let done = self.outstanding.track();
        let (reply, rx) = mpsc::channel();

        let key = AffinityKey {
            config: effective_config(config, &lut),
            lut,
        };
        // Home lane: first appearance of an affinity claims the next
        // lane round-robin — deterministic for a fixed arrival order. A
        // table rebuilt equal to the class's runs as the class's own
        // `Arc`, so the worker's packed-row lookup matches the entry the
        // class's first load cached by pointer.
        let (key, lane) = match self.lanes.get_key_value(&key) {
            Some((class, &lane)) => (class.clone(), lane),
            None => {
                let lane = self.next_lane;
                self.next_lane = (self.next_lane + 1) % self.cluster.workers().max(1);
                self.lanes.insert(key.clone(), lane);
                self.stats.affinities = self.lanes.len();
                (key, lane)
            }
        };
        self.stats.batches += 1;
        let AffinityKey { config, lut } = key;
        self.cluster.push(
            lane,
            Box::new(move |pool: &mut Pool| {
                let mut workload = QueryWorkload {
                    lut,
                    inputs,
                    out: Vec::new(),
                };
                let outcome = run_pooled(pool, config, &mut workload);
                // A dropped ticket (caller gave up) is fine; everyone
                // else gets their reply before the done-guard releases
                // the drain barrier.
                let _ = reply.send(outcome.map(|report| QueryReply {
                    seq,
                    values: workload.out,
                    report,
                }));
                drop(done);
            }),
        );
        Ticket { seq, rx }
    }

    /// Does nothing: [`Server::enqueue`] dispatches every query as it
    /// arrives. Kept only because the repository benchmark still calls
    /// it.
    pub fn flush(&mut self) {}

    /// Graceful drain: blocks until every enqueued ticket has been
    /// resolved (successfully or with an error). After `drain` returns,
    /// every outstanding [`Ticket::wait`] returns without blocking; no
    /// ticket is ever dropped. The server stays usable — drain is a
    /// barrier, not a shutdown.
    pub fn drain(&mut self) {
        self.outstanding.wait_zero();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Shutdown implies drain: every accepted ticket resolves before
        // the workers join, so no enqueued ticket is ever dropped. The
        // cluster's own Drop then closes the deques and joins the pool.
        self.drain();
    }
}

/// Minimum subarrays-per-bank a standalone query against `lut` needs:
/// room for the §5.6 partitioned store's segment pairs (2 per segment,
/// counted by the rule [`crate::partition::PartitionedLut::load`] cuts
/// segments with) plus the controller's fixed rails, floored at the
/// measurement geometry's 16 (mirrors the direct-LUT workloads' demands:
/// 20 for the 4096-entry Gamma12, 260 for the 65 536-entry MulDirect8).
fn min_subarrays_for(lut: &Lut, rows_per_subarray: u16) -> u16 {
    let (_, segments) = crate::partition::segment_layout(lut.len(), usize::from(rows_per_subarray));
    let demand = 2 * segments + 4;
    u16::try_from(demand).unwrap_or(u16::MAX).max(16)
}

/// `config` with its subarray floor raised to what a standalone query
/// against `lut` needs ([`min_subarrays_for`]) — the configuration both
/// [`Server::enqueue`] and [`serial_oracle`] run a query under.
fn effective_config(mut config: ExecConfig, lut: &Lut) -> ExecConfig {
    config.subarrays_per_bank = config
        .subarrays_per_bank
        .max(min_subarrays_for(lut, config.rows_per_subarray));
    config
}

/// The serve path's unit of execution: one query run as a [`Workload`]
/// so that [`Session::run`] gives it the full measurement protocol —
/// pristine machine, reference validation, costed report — and therefore
/// bit-identity with any other execution of the same spec. It always
/// runs under an [`effective_config`], which already holds the LUT's
/// subarray demand, so it keeps the default [`Workload::min_subarrays`].
/// Its inputs arrive fully formed from the caller, so it keeps the
/// no-op [`Workload::prepare`] too, which makes a query seed-independent.
struct QueryWorkload {
    lut: Arc<Lut>,
    inputs: Vec<u64>,
    /// Output words captured during `run_pluto` for the reply.
    out: Vec<u64>,
}

impl std::fmt::Debug for QueryWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryWorkload")
            .field("lut", &self.lut.name())
            .field("inputs", &self.inputs.len())
            .finish_non_exhaustive()
    }
}

impl Workload for QueryWorkload {
    fn id(&self) -> &'static str {
        "serve-query"
    }

    fn run_pluto(&mut self, session: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let out = session.machine_mut().apply(&self.lut, &self.inputs)?.values;
        let encoded = encode_words(&out);
        self.out = out;
        Ok(encoded)
    }

    fn run_reference(&self) -> Vec<u8> {
        // Only reached after run_pluto succeeded, so every input is in
        // range; an empty fallback would simply fail validation.
        encode_words(&self.lut.apply_all(&self.inputs).unwrap_or_default())
    }

    fn input_bytes(&self) -> f64 {
        self.inputs.len() as f64 * f64::from(self.lut.input_bits()) / 8.0
    }
}

/// Runs one query exactly as a worker would, but serially on a fresh
/// [`Session`] — the determinism oracle: for any worker count or arrival
/// order, the served [`QueryReply`] carries these same output words and
/// this same bit-exact [`CostReport`].
///
/// # Errors
/// Whatever the query itself fails with (construction, layout, index
/// range).
pub fn serial_oracle(spec: &QuerySpec) -> Result<(Vec<u64>, CostReport), PlutoError> {
    let mut session = Session::with_config(effective_config(spec.config.clone(), &spec.lut))?;
    let mut workload = QueryWorkload {
        lut: Arc::clone(&spec.lut),
        inputs: spec.inputs.clone(),
        out: Vec::new(),
    };
    let report = session.run(&mut workload)?;
    Ok((workload.out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::catalog;
    use crate::DesignKind;
    use std::thread;
    use std::time::{Duration, Instant};

    fn spec(inputs: Vec<u64>) -> QuerySpec {
        QuerySpec {
            config: ExecConfig::measurement(DesignKind::Gmc),
            lut: Arc::new(catalog::add(4).unwrap()),
            inputs,
        }
    }

    #[test]
    fn served_replies_match_the_serial_oracle() {
        let mut server = Server::with_workers(2);
        let specs: Vec<QuerySpec> = (0..6).map(|i| spec(vec![i, i + 16, i + 32])).collect();
        let tickets: Vec<Ticket> = specs.iter().map(|s| server.enqueue(s.clone())).collect();
        for (s, t) in specs.iter().zip(tickets) {
            let (values, report) = serial_oracle(s).unwrap();
            let reply = t.wait().unwrap();
            assert_eq!(reply.values, values);
            assert_eq!(reply.report, report);
            assert!(reply.report.validated);
        }
    }

    #[test]
    fn tickets_number_in_arrival_order_and_each_query_dispatches_on_arrival() {
        let mut server = Server::with_workers(1);
        let tickets: Vec<Ticket> = (0..10).map(|i| server.enqueue(spec(vec![i]))).collect();
        for (i, t) in tickets.iter().enumerate() {
            assert_eq!(t.seq(), i as u64);
        }
        // No flush: each of the 10 same-affinity queries is already its
        // own job on the class's home lane.
        let stats = server.stats();
        assert_eq!(stats.enqueued, 10);
        assert_eq!(stats.batches, 10);
        assert_eq!(stats.affinities, 1);
        server.drain();
        assert_eq!(server.outstanding(), 0);
        for t in tickets {
            assert!(t.try_wait().expect("drained").is_ok());
        }
    }

    #[test]
    fn a_failed_query_leaves_later_queries_untouched() {
        let mut server = Server::with_workers(1);
        let good = server.enqueue(spec(vec![3]));
        let bad = server.enqueue(spec(vec![1 << 40])); // exceeds 8-bit index
        let after = server.enqueue(spec(vec![5]));
        server.drain();
        assert!(good.wait().unwrap().report.validated);
        assert!(matches!(
            bad.wait().unwrap_err(),
            PlutoError::IndexOutOfRange { .. }
        ));
        assert!(after.wait().unwrap().report.validated);
    }

    #[test]
    fn drop_without_drain_resolves_every_ticket() {
        let mut server = Server::with_workers(2);
        let tickets: Vec<Ticket> = (0..5).map(|i| server.enqueue(spec(vec![i]))).collect();
        drop(server); // never drained explicitly
        for t in tickets {
            assert!(t.wait().unwrap().report.validated);
        }
    }

    #[test]
    fn a_query_queued_on_a_dead_pool_resolves_worker_lost() {
        let mut server = Server::with_workers(2);
        server.cluster.kill_workers();
        let ticket = server.enqueue(spec(vec![1]));
        let deadline = Instant::now() + Duration::from_secs(10);
        let outcome = loop {
            if let Some(outcome) = ticket.try_wait() {
                break outcome;
            }
            if Instant::now() > deadline {
                // The query waits in a lane no worker reads, so `drain`
                // and `Drop` would wait on it forever: fail instead.
                std::mem::forget(server);
                panic!("a query on a dead pool did not resolve within 10 s");
            }
            thread::sleep(Duration::from_millis(1));
        };
        assert!(
            matches!(outcome, Err(PlutoError::WorkerLost { .. })),
            "{outcome:?}"
        );
        assert_eq!(server.outstanding(), 0);
        server.drain();
    }

    /// Panics inside a workload.
    #[derive(Debug)]
    struct Bomb;

    impl Workload for Bomb {
        fn id(&self) -> &'static str {
            "bomb"
        }
        fn run_pluto(&mut self, _session: &mut Session) -> Result<Vec<u8>, PlutoError> {
            panic!("boom");
        }
        fn run_reference(&self) -> Vec<u8> {
            Vec::new()
        }
        fn input_bytes(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn a_panicking_job_leaves_the_worker_serving() {
        // One worker, so the panic happens between the two queries on the
        // pool that serves both, under the class's own configuration.
        let mut server = Server::with_workers(1);
        let specs = [spec(vec![3, 4]), spec(vec![5, 6])];
        let first = server.enqueue(specs[0].clone());
        let (tx, rx) = mpsc::channel();
        let config = effective_config(specs[0].config.clone(), &specs[0].lut);
        server.cluster.push(
            0,
            Box::new(move |pool: &mut Pool| {
                let _ = tx.send(run_pooled(pool, config, &mut Bomb));
            }),
        );
        let second = server.enqueue(specs[1].clone());
        let err = rx.recv().unwrap().unwrap_err();
        assert!(
            matches!(err, PlutoError::WorkerPanic { ref reason } if reason.contains("boom")),
            "{err}"
        );
        for (s, t) in specs.iter().zip([first, second]) {
            let (values, report) = serial_oracle(s).unwrap();
            let reply = t.wait().unwrap();
            assert_eq!(reply.values, values);
            assert_eq!(reply.report, report);
        }
        server.drain();
    }

    #[test]
    fn large_luts_are_served_through_the_partitioned_store() {
        // 4096-entry 12-bit LUT: 8 segments at 512 rows/subarray.
        let lut = Arc::new(Lut::from_fn("tone", 12, 8, |x| x >> 4).unwrap());
        assert_eq!(min_subarrays_for(&lut, 512), 20);
        let s = QuerySpec {
            config: ExecConfig::measurement(DesignKind::Gmc),
            lut,
            inputs: vec![0, 4095, 1234],
        };
        let mut server = Server::with_workers(1);
        let t = server.enqueue(s.clone());
        let reply = t.wait().unwrap();
        let (values, report) = serial_oracle(&s).unwrap();
        assert_eq!(reply.values, values);
        assert_eq!(reply.report, report);
        assert_eq!(reply.values, vec![0, 255, 77]);
    }

    #[test]
    fn same_name_different_tables_never_share_a_class() {
        // Two 8→8-bit tables both named `tone` share a name; each reply
        // must still come from its own table.
        let up = Arc::new(Lut::from_fn("tone", 8, 8, |x| x).unwrap());
        let down = Arc::new(Lut::from_fn("tone", 8, 8, |x| 255 - x).unwrap());
        let specs: Vec<QuerySpec> = [&up, &down, &up]
            .into_iter()
            .map(|lut| QuerySpec {
                config: ExecConfig::measurement(DesignKind::Gmc),
                lut: Arc::clone(lut),
                inputs: vec![1, 2, 3],
            })
            .collect();
        let mut server = Server::with_workers(1);
        let tickets: Vec<Ticket> = specs.iter().map(|s| server.enqueue(s.clone())).collect();
        for (s, t) in specs.iter().zip(tickets) {
            let reply = t.wait().unwrap();
            assert_eq!(reply.values, s.lut.apply_all(&s.inputs).unwrap());
            let (values, report) = serial_oracle(s).unwrap();
            assert_eq!(reply.values, values);
            assert_eq!(reply.report, report);
        }
        assert_eq!(server.stats().affinities, 2, "one name, two tables");
    }

    #[test]
    fn min_subarray_floor_matches_the_direct_workload_demands() {
        let small = Lut::from_fn("s", 8, 8, |x| x).unwrap();
        assert_eq!(min_subarrays_for(&small, 512), 16);
        // The §5.6 direct-LUT workloads pin 20 (Gamma12, 8 segments) and
        // 260 (MulDirect8, 128 segments); the serve formula reproduces
        // both.
        let mul8 = catalog::mul(8).unwrap();
        assert_eq!(min_subarrays_for(&mul8, 512), 260);
    }

    #[test]
    fn non_power_of_two_rows_size_the_machine_by_the_segment_rule() {
        // 500-row subarrays cut segments at 256 rows, so the 4096-entry
        // tone map needs 16 segments (33 subarrays), not ⌈4096 / 500⌉ = 9.
        let lut = Arc::new(Lut::from_fn("tone", 12, 8, |x| x >> 4).unwrap());
        assert_eq!(min_subarrays_for(&lut, 500), 36);
        let mut config = ExecConfig::measurement(DesignKind::Gmc);
        config.rows_per_subarray = 500;
        let inputs = vec![0, 255, 256, 1234, 4095];
        let s = QuerySpec {
            config,
            lut: Arc::clone(&lut),
            inputs: inputs.clone(),
        };
        let mut server = Server::with_workers(1);
        let t = server.enqueue(s.clone());
        let reply = t.wait().unwrap();
        assert_eq!(reply.values, lut.apply_all(&inputs).unwrap());
        let (values, report) = serial_oracle(&s).unwrap();
        assert_eq!(reply.values, values);
        assert_eq!(reply.report, report);
    }
}
