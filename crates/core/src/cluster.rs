//! Sharded parallel execution: a deterministic multi-worker [`Cluster`]
//! over the [`Session`] API (`DESIGN.md` §6).
//!
//! The paper's headline claim is *massively parallel* computation —
//! thousands of subarrays querying LUTs at once — and follow-on LUT-PIM
//! work (PULSAR's simultaneous many-row activation, "Towards Efficient
//! LUT-based PIM") stresses that scalability lives or dies on exploiting
//! independent parallel units. The harness mirrors that at the host
//! level: independent `(ExecConfig, Workload)` measurement jobs fan out
//! across a pool of OS worker threads, each worker owning a keyed cache
//! of per-configuration machines, while results come back in
//! **deterministic submission order** — bit-identical to running the same
//! jobs serially through a [`Session`].
//!
//! Scheduling runs on per-worker work-stealing deques
//! (the crate-internal `deque::StealDeques`): batch shards are dealt round-robin
//! across worker lanes, the streaming [`crate::serve::Server`] pushes
//! each query onto its affinity class's home lane, and an idle worker
//! steals from the back of a busy lane — so a small latency-sensitive
//! serve query never waits behind another lane's large sweep. The pool
//! has one unit of work, the crate-internal `Job`: a closure that runs
//! on the popping worker's machine pool and sends its own result on its
//! own channel. A batch shard and a serve query are both such closures,
//! and `run_pooled` is the one place a workload panic is caught.
//!
//! Three properties make the pool safe to put under every figure sweep:
//!
//! 1. **Bit-identity.** A worker runs each job through [`Session::run`]
//!    on a pristine machine (reset in place when the geometry matches —
//!    see [`crate::PlutoMachine::reset`]), so a job's [`CostReport`] does
//!    not depend on which worker ran it, what ran before it, or how many
//!    workers exist.
//! 2. **Deterministic ordering.** Each shard replies on its own channel,
//!    [`Cluster::run`] receives them in submission order, and sharded
//!    jobs reduce their shard reports in ascending shard order
//!    ([`CostReport::absorb`]), fixing the floating-point summation
//!    order.
//! 3. **Machine pooling.** Workers keep one [`Session`] (and therefore
//!    one machine) per distinct *effective* configuration — the
//!    submitted [`ExecConfig`] with its subarray floor raised to the
//!    workload's [`Workload::min_subarrays`], exactly the geometry
//!    [`Session::run`] sizes its machine to — so repeat jobs on a pooled
//!    geometry skip machine construction and controller-layout
//!    validation entirely.
//!
//! ```
//! use pluto_core::cluster::Cluster;
//! use pluto_core::session::ExecConfig;
//! use pluto_core::DesignKind;
//! # use pluto_core::session::{Session, Workload};
//! # use pluto_core::lut::Lut;
//! # use sim_support::StdRng;
//! # #[derive(Debug, Default)]
//! # struct Square { inputs: Vec<u64> }
//! # impl Workload for Square {
//! #     fn id(&self) -> &'static str { "square" }
//! #     fn prepare(&mut self, _rng: &mut StdRng) { self.inputs = (0..50).collect(); }
//! #     fn run_pluto(&mut self, s: &mut Session) -> Result<Vec<u8>, pluto_core::PlutoError> {
//! #         let lut = Lut::from_fn("sq", 8, 16, |x| x * x)?;
//! #         let out = s.machine_mut().apply(&lut, &self.inputs)?.values;
//! #         Ok(pluto_core::session::encode_words(&out))
//! #     }
//! #     fn run_reference(&self) -> Vec<u8> {
//! #         let e: Vec<u64> = self.inputs.iter().map(|&x| x * x).collect();
//! #         pluto_core::session::encode_words(&e)
//! #     }
//! #     fn input_bytes(&self) -> f64 { self.inputs.len() as f64 }
//! # }
//! # fn main() -> Result<(), pluto_core::PlutoError> {
//! let mut cluster = Cluster::new(4);
//! for design in [DesignKind::Bsa, DesignKind::Gmc] {
//!     cluster.submit(ExecConfig::measurement(design), Box::new(Square::default()));
//! }
//! let reports = cluster.run()?; // submission order, bit-identical to serial
//! assert!(reports.iter().all(|r| r.validated));
//! # Ok(())
//! # }
//! ```

use crate::deque::StealDeques;
use crate::error::PlutoError;
use crate::session::{CostReport, ExecConfig, Session, Workload};
use sim_support::{SeedableRng, StdRng};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

/// A worker's keyed machine pool: one live [`Session`] (machine +
/// config) per distinct effective [`ExecConfig`] the worker has run.
pub(crate) type Pool = HashMap<ExecConfig, Session>;

/// The pool's one unit of work: a closure the popping worker runs on its
/// own [`Pool`], which sends its result on a channel it owns. A batch
/// shard replies to [`Cluster::run`], a serve query to its ticket. A job
/// dropped unrun (the pool shut down) drops that sender, so its receiver
/// sees a disconnect rather than waiting forever.
pub(crate) type Job = Box<dyn FnOnce(&mut Pool) + Send>;

/// The reply channel of one batch shard.
type ShardReply = mpsc::Receiver<Result<CostReport, PlutoError>>;

/// A pool of worker threads executing [`Session`] jobs in parallel with
/// serial-identical results. See the [module docs](self) for the
/// determinism contract.
///
/// Workers live as long as the cluster, and their per-[`ExecConfig`]
/// machine caches persist across [`Cluster::run`] batches, so a figure
/// binary can reuse one cluster for every sweep it prints — and the
/// streaming [`crate::serve::Server`] front-end reuses the same pool for
/// its query traffic.
pub struct Cluster {
    deques: Arc<StealDeques<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// One reply receiver per shard, per submission since the last run.
    pending: Vec<Vec<ShardReply>>,
    /// Round-robin cursor for dealing batch shards across lanes.
    next_lane: usize,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("workers", &self.workers.len())
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Spawns a cluster of `workers` threads (clamped to at least one).
    ///
    /// Worker count affects wall-clock time only, never results: reports
    /// are bit-identical for any worker count, including one.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let deques: Arc<StealDeques<Job>> = Arc::new(StealDeques::new(workers));
        let handles = (0..workers)
            .map(|i| {
                let deques = Arc::clone(&deques);
                thread::Builder::new()
                    .name(format!("pluto-cluster-{i}"))
                    .spawn(move || worker_main(&deques, i))
                    .expect("spawning cluster worker")
            })
            .collect();
        Cluster {
            deques,
            workers: handles,
            pending: Vec::new(),
            next_lane: 0,
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs submitted since the last [`Cluster::run`].
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Cross-lane steals performed by the pool since construction — a
    /// worker that found its own lane empty and took the *back* item of
    /// another lane. Scheduling telemetry only; results are identical
    /// whether or not any steal happened.
    pub fn steals(&self) -> u64 {
        self.deques.steal_count()
    }

    /// Queues one workload to run whole (a single shard) under `config`.
    /// Returns the job's submission index — [`Cluster::run`] reports in
    /// exactly this order.
    ///
    /// Workers may start the job immediately; `run` collects the result.
    pub fn submit(&mut self, config: ExecConfig, workload: Box<dyn Workload>) -> usize {
        self.enqueue(config, workload, false)
    }

    /// Queues one workload with shard fan-out: the workload is first
    /// prepared (with the configuration's seeded RNG, exactly as a
    /// serial [`Session::run`] would before executing it), then split
    /// via [`Workload::shards`]. If that yields two or more shards, each
    /// runs as its own queue entry (on its own machine, any worker) and
    /// the shard reports are reduced — in shard order, via
    /// [`CostReport::absorb`] — into the single report this submission
    /// index receives. Unshardable workloads run whole, exactly as
    /// [`Cluster::submit`].
    ///
    /// Preparing before sharding guarantees the shards cover the same
    /// inputs a serial run of the workload would measure, even for
    /// scenarios that (re)generate their data in `prepare` rather than
    /// in their constructor.
    pub fn submit_sharded(&mut self, config: ExecConfig, workload: Box<dyn Workload>) -> usize {
        self.enqueue(config, workload, true)
    }

    fn enqueue(
        &mut self,
        config: ExecConfig,
        mut workload: Box<dyn Workload>,
        shard: bool,
    ) -> usize {
        let seq = self.pending.len();
        let mut shards = if shard {
            let mut rng = StdRng::seed_from_u64(config.seed);
            workload.prepare(&mut rng);
            workload.shards()
        } else {
            Vec::new()
        };
        if shards.len() < 2 {
            shards = vec![workload];
        }
        // Deal shards round-robin across worker lanes; idle workers
        // steal across lanes, so the exact dealing only seeds locality.
        let mut replies = Vec::with_capacity(shards.len());
        for mut workload in shards {
            let (tx, rx) = mpsc::channel();
            let config = config.clone();
            replies.push(rx);
            let lane = self.next_lane;
            self.next_lane = (self.next_lane + 1) % self.deques.lanes();
            self.push(
                lane,
                Box::new(move |pool: &mut Pool| {
                    // The receiver is gone only if the cluster was
                    // dropped before `run` collected this batch.
                    let _ = tx.send(run_pooled(pool, config, workload.as_mut()));
                }),
            );
        }
        self.pending.push(replies);
        seq
    }

    /// Pushes `job` onto worker `lane`'s deque: the serve path's entry
    /// ([`crate::serve::Server`] owns the lane-affinity mapping) and the
    /// batch path's. After the pool has shut down the job is dropped
    /// unrun, which disconnects its reply channel.
    pub(crate) fn push(&mut self, lane: usize, job: Job) {
        self.deques.push(lane, job);
    }

    /// Submits every workload of a batch under one configuration and
    /// runs the batch — the parallel counterpart of [`Session::run_all`].
    ///
    /// # Errors
    /// As [`Cluster::run`].
    pub fn run_all(
        &mut self,
        config: &ExecConfig,
        workloads: Vec<Box<dyn Workload>>,
    ) -> Result<Vec<CostReport>, PlutoError> {
        for w in workloads {
            self.submit(config.clone(), w);
        }
        self.run()
    }

    /// Waits for every job submitted since the last `run` and returns
    /// their reports **in submission order**, each bit-identical to the
    /// serial [`Session`] execution of the same job.
    ///
    /// # Errors
    /// If any job failed, returns the error of the lowest submission
    /// index (lowest shard index within it) — the same error a serial
    /// stop-at-first-failure loop over the jobs would surface. All other
    /// jobs of the batch still ran to completion. A workload that
    /// *panics* on a worker is caught and reported as
    /// [`PlutoError::WorkerPanic`]; the worker (and the cluster) stay
    /// usable. A shard whose job was dropped before it ran (the pool had
    /// shut down) is reported as [`PlutoError::WorkerLost`] instead of
    /// hanging the caller.
    pub fn run(&mut self) -> Result<Vec<CostReport>, PlutoError> {
        let pending = std::mem::take(&mut self.pending);
        let mut outstanding: usize = pending.iter().map(Vec::len).sum();
        // Receive every shard before reducing any, so no job of this
        // batch is still running when `run` returns, even on an error. A
        // shard whose job was dropped unrun (the pool shut down) has a
        // disconnected channel: it degrades to an error, not a hang.
        let mut outcomes = Vec::with_capacity(pending.len());
        for replies in pending {
            let mut shards = Vec::with_capacity(replies.len());
            for reply in replies {
                shards.push(reply.recv().unwrap_or_else(|_| {
                    Err(PlutoError::WorkerLost {
                        reason: format!(
                            "a shard job was dropped unrun with {outstanding} shard(s) outstanding"
                        ),
                    })
                }));
                outstanding -= 1;
            }
            outcomes.push(shards);
        }
        let mut reports = Vec::with_capacity(outcomes.len());
        for shards in outcomes {
            let mut shards = shards.into_iter();
            let mut reduced = shards.next().expect("jobs have at least one shard")?;
            for shard in shards {
                reduced.absorb(&shard?);
            }
            reports.push(reduced);
        }
        Ok(reports)
    }

    /// Test hook: shut the worker pool down (dropping queued jobs, and
    /// every job pushed later) so the degraded-pool paths can be
    /// exercised deterministically.
    #[cfg(test)]
    pub(crate) fn kill_workers(&mut self) {
        self.deques.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.deques.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Worker-count default: one per available CPU.
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn worker_main(deques: &StealDeques<Job>, lane: usize) {
    // Sessions reset their machine in place between runs, so repeat
    // configurations never pay machine construction again. Batch shards
    // and serve queries share the pool.
    let mut pool = Pool::new();
    while let Some(job) = deques.pop(lane) {
        job(&mut pool);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs `workload` under `config` on the worker's pooled [`Session`]
/// (built on first use) — the one pool lookup batch shards and serve
/// queries share.
///
/// The pool is keyed by the *effective* configuration — the subarray
/// floor raised to the workload's demand, exactly what `Session::run`
/// sizes its machine to. Keying on the raw config would make the session
/// rebuild its machine whenever consecutive jobs' `min_subarrays`
/// differ; keying on the effective one lets every repeat geometry take
/// the reset path. Reports are unaffected: the session's run applies the
/// same widening either way.
///
/// This is the pool's one panic boundary, and every call into workload
/// code sits inside it: a workload that panics is reported as
/// [`PlutoError::WorkerPanic`] and the worker keeps serving, so no job's
/// reply is lost to an unwinding worker.
pub(crate) fn run_pooled(
    pool: &mut Pool,
    mut config: ExecConfig,
    workload: &mut dyn Workload,
) -> Result<CostReport, PlutoError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        config.subarrays_per_bank = config.subarrays_per_bank.max(workload.min_subarrays());
        let session = match pool.entry(config) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let session = Session::with_config(v.key().clone())?;
                v.insert(session)
            }
        };
        let report = session.run(workload)?;
        // Keep pooled sessions lean: the caller, not the session, owns
        // result aggregation (and `clear_reports` keeps the allocation).
        session.clear_reports();
        Ok(report)
    }))
    .unwrap_or_else(|payload| {
        // A panic may have left the pooled sessions mid-mutation; drop
        // them (the next job rebuilds its machine).
        pool.clear();
        Err(PlutoError::WorkerPanic {
            reason: panic_message(payload.as_ref()),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut;
    use crate::session::encode_words;
    use crate::DesignKind;
    use sim_support::StdRng;

    /// Square via an 8-bit LUT; shardable into fixed 20-element chunks.
    #[derive(Debug)]
    struct Square {
        inputs: Vec<u64>,
        pinned: bool,
        fail: bool,
    }

    impl Square {
        fn new(n: u64) -> Self {
            Square {
                inputs: (0..n).map(|i| i % 256).collect(),
                pinned: false,
                fail: false,
            }
        }
    }

    impl Workload for Square {
        fn id(&self) -> &'static str {
            "square"
        }
        fn prepare(&mut self, _rng: &mut StdRng) {
            if !self.pinned {
                let n = self.inputs.len() as u64;
                self.inputs = (0..n).map(|i| i % 256).collect();
            }
        }
        fn run_pluto(&mut self, session: &mut Session) -> Result<Vec<u8>, PlutoError> {
            if self.fail {
                return Err(PlutoError::InvalidProgram {
                    reason: "injected".into(),
                });
            }
            let lut = Lut::from_fn("sq", 8, 16, |x| x * x)?;
            let out = session.machine_mut().apply(&lut, &self.inputs)?.values;
            Ok(encode_words(&out))
        }
        fn run_reference(&self) -> Vec<u8> {
            encode_words(&self.inputs.iter().map(|&x| x * x).collect::<Vec<_>>())
        }
        fn input_bytes(&self) -> f64 {
            self.inputs.len() as f64
        }
        fn shards(&self) -> Vec<Box<dyn Workload>> {
            self.inputs
                .chunks(20)
                .map(|c| {
                    Box::new(Square {
                        inputs: c.to_vec(),
                        pinned: true,
                        fail: self.fail,
                    }) as Box<dyn Workload>
                })
                .collect()
        }
    }

    fn serial_report(design: DesignKind, n: u64) -> CostReport {
        let mut session = Session::builder(design).build().unwrap();
        session.run(&mut Square::new(n)).unwrap()
    }

    #[test]
    fn parallel_reports_match_serial_in_submission_order() {
        let mut cluster = Cluster::new(3);
        let jobs: Vec<(DesignKind, u64)> = vec![
            (DesignKind::Gmc, 50),
            (DesignKind::Bsa, 30),
            (DesignKind::Gsa, 10),
            (DesignKind::Gmc, 30),
            (DesignKind::Bsa, 50),
            (DesignKind::Gmc, 50),
        ];
        for &(design, n) in &jobs {
            cluster.submit(ExecConfig::measurement(design), Box::new(Square::new(n)));
        }
        let reports = cluster.run().unwrap();
        assert_eq!(reports.len(), jobs.len());
        for (report, &(design, n)) in reports.iter().zip(&jobs) {
            assert_eq!(*report, serial_report(design, n), "{design} n={n}");
        }
    }

    #[test]
    fn results_are_worker_count_invariant() {
        let collect = |workers| {
            let mut cluster = Cluster::new(workers);
            for n in [5u64, 60, 33, 128] {
                cluster.submit(
                    ExecConfig::measurement(DesignKind::Gmc),
                    Box::new(Square::new(n)),
                );
            }
            cluster.run().unwrap()
        };
        assert_eq!(collect(1), collect(4));
    }

    #[test]
    fn sharded_submission_reduces_to_the_serial_shard_fold() {
        // 50 inputs -> three 20/20/10 shards.
        let config = ExecConfig::measurement(DesignKind::Bsa);
        let mut cluster = Cluster::new(4);
        cluster.submit_sharded(config.clone(), Box::new(Square::new(50)));
        let reduced = cluster.run().unwrap().remove(0);

        // Serial fold of the same shards through plain Sessions.
        let mut expect: Option<CostReport> = None;
        for mut shard in Square::new(50).shards() {
            let mut session = Session::with_config(config.clone()).unwrap();
            let r = session.run(shard.as_mut()).unwrap();
            match expect.as_mut() {
                None => expect = Some(r),
                Some(acc) => acc.absorb(&r),
            }
        }
        assert_eq!(reduced, expect.unwrap());
        assert!(reduced.validated);
        assert!(
            (reduced.paper_bytes - serial_report(DesignKind::Bsa, 50).paper_bytes).abs() < 1e-9
        );
    }

    #[test]
    fn unshardable_submissions_run_whole() {
        // 15 inputs -> a single 15-element shard; submit_sharded must
        // behave exactly like submit.
        let config = ExecConfig::measurement(DesignKind::Gmc);
        let mut cluster = Cluster::new(2);
        cluster.submit_sharded(config.clone(), Box::new(Square::new(15)));
        cluster.submit(config, Box::new(Square::new(15)));
        let reports = cluster.run().unwrap();
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn batches_reuse_pooled_machines() {
        let mut cluster = Cluster::new(2);
        let config = ExecConfig::measurement(DesignKind::Gmc);
        cluster.submit(config.clone(), Box::new(Square::new(40)));
        let first = cluster.run().unwrap().remove(0);
        // Second batch on the same config hits the worker's machine pool.
        cluster.submit(config, Box::new(Square::new(40)));
        let second = cluster.run().unwrap().remove(0);
        assert_eq!(first, second, "pooled machine perturbed the report");
    }

    #[test]
    fn lowest_submission_error_wins() {
        let mut cluster = Cluster::new(2);
        let config = ExecConfig::measurement(DesignKind::Gmc);
        cluster.submit(config.clone(), Box::new(Square::new(10)));
        let mut bad = Square::new(10);
        bad.fail = true;
        cluster.submit(config.clone(), Box::new(bad));
        cluster.submit(config, Box::new(Square::new(10)));
        let err = cluster.run().unwrap_err();
        assert!(matches!(err, PlutoError::InvalidProgram { .. }));
        // The cluster stays usable after a failed batch.
        cluster.submit(
            ExecConfig::measurement(DesignKind::Gmc),
            Box::new(Square::new(10)),
        );
        assert_eq!(cluster.run().unwrap().len(), 1);
    }

    #[test]
    fn run_all_mirrors_session_run_all() {
        let config = ExecConfig::measurement(DesignKind::Bsa);
        let workloads: Vec<Box<dyn Workload>> = (1..=4)
            .map(|i| Box::new(Square::new(i * 16)) as Box<dyn Workload>)
            .collect();
        let mut cluster = Cluster::new(2);
        let parallel = cluster.run_all(&config, workloads).unwrap();

        let mut serial_workloads: Vec<Box<dyn Workload>> = (1..=4)
            .map(|i| Box::new(Square::new(i * 16)) as Box<dyn Workload>)
            .collect();
        let mut session = Session::with_config(config).unwrap();
        let serial = session.run_all(&mut serial_workloads).unwrap();
        assert_eq!(parallel, serial);
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
    fn workload_panics_become_errors_not_deadlocks() {
        let mut cluster = Cluster::new(3);
        let config = ExecConfig::measurement(DesignKind::Gmc);
        cluster.submit(config.clone(), Box::new(Bomb));
        cluster.submit(config.clone(), Box::new(Square::new(10)));
        let err = cluster.run().unwrap_err();
        assert!(
            matches!(err, PlutoError::WorkerPanic { ref reason } if reason.contains("boom")),
            "{err}"
        );
        // The worker that caught the panic keeps serving jobs, and its
        // rebuilt machine still produces serial-identical reports.
        cluster.submit(config, Box::new(Square::new(10)));
        let report = cluster.run().unwrap().remove(0);
        assert_eq!(report, serial_report(DesignKind::Gmc, 10));
    }

    #[test]
    fn dead_pool_degrades_to_worker_lost_not_a_hang() {
        let mut cluster = Cluster::new(2);
        cluster.kill_workers();
        let config = ExecConfig::measurement(DesignKind::Gmc);
        cluster.submit(config.clone(), Box::new(Square::new(10)));
        cluster.submit(config, Box::new(Square::new(20)));
        let err = cluster.run().unwrap_err();
        assert!(
            matches!(err, PlutoError::WorkerLost { ref reason } if reason.contains("outstanding")),
            "{err}"
        );
    }

    #[test]
    fn batch_shards_record_steals_under_skewed_lanes() {
        // One worker pool property the serve path depends on: an idle
        // lane helps a loaded one. With 2 workers and many single-shard
        // jobs dealt round-robin, forcing all work through `run` should
        // complete regardless of which lane executed what.
        let mut cluster = Cluster::new(2);
        let config = ExecConfig::measurement(DesignKind::Gmc);
        for _ in 0..6 {
            cluster.submit(config.clone(), Box::new(Square::new(30)));
        }
        let reports = cluster.run().unwrap();
        assert_eq!(reports.len(), 6);
        assert!(reports.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn worker_count_clamps_to_one() {
        let cluster = Cluster::new(0);
        assert_eq!(cluster.workers(), 1);
        assert!(default_workers() >= 1);
    }
}
