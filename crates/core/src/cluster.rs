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
//! across worker lanes, the streaming [`crate::serve::Server`] injects
//! each query onto its affinity class's home lane, and an idle worker
//! steals from the back of a busy lane — so a small latency-sensitive
//! serve query never waits behind another lane's large sweep. The same
//! worker pool executes both job flavors (the internal `Job` enum),
//! sharing one per-configuration machine pool.
//!
//! Three properties make the pool safe to put under every figure sweep:
//!
//! 1. **Bit-identity.** A worker runs each job through [`Session::run`]
//!    on a pristine machine (reset in place when the geometry matches —
//!    see [`crate::PlutoMachine::reset`]), so a job's [`CostReport`] does
//!    not depend on which worker ran it, what ran before it, or how many
//!    workers exist.
//! 2. **Deterministic ordering.** Results are reassembled by submission
//!    index, and sharded jobs reduce their shard reports in ascending
//!    shard order ([`CostReport::absorb`]), fixing the floating-point
//!    summation order.
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

use crate::deque::{Pop, StealDeques};
use crate::error::PlutoError;
use crate::session::{CostReport, ExecConfig, Session, Workload};
use sim_support::{SeedableRng, StdRng};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

/// One queued unit of work: a shard of a submitted job.
pub(crate) struct ShardJob {
    /// Submission index within the current batch.
    seq: usize,
    /// Shard index within the submission.
    shard: usize,
    config: ExecConfig,
    workload: Box<dyn Workload>,
}

/// What a worker can pull off a deque lane: a batch-mode shard (the
/// `submit`/`run` path) or a streaming serve query injected by
/// [`crate::serve::Server`]. Both run on the same per-worker machine
/// pool, so a serve query lands on sessions the batch path warmed and
/// vice versa.
pub(crate) enum Job {
    /// A shard of a submitted batch job; its result flows back through
    /// the cluster's result channel.
    Shard(ShardJob),
    /// One serve query; its result flows back through its own ticket's
    /// reply channel.
    Serve(crate::serve::ServeJob),
}

/// Book-keeping for one submitted job until all its shards report back.
#[derive(Debug)]
struct PendingJob {
    /// One slot per shard, filled as results arrive (any completion
    /// order), reduced in shard order.
    shards: Vec<Option<Result<CostReport, PlutoError>>>,
}

type ShardResult = (usize, usize, Result<CostReport, PlutoError>);

/// A pool of worker threads executing [`Session`] jobs in parallel with
/// serial-identical results. See the [module docs](self) for the
/// determinism contract.
///
/// Workers live as long as the cluster, and their per-[`ExecConfig`]
/// machine caches persist across [`Cluster::run`] batches, so a figure
/// binary can reuse one cluster for every sweep it prints — and the
/// streaming [`crate::serve::Server`] front-end reuses the same pool for
/// its query traffic.
#[derive(Debug)]
pub struct Cluster {
    deques: Arc<StealDeques<Job>>,
    results: mpsc::Receiver<ShardResult>,
    workers: Vec<JoinHandle<()>>,
    pending: Vec<PendingJob>,
    /// Round-robin cursor for dealing batch shards across lanes.
    next_lane: usize,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Job::Shard(s) => f
                .debug_struct("Job::Shard")
                .field("seq", &s.seq)
                .field("shard", &s.shard)
                .finish_non_exhaustive(),
            Job::Serve(_) => f.debug_struct("Job::Serve").finish_non_exhaustive(),
        }
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
        let (tx, rx) = mpsc::channel();
        let handles = (0..workers)
            .map(|i| {
                let deques = Arc::clone(&deques);
                let tx = tx.clone();
                thread::Builder::new()
                    .name(format!("pluto-cluster-{i}"))
                    .spawn(move || worker_main(&deques, i, &tx))
                    .expect("spawning cluster worker")
            })
            .collect();
        Cluster {
            deques,
            results: rx,
            workers: handles,
            pending: Vec::new(),
            next_lane: 0,
        }
    }

    /// Spawns one worker per available CPU (what the figure binaries use
    /// unless `--workers N` / `PLUTO_WORKERS` overrides it).
    pub fn with_default_workers() -> Self {
        Cluster::new(default_workers())
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
        let shards = if shard {
            let mut rng = StdRng::seed_from_u64(config.seed);
            workload.prepare(&mut rng);
            workload.shards()
        } else {
            Vec::new()
        };
        let jobs: Vec<ShardJob> = if shards.len() >= 2 {
            shards
                .into_iter()
                .enumerate()
                .map(|(i, w)| ShardJob {
                    seq,
                    shard: i,
                    config: config.clone(),
                    workload: w,
                })
                .collect()
        } else {
            vec![ShardJob {
                seq,
                shard: 0,
                config,
                workload,
            }]
        };
        self.pending.push(PendingJob {
            shards: (0..jobs.len()).map(|_| None).collect(),
        });
        // Deal shards round-robin across worker lanes; idle workers
        // steal across lanes, so the exact dealing only seeds locality.
        for job in jobs {
            let lane = self.next_lane;
            self.next_lane = (self.next_lane + 1) % self.deques.lanes();
            self.deques.push(lane, Job::Shard(job));
        }
        seq
    }

    /// Pushes a serve query onto worker `lane`'s deque (used by
    /// [`crate::serve::Server`], which owns the lane-affinity mapping).
    pub(crate) fn inject_serve(&self, lane: usize, job: crate::serve::ServeJob) {
        self.deques.push(lane, Job::Serve(job));
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
    /// usable. If the worker pool itself dies with shards outstanding
    /// (every worker thread exited), the missing shards are reported as
    /// [`PlutoError::WorkerLost`] instead of hanging the caller.
    pub fn run(&mut self) -> Result<Vec<CostReport>, PlutoError> {
        let mut pending = std::mem::take(&mut self.pending);
        let mut outstanding: usize = pending.iter().map(|p| p.shards.len()).sum();
        while outstanding > 0 {
            match self.results.recv() {
                Ok((seq, shard, outcome)) => {
                    pending[seq].shards[shard] = Some(outcome);
                    outstanding -= 1;
                }
                Err(_) => {
                    // Every worker's sender is gone: the pool died with
                    // shards outstanding. Fill the holes so the batch
                    // degrades to an error instead of blocking forever.
                    let reason = format!(
                        "cluster result channel closed with {outstanding} shard(s) outstanding"
                    );
                    for job in &mut pending {
                        for slot in &mut job.shards {
                            if slot.is_none() {
                                *slot = Some(Err(PlutoError::WorkerLost {
                                    reason: reason.clone(),
                                }));
                            }
                        }
                    }
                    break;
                }
            }
        }
        let mut reports = Vec::with_capacity(pending.len());
        for job in pending {
            let mut shards = job.shards.into_iter().map(|s| s.expect("shard accounted"));
            let mut reduced = shards.next().expect("jobs have at least one shard")?;
            for shard in shards {
                reduced.absorb(&shard?);
            }
            reports.push(reduced);
        }
        Ok(reports)
    }

    /// Test hook: shut the worker pool down (discarding queued jobs) so
    /// the degraded-pool paths can be exercised deterministically.
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

fn worker_main(deques: &StealDeques<Job>, lane: usize, results: &mpsc::Sender<ShardResult>) {
    // The keyed machine pool: one live Session (machine + config) per
    // distinct ExecConfig this worker has executed. Sessions reset their
    // machine in place between runs, so repeat configurations never pay
    // machine construction again. Batch shards and serve queries share
    // the pool.
    let mut pool: HashMap<ExecConfig, Session> = HashMap::new();
    loop {
        let job = match deques.pop(lane) {
            Pop::Item { item, .. } => item,
            Pop::Closed => return,
        };
        match job {
            Job::Shard(job) => {
                // Contain workload panics: report the job failed and keep
                // the worker alive, so `Cluster::run` surfaces an error
                // instead of deadlocking on a shard that never reports.
                let (seq, shard) = (job.seq, job.shard);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_shard(&mut pool, job.config, job.workload)
                }))
                .unwrap_or_else(|payload| {
                    // A panic may have left the pooled sessions
                    // mid-mutation; drop them (the next job rebuilds its
                    // machine).
                    pool.clear();
                    Err(PlutoError::WorkerPanic {
                        reason: panic_message(payload.as_ref()),
                    })
                });
                if results.send((seq, shard, outcome)).is_err() {
                    return; // cluster handle dropped
                }
            }
            // Replies on the query's own ticket and contains its panic.
            Job::Serve(job) => crate::serve::execute(&mut pool, job),
        }
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn run_shard(
    pool: &mut HashMap<ExecConfig, Session>,
    config: ExecConfig,
    mut workload: Box<dyn Workload>,
) -> Result<CostReport, PlutoError> {
    // Pool by the *effective* configuration — the subarray floor raised
    // to the workload's demand, exactly what `Session::run` sizes its
    // machine to. Keying on the raw config would make the session
    // rebuild its machine whenever consecutive jobs' `min_subarrays`
    // differ; keying on the effective one lets every repeat geometry
    // take the reset path. Reports are unaffected: the session's run
    // applies the same widening either way.
    let mut effective = config;
    effective.subarrays_per_bank = effective.subarrays_per_bank.max(workload.min_subarrays());
    run_pooled(pool, &effective, workload.as_mut())
}

/// Runs `workload` on the worker's pooled [`Session`] for `config`
/// (built on first use) — the one pool lookup batch shards and serve
/// queries share. `config` must already be effective, so repeat
/// geometries take [`Session::run`]'s cheap reset path.
pub(crate) fn run_pooled(
    pool: &mut HashMap<ExecConfig, Session>,
    config: &ExecConfig,
    workload: &mut dyn Workload,
) -> Result<CostReport, PlutoError> {
    let session = match pool.entry(config.clone()) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(v) => v.insert(Session::with_config(config.clone())?),
    };
    let report = session.run(workload)?;
    // Keep pooled sessions lean: the caller, not the session, owns
    // result aggregation (and `clear_reports` keeps the allocation).
    session.clear_reports();
    Ok(report)
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
        fn prepare(&mut self, _rng: &mut StdRng) {}
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
