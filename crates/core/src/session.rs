//! The unified execution API: configurable sessions over pluggable
//! workloads (`DESIGN.md` §5).
//!
//! The paper's §6.2 Library frames execution as `api_pluto_*` calls over a
//! device facade; follow-on LUT-PIM systems generalize that to
//! *configurable sessions over pluggable operations*. This module is that
//! shape for the reproduction:
//!
//! * [`ExecConfig`] / [`SessionBuilder`] — every knob that used to hide in
//!   scattered `DramConfig` literals or (worse) a `thread_local!` memory
//!   kind is an explicit value: design, memory kind, geometry, row width,
//!   data seed, timing backend. The config is `Eq + Hash`, so pools key
//!   on it directly.
//! * [`Session`] — owns a [`PlutoMachine`], runs [`Workload`]s one at a
//!   time or batched ([`Session::run_all`]), and accumulates one
//!   [`CostReport`] per run. A `Session` is an ownable unit of work — the
//!   prerequisite for sharded/async execution that a thread-local never
//!   was.
//! * [`Workload`] — the pluggable-scenario trait. Every paper workload in
//!   `pluto-workloads` implements it (see that crate's `registry()`), and
//!   downstream code can plug in new scenarios without touching any
//!   dispatch table.
//!
//! ```
//! use pluto_core::session::{Session, Workload};
//! use pluto_core::{DesignKind, PlutoError};
//! use pluto_core::lut::Lut;
//! use sim_support::StdRng;
//!
//! /// A user-defined scenario: square 100 bytes via an 8-bit LUT.
//! #[derive(Debug, Default)]
//! struct Square {
//!     inputs: Vec<u64>,
//!     outputs: Vec<u64>,
//! }
//!
//! impl Workload for Square {
//!     fn id(&self) -> &'static str {
//!         "square"
//!     }
//!     fn prepare(&mut self, _rng: &mut StdRng) {
//!         self.inputs = (0..100).collect();
//!     }
//!     fn run_pluto(&mut self, session: &mut Session) -> Result<Vec<u8>, PlutoError> {
//!         let lut = Lut::from_fn("square", 8, 16, |x| x * x)?;
//!         self.outputs = session.machine_mut().apply(&lut, &self.inputs)?.values;
//!         Ok(pluto_core::session::encode_words(&self.outputs))
//!     }
//!     fn run_reference(&self) -> Vec<u8> {
//!         let expect: Vec<u64> = self.inputs.iter().map(|&x| x * x).collect();
//!         pluto_core::session::encode_words(&expect)
//!     }
//!     fn input_bytes(&self) -> f64 {
//!         self.inputs.len() as f64
//!     }
//! }
//!
//! # fn main() -> Result<(), PlutoError> {
//! let mut session = Session::builder(DesignKind::Gmc).build()?;
//! let report = session.run(&mut Square::default())?;
//! assert!(report.validated);
//! # Ok(())
//! # }
//! ```

use crate::design::DesignKind;
use crate::error::PlutoError;
use crate::library::PlutoMachine;
use pluto_dram::{DramConfig, MemoryKind, PicoJoules, Picos, TimingBackend, TimingParams};
use sim_support::{SeedableRng, StdRng};

/// Row size used for fast functional measurement runs: command timing is
/// independent of row *width* (a sweep step costs tRCD(+tRP) whether the
/// row is 256 B or 8 KiB), so sessions default to narrow rows for speed
/// and scale reported byte volumes by [`ExecConfig::row_ratio`].
pub const MEASURE_ROW_BYTES: usize = 256;

/// Row size of the paper's DDR4 configuration (Table 3).
pub const PAPER_ROW_BYTES: usize = 8192;

/// Row size of the paper's 3D-stacked (HMC) configuration (§7).
pub const PAPER_3DS_ROW_BYTES: usize = 256;

/// Default subarray-level parallelism per memory kind (Table 3: 16
/// subarrays for DDR4, 512 for 3D-stacked).
pub const fn default_salp(kind: MemoryKind) -> usize {
    match kind {
        MemoryKind::Ddr4 => 16,
        MemoryKind::Stacked3d => 512,
    }
}

/// Fully explicit execution configuration of a [`Session`].
///
/// Every field that used to be implicit — the memory kind smuggled
/// through a thread-local, the geometry repeated as `DramConfig` literals
/// at every call site — is a named value here. Every field shapes a run
/// (the machine, or the seed its workload prepares from), so the config
/// is its own pool key: the cluster's per-worker sessions and the serve
/// coalescer's affinity classes hash it directly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExecConfig {
    /// The hardware design (BSA / GSA / GMC).
    pub design: DesignKind,
    /// DDR4 or 3D-stacked memory (selects timing and energy models).
    pub kind: MemoryKind,
    /// Row (and row buffer) size in bytes.
    pub row_bytes: usize,
    /// Column burst size in bytes.
    pub burst_bytes: usize,
    /// Number of independently addressable banks.
    pub banks: u16,
    /// Subarrays per bank. A [`Workload`] may demand more via
    /// [`Workload::min_subarrays`]; each run uses the maximum of the two.
    pub subarrays_per_bank: u16,
    /// Rows per subarray.
    pub rows_per_subarray: u16,
    /// Seed of the RNG handed to [`Workload::prepare`].
    pub seed: u64,
    /// Timing backend charging the engine's command costs (`DESIGN.md`
    /// §11): the paper's analytic model, or the event-driven banked
    /// model that also charges row-buffer conflicts and command-queue
    /// contention. On serial single-bank streams the two agree
    /// bit-for-bit.
    pub timing_backend: TimingBackend,
}

impl ExecConfig {
    /// The default measurement configuration: narrow 256 B rows on one
    /// bank of DDR4 (fast functional runs, paper-equivalent reporting).
    pub fn measurement(design: DesignKind) -> Self {
        ExecConfig {
            design,
            kind: MemoryKind::Ddr4,
            row_bytes: MEASURE_ROW_BYTES,
            burst_bytes: 32,
            banks: 1,
            subarrays_per_bank: 16,
            rows_per_subarray: 512,
            seed: 0,
            timing_backend: TimingBackend::Analytic,
        }
    }

    /// The default measurement configuration on an explicit memory kind:
    /// [`ExecConfig::measurement`] with the kind's timing/energy models.
    /// This is the configuration `Session::builder(design).memory(kind)`
    /// builds — use it for cluster submissions that must match a
    /// builder-made session bit-for-bit.
    pub fn measurement_on(design: DesignKind, kind: MemoryKind) -> Self {
        ExecConfig {
            kind,
            ..ExecConfig::measurement(design)
        }
    }

    /// The DRAM geometry this configuration describes.
    pub fn dram_config(&self) -> DramConfig {
        DramConfig {
            kind: self.kind,
            banks: self.banks,
            subarrays_per_bank: self.subarrays_per_bank,
            rows_per_subarray: self.rows_per_subarray,
            row_bytes: self.row_bytes,
            burst_bytes: self.burst_bytes,
        }
    }

    /// Scaling factor from measurement rows to paper rows: the paper's
    /// DDR4 rows are 8 KiB ([`PAPER_ROW_BYTES`]); its 3DS rows are 256 B
    /// — equal to the default measurement rows, so 3DS volumes scale by
    /// 1 unless the row width is overridden.
    pub fn row_ratio(&self) -> f64 {
        let paper = match self.kind {
            MemoryKind::Ddr4 => PAPER_ROW_BYTES,
            MemoryKind::Stacked3d => PAPER_3DS_ROW_BYTES,
        };
        paper as f64 / self.row_bytes as f64
    }
}

/// Builder for [`Session`]s; starts from [`ExecConfig::measurement`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    config: ExecConfig,
}

impl SessionBuilder {
    /// Starts a builder for `design` with measurement defaults.
    pub fn new(design: DesignKind) -> Self {
        SessionBuilder {
            config: ExecConfig::measurement(design),
        }
    }

    /// Sets the hardware design.
    #[must_use]
    pub fn design(mut self, design: DesignKind) -> Self {
        self.config.design = design;
        self
    }

    /// Sets the memory kind (selects the timing and energy models).
    #[must_use]
    pub fn memory(mut self, kind: MemoryKind) -> Self {
        self.config.kind = kind;
        self
    }

    /// Sets the row width in bytes.
    #[must_use]
    pub fn row_bytes(mut self, bytes: usize) -> Self {
        self.config.row_bytes = bytes;
        self
    }

    /// Sets the column burst size in bytes.
    #[must_use]
    pub fn burst_bytes(mut self, bytes: usize) -> Self {
        self.config.burst_bytes = bytes;
        self
    }

    /// Sets the bank count.
    #[must_use]
    pub fn banks(mut self, banks: u16) -> Self {
        self.config.banks = banks;
        self
    }

    /// Sets the subarrays-per-bank floor (workloads may demand more).
    #[must_use]
    pub fn subarrays(mut self, subarrays: u16) -> Self {
        self.config.subarrays_per_bank = subarrays;
        self
    }

    /// Sets the rows per subarray.
    #[must_use]
    pub fn rows_per_subarray(mut self, rows: u16) -> Self {
        self.config.rows_per_subarray = rows;
        self
    }

    /// Sets the seed of the RNG handed to [`Workload::prepare`].
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Selects the timing backend (`DESIGN.md` §11). Defaults to
    /// [`TimingBackend::Analytic`], the paper's model.
    #[must_use]
    pub fn timing(mut self, backend: TimingBackend) -> Self {
        self.config.timing_backend = backend;
        self
    }

    /// Builds the session (constructs and validates the machine).
    ///
    /// # Errors
    /// Fails if the geometry cannot host the controller layout.
    pub fn build(self) -> Result<Session, PlutoError> {
        Session::with_config(self.config)
    }
}

/// Measured cost of one [`Workload`] run on a [`Session`].
///
/// The session-level sibling of `MapResult`: where `MapResult` reports a
/// single library call, a `CostReport` covers a whole workload batch plus
/// its functional validation verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// The workload's stable identifier.
    pub workload: &'static str,
    /// The design the run executed on.
    pub design: DesignKind,
    /// The memory kind the run executed on.
    pub kind: MemoryKind,
    /// Serial single-subarray time of the batch.
    pub time: Picos,
    /// Dynamic DRAM energy of the batch.
    pub energy: PicoJoules,
    /// Row activations issued in the batch (tFAW-relevant).
    pub acts: u64,
    /// Activations classified as row-buffer hits (`DESIGN.md` §11).
    pub row_hits: u64,
    /// Activations classified as row-buffer misses.
    pub row_misses: u64,
    /// Activations classified as row-buffer conflicts (charged latency
    /// only by the banked backend).
    pub row_conflicts: u64,
    /// Activations that found the bounded command queue full (delayed
    /// only by the banked backend).
    pub queue_stalls: u64,
    /// Paper-equivalent input bytes covered by the batch (8 KiB rows).
    pub paper_bytes: f64,
    /// Whether the pLUTo output matched the reference bit-for-bit.
    pub validated: bool,
}

impl CostReport {
    /// Serial seconds per paper-equivalent input byte.
    pub fn secs_per_byte(&self) -> f64 {
        self.time.as_secs() / self.paper_bytes
    }

    /// Joules per paper-equivalent input byte (SALP-independent, §8.3).
    pub fn joules_per_byte(&self) -> f64 {
        self.energy.as_joules() / self.paper_bytes
    }

    /// Wall-clock seconds to process `volume_bytes` of input given
    /// `subarrays`-way SALP (Table 3's per-kind degree is
    /// [`default_salp`]) and a tFAW scale (0.0 = unthrottled).
    pub fn scaled_wall_time(
        &self,
        volume_bytes: f64,
        subarrays: usize,
        t_faw_scale: f64,
        timing: &TimingParams,
    ) -> f64 {
        let batches = volume_bytes / self.paper_bytes;
        let serial = self.time.as_secs() * batches;
        let parallel = serial / subarrays.max(1) as f64;
        if t_faw_scale <= 0.0 {
            return parallel;
        }
        let t_faw = timing.t_faw.as_secs() * t_faw_scale;
        let act_floor = self.acts as f64 * batches * t_faw / 4.0;
        parallel.max(act_floor)
    }

    /// Energy in joules to process `volume_bytes` (independent of SALP,
    /// §8.3).
    pub fn scaled_energy(&self, volume_bytes: f64) -> f64 {
        self.joules_per_byte() * volume_bytes
    }

    /// Folds another shard's report into this one (the cluster's shard
    /// reduction): time, energy, activations, and byte volumes add;
    /// validation ANDs. Workload id, design, and kind are taken from
    /// `self` — shards of one job share all three by construction.
    ///
    /// Folding in ascending shard order is deterministic (fixed
    /// floating-point summation order), so a sharded parallel run
    /// reduces to the same bits regardless of worker scheduling.
    pub fn absorb(&mut self, shard: &CostReport) {
        debug_assert_eq!(self.design, shard.design);
        debug_assert_eq!(self.kind, shard.kind);
        self.time += shard.time;
        self.energy += shard.energy;
        self.acts += shard.acts;
        self.row_hits += shard.row_hits;
        self.row_misses += shard.row_misses;
        self.row_conflicts += shard.row_conflicts;
        self.queue_stalls += shard.queue_stalls;
        self.paper_bytes += shard.paper_bytes;
        self.validated &= shard.validated;
    }
}

/// A pluggable execution scenario: anything a [`Session`] can run,
/// validate, and cost.
///
/// The eight workload modules of `pluto-workloads` implement this trait
/// (enumerated by that crate's `registry()`); new scenarios plug in the
/// same way with no dispatch table to edit.
///
/// Both `run_pluto` and `run_reference` return a canonical little-endian
/// byte serialization of the workload output; the session compares the
/// two to set [`CostReport::validated`].
///
/// Workloads are `Send` so that a [`crate::cluster::Cluster`] can move
/// boxed scenarios onto its worker threads; scenario structs are plain
/// data, so the bound is free in practice.
pub trait Workload: Send {
    /// Stable identifier (the paper's workload label where applicable).
    fn id(&self) -> &'static str;

    /// Fills the workload's input data before a run. The session passes
    /// an RNG seeded from [`ExecConfig::seed`], which scenarios that draw
    /// their inputs from it use here.
    ///
    /// The default does nothing. The paper scenarios build their inputs
    /// once, in their constructors, from their own fixed generator seeds:
    /// figure data stays bit-stable, and since a run only reads its
    /// inputs, every run of one object measures the same data.
    fn prepare(&mut self, _rng: &mut StdRng) {}

    /// Executes the pLUTo mapping on the session's machine and returns
    /// the serialized output.
    ///
    /// # Errors
    /// Propagates machine/workload errors.
    fn run_pluto(&mut self, session: &mut Session) -> Result<Vec<u8>, PlutoError>;

    /// Runs the reference software implementation over the prepared
    /// inputs and returns the serialized output.
    fn run_reference(&self) -> Vec<u8>;

    /// Input bytes covered by one batch (before paper-row scaling).
    fn input_bytes(&self) -> f64;

    /// Minimum subarrays-per-bank the mapping needs (LUT stores claim
    /// subarray pairs). Defaults to the measurement geometry's 16.
    fn min_subarrays(&self) -> u16 {
        16
    }

    /// Splits this workload into independent input shards for parallel
    /// fan-out across a [`crate::cluster::Cluster`]'s workers.
    ///
    /// The default implementation returns an empty vector, which marks
    /// the workload as a *single shard*: the cluster runs it whole on one
    /// worker. Shardable scenarios return two or more sub-workloads, each
    /// carrying its slice of the parent's input (a scenario that fills
    /// its inputs in `prepare` must keep a shard's slice there rather
    /// than refill it). The cluster calls [`Workload::prepare`] on the
    /// parent — with the configuration's seeded RNG, exactly as a serial
    /// run would — *before* sharding, so the slices always cover the
    /// prepared input state; the cluster runs every shard on its own
    /// machine and reduces the shard [`CostReport`]s — sums of
    /// time/energy/activations/bytes, logical AND of `validated` — into
    /// one report for the submitted job.
    ///
    /// The reduced report equals the bit-exact fold of the shard reports
    /// in shard order, so a sharded cluster run is reproducible and
    /// matches a serial shard-by-shard execution exactly. It is *not*
    /// expected to equal the unsharded run of the same workload: each
    /// shard pays its own LUT-store load, exactly as independent
    /// subarray groups would in hardware.
    fn shards(&self) -> Vec<Box<dyn Workload>> {
        Vec::new()
    }
}

/// An ownable execution context: a [`PlutoMachine`] plus the explicit
/// [`ExecConfig`] it was built from, accumulating one [`CostReport`] per
/// workload run.
///
/// Each [`Session::run`] executes on a freshly initialized machine sized
/// to the workload (cold-cost isolation, exactly the paper's per-workload
/// measurement protocol); between runs the machine is available through
/// [`Session::machine_mut`] for direct §6.2 library calls.
#[derive(Debug)]
pub struct Session {
    config: ExecConfig,
    machine: PlutoMachine,
    reports: Vec<CostReport>,
}

impl Session {
    /// Starts a [`SessionBuilder`] for `design`.
    pub fn builder(design: DesignKind) -> SessionBuilder {
        SessionBuilder::new(design)
    }

    /// Builds a session directly from an [`ExecConfig`].
    ///
    /// # Errors
    /// Fails if the geometry cannot host the controller layout.
    pub fn with_config(config: ExecConfig) -> Result<Self, PlutoError> {
        let machine =
            PlutoMachine::with_backend(config.dram_config(), config.design, config.timing_backend)?;
        Ok(Session {
            config,
            machine,
            reports: Vec::new(),
        })
    }

    /// The configuration this session was built from.
    ///
    /// This is the *configured* geometry: a [`Session::run`] sizes its
    /// fresh machine to `max(subarrays_per_bank, workload.min_subarrays())`,
    /// so the machine left behind by a run may hold more subarrays than
    /// configured here — `self.machine().config()` is the effective
    /// geometry of the most recent machine.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// The session's machine (state of the most recent run, or the
    /// initial machine if nothing ran yet). Its
    /// [`PlutoMachine::config`] reflects the effective geometry, which a
    /// run may have widened beyond [`Session::config`]'s subarray floor.
    pub fn machine(&self) -> &PlutoMachine {
        &self.machine
    }

    /// Mutable access to the machine for direct library calls.
    pub fn machine_mut(&mut self) -> &mut PlutoMachine {
        &mut self.machine
    }

    /// Reports accumulated by [`Session::run`] / [`Session::run_all`], in
    /// run order.
    pub fn reports(&self) -> &[CostReport] {
        &self.reports
    }

    /// Removes and returns the accumulated reports.
    pub fn take_reports(&mut self) -> Vec<CostReport> {
        std::mem::take(&mut self.reports)
    }

    /// Drops the accumulated reports in place, keeping the allocation.
    /// The pooled-worker hot paths (cluster shards, serve batches) call
    /// this once per query, where [`Session::take_reports`]'s fresh
    /// `Vec` would churn the allocator.
    pub fn clear_reports(&mut self) {
        self.reports.clear();
    }

    /// Runs one workload: prepare on a pristine machine, execute the
    /// pLUTo mapping, validate against the reference, and record the
    /// cost.
    ///
    /// The machine starts every run in its just-constructed state
    /// (cold-cost isolation). When the effective geometry matches the
    /// machine left by the previous run, the session *resets* that
    /// machine in place instead of rebuilding it — bit-identical
    /// behavior (see [`PlutoMachine::reset`]) without re-validating the
    /// controller layout, which is what makes pooled cluster workers
    /// cheap.
    ///
    /// # Errors
    /// Propagates machine construction and workload errors.
    pub fn run(&mut self, workload: &mut dyn Workload) -> Result<CostReport, PlutoError> {
        let mut cfg = self.config.clone();
        cfg.subarrays_per_bank = cfg.subarrays_per_bank.max(workload.min_subarrays());
        let dram = cfg.dram_config();
        if *self.machine.config() == dram
            && self.machine.design() == cfg.design
            && self.machine.timing_backend() == cfg.timing_backend
        {
            self.machine.reset();
        } else {
            self.machine = PlutoMachine::with_backend(dram, cfg.design, cfg.timing_backend)?;
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        workload.prepare(&mut rng);
        let pluto_out = workload.run_pluto(self)?;
        let validated = pluto_out == workload.run_reference();
        let totals = self.machine.totals();
        let stats = self.machine.engine_stats();
        let report = CostReport {
            workload: workload.id(),
            design: self.config.design,
            kind: self.config.kind,
            time: totals.time,
            energy: totals.energy,
            acts: stats.activates,
            row_hits: stats.row_hits,
            row_misses: stats.row_misses,
            row_conflicts: stats.row_conflicts,
            queue_stalls: stats.queue_stalls,
            paper_bytes: workload.input_bytes() * self.config.row_ratio(),
            validated,
        };
        self.reports.push(report);
        Ok(report)
    }

    /// Runs a batch of workloads in order, returning their reports (also
    /// accumulated on the session).
    ///
    /// # Errors
    /// Stops at, and propagates, the first failing run.
    pub fn run_all(
        &mut self,
        workloads: &mut [Box<dyn Workload>],
    ) -> Result<Vec<CostReport>, PlutoError> {
        workloads.iter_mut().map(|w| self.run(w.as_mut())).collect()
    }
}

/// Canonical little-endian serialization of a word vector, for
/// [`Workload`] output comparison.
pub fn encode_words(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Flattens byte packets for [`Workload`] output comparison (both sides
/// of a comparison share one deterministic shape).
pub fn encode_packets(packets: &[Vec<u8>]) -> Vec<u8> {
    packets.iter().flat_map(|p| p.iter().copied()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut;

    /// Minimal scenario used to exercise the session plumbing.
    #[derive(Debug)]
    struct SquareScenario {
        inputs: Vec<u64>,
        lie: bool,
    }

    impl SquareScenario {
        fn new() -> Self {
            SquareScenario {
                inputs: Vec::new(),
                lie: false,
            }
        }
    }

    impl Workload for SquareScenario {
        fn id(&self) -> &'static str {
            "square"
        }
        fn prepare(&mut self, _rng: &mut StdRng) {
            self.inputs = (0..60).map(|i| i % 256).collect();
        }
        fn run_pluto(&mut self, session: &mut Session) -> Result<Vec<u8>, PlutoError> {
            let lut = Lut::from_fn("sq", 8, 16, |x| x * x)?;
            let out = session.machine_mut().apply(&lut, &self.inputs)?.values;
            Ok(encode_words(&out))
        }
        fn run_reference(&self) -> Vec<u8> {
            if self.lie {
                return vec![0xFF];
            }
            let expect: Vec<u64> = self.inputs.iter().map(|&x| x * x).collect();
            encode_words(&expect)
        }
        fn input_bytes(&self) -> f64 {
            self.inputs.len() as f64
        }
    }

    #[test]
    fn builder_defaults_match_measurement_config() {
        let s = Session::builder(DesignKind::Gmc).build().unwrap();
        assert_eq!(*s.config(), ExecConfig::measurement(DesignKind::Gmc));
        assert_eq!(s.config().row_bytes, MEASURE_ROW_BYTES);
        assert_eq!(default_salp(s.config().kind), 16);
        assert!((s.config().row_ratio() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn memory_kind_sets_kind_and_row_scaling() {
        let s = Session::builder(DesignKind::Bsa)
            .memory(MemoryKind::Stacked3d)
            .build()
            .unwrap();
        assert_eq!(default_salp(s.config().kind), 512);
        assert!((s.config().row_ratio() - 1.0).abs() < 1e-12);
        // measurement_on is exactly what the builder produces — the
        // contract cluster submissions rely on.
        assert_eq!(
            *s.config(),
            ExecConfig::measurement_on(DesignKind::Bsa, MemoryKind::Stacked3d)
        );

        // Overriding the row width rescales both kinds' paper ratios.
        let wide = Session::builder(DesignKind::Bsa)
            .memory(MemoryKind::Stacked3d)
            .row_bytes(512)
            .build()
            .unwrap();
        assert!((wide.config().row_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn run_validates_and_accumulates_reports() {
        let mut session = Session::builder(DesignKind::Gmc).build().unwrap();
        let mut w = SquareScenario::new();
        let report = session.run(&mut w).unwrap();
        assert!(report.validated);
        assert_eq!(report.workload, "square");
        assert!(report.time > Picos::ZERO);
        assert!(report.acts > 0);
        assert!((report.paper_bytes - 60.0 * 32.0).abs() < 1e-9);
        let second = session.run(&mut w).unwrap();
        assert_eq!(session.reports(), &[report, second]);
        // Fresh-machine isolation: identical runs cost identically.
        assert_eq!(report, second);
        assert_eq!(session.take_reports().len(), 2);
        assert!(session.reports().is_empty());
    }

    #[test]
    fn validation_failure_is_reported_not_fatal() {
        let mut session = Session::builder(DesignKind::Bsa).build().unwrap();
        let mut w = SquareScenario::new();
        w.lie = true;
        let report = session.run(&mut w).unwrap();
        assert!(!report.validated);
    }

    #[test]
    fn run_all_preserves_order() {
        let mut session = Session::builder(DesignKind::Gmc).build().unwrap();
        let mut ws: Vec<Box<dyn Workload>> = vec![
            Box::new(SquareScenario::new()),
            Box::new(SquareScenario::new()),
        ];
        let reports = session.run_all(&mut ws).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports, session.reports());
    }

    #[test]
    fn sessions_compose_without_global_state() {
        // The regression the thread-local made impossible: interleaving
        // sessions of different memory kinds must not perturb each other.
        let mut ddr4 = Session::builder(DesignKind::Gmc).build().unwrap();
        let mut hmc = Session::builder(DesignKind::Gmc)
            .memory(MemoryKind::Stacked3d)
            .build()
            .unwrap();
        let first = ddr4.run(&mut SquareScenario::new()).unwrap();
        let inner = hmc.run(&mut SquareScenario::new()).unwrap();
        let second = ddr4.run(&mut SquareScenario::new()).unwrap();
        assert_eq!(first, second, "inner 3DS session perturbed the outer one");
        assert_eq!(inner.kind, MemoryKind::Stacked3d);
        assert_eq!(first.kind, MemoryKind::Ddr4);
        // ×32 paper-row scaling on DDR4, ×1 on 3DS.
        assert!((first.paper_bytes / inner.paper_bytes - 32.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_wall_time_honors_salp_and_tfaw() {
        let mut session = Session::builder(DesignKind::Gmc).build().unwrap();
        let report = session.run(&mut SquareScenario::new()).unwrap();
        let kind = session.config().kind;
        let timing = TimingParams::for_kind(kind);
        let serial = report.scaled_wall_time(1e6, 1, 0.0, &timing);
        let parallel = report.scaled_wall_time(1e6, default_salp(kind), 0.0, &timing);
        assert!((parallel - serial / 16.0).abs() / serial < 1e-9);
        // A nominal tFAW can only slow things down.
        let throttled = report.scaled_wall_time(1e6, 2048, 1.0, &timing);
        let free = report.scaled_wall_time(1e6, 2048, 0.0, &timing);
        assert!(throttled >= free);
        // Energy is parallelism-independent.
        let e = report.scaled_energy(2e6);
        assert!((e / report.scaled_energy(1e6) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn encode_helpers_are_shape_faithful() {
        assert_eq!(encode_words(&[1, 2]).len(), 16);
        assert_eq!(encode_words(&[1])[0], 1);
        assert_eq!(encode_packets(&[vec![1, 2], vec![3]]), vec![1, 2, 3]);
    }
}
