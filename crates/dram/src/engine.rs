//! The command-level DRAM simulation engine.
//!
//! [`Engine`] couples the functional array model with the timing and energy
//! models: every operation mutates data exactly as the hardware would *and*
//! advances the simulated clock / energy accumulators according to the
//! command sequence it implies. This mirrors the paper's methodology (§7.1:
//! "Our simulator estimates the performance of pLUTo operations by parsing
//! the sequence of memory commands required to perform them and enforcing
//! the memory's timing parameters"), with the addition of bit-accurate data.
//!
//! The engine is *serial*: commands execute one after another. The one
//! overlap it models itself is the §5.6 partitioned query, whose segment
//! lanes run between [`Engine::rewind_clock`] and
//! [`Engine::advance_clock_to`]. Subarray-level parallelism across
//! independent queries (SALP) is applied after the fact: the figures scale
//! a workload's serial cost by the subarray count, floored by the tFAW
//! activation rate (`pluto_core`'s `CostReport::scaled_wall_time`), and
//! [`crate::schedule`] computes lane makespans for the ablation grid.
//! Energy is unaffected by parallelism (paper §8.3), so the engine's
//! accumulator is authoritative in every case.

use crate::array::{MemoryArray, RowBuffer, RowTable};
use crate::command::{Command, SweepStepKind};
use crate::energy::EnergyModel;
use crate::error::DramError;
use crate::geometry::{BankId, DramConfig, RowId, RowLoc, SubarrayId};
use crate::stats::CommandStats;
use crate::timing::TimingParams;
use crate::timing_model::{ActClass, RankState, TimingBackend, TimingSig, ACT_QUEUE_DEPTH};
use crate::units::{PicoJoules, Picos};
use std::collections::VecDeque;

/// Command-level DRAM simulator with functional, timing, and energy models.
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: DramConfig,
    timing: TimingParams,
    energy_model: EnergyModel,
    array: MemoryArray,
    clock: Picos,
    command_energy: PicoJoules,
    stats: CommandStats,
    /// Issue timestamps of the last four activations (tFAW window, per rank;
    /// the paper's configurations are single-rank).
    act_window: VecDeque<Picos>,
    /// Which timing backend resolves activation issue times (see
    /// `DESIGN.md` §11). [`TimingBackend::Analytic`] by default.
    backend: TimingBackend,
    /// Row-buffer and command-queue tracking state, maintained
    /// identically under both backends.
    rank: RankState,
    /// Optional command trace (off by default; enable for golden tests).
    trace: Option<Vec<Command>>,
    /// Active cost-tape recorder (see [`Engine::begin_tape`]); `None`
    /// outside a capture.
    recorder: Option<TapeRecorder>,
}

impl Engine {
    /// Creates an engine with the timing/energy models matching `cfg`.
    pub fn new(cfg: DramConfig) -> Self {
        let timing = TimingParams::for_kind(cfg.kind);
        let energy = EnergyModel::for_config(&cfg);
        Engine::with_models(cfg, timing, energy)
    }

    /// Creates an engine with explicit timing/energy models (e.g. a scaled
    /// tFAW for the paper's Fig. 13 sensitivity study).
    pub fn with_models(cfg: DramConfig, timing: TimingParams, energy: EnergyModel) -> Self {
        Engine {
            array: MemoryArray::new(cfg.clone()),
            cfg,
            timing,
            energy_model: energy,
            clock: Picos::ZERO,
            command_energy: PicoJoules::ZERO,
            stats: CommandStats::new(),
            act_window: VecDeque::with_capacity(4),
            backend: TimingBackend::default(),
            rank: RankState::default(),
            trace: None,
            recorder: None,
        }
    }

    /// Selects the timing backend (builder-style; see `DESIGN.md` §11).
    /// Must be called on a pristine engine — switching backends
    /// mid-stream would mix two models' issue decisions in one clock.
    #[must_use]
    pub fn with_timing_backend(mut self, backend: TimingBackend) -> Self {
        debug_assert!(
            self.clock == Picos::ZERO && self.stats == CommandStats::new(),
            "select the timing backend before issuing commands"
        );
        self.backend = backend;
        self
    }

    /// The timing backend resolving this engine's activation issue times.
    pub fn timing_backend(&self) -> TimingBackend {
        self.backend
    }

    /// Enables command tracing. Traced commands are retrievable with
    /// [`Engine::take_trace`].
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Takes and clears the accumulated trace (empty if tracing disabled).
    pub fn take_trace(&mut self) -> Vec<Command> {
        self.trace
            .take()
            .map(|t| {
                self.trace = Some(Vec::new());
                t
            })
            .unwrap_or_default()
    }

    /// The geometry this engine simulates.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The timing parameters in force.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The energy model in force.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// Read-only access to the functional array.
    pub fn array(&self) -> &MemoryArray {
        &self.array
    }

    /// Simulated time elapsed since construction (or the last reset).
    pub fn elapsed(&self) -> Picos {
        self.clock
    }

    /// Dynamic (per-command) energy consumed so far.
    pub fn command_energy(&self) -> PicoJoules {
        self.command_energy
    }

    /// Total energy: dynamic command energy plus background power
    /// integrated over elapsed time.
    pub fn total_energy(&self) -> PicoJoules {
        let background_pj = self.energy_model.background_watts * self.clock.as_secs() * 1e12;
        self.command_energy + PicoJoules::from_pj(background_pj)
    }

    /// Command counters.
    pub fn stats(&self) -> CommandStats {
        self.stats
    }

    /// Rewinds the simulated clock to `to` (a timestamp at or before the
    /// current clock; later values are a no-op), dropping tFAW-window
    /// entries issued after it.
    ///
    /// Together with [`Engine::advance_clock_to`] this models **parallel
    /// command lanes**: command streams that execute simultaneously in
    /// different subarrays (the paper's §5.6 partitioned LUT sweep) but
    /// are *issued* serially by the simulator. The caller records the
    /// region's start time, rewinds to it before issuing each lane, and
    /// finally advances to the slowest lane's end time. Energy and
    /// command counters are untouched — they keep accumulating across
    /// lanes, which is exactly the §5.6 semantics (latency does not
    /// increase, energy multiplies by the lane count).
    ///
    /// tFAW entries issued inside an abandoned lane are dropped rather
    /// than carried across lanes: the four-activation window is modeled
    /// per lane, a deliberate simplification of the rank-global window
    /// for overlapped subarray streams (see `crate::schedule` for the
    /// SALP treatment of the same question). The boundary is strict: an
    /// ACT issued *exactly at* `to` belongs to the abandoned lane (a
    /// lane's first ACT can issue at the region start, but every
    /// pre-region ACT issued strictly before it), so it is dropped too.
    /// The same strict rule drops row-buffer and command-queue records
    /// from `to` onward.
    pub fn rewind_clock(&mut self, to: Picos) {
        // A clock rewind is not expressible as a translation-invariant
        // cost delta, so it invalidates any capture in progress.
        self.recorder = None;
        if to >= self.clock {
            return;
        }
        self.clock = to;
        self.act_window.retain(|&t| t < to);
        self.rank.rewind(to);
    }

    /// Advances the simulated clock to `to` without issuing commands or
    /// consuming energy (earlier values are a no-op) — closing a
    /// parallel-lane region at its slowest lane's end time (see
    /// [`Engine::rewind_clock`]).
    pub fn advance_clock_to(&mut self, to: Picos) {
        // An absolute-time jump (like a rewind) cannot be replayed as a
        // relative delta; drop any capture in progress.
        self.recorder = None;
        if to > self.clock {
            self.clock = to;
        }
    }

    fn record(&mut self, cmd: Command) {
        if let Some(t) = self.trace.as_mut() {
            t.push(cmd);
        }
    }

    /// The earliest tFAW-legal issue time at the current clock.
    fn faw_slot(&self) -> Picos {
        let mut at = self.clock;
        if self.timing.t_faw_enabled() && self.act_window.len() >= 4 {
            let fourth_back = self.act_window[self.act_window.len() - 4];
            let earliest = fourth_back + self.timing.t_faw;
            at = at.max(earliest);
        }
        at
    }

    /// Records an issued ACT in the tFAW window (and, when `classified`,
    /// in the bounded command queue), mirroring both into an active
    /// tape recorder.
    fn push_act(&mut self, at: Picos, classified: bool) {
        self.act_window.push_back(at);
        while self.act_window.len() > 4 {
            self.act_window.pop_front();
        }
        if classified {
            self.rank.push_queue(at);
        }
        if let Some(rec) = self.recorder.as_mut() {
            rec.acts += 1;
            rec.act_tail.push(at - rec.entry_clock);
            if rec.act_tail.len() > 4 {
                rec.act_tail.remove(0);
            }
            if classified {
                rec.queued += 1;
                rec.queue_tail.push(at - rec.entry_clock);
                if rec.queue_tail.len() > ACT_QUEUE_DEPTH {
                    rec.queue_tail.remove(0);
                }
            }
        }
    }

    /// Reserves an activation slot for a compound, classification-exempt
    /// command (RowClone, TRA, DRISA shifts — internally
    /// precharge-terminated, bypassing both row buffers and the command
    /// queue): returns the issue time respecting tFAW, and records the
    /// issue in the window.
    fn issue_act(&mut self) -> Picos {
        let at = self.faw_slot();
        self.push_act(at, false);
        at
    }

    /// Issues one row-buffer-classified activation through the timing
    /// backend: tFAW gate, hit/miss/conflict classification against the
    /// tracked rank state, then the backend's conflict and queue policy.
    /// `sweep` is `None` for standard activations (bank-level row
    /// buffer) and the step kind for pLUTo sweeps (subarray-local sense
    /// amps — see `crate::timing_model` for the geometry rules).
    fn issue_act_classified(&mut self, loc: RowLoc, sweep: Option<SweepStepKind>) -> Picos {
        let at = self.faw_slot();
        let (class, conflict_open) = match sweep {
            None => self.rank.classify_standard(loc.bank, loc.subarray, loc.row),
            Some(SweepStepKind::ChargeShare) => {
                (self.rank.classify_share(loc.bank, loc.subarray), None)
            }
            Some(SweepStepKind::FullCycle) => (ActClass::Miss, None),
        };
        let queue_gate = self.rank.queue_gate(self.timing.t_ras);
        let issue = self
            .backend
            .act_issue(at, class, conflict_open, queue_gate, &self.timing);
        match class {
            ActClass::Hit => self.stats.row_hits += 1,
            ActClass::Miss => self.stats.row_misses += 1,
            ActClass::Conflict => self.stats.row_conflicts += 1,
        }
        if issue.queue_stalled {
            self.stats.queue_stalls += 1;
        }
        self.push_act(issue.at, true);
        match sweep {
            None => self
                .rank
                .apply_standard(loc.bank, loc.subarray, loc.row, issue.at),
            Some(SweepStepKind::ChargeShare) => {
                self.rank
                    .apply_share(loc.bank, loc.subarray, loc.row, issue.at)
            }
            // A full ACT+PRE cycle leaves nothing open.
            Some(SweepStepKind::FullCycle) => {}
        }
        issue.at
    }

    fn spend(&mut self, duration: Picos, energy: PicoJoules) {
        if let Some(rec) = self.recorder.as_mut() {
            // Fold any forward clock jump since the previous spend (a
            // tFAW-throttled ACT issue) into this op's delta: the two
            // u64 additions associate, so replaying the combined delta
            // lands on exactly the clock the issuing path reaches.
            let delta = (self.clock - rec.last_clock) + duration;
            rec.last_clock = self.clock + duration;
            match rec.ops.last_mut() {
                Some(op)
                    if op.delta == delta
                        && op.energy.as_pj().to_bits() == energy.as_pj().to_bits() =>
                {
                    op.repeat += 1
                }
                _ => rec.ops.push(TapeOp {
                    delta,
                    energy,
                    repeat: 1,
                }),
            }
        }
        self.clock += duration;
        self.command_energy += energy;
    }

    // ------------------------------------------------------------------
    // Standard commands
    // ------------------------------------------------------------------

    /// ACT: open `loc` (tRCD; `E_ACT`).
    ///
    /// # Errors
    /// Fails on out-of-bounds locations or if the subarray already has an
    /// open row.
    pub fn activate(&mut self, loc: RowLoc) -> Result<(), DramError> {
        self.array.activate(loc, false)?;
        let at = self.issue_act_classified(loc, None);
        self.clock = at;
        self.spend(self.timing.t_rcd, self.energy_model.e_act);
        self.stats.activates += 1;
        self.record(Command::Activate(loc));
        Ok(())
    }

    /// PRE: close the open row (tRP; `E_PRE`). Idempotent on a precharged
    /// subarray (real controllers may issue redundant PREs).
    ///
    /// # Errors
    /// Fails on out-of-bounds bank/subarray.
    pub fn precharge(&mut self, bank: BankId, subarray: SubarrayId) -> Result<(), DramError> {
        let probe = RowLoc {
            bank,
            subarray,
            row: RowId(0),
        };
        if !self.cfg.contains(probe) {
            return Err(DramError::OutOfBounds { loc: probe });
        }
        self.array.precharge(bank, subarray);
        self.rank.close(bank, subarray);
        self.spend(self.timing.t_rp, self.energy_model.e_pre);
        self.stats.precharges += 1;
        self.record(Command::Precharge(bank, subarray));
        Ok(())
    }

    /// Returns the latched row-buffer contents of a subarray.
    ///
    /// # Errors
    /// Fails if the subarray has no latched contents.
    pub fn row_buffer(&self, bank: BankId, subarray: SubarrayId) -> Result<&RowBuffer, DramError> {
        self.array
            .buffer(bank, subarray)
            .filter(|b| b.latched)
            .ok_or(DramError::NoOpenRow { bank, subarray })
    }

    /// Host read of a full row over the memory bus: ACT + RD bursts + PRE.
    /// Returns the row contents.
    ///
    /// # Errors
    /// Fails on out-of-bounds locations or an already-open row.
    pub fn read_row(&mut self, loc: RowLoc) -> Result<Vec<u8>, DramError> {
        self.activate(loc)?;
        let bursts = self.cfg.bursts_per_row();
        let data = self
            .array
            .buffer(loc.bank, loc.subarray)
            .unwrap()
            .data
            .clone();
        self.spend(
            self.timing.row_readout(bursts),
            self.energy_model.e_rd_burst.times(bursts as u64),
        );
        self.stats.read_bursts += bursts as u64;
        for _ in 0..bursts.min(1) {
            self.record(Command::ReadBurst(loc.bank, loc.subarray));
        }
        self.precharge(loc.bank, loc.subarray)?;
        Ok(data)
    }

    /// Host write of a full row over the memory bus: ACT + WR bursts + PRE.
    ///
    /// # Errors
    /// Fails on out-of-bounds locations, an already-open row, or mismatched
    /// data length.
    pub fn write_row(&mut self, loc: RowLoc, data: &[u8]) -> Result<(), DramError> {
        if data.len() != self.cfg.row_bytes {
            return Err(DramError::RowSizeMismatch {
                expected: self.cfg.row_bytes,
                actual: data.len(),
            });
        }
        self.activate(loc)?;
        self.array.write_buffer(loc.bank, loc.subarray, 0, data)?;
        let bursts = self.cfg.bursts_per_row();
        self.spend(
            self.timing.row_readout(bursts),
            self.energy_model.e_wr_burst.times(bursts as u64),
        );
        self.stats.write_bursts += bursts as u64;
        self.record(Command::WriteBurst(loc.bank, loc.subarray));
        self.precharge(loc.bank, loc.subarray)?;
        Ok(())
    }

    /// Zero-cost backdoor for test/workload setup: writes a row without
    /// advancing time or energy (models data already resident in DRAM).
    ///
    /// # Errors
    /// Fails on out-of-bounds or mismatched length.
    pub fn poke_row(&mut self, loc: RowLoc, data: &[u8]) -> Result<(), DramError> {
        self.array.set_row(loc, data)
    }

    /// Zero-cost backdoor: reads a row without advancing time or energy.
    ///
    /// # Errors
    /// Fails on out-of-bounds locations.
    pub fn peek_row(&self, loc: RowLoc) -> Result<Vec<u8>, DramError> {
        self.array.row(loc)
    }

    /// Zero-cost backdoor: reads a row into a caller-owned buffer without
    /// advancing time or energy (the allocation-free sibling of
    /// [`Engine::peek_row`], used by the word-parallel query hot path).
    ///
    /// # Errors
    /// Fails on out-of-bounds locations.
    pub fn peek_row_into(&self, loc: RowLoc, out: &mut Vec<u8>) -> Result<(), DramError> {
        self.array.read_row_into(loc, out)
    }

    /// Zero-cost backdoor: bulk row fill from a shared table — row
    /// `first + i` becomes the table's row `i` as a copy-on-write handle
    /// (see [`MemoryArray::set_rows_shared`]). At row 0 of an empty
    /// subarray the whole table lands as one handle, and a repeat load of
    /// the same table is a no-op: this is how a cached LUT segment lands
    /// in DRAM without touching a row.
    ///
    /// # Errors
    /// Fails on out-of-bounds ranges or mismatched row lengths.
    pub fn poke_rows_shared(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        first: RowId,
        table: &RowTable,
    ) -> Result<(), DramError> {
        self.array.set_rows_shared(bank, subarray, first, table)
    }

    /// Zero-cost backdoor: reverts rows to the never-written state (read
    /// as zeros) — models the aftermath of destructive charge-share reads
    /// whose cost was already charged by the sweep itself.
    ///
    /// # Errors
    /// Fails on out-of-bounds ranges.
    pub fn poke_clear_rows(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        first: RowId,
        count: usize,
    ) -> Result<(), DramError> {
        self.array.clear_rows(bank, subarray, first, count)
    }

    // ------------------------------------------------------------------
    // Enhanced-DRAM commands (paper §2.2)
    // ------------------------------------------------------------------

    /// RowClone-FPM: intra-subarray row copy via back-to-back activations
    /// (ACT src, ACT dst, PRE). Latency 2·tRCD + tRP; energy 2·E_ACT + E_PRE.
    ///
    /// # Errors
    /// Fails if the rows are in different subarrays or out of bounds.
    pub fn row_clone_fpm(&mut self, src: RowLoc, dst_row: RowId) -> Result<(), DramError> {
        let dst = self.clone_target(src, dst_row)?;
        self.array.activate(src, false)?;
        self.array.activate_into(dst)?;
        self.array.precharge(src.bank, src.subarray);
        self.spend_act_act_pre();
        self.stats.row_clones += 1;
        self.record(Command::RowCloneFpm { src, dst_row });
        Ok(())
    }

    /// Ambit dual-contact-cell (DCC) negating copy: clones `src` onto
    /// `dst_row` of the same subarray with every bit complemented
    /// (Seshadri et al. use DCC rows to implement in-DRAM NOT). Costs the
    /// same ACT-ACT-PRE sequence as RowClone-FPM.
    ///
    /// # Errors
    /// Fails if either row is out of bounds.
    pub fn row_clone_dcc(&mut self, src: RowLoc, dst_row: RowId) -> Result<(), DramError> {
        let dst = self.clone_target(src, dst_row)?;
        let negated: Vec<u8> = self.array.row(src)?.iter().map(|b| !b).collect();
        self.array.set_row(dst, &negated)?;
        self.spend_act_act_pre();
        self.stats.row_clones += 1;
        self.record(Command::RowCloneFpm { src, dst_row });
        Ok(())
    }

    /// The destination of an intra-subarray clone of `src` onto `dst_row`,
    /// once both rows are checked to be in bounds.
    fn clone_target(&self, src: RowLoc, dst_row: RowId) -> Result<RowLoc, DramError> {
        let dst = src.with_row(dst_row.0);
        for loc in [src, dst] {
            if !self.cfg.contains(loc) {
                return Err(DramError::OutOfBounds { loc });
            }
        }
        Ok(dst)
    }

    /// Charges one ACT-ACT-PRE sequence (RowClone, a DRISA shift step):
    /// both ACTs take tFAW slots, and the sequence costs 2·tRCD + tRP and
    /// 2·E_ACT + E_PRE.
    fn spend_act_act_pre(&mut self) {
        let at = self.issue_act();
        self.clock = at;
        // The second ACT also occupies a tFAW slot.
        let _ = self.issue_act();
        self.spend(
            self.timing.t_rcd.times(2) + self.timing.t_rp,
            self.energy_model.e_act.times(2) + self.energy_model.e_pre,
        );
        self.stats.activates += 2;
        self.stats.precharges += 1;
    }

    /// LISA-RBM: move `from`'s latched row buffer to `to`'s row buffer
    /// (writes through to `to`'s open row if any). Cost is one hop per
    /// subarray crossed.
    ///
    /// # Errors
    /// Fails if `from == to` or `from` has no latched contents.
    pub fn lisa_rbm(
        &mut self,
        bank: BankId,
        from: SubarrayId,
        to: SubarrayId,
    ) -> Result<(), DramError> {
        self.array.lisa_rbm(bank, from, to)?;
        self.spend_lisa(bank, from, to);
        Ok(())
    }

    /// Zero-cost functional deposit of data into a subarray's row buffer,
    /// modeling a pLUTo FF buffer (or gated sense amplifiers) driving the
    /// LISA links. The buffer becomes latched; no open row is implied and
    /// no time or energy is charged (the cost sits in the subsequent
    /// [`Engine::lisa_rbm_to_row`]).
    ///
    /// # Errors
    /// Fails on out-of-bounds subarrays or mismatched data length.
    pub fn deposit_buffer(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        data: &[u8],
    ) -> Result<(), DramError> {
        let probe = RowLoc {
            bank,
            subarray,
            row: RowId(0),
        };
        if !self.cfg.contains(probe) {
            return Err(DramError::OutOfBounds { loc: probe });
        }
        if data.len() != self.cfg.row_bytes {
            return Err(DramError::RowSizeMismatch {
                expected: self.cfg.row_bytes,
                actual: data.len(),
            });
        }
        self.array.deposit_buffer(bank, subarray, data);
        Ok(())
    }

    /// LISA-RBM variant that *commits* the moved row buffer into a specific
    /// destination row (the RBM operation activates the destination row as
    /// part of the movement; its published per-row cost covers the whole
    /// transfer, which is why no separate ACT is charged — see paper Table 1
    /// where GSA reload costs exactly `LISA_RBM × N`).
    ///
    /// # Errors
    /// Fails if `from == to`, `from` has no latched contents, or `dst_row`
    /// is out of bounds.
    pub fn lisa_rbm_to_row(
        &mut self,
        bank: BankId,
        from: SubarrayId,
        to: SubarrayId,
        dst_row: RowId,
    ) -> Result<(), DramError> {
        let dst = RowLoc {
            bank,
            subarray: to,
            row: dst_row,
        };
        if !self.cfg.contains(dst) {
            return Err(DramError::OutOfBounds { loc: dst });
        }
        self.array.lisa_rbm(bank, from, to)?;
        let data = self
            .array
            .buffer(bank, to)
            .expect("lisa_rbm latched destination")
            .data
            .clone();
        self.array.set_row(dst, &data)?;
        self.spend_lisa(bank, from, to);
        Ok(())
    }

    /// Ambit triple-row activation (one ACT asserting three wordlines, plus
    /// PRE). The three rows and the row buffer settle to bitwise majority.
    /// Energy is 1.5 × E_ACT (three wordlines, shared bitline swing) + E_PRE.
    ///
    /// # Errors
    /// Fails if any row is out of bounds.
    pub fn triple_row_activate(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        rows: [RowId; 3],
    ) -> Result<(), DramError> {
        self.array.triple_row_activate(bank, subarray, rows)?;
        self.array.precharge(bank, subarray);
        let at = self.issue_act();
        self.clock = at;
        self.spend(
            self.timing.t_rcd + self.timing.t_rp,
            self.energy_model.e_act * 1.5 + self.energy_model.e_pre,
        );
        self.stats.activates += 1;
        self.stats.precharges += 1;
        self.stats.triple_acts += 1;
        self.record(Command::TripleRowActivate {
            bank,
            subarray,
            rows,
        });
        Ok(())
    }

    /// DRISA-style in-DRAM shift of a row. DRISA shifts 1 or 8 bits per
    /// ACT-ACT-PRE sequence (paper §2.2); an arbitrary `amount` is composed
    /// of `amount / 8` byte-steps plus `amount % 8` bit-steps.
    ///
    /// # Errors
    /// Fails on out-of-bounds locations.
    pub fn shift_row(&mut self, loc: RowLoc, left: bool, amount: u32) -> Result<(), DramError> {
        if !self.cfg.contains(loc) {
            return Err(DramError::OutOfBounds { loc });
        }
        let byte_steps = (amount / 8) as u64;
        let bit_steps = (amount % 8) as u64;
        let steps = byte_steps + bit_steps;
        if steps == 0 {
            return Ok(());
        }
        self.array.shift_row_bits(loc, left, amount)?;
        // Each step costs one ACT-ACT-PRE sequence (like RowClone).
        for _ in 0..steps {
            self.spend_act_act_pre();
        }
        self.record(Command::Activate(loc)); // summarized in trace
        Ok(())
    }

    // ------------------------------------------------------------------
    // pLUTo sweep steps (paper §5)
    // ------------------------------------------------------------------

    /// One step of a pLUTo Row Sweep.
    ///
    /// * [`SweepStepKind::FullCycle`] (BSA): full ACT + PRE per step —
    ///   latency tRCD + tRP, energy E_ACT + E_PRE; the row buffer holds the
    ///   activated row's contents and the subarray ends precharged.
    /// * [`SweepStepKind::ChargeShare`] (GSA/GMC): activation only — latency
    ///   tRCD, energy `e_charge_share`; back-to-back steps are allowed and
    ///   the subarray stays open until [`Engine::precharge`].
    ///
    /// # Errors
    /// Fails on out-of-bounds locations.
    pub fn sweep_step(&mut self, loc: RowLoc, kind: SweepStepKind) -> Result<(), DramError> {
        self.sweep_rows(loc.bank, loc.subarray, loc.row, 1, kind)
    }

    /// Batched Row Sweep over `count` consecutive rows starting at `first`:
    /// clock, energy, counters, tFAW interaction, and trace are identical
    /// to `count` individual [`Engine::sweep_step`] calls (each step is
    /// accounted in row order, so `f64` energy accumulates in the same
    /// order), but the functional row-buffer work — a row-sized memcpy
    /// per step in a step-at-a-time loop — collapses to a single latch of
    /// the last swept row, which is the only intermediate state such a
    /// loop leaves observable.
    ///
    /// # Errors
    /// Fails if the row range is out of bounds (checked up front; a
    /// partially out-of-range sweep issues no commands at all, unlike the
    /// step-at-a-time loop).
    pub fn sweep_rows(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        first: RowId,
        count: usize,
        kind: SweepStepKind,
    ) -> Result<(), DramError> {
        if count == 0 {
            return Ok(());
        }
        let first_loc = RowLoc {
            bank,
            subarray,
            row: first,
        };
        if !self.cfg.contains(first_loc) {
            return Err(DramError::OutOfBounds { loc: first_loc });
        }
        let last = first.0 as usize + count - 1;
        if last > u16::MAX as usize {
            return Err(DramError::OutOfBounds { loc: first_loc });
        }
        let last_loc = RowLoc {
            bank,
            subarray,
            row: RowId(last as u16),
        };
        if !self.cfg.contains(last_loc) {
            return Err(DramError::OutOfBounds { loc: last_loc });
        }
        self.array.activate(last_loc, true)?;
        if kind == SweepStepKind::FullCycle {
            self.array.precharge(bank, subarray);
        }
        for i in 0..count {
            let at = self.issue_act_classified(
                RowLoc {
                    bank,
                    subarray,
                    row: RowId(first.0 + i as u16),
                },
                Some(kind),
            );
            self.clock = at;
            match kind {
                SweepStepKind::FullCycle => self.spend(
                    self.timing.act_pre_cycle(),
                    self.energy_model.act_pre_cycle(),
                ),
                SweepStepKind::ChargeShare => {
                    self.spend(self.timing.t_rcd, self.energy_model.e_charge_share)
                }
            }
            self.stats.activates += 1;
            if kind == SweepStepKind::FullCycle {
                self.stats.precharges += 1;
            }
            self.stats.sweep_steps += 1;
            if self.trace.is_some() {
                self.record(Command::SweepStep {
                    loc: RowLoc {
                        bank,
                        subarray,
                        row: RowId(first.0 + i as u16),
                    },
                    kind,
                });
            }
        }
        Ok(())
    }

    /// Batched GSA-style reload of `count` rows from `from` (the master
    /// copy, rows `from_first..`) into `to` (rows `to_first..`): clock,
    /// energy, counters, and trace are identical to the per-row
    /// deposit-buffer + [`Engine::lisa_rbm_to_row`] loop, but the
    /// functional transfer is a bulk copy-on-write handle copy plus one
    /// replay of the final movement, so both row buffers (and any
    /// write-through into `to`'s open row) end exactly as the serial loop
    /// leaves them.
    ///
    /// # Errors
    /// Fails if `from == to` or either row range is out of bounds (checked
    /// up front).
    pub fn lisa_reload_rows(
        &mut self,
        bank: BankId,
        from: SubarrayId,
        from_first: RowId,
        to: SubarrayId,
        to_first: RowId,
        count: usize,
    ) -> Result<(), DramError> {
        if count == 0 {
            return Ok(());
        }
        self.validate_lisa_ranges(bank, from, from_first, to, to_first, count)?;
        self.array
            .copy_rows(bank, from, from_first, to, to_first, count)?;
        // Replay the last row's deposit + movement so buffer states (and a
        // write-through into `to`'s open row, which the serial loop would
        // overwrite once per row, last one winning) match the serial loop.
        let mut data = Vec::new();
        self.array.read_row_into(
            RowLoc {
                bank,
                subarray: from,
                row: RowId(from_first.0 + count as u16 - 1),
            },
            &mut data,
        )?;
        self.array.deposit_buffer(bank, from, &data);
        self.array.lisa_rbm(bank, from, to)?;
        self.spend_lisa_rows(bank, from, to, count);
        Ok(())
    }

    /// [`Engine::lisa_reload_rows`] with the functional restore elided:
    /// clock, energy, counters, and trace are identical, but no row
    /// handles move and no buffers are touched. For reloads whose restored
    /// contents are provably never observed — a GSA per-query reload
    /// inside a fused partitioned query, where the same composite
    /// operation destroys the rows again before returning. The destination
    /// rows keep whatever (destroyed) contents they had; buffer residue
    /// differs from the functional reload and is unspecified.
    ///
    /// # Errors
    /// Same conditions as [`Engine::lisa_reload_rows`].
    pub fn lisa_reload_rows_transient(
        &mut self,
        bank: BankId,
        from: SubarrayId,
        from_first: RowId,
        to: SubarrayId,
        to_first: RowId,
        count: usize,
    ) -> Result<(), DramError> {
        if count == 0 {
            return Ok(());
        }
        self.validate_lisa_ranges(bank, from, from_first, to, to_first, count)?;
        self.spend_lisa_rows(bank, from, to, count);
        Ok(())
    }

    fn validate_lisa_ranges(
        &self,
        bank: BankId,
        from: SubarrayId,
        from_first: RowId,
        to: SubarrayId,
        to_first: RowId,
        count: usize,
    ) -> Result<(), DramError> {
        if from == to {
            return Err(DramError::InvalidLisa { bank, from, to });
        }
        for (sa, first) in [(from, from_first), (to, to_first)] {
            let first_loc = RowLoc {
                bank,
                subarray: sa,
                row: first,
            };
            let last = first.0 as usize + count - 1;
            if !self.cfg.contains(first_loc) || last > u16::MAX as usize {
                return Err(DramError::OutOfBounds { loc: first_loc });
            }
            let last_loc = RowLoc {
                bank,
                subarray: sa,
                row: RowId(last as u16),
            };
            if !self.cfg.contains(last_loc) {
                return Err(DramError::OutOfBounds { loc: last_loc });
            }
        }
        Ok(())
    }

    /// The per-row cost loop shared by both reload flavours: one LISA
    /// movement per row.
    fn spend_lisa_rows(&mut self, bank: BankId, from: SubarrayId, to: SubarrayId, count: usize) {
        for _ in 0..count {
            self.spend_lisa(bank, from, to);
        }
    }

    /// Charges one LISA-RBM movement from `from` to `to`: one hop's time
    /// and energy per subarray crossed.
    fn spend_lisa(&mut self, bank: BankId, from: SubarrayId, to: SubarrayId) {
        let hops = from.0.abs_diff(to.0) as u64;
        self.spend(
            self.timing.t_lisa_hop.times(hops),
            self.energy_model.e_lisa_hop.times(hops),
        );
        self.stats.lisa_hops += hops;
        self.record(Command::LisaRbm { bank, from, to });
    }

    // ------------------------------------------------------------------
    // Compiled cost tapes (plan-cache replay, DESIGN.md §10)
    // ------------------------------------------------------------------

    /// Whether command tracing is currently enabled (traced command
    /// streams are per-issue, so a recorded cost tape cannot stand in for
    /// them — plan replay must fall back to full issuance).
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Whether the tFAW window can no longer throttle any future ACT: every
    /// recorded activation is at least `t_faw` in the past (or the window
    /// is disabled). Equivalent to an empty window *signature* — an aged
    /// entry occupies a window slot but its `t + t_faw` bound lies in the
    /// past, so it can never delay an ACT and is indistinguishable from an
    /// absent one.
    pub fn tfaw_window_inert(&self) -> bool {
        !self.timing.t_faw_enabled()
            || self
                .act_window
                .iter()
                .all(|&t| t + self.timing.t_faw <= self.clock)
    }

    /// Ages (`now − issue time`, oldest first) of the tFAW-window entries
    /// that can still throttle a future ACT; empty when the window is
    /// inert or tFAW is disabled. Two engine states with equal signatures
    /// throttle any identical future command stream identically, which is
    /// the replay-legality contract of [`CostTape::replayable_from`].
    fn tfaw_window_signature(&self) -> Vec<Picos> {
        if !self.timing.t_faw_enabled() {
            return Vec::new();
        }
        self.act_window
            .iter()
            .filter(|&&t| t + self.timing.t_faw > self.clock)
            .map(|&t| self.clock - t)
            .collect()
    }

    /// Allocation-free comparison of the current window signature against
    /// a recorded one (the replay hot path checks this per query).
    fn tfaw_window_signature_matches(&self, sig: &[Picos]) -> bool {
        if !self.timing.t_faw_enabled() {
            return sig.is_empty();
        }
        self.act_window
            .iter()
            .filter(|&&t| t + self.timing.t_faw > self.clock)
            .map(|&t| self.clock - t)
            .eq(sig.iter().copied())
    }

    /// The full timing-state signature at the current clock: tFAW window
    /// plus the rank's command-queue and open-row state.
    fn timing_signature(&self) -> TimingSig {
        TimingSig {
            faw: self.tfaw_window_signature(),
            queue: self.rank.queue_sig(self.clock, self.timing.t_ras),
            bank_open: self.rank.bank_open_sig(self.clock, self.timing.t_ras),
            share_open: self.rank.share_open_sig(self.clock, self.timing.t_ras),
        }
    }

    /// Allocation-free comparison of the full timing-state signature
    /// (replay-legality check, per query on the hot path).
    fn timing_signature_matches(&self, sig: &TimingSig) -> bool {
        self.tfaw_window_signature_matches(&sig.faw)
            && self.rank.matches_sig(sig, self.clock, self.timing.t_ras)
    }

    /// Starts recording a cost tape at the current clock: every subsequent
    /// costed command appends its clock/energy delta (run-length
    /// compressed) until [`Engine::end_tape`]. The entry state's tFAW
    /// window signature is recorded on the tape, and replay is only legal
    /// from a state with the identical signature
    /// ([`CostTape::replayable_from`]). A capture in progress is dropped
    /// by any absolute-time mutation ([`Engine::rewind_clock`],
    /// [`Engine::advance_clock_to`]) —
    /// `end_tape` then returns `None` and the caller falls back to
    /// uncached issuance. Beginning a new capture discards any previous
    /// one.
    pub fn begin_tape(&mut self) {
        self.recorder = Some(TapeRecorder {
            entry_clock: self.clock,
            last_clock: self.clock,
            entry_stats: self.stats,
            entry_sig: self.timing_signature(),
            ops: Vec::new(),
            acts: 0,
            act_tail: Vec::new(),
            queued: 0,
            queue_tail: Vec::new(),
        });
    }

    /// Finishes the active capture and returns the tape, or `None` if no
    /// capture is active (never started, or dropped by an absolute-time
    /// mutation — see [`Engine::begin_tape`]).
    pub fn end_tape(&mut self) -> Option<CostTape> {
        let end_bank_open = self.rank.bank_open_sig(self.clock, self.timing.t_ras);
        let end_share_open = self.rank.share_open_sig(self.clock, self.timing.t_ras);
        self.recorder.take().map(|rec| CostTape {
            ops: rec.ops,
            stats: self.stats.since(&rec.entry_stats),
            entry_sig: rec.entry_sig,
            acts: rec.acts,
            act_tail: rec.act_tail,
            queued: rec.queued,
            queue_tail: rec.queue_tail,
            end_bank_open,
            end_share_open,
            backend: self.backend,
        })
    }

    /// Discards any capture in progress without producing a tape.
    pub fn abort_tape(&mut self) {
        self.recorder = None;
    }

    /// Applies a recorded cost tape as if its command stream had been
    /// issued from the current clock: clock and energy land exactly where
    /// the issuing path's sequence of additions leaves them (so the end
    /// state is bit-identical), command counters merge, and the tFAW
    /// window is reconstructed from the tape's activation tail. The work
    /// is O(tape ops), not O(commands): each run of `repeat` equal spends
    /// advances the `u64` clock by one multiplication and the energy
    /// accumulator through `add_repeated`, which reproduces `repeat`
    /// sequential `f64` additions bit for bit.
    ///
    /// Legality is the caller's contract:
    /// [`CostTape::replayable_from`] must hold (checked by
    /// `debug_assert`). Any capture in progress on *this* engine is
    /// dropped (a replayed delta has no per-command structure to
    /// re-record).
    pub fn apply_replayed(&mut self, tape: &CostTape) {
        debug_assert!(
            tape.replayable_from(self),
            "cost-tape replay across backends or from a state with a different timing signature"
        );
        self.recorder = None;
        let entry = self.clock;
        for op in &tape.ops {
            self.clock += op.delta.times(op.repeat);
            self.command_energy = PicoJoules(add_repeated(
                self.command_energy.as_pj(),
                op.energy.as_pj(),
                op.repeat,
            ));
        }
        self.stats.merge(&tape.stats);
        // Reconstruct the window the issuing path would leave: its last
        // ≤4 ACTs at their recorded offsets from the entry clock. With 4+
        // recorded ACTs they displace every pre-existing entry.
        if tape.acts >= 4 {
            self.act_window.clear();
        }
        for &off in &tape.act_tail {
            self.act_window.push_back(entry + off);
        }
        while self.act_window.len() > 4 {
            self.act_window.pop_front();
        }
        // Likewise the command queue (its last ≤8 classified ACTs) and
        // the open-row state the taped stream would leave. The entry
        // signatures matched, so wholesale replacement of the open set
        // is exact.
        if tape.queued >= ACT_QUEUE_DEPTH as u64 {
            self.rank.queue.clear();
        }
        for &off in &tape.queue_tail {
            self.rank.push_queue(entry + off);
        }
        self.rank
            .restore_open(&tape.end_bank_open, &tape.end_share_open, self.clock);
    }
}

/// `acc` after `n` sequential `acc += e` under round-to-nearest-even, bit
/// for bit, in a few iterations rather than `n`.
///
/// Within one binade `[2^k, 2^(k+1))` every double is a multiple of the
/// binade's ulp `u = 2^(k−52)`. For `0 < e < acc` whose exact sum stays
/// below `2^(k+1)`, `fl(acc + e) = acc + r·u`, where `r` is `e/u` rounded
/// to the nearest integer — the same `r` on every such step, unless `e/u`
/// is an exact half-integer, whose tie rounds to even and so depends on
/// `acc`. One iteration therefore applies every step that stays in the
/// binade as one integer addition on `acc`'s significand. Where that rule
/// does not hold — `acc` zero, subnormal, negative or not finite,
/// `e ≥ acc`, a tie, or a step that would leave the binade — it takes one
/// plain `+=` step. A run of whole-picojoule energies cannot tell this
/// from `acc + e·n` (below `2^53` such sums are exact in any order); only
/// fractional increments can.
fn add_repeated(mut acc: f64, e: f64, mut n: u64) -> f64 {
    if e == 0.0 {
        // The first step can only settle the sign of a zero `acc`.
        return if n == 0 { acc } else { acc + e };
    }
    while n > 0 {
        match binade_run(acc, e, n) {
            Some((steps, sum)) => {
                acc = sum;
                n -= steps;
            }
            None => {
                acc += e;
                n -= 1;
            }
        }
    }
    acc
}

/// The longest run, of at most `n` steps of `acc += e`, that stays in
/// `acc`'s binade: its step count and result, or `None` where
/// [`add_repeated`] must take a plain step.
fn binade_run(acc: f64, e: f64, n: u64) -> Option<(u64, f64)> {
    const FRAC: u64 = (1 << 52) - 1;
    const TOP: u64 = 1 << 53;
    if !(acc.is_normal() && acc > 0.0 && e > 0.0 && e < acc) {
        return None;
    }
    // Each value as significand × 2^(biased exponent − 1075), with a
    // subnormal `e` at exponent 1; `acc`'s ulp is 2^(its exponent − 1075),
    // and `e < acc` puts `e`'s exponent at or below it.
    let bits = acc.to_bits();
    let sig = (bits & FRAC) | (1 << 52);
    let (e_exp, e_sig) = match e.to_bits() >> 52 {
        0 => (1, e.to_bits()),
        exp => (exp, (e.to_bits() & FRAC) | (1 << 52)),
    };
    // e/u = e_sig / 2^shift, rounded to the nearest integer `r`.
    let shift = (bits >> 52) - e_exp;
    let r = match shift {
        0 => e_sig,
        // e_sig < 2^53 ≤ 2^(shift−1): e/u < 1/2, so every step rounds
        // back to `acc`.
        54.. => 0,
        _ => {
            let (rem, half) = (e_sig & ((1 << shift) - 1), 1 << (shift - 1));
            if rem == half {
                return None;
            }
            (e_sig >> shift) + u64::from(rem > half)
        }
    };
    if r == 0 {
        return Some((n, acc));
    }
    // |e/u − r| < 1/2, so every step up to the last keeps the exact sum
    // below 2^53·u while sig + steps·r ≤ 2^53 − 1. Within the binade the
    // encoding is the significand plus a fixed exponent field, so the
    // result is one integer addition on the bits.
    let steps = n.min((TOP - 1 - sig) / r);
    (steps > 0).then(|| (steps, f64::from_bits(bits + steps * r)))
}

/// One run-length-compressed cost step on a [`CostTape`]: `repeat`
/// consecutive spends, each advancing the clock by `delta` and the energy
/// accumulator by `energy`. `delta` folds in any tFAW forward jump the
/// issuing path took before the spend (the two u64 additions associate, so
/// replay lands on exactly the clock the issuing path reached). Replay
/// applies the whole run at once: `delta.times(repeat)` on the clock and
/// [`add_repeated`] on the energy.
#[derive(Debug, Clone, Copy)]
struct TapeOp {
    delta: Picos,
    energy: PicoJoules,
    repeat: u64,
}

/// In-progress capture state (see [`Engine::begin_tape`]).
#[derive(Debug, Clone)]
struct TapeRecorder {
    /// Clock at capture start; ACT offsets are recorded relative to it.
    entry_clock: Picos,
    /// Clock immediately after the previous spend (for delta folding).
    last_clock: Picos,
    /// Counter snapshot at capture start, subtracted out at `end_tape`.
    entry_stats: CommandStats,
    /// Timing-state signature at capture start (replay-legality witness).
    entry_sig: TimingSig,
    ops: Vec<TapeOp>,
    /// Total ACT issues so far.
    acts: u64,
    /// Offsets (from `entry_clock`) of the last ≤4 ACT issues, for
    /// reconstructing the tFAW window on replay.
    act_tail: Vec<Picos>,
    /// Total classified (queue-entering) ACT issues so far.
    queued: u64,
    /// Offsets of the last ≤[`ACT_QUEUE_DEPTH`] classified ACT issues,
    /// for reconstructing the command queue on replay.
    queue_tail: Vec<Picos>,
}

/// A recorded command-stream cost delta: the exact sequence of clock/energy
/// additions, counter deltas, and tFAW-window tail a query's command stream
/// produces when issued from a [`Engine::tfaw_window_inert`] state.
/// Captured with [`Engine::begin_tape`]/[`Engine::end_tape`] and applied —
/// bit-identically, without re-simulating commands — with
/// [`Engine::apply_replayed`]. The plan-cache layer in `pluto-core` keys
/// tapes by everything that can shift the delta, its `PlanKey`: timing
/// and energy fingerprints, backend, design, segment length and LISA hop
/// distances; see `DESIGN.md` §10.
#[derive(Debug, Clone)]
pub struct CostTape {
    ops: Vec<TapeOp>,
    stats: CommandStats,
    entry_sig: TimingSig,
    acts: u64,
    act_tail: Vec<Picos>,
    queued: u64,
    queue_tail: Vec<Picos>,
    /// Open-row state (bank-level / charge-share, as end-relative ages)
    /// the taped stream leaves behind.
    end_bank_open: Vec<crate::timing_model::OpenSig>,
    end_share_open: Vec<crate::timing_model::OpenSig>,
    /// The backend the tape was recorded under. A tape embeds that
    /// backend's conflict/queue penalties in its deltas, so it is never
    /// replayable under the other backend.
    backend: TimingBackend,
}

impl CostTape {
    /// Command-counter delta the taped stream produces.
    pub fn stats(&self) -> &CommandStats {
        &self.stats
    }

    /// The timing backend this tape was recorded under.
    pub fn backend(&self) -> TimingBackend {
        self.backend
    }

    /// Whether applying this tape from `engine`'s current state is exact:
    /// the engine must run the same timing backend (a tape embeds its
    /// backend's penalties in the deltas), and the live timing-state
    /// signature — tFAW-window ages, command-queue ages, and open-row
    /// state — must equal the signature at capture time; anything else
    /// would shift the throttling/penalties the recorded deltas embed.
    /// Allocation-free; callers fall back to full issuance when this is
    /// false.
    pub fn replayable_from(&self, engine: &Engine) -> bool {
        self.backend == engine.backend && engine.timing_signature_matches(&self.entry_sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Engine {
        Engine::new(DramConfig {
            row_bytes: 16,
            burst_bytes: 8,
            banks: 2,
            subarrays_per_bank: 8,
            rows_per_subarray: 32,
            ..DramConfig::ddr4_2400()
        })
    }

    #[test]
    fn activate_precharge_timing() {
        let mut e = tiny();
        let loc = RowLoc::new(0, 0, 0);
        e.activate(loc).unwrap();
        assert_eq!(e.elapsed(), e.timing().t_rcd);
        e.precharge(loc.bank, loc.subarray).unwrap();
        assert_eq!(e.elapsed(), e.timing().t_rcd + e.timing().t_rp);
        assert_eq!(e.stats().activates, 1);
        assert_eq!(e.stats().precharges, 1);
    }

    #[test]
    fn activate_energy_accumulates() {
        let mut e = tiny();
        e.activate(RowLoc::new(0, 0, 0)).unwrap();
        e.precharge(BankId(0), SubarrayId(0)).unwrap();
        let expect = e.energy_model().act_pre_cycle();
        assert!((e.command_energy().as_pj() - expect.as_pj()).abs() < 1e-9);
        assert!(
            e.total_energy() > e.command_energy(),
            "background power adds in"
        );
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut e = tiny();
        let loc = RowLoc::new(1, 3, 9);
        let data: Vec<u8> = (0..16).collect();
        e.write_row(loc, &data).unwrap();
        assert_eq!(e.read_row(loc).unwrap(), data);
        assert!(e.stats().read_bursts > 0);
        assert!(e.stats().write_bursts > 0);
    }

    #[test]
    fn write_row_length_validated() {
        let mut e = tiny();
        assert!(matches!(
            e.write_row(RowLoc::new(0, 0, 0), &[1, 2, 3]),
            Err(DramError::RowSizeMismatch { .. })
        ));
    }

    #[test]
    fn row_clone_copies_and_costs_two_acts() {
        let mut e = tiny();
        let src = RowLoc::new(0, 2, 4);
        e.poke_row(src, &[0x5A; 16]).unwrap();
        let t0 = e.elapsed();
        e.row_clone_fpm(src, RowId(7)).unwrap();
        assert_eq!(e.peek_row(src.with_row(7)).unwrap(), vec![0x5A; 16]);
        let dt = e.elapsed() - t0;
        assert_eq!(dt, e.timing().t_rcd.times(2) + e.timing().t_rp);
        assert_eq!(e.stats().row_clones, 1);
        assert_eq!(e.stats().activates, 2);
    }

    #[test]
    fn lisa_cost_scales_with_distance() {
        let mut e = tiny();
        let src = RowLoc::new(0, 1, 0);
        e.poke_row(src, &[9; 16]).unwrap();
        e.activate(src).unwrap();
        let t0 = e.elapsed();
        e.lisa_rbm(BankId(0), SubarrayId(1), SubarrayId(4)).unwrap();
        assert_eq!(e.elapsed() - t0, e.timing().t_lisa_hop.times(3));
        assert_eq!(e.stats().lisa_hops, 3);
        assert_eq!(
            e.row_buffer(BankId(0), SubarrayId(4)).unwrap().data,
            vec![9; 16]
        );
    }

    #[test]
    fn sweep_step_costs_match_table1_components() {
        // BSA step: tRCD + tRP. GSA/GMC step: tRCD only.
        let mut e = tiny();
        let loc = RowLoc::new(0, 0, 0);
        e.sweep_step(loc, SweepStepKind::FullCycle).unwrap();
        assert_eq!(e.elapsed(), e.timing().act_pre_cycle());
        let mut e = tiny();
        e.sweep_step(loc, SweepStepKind::ChargeShare).unwrap();
        assert_eq!(e.elapsed(), e.timing().t_rcd);
        // Charge-share steps may run back to back.
        e.sweep_step(loc.with_row(1), SweepStepKind::ChargeShare)
            .unwrap();
        assert_eq!(e.elapsed(), e.timing().t_rcd.times(2));
    }

    #[test]
    fn bsa_sweep_of_n_rows_costs_n_act_pre_cycles() {
        // Table 1: BSA query latency = (tRCD + tRP) × N.
        let mut e = tiny();
        let n = 16u16;
        for r in 0..n {
            e.sweep_step(RowLoc::new(0, 0, r), SweepStepKind::FullCycle)
                .unwrap();
        }
        assert_eq!(e.elapsed(), e.timing().act_pre_cycle().times(n as u64));
        let expect_e = e.energy_model().act_pre_cycle().times(n as u64);
        assert!((e.command_energy().as_pj() - expect_e.as_pj()).abs() < 1e-6);
    }

    #[test]
    fn gmc_sweep_of_n_rows_costs_n_trcd_plus_trp() {
        // Table 1: GMC query latency = tRCD × N + tRP.
        let mut e = tiny();
        let n = 16u16;
        for r in 0..n {
            e.sweep_step(RowLoc::new(0, 0, r), SweepStepKind::ChargeShare)
                .unwrap();
        }
        e.precharge(BankId(0), SubarrayId(0)).unwrap();
        assert_eq!(
            e.elapsed(),
            e.timing().t_rcd.times(n as u64) + e.timing().t_rp
        );
    }

    #[test]
    fn shift_row_composes_byte_and_bit_steps() {
        let mut e = tiny();
        let loc = RowLoc::new(0, 0, 0);
        let mut data = vec![0u8; 16];
        data[1] = 0xFF;
        e.poke_row(loc, &data).unwrap();
        let t0 = e.elapsed();
        e.shift_row(loc, true, 10).unwrap(); // 1 byte-step + 2 bit-steps
        let steps = 3u64;
        assert_eq!(
            e.elapsed() - t0,
            (e.timing().t_rcd.times(2) + e.timing().t_rp).times(steps)
        );
        let row = e.peek_row(loc).unwrap();
        // 0xFF at byte 1 shifted left 10 bits: moves into byte 0 shifted by 2.
        assert_eq!(row[0], 0xFC);
    }

    #[test]
    fn shift_zero_is_free() {
        let mut e = tiny();
        e.shift_row(RowLoc::new(0, 0, 0), true, 0).unwrap();
        assert_eq!(e.elapsed(), Picos::ZERO);
    }

    #[test]
    fn tfaw_throttles_rapid_activations() {
        // Craft a timing set where activations are much faster than tFAW so
        // the window binds: tRCD = 1 ns, tFAW = 100 ns.
        let cfg = DramConfig {
            row_bytes: 8,
            burst_bytes: 8,
            ..DramConfig::ddr4_2400()
        };
        let mut timing = TimingParams::ddr4_2400();
        timing.t_rcd = Picos::from_ns(1.0);
        timing.t_rp = Picos::from_ns(1.0);
        timing.t_faw = Picos::from_ns(100.0);
        let mut e = Engine::with_models(cfg, timing, EnergyModel::ddr4());
        for r in 0..5 {
            e.sweep_step(RowLoc::new(0, 0, r), SweepStepKind::ChargeShare)
                .unwrap();
        }
        // Fifth ACT cannot issue before t = 100 ns (first ACT at t=0).
        assert!(e.elapsed() >= Picos::from_ns(100.0));
    }

    #[test]
    fn tfaw_disabled_when_zero() {
        let cfg = DramConfig {
            row_bytes: 8,
            burst_bytes: 8,
            ..DramConfig::ddr4_2400()
        };
        let mut timing = TimingParams::ddr4_2400();
        timing.t_rcd = Picos::from_ns(1.0);
        timing.t_rp = Picos::from_ns(1.0);
        timing = timing.with_t_faw_scale(0.0);
        let mut e = Engine::with_models(cfg, timing, EnergyModel::ddr4());
        for r in 0..8 {
            e.sweep_step(RowLoc::new(0, 0, r), SweepStepKind::ChargeShare)
                .unwrap();
        }
        assert_eq!(e.elapsed(), Picos::from_ns(8.0));
    }

    #[test]
    fn trace_records_commands() {
        let mut e = tiny();
        e.enable_trace();
        e.activate(RowLoc::new(0, 0, 0)).unwrap();
        e.precharge(BankId(0), SubarrayId(0)).unwrap();
        let trace = e.take_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].mnemonic(), "ACT");
        assert_eq!(trace[1].mnemonic(), "PRE");
    }

    #[test]
    fn parallel_lane_region_merges_as_max_latency_summed_energy() {
        // Two "lanes" of different lengths issued from one start time:
        // the clock ends at the slower lane's end, the energy at the sum.
        let mut e = tiny();
        e.activate(RowLoc::new(0, 0, 0)).unwrap();
        e.precharge(BankId(0), SubarrayId(0)).unwrap();
        let t0 = e.elapsed();
        let e0 = e.command_energy();
        // Lane 0: three sweep steps.
        for r in 0..3 {
            e.sweep_step(RowLoc::new(0, 1, r), SweepStepKind::FullCycle)
                .unwrap();
        }
        let lane0 = e.elapsed();
        // Lane 1: one sweep step, issued from the same start time.
        e.rewind_clock(t0);
        e.sweep_step(RowLoc::new(0, 2, 0), SweepStepKind::FullCycle)
            .unwrap();
        let lane1 = e.elapsed();
        assert!(lane1 < lane0);
        e.advance_clock_to(lane0.max(lane1));
        assert_eq!(e.elapsed() - t0, e.timing().act_pre_cycle().times(3));
        let de = e.command_energy() - e0;
        let expect = e.energy_model().act_pre_cycle().times(4);
        assert!((de.as_pj() - expect.as_pj()).abs() < 1e-9, "energy sums");
        assert_eq!(e.stats().sweep_steps, 4, "commands count across lanes");
    }

    #[test]
    fn rewind_and_advance_clamp_to_no_ops() {
        let mut e = tiny();
        e.activate(RowLoc::new(0, 0, 0)).unwrap();
        let now = e.elapsed();
        e.rewind_clock(now + Picos::from_ns(5.0)); // future: no-op
        assert_eq!(e.elapsed(), now);
        e.advance_clock_to(now.saturating_sub(Picos::from_ns(1.0))); // past: no-op
        assert_eq!(e.elapsed(), now);
    }

    #[test]
    fn rewind_drops_tfaw_entries_issued_after_the_mark() {
        // tFAW binds after 4 ACTs; rewinding to before a lane's ACTs must
        // forget them, so the next lane is throttled identically.
        let cfg = DramConfig {
            row_bytes: 8,
            burst_bytes: 8,
            ..DramConfig::ddr4_2400()
        };
        let mut timing = TimingParams::ddr4_2400();
        timing.t_rcd = Picos::from_ns(1.0);
        timing.t_rp = Picos::from_ns(1.0);
        timing.t_faw = Picos::from_ns(100.0);
        let mut e = Engine::with_models(cfg, timing, EnergyModel::ddr4());
        let t0 = e.elapsed();
        let lane = |e: &mut Engine| {
            for r in 0..5 {
                e.sweep_step(RowLoc::new(0, 0, r), SweepStepKind::ChargeShare)
                    .unwrap();
            }
            e.elapsed()
        };
        let lane0 = lane(&mut e);
        e.rewind_clock(t0);
        let lane1 = lane(&mut e);
        assert_eq!(lane0, lane1, "each lane sees a fresh tFAW window");
    }

    #[test]
    fn batched_sweep_is_bit_identical_to_step_loop() {
        // Use a tFAW-binding timing set so the activation window matters.
        let cfg = DramConfig {
            row_bytes: 16,
            burst_bytes: 8,
            ..DramConfig::ddr4_2400()
        };
        let mut timing = TimingParams::ddr4_2400();
        timing.t_rcd = Picos::from_ns(1.0);
        timing.t_rp = Picos::from_ns(1.0);
        timing.t_faw = Picos::from_ns(25.0);
        for kind in [SweepStepKind::FullCycle, SweepStepKind::ChargeShare] {
            let mut serial = Engine::with_models(cfg.clone(), timing.clone(), EnergyModel::ddr4());
            let mut batched = serial.clone();
            serial.enable_trace();
            batched.enable_trace();
            for e in [&mut serial, &mut batched] {
                for r in 0..9u16 {
                    e.poke_row(RowLoc::new(0, 1, r), &[r as u8; 16]).unwrap();
                }
            }
            for r in 0..9u16 {
                serial.sweep_step(RowLoc::new(0, 1, r), kind).unwrap();
            }
            batched
                .sweep_rows(BankId(0), SubarrayId(1), RowId(0), 9, kind)
                .unwrap();
            assert_eq!(serial.elapsed(), batched.elapsed(), "{kind:?} clock");
            assert_eq!(
                serial.command_energy().as_pj().to_bits(),
                batched.command_energy().as_pj().to_bits(),
                "{kind:?} energy bits"
            );
            assert_eq!(serial.stats(), batched.stats(), "{kind:?} stats");
            assert_eq!(serial.take_trace(), batched.take_trace(), "{kind:?} trace");
            assert_eq!(
                serial.array().buffer(BankId(0), SubarrayId(1)),
                batched.array().buffer(BankId(0), SubarrayId(1)),
                "{kind:?} buffer end state"
            );
        }
    }

    #[test]
    fn batched_sweep_rejects_out_of_range() {
        let mut e = tiny();
        assert!(e
            .sweep_rows(
                BankId(0),
                SubarrayId(0),
                RowId(30),
                5,
                SweepStepKind::FullCycle
            )
            .is_err());
        assert_eq!(e.stats().sweep_steps, 0, "no partial issue");
        e.sweep_rows(
            BankId(0),
            SubarrayId(0),
            RowId(0),
            0,
            SweepStepKind::FullCycle,
        )
        .unwrap();
        assert_eq!(e.elapsed(), Picos::ZERO, "empty sweep is free");
    }

    #[test]
    fn batched_lisa_reload_is_bit_identical_to_per_row_loop() {
        let master = SubarrayId(3);
        let pluto = SubarrayId(2);
        let mut serial = tiny();
        let mut batched = serial.clone();
        for e in [&mut serial, &mut batched] {
            for r in 0..7u16 {
                e.poke_row(
                    RowLoc {
                        bank: BankId(0),
                        subarray: master,
                        row: RowId(r),
                    },
                    &[0x40 + r as u8; 16],
                )
                .unwrap();
            }
        }
        serial.enable_trace();
        batched.enable_trace();
        // Serial reference: the per-row deposit + RBM loop the GSA reload
        // path used to issue.
        let mut row = Vec::new();
        for r in 0..7u16 {
            serial
                .peek_row_into(
                    RowLoc {
                        bank: BankId(0),
                        subarray: master,
                        row: RowId(r),
                    },
                    &mut row,
                )
                .unwrap();
            let data = row.clone();
            serial.deposit_buffer(BankId(0), master, &data).unwrap();
            serial
                .lisa_rbm_to_row(BankId(0), master, pluto, RowId(r))
                .unwrap();
        }
        batched
            .lisa_reload_rows(BankId(0), master, RowId(0), pluto, RowId(0), 7)
            .unwrap();
        assert_eq!(serial.elapsed(), batched.elapsed());
        assert_eq!(
            serial.command_energy().as_pj().to_bits(),
            batched.command_energy().as_pj().to_bits()
        );
        assert_eq!(serial.stats(), batched.stats());
        assert_eq!(serial.take_trace(), batched.take_trace());
        for r in 0..7u16 {
            let loc = RowLoc {
                bank: BankId(0),
                subarray: pluto,
                row: RowId(r),
            };
            assert_eq!(
                serial.peek_row(loc).unwrap(),
                batched.peek_row(loc).unwrap()
            );
        }
        for sa in [master, pluto] {
            assert_eq!(
                serial.array().buffer(BankId(0), sa),
                batched.array().buffer(BankId(0), sa),
                "buffer end state of {sa:?}"
            );
        }
    }

    #[test]
    fn out_of_bounds_everywhere() {
        let mut e = tiny();
        assert!(e.activate(RowLoc::new(99, 0, 0)).is_err());
        assert!(e.precharge(BankId(99), SubarrayId(0)).is_err());
        assert!(e
            .sweep_step(RowLoc::new(0, 99, 0), SweepStepKind::FullCycle)
            .is_err());
        assert!(e.row_clone_fpm(RowLoc::new(0, 0, 0), RowId(999)).is_err());
        assert!(e.shift_row(RowLoc::new(0, 0, 999), true, 1).is_err());
    }

    /// An engine with binding timing: 1 ns ACT/PRE against a 25 ns tFAW,
    /// so four back-to-back sweep steps leave a window that throttles.
    fn binding() -> Engine {
        let cfg = DramConfig {
            row_bytes: 16,
            burst_bytes: 8,
            ..DramConfig::ddr4_2400()
        };
        let mut timing = TimingParams::ddr4_2400();
        timing.t_rcd = Picos::from_ns(1.0);
        timing.t_rp = Picos::from_ns(1.0);
        timing.t_faw = Picos::from_ns(25.0);
        Engine::with_models(cfg, timing, EnergyModel::ddr4())
    }

    /// A representative query-shaped stream (reload, activate, sweep,
    /// precharge, copy-out RBM, precharge) issued on `e`.
    fn issue_query_shape(e: &mut Engine) {
        e.lisa_reload_rows(
            BankId(0),
            SubarrayId(4),
            RowId(0),
            SubarrayId(3),
            RowId(0),
            6,
        )
        .unwrap();
        e.activate(RowLoc::new(0, 1, 0)).unwrap();
        e.sweep_rows(
            BankId(0),
            SubarrayId(3),
            RowId(0),
            6,
            SweepStepKind::ChargeShare,
        )
        .unwrap();
        e.precharge(BankId(0), SubarrayId(3)).unwrap();
        e.deposit_buffer(BankId(0), SubarrayId(3), &[0; 16])
            .unwrap();
        e.lisa_rbm_to_row(BankId(0), SubarrayId(3), SubarrayId(1), RowId(9))
            .unwrap();
        e.precharge(BankId(0), SubarrayId(1)).unwrap();
    }

    #[test]
    fn tape_replay_is_bit_identical_from_a_different_inert_state() {
        // Capture from one inert state, replay from another (different
        // clock, different energy history). End clock, energy bits, and
        // counters must all match a freshly issued stream from the replay
        // state.
        let mut rec = binding();
        rec.begin_tape();
        issue_query_shape(&mut rec);
        let tape = rec.end_tape().expect("capture survived");

        // A different start state: some prior history, then idle long
        // enough that the window is inert.
        let mut a = binding();
        a.sweep_step(RowLoc::new(0, 0, 0), SweepStepKind::FullCycle)
            .unwrap();
        a.advance_clock_to(a.elapsed() + Picos::from_ns(100.0));
        assert!(a.tfaw_window_inert());
        let mut b = a.clone();

        issue_query_shape(&mut a); // issuing oracle
        b.apply_replayed(&tape); // memoized replay
        assert_eq!(b.elapsed(), a.elapsed(), "replayed clock == issued clock");
        assert_eq!(
            b.command_energy().as_pj().to_bits(),
            a.command_energy().as_pj().to_bits(),
            "replayed energy bit-identical"
        );
        assert_eq!(b.stats(), a.stats(), "replayed counters == issued");
    }

    #[test]
    fn tape_replay_reconstructs_the_tfaw_window() {
        // After replay, a follow-on burst of ACTs must throttle exactly
        // as it does after the issued stream.
        let mut rec = binding();
        rec.begin_tape();
        issue_query_shape(&mut rec);
        let tape = rec.end_tape().expect("capture survived");

        let mut a = binding();
        a.advance_clock_to(Picos::from_ns(50.0));
        let mut b = a.clone();
        issue_query_shape(&mut a);
        b.apply_replayed(&tape);
        // Immediate follow-on ACT pressure: the 4-deep window recorded on
        // the tape must throttle the replayed engine identically.
        for r in 0..6u16 {
            a.sweep_step(RowLoc::new(0, 2, r), SweepStepKind::ChargeShare)
                .unwrap();
            b.sweep_step(RowLoc::new(0, 2, r), SweepStepKind::ChargeShare)
                .unwrap();
        }
        assert_eq!(a.elapsed(), b.elapsed(), "tFAW throttling agrees");
    }

    #[test]
    fn tfaw_window_inert_truth_table() {
        let mut e = binding();
        assert!(e.tfaw_window_inert(), "empty window is inert");
        e.sweep_step(RowLoc::new(0, 0, 0), SweepStepKind::ChargeShare)
            .unwrap();
        assert!(!e.tfaw_window_inert(), "fresh ACT arms the window");
        e.advance_clock_to(e.elapsed() + Picos::from_ns(30.0));
        assert!(e.tfaw_window_inert(), "aged past t_faw");
        let mut z = tiny();
        let mut timing = z.timing().clone();
        timing.t_faw = Picos::ZERO;
        z = Engine::with_models(z.config().clone(), timing, EnergyModel::ddr4());
        z.sweep_step(RowLoc::new(0, 0, 0), SweepStepKind::ChargeShare)
            .unwrap();
        assert!(z.tfaw_window_inert(), "disabled window is always inert");
    }

    #[test]
    fn rewind_during_capture_voids_the_tape() {
        let mut e = binding();
        e.begin_tape();
        let mark = e.elapsed();
        e.activate(RowLoc::new(0, 0, 0)).unwrap();
        e.rewind_clock(mark);
        assert!(e.end_tape().is_none(), "absolute-time jump drops capture");
        e.begin_tape();
        e.abort_tape();
        assert!(e.end_tape().is_none(), "abort drops capture");
    }

    /// The plain loop [`add_repeated`] stands in for.
    fn add_loop(mut acc: f64, e: f64, n: u64) -> f64 {
        for _ in 0..n {
            acc += e;
        }
        acc
    }

    #[test]
    fn add_repeated_matches_the_plain_loop_bit_for_bit() {
        use sim_support::prop;
        use sim_support::prop_assert_eq;
        const FRAC: u64 = (1 << 52) - 1;
        prop::check("add_repeated_vs_loop", 3000, |g| {
            let acc = match g.range(0u32..6) {
                0 => 0.0,
                // Subnormal.
                1 => f64::from_bits(g.range(1..=FRAC)),
                // Normal with a biased exponent ≤ 52: the ulp is subnormal.
                2 => f64::from_bits(g.range(1u64..=52) << 52 | (g.any::<u64>() & FRAC)),
                // Just below a power of two.
                3 => {
                    let power = 2f64.powi(g.range(-30i32..50));
                    f64::from_bits(power.to_bits() - g.range(1u64..=4096))
                }
                _ => g.range(0.0..1e15),
            };
            // The accumulator's ulp (a normal `acc` only; otherwise unused).
            let ulp = f64::from_bits(acc.to_bits() + 1) - acc;
            let e = match g.range(0u32..7) {
                0 => 0.0,
                1 => f64::from(g.range(1u32..100_000)) / 3.0,
                2 => f64::from(g.range(1u32..100_000)) / 7.0,
                3 => 0.1 * f64::from(g.range(1u32..100_000)),
                // An exact half-ulp tie at the accumulator's binade.
                4 if acc.is_normal() => ulp / 2.0 * f64::from(2 * g.range(0u32..1 << 20) + 1),
                // At least the accumulator.
                5 => acc * g.range(1.0..4.0),
                _ => acc * g.range(0.0..1.0),
            };
            let n = if g.range(0u32..40) == 0 {
                g.range(1u64 << 20..=1 << 21)
            } else {
                g.range(0u64..=4096)
            };
            prop_assert_eq!(
                add_repeated(acc, e, n).to_bits(),
                add_loop(acc, e, n).to_bits(),
                "acc {acc:e} ({:#x}) e {e:e} n {n}",
                acc.to_bits()
            );
            Ok(())
        });
    }

    #[test]
    fn fractional_tape_replays_across_a_power_of_two_bit_for_bit() {
        // Fractional energies: f64 sums of these round, so a replay that
        // added `energy × repeat` at once, or skipped a step that changes
        // binade, lands on different bits than the issuing path.
        let energy = EnergyModel {
            e_act: PicoJoules::from_pj(29_837.409),
            e_pre: PicoJoules::from_pj(2_340.321),
            e_rd_burst: PicoJoules::from_pj(4_000.7),
            e_wr_burst: PicoJoules::from_pj(4_200.9),
            e_lisa_hop: PicoJoules::from_pj(24_125.839),
            e_charge_share: PicoJoules::from_pj(18_000.3),
            background_watts: 0.35,
        };
        let fresh = || {
            let b = binding();
            Engine::with_models(b.config().clone(), b.timing().clone(), energy.clone())
        };
        let mut rec = fresh();
        rec.begin_tape();
        issue_query_shape(&mut rec);
        let tape = rec.end_tape().expect("capture survived");
        // The six-row reload run crosses 2^20 at its third step; the
        // others sit one ulp or half a picojoule below a power of two.
        for start in [
            2f64.powi(20) - 60_000.123,
            f64::from_bits(2f64.powi(20).to_bits() - 1),
            2f64.powi(30) - 0.5,
        ] {
            let mut issued = fresh();
            issued.command_energy = PicoJoules(start);
            let mut replayed = issued.clone();
            issue_query_shape(&mut issued);
            replayed.apply_replayed(&tape);
            assert_eq!(
                replayed.command_energy().as_pj().to_bits(),
                issued.command_energy().as_pj().to_bits(),
                "energy from {start}"
            );
            assert_eq!(replayed.elapsed(), issued.elapsed(), "clock from {start}");
            assert_eq!(replayed.stats(), issued.stats(), "counters from {start}");
        }
    }
}
