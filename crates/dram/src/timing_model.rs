//! The timing-backend seam (`DESIGN.md` §11).
//!
//! The paper's evaluation uses a purely *analytic* cost model: every
//! command has a fixed latency and the only cross-command constraint is
//! the rolling four-activate window (tFAW). That is faithful to §7.1 of
//! the paper, but the serving front-end and compiled plans now generate
//! concurrent traffic whose realism is capped by it. This module
//! separates *what the command stream is* (the [`crate::Engine`]) from
//! *when each activation may issue*, a policy the engine asks its
//! [`TimingBackend`] for:
//!
//! * [`TimingBackend::Analytic`] — the original model. Row-buffer state
//!   is *tracked* (hit/miss/conflict counters) but never *charged*.
//! * [`TimingBackend::Banked`] — an event-driven per-bank policy that
//!   charges row-buffer conflicts (an open row's tRAS residency, then
//!   the implicit precharge's tRP) and models a bounded per-rank
//!   command queue of [`ACT_QUEUE_DEPTH`] in-flight activations, where
//!   an activation arriving at a full queue waits for the oldest entry
//!   to retire (one tRAS after its issue).
//!
//! The policy is pure: all bank, row and queue state lives in the
//! engine's tracking state (`RankState`), which both backends maintain
//! identically under the same classification rules. So on any serial
//! single-bank command stream — no conflicts, and queue occupancy
//! bounded by ⌈tRAS/tRCD⌉, well below the queue depth — every penalty
//! term is zero and the two backends agree *bit for bit* on latency and
//! energy. That exact-agreement invariant is the correctness contract
//! locked by `tests/timing_backend.rs`.
//!
//! ## Geometry alignment (what gets classified)
//!
//! Borrowing the DRAMsim3-integration lesson that the backend's view of
//! the geometry must match the command stream's *exactly* (SNIPPETS.md
//! §1–2), only commands that use a bank-level or subarray-level row
//! buffer participate:
//!
//! * **Standard activations** (`Engine::activate`, including those
//!   inside `read_row`/`write_row`) contend for the *bank-level* row
//!   buffer: at most one open row per bank; opening over another
//!   subarray's open row is a conflict.
//! * **pLUTo sweep steps** use the pLUTo subarray's *local* sense
//!   amplifiers (the SALP-style isolation the paper's design depends
//!   on), so they never conflict with the bank-level buffer. A
//!   charge-share step chaining onto an already-open local buffer is a
//!   row-buffer *hit*; a full ACT+PRE cycle step is always a miss and
//!   leaves nothing open.
//! * **Compound in-DRAM ops** (RowClone, LISA, Ambit TRA, DRISA shifts)
//!   are internally precharge-terminated and bypass both buffers: they
//!   stay subject to tFAW, but are exempt from classification and the
//!   command queue.

use crate::geometry::{BankId, RowId, SubarrayId};
use crate::timing::TimingParams;
use crate::units::Picos;
use std::collections::VecDeque;
use std::fmt;

/// Selects the policy that resolves an [`crate::Engine`]'s activation
/// issue times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimingBackend {
    /// The paper's analytic model: fixed per-command latencies under the
    /// tFAW window only. Row-buffer state is tracked but never charged.
    #[default]
    Analytic,
    /// Event-driven per-bank backend: charges row-buffer conflicts and
    /// bounded command-queue contention.
    Banked,
}

impl fmt::Display for TimingBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingBackend::Analytic => write!(f, "analytic"),
            TimingBackend::Banked => write!(f, "banked"),
        }
    }
}

/// Row-buffer classification of one activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActClass {
    /// The target row buffer already holds the needed row (charge-share
    /// chain, or re-activation of the open row).
    Hit,
    /// The target row buffer is closed.
    Miss,
    /// The bank-level row buffer holds a different row, which must be
    /// closed (tRAS residency + tRP) before this activation can issue.
    Conflict,
}

/// Depth of the bounded per-rank command queue modeled by the banked
/// backend: an activation finding [`ACT_QUEUE_DEPTH`] not-yet-retired
/// predecessors must wait for the oldest to age out (one tRAS).
pub const ACT_QUEUE_DEPTH: usize = 8;

/// A [`TimingBackend`]'s resolved issue decision for one activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActIssue {
    /// The final issue time.
    pub at: Picos,
    /// Whether the bounded command queue was full at the attempted issue
    /// time (counted by both backends; only the banked one delays).
    pub queue_stalled: bool,
}

impl TimingBackend {
    /// Resolves the issue time of one classified activation.
    ///
    /// `at` already honors the tFAW window. `conflict_open` carries the
    /// conflicting open row's activation time when `class` is
    /// [`ActClass::Conflict`]; `queue_gate` carries the earliest time a
    /// queue slot frees when the bounded queue is full. The analytic
    /// policy charges nothing but still counts the would-be queue stall,
    /// so the two backends' statistics stay comparable.
    pub(crate) fn act_issue(
        self,
        at: Picos,
        class: ActClass,
        conflict_open: Option<Picos>,
        queue_gate: Option<Picos>,
        timing: &TimingParams,
    ) -> ActIssue {
        match self {
            TimingBackend::Analytic => ActIssue {
                at,
                queue_stalled: queue_gate.is_some_and(|gate| gate > at),
            },
            TimingBackend::Banked => {
                let mut at = at;
                if let (ActClass::Conflict, Some(opened)) = (class, conflict_open) {
                    // The open row must satisfy its tRAS residency before
                    // the implicit precharge can issue; tRP then restores
                    // the bitlines. Time-only: the closing precharge's
                    // energy is already charged by the stream's own PREs.
                    at = at.max(opened + timing.t_ras) + timing.t_rp;
                }
                let queue_stalled = queue_gate.is_some_and(|gate| gate > at);
                if let Some(gate) = queue_gate {
                    at = at.max(gate);
                }
                ActIssue { at, queue_stalled }
            }
        }
    }
}

/// One open row buffer tracked by [`RankState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OpenEntry {
    pub(crate) bank: BankId,
    pub(crate) subarray: SubarrayId,
    pub(crate) row: RowId,
    /// When the row was activated (tRAS residency reference).
    pub(crate) opened_at: Picos,
}

/// Compact open-entry form used in timing signatures and tape
/// end-states: `(bank, subarray, row, age)`. Ages are clamped to tRAS —
/// an entry resident longer than tRAS behaves identically to one
/// resident exactly tRAS for every future decision.
pub(crate) type OpenSig = (u16, u16, u16, Picos);

/// Complete timing-state signature of an engine relative to its clock:
/// tFAW-window ages, command-queue ages, and both open-row domains. Two
/// engine states with equal signatures time any identical future
/// command stream identically — the replay-legality witness recorded on
/// cost tapes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TimingSig {
    /// tFAW-window entry ages (oldest first), empty when inert.
    pub(crate) faw: Vec<Picos>,
    /// Command-queue entry ages still younger than tRAS.
    pub(crate) queue: Vec<Picos>,
    /// Open bank-level rows, ages clamped to tRAS.
    pub(crate) bank_open: Vec<OpenSig>,
    /// Open charge-share chains, ages clamped to tRAS.
    pub(crate) share_open: Vec<OpenSig>,
}

/// Timing-relevant tracking state maintained identically by both
/// backends: the open bank-level row buffers, the open charge-share
/// chains, and the bounded command queue of recent classified ACT issue
/// times.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RankState {
    /// Bank-level row buffers (at most one entry per bank).
    pub(crate) bank_open: Vec<OpenEntry>,
    /// Subarray-local charge-share chains (pLUTo sweep state).
    pub(crate) share_open: Vec<OpenEntry>,
    /// Issue times of the most recent classified activations (at most
    /// [`ACT_QUEUE_DEPTH`]).
    pub(crate) queue: VecDeque<Picos>,
}

impl RankState {
    /// Classifies a standard activation against the bank-level row
    /// buffer, returning the conflicting open time if any.
    pub(crate) fn classify_standard(
        &self,
        bank: BankId,
        subarray: SubarrayId,
        row: RowId,
    ) -> (ActClass, Option<Picos>) {
        match self.bank_open.iter().find(|o| o.bank == bank) {
            None => (ActClass::Miss, None),
            Some(o) if o.subarray == subarray && o.row == row => (ActClass::Hit, None),
            Some(o) => (ActClass::Conflict, Some(o.opened_at)),
        }
    }

    /// Records a standard activation: the bank's row buffer now holds
    /// this row (closing whatever it held before).
    pub(crate) fn apply_standard(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        row: RowId,
        at: Picos,
    ) {
        self.bank_open.retain(|o| o.bank != bank);
        self.bank_open.push(OpenEntry {
            bank,
            subarray,
            row,
            opened_at: at,
        });
    }

    /// Classifies a charge-share sweep step against the subarray-local
    /// chain state.
    pub(crate) fn classify_share(&self, bank: BankId, subarray: SubarrayId) -> ActClass {
        if self
            .share_open
            .iter()
            .any(|o| o.bank == bank && o.subarray == subarray)
        {
            ActClass::Hit
        } else {
            ActClass::Miss
        }
    }

    /// Records a charge-share step: the subarray's local buffer is (or
    /// stays) open, refreshed to `at`.
    pub(crate) fn apply_share(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        row: RowId,
        at: Picos,
    ) {
        if let Some(o) = self
            .share_open
            .iter_mut()
            .find(|o| o.bank == bank && o.subarray == subarray)
        {
            o.row = row;
            o.opened_at = at;
        } else {
            self.share_open.push(OpenEntry {
                bank,
                subarray,
                row,
                opened_at: at,
            });
        }
    }

    /// A precharge closes both the bank-level buffer (when it holds this
    /// subarray's row) and the subarray's charge-share chain.
    pub(crate) fn close(&mut self, bank: BankId, subarray: SubarrayId) {
        self.bank_open
            .retain(|o| !(o.bank == bank && o.subarray == subarray));
        self.share_open
            .retain(|o| !(o.bank == bank && o.subarray == subarray));
    }

    /// The earliest time a queue slot frees, when the queue is full.
    pub(crate) fn queue_gate(&self, t_ras: Picos) -> Option<Picos> {
        (self.queue.len() >= ACT_QUEUE_DEPTH)
            .then(|| self.queue[self.queue.len() - ACT_QUEUE_DEPTH] + t_ras)
    }

    /// Pushes a classified activation's issue time, keeping the newest
    /// [`ACT_QUEUE_DEPTH`] entries.
    pub(crate) fn push_queue(&mut self, at: Picos) {
        self.queue.push_back(at);
        if self.queue.len() > ACT_QUEUE_DEPTH {
            self.queue.pop_front();
        }
    }

    /// Drops every record from `to` onward (strict boundary, matching
    /// `Engine::rewind_clock`: an event at exactly `to` belongs to the
    /// abandoned region being rewound away).
    pub(crate) fn rewind(&mut self, to: Picos) {
        self.queue.retain(|&t| t < to);
        self.bank_open.retain(|o| o.opened_at < to);
        self.share_open.retain(|o| o.opened_at < to);
    }

    /// Forgets all tracking state (used by `reset_accounting`).
    pub(crate) fn clear(&mut self) {
        self.bank_open.clear();
        self.share_open.clear();
        self.queue.clear();
    }

    fn open_sig(entries: &[OpenEntry], clock: Picos, t_ras: Picos) -> Vec<OpenSig> {
        entries
            .iter()
            .map(|o| {
                let age = clock.saturating_sub(o.opened_at);
                (
                    o.bank.0,
                    o.subarray.0,
                    o.row.0,
                    if age > t_ras { t_ras } else { age },
                )
            })
            .collect()
    }

    /// Bank-level open-row signature relative to `clock`.
    pub(crate) fn bank_open_sig(&self, clock: Picos, t_ras: Picos) -> Vec<OpenSig> {
        Self::open_sig(&self.bank_open, clock, t_ras)
    }

    /// Charge-share open signature relative to `clock`.
    pub(crate) fn share_open_sig(&self, clock: Picos, t_ras: Picos) -> Vec<OpenSig> {
        Self::open_sig(&self.share_open, clock, t_ras)
    }

    /// Queue signature relative to `clock`: ages of the entries still
    /// young enough to matter. An entry older than tRAS can never gate a
    /// future activation (its slot frees in the past) and the overflow
    /// eviction order is age-independent, so it is omitted.
    pub(crate) fn queue_sig(&self, clock: Picos, t_ras: Picos) -> Vec<Picos> {
        self.queue
            .iter()
            .filter(|&&t| clock.saturating_sub(t) < t_ras)
            .map(|&t| clock.saturating_sub(t))
            .collect()
    }

    /// Allocation-free check that this state's queue and open-row
    /// signatures (relative to `clock`) equal the recorded ones (the
    /// tFAW half of the signature is the engine's to check).
    pub(crate) fn matches_sig(&self, sig: &TimingSig, clock: Picos, t_ras: Picos) -> bool {
        let open_matches = |entries: &[OpenEntry], recorded: &[OpenSig]| {
            entries.len() == recorded.len()
                && entries
                    .iter()
                    .zip(recorded)
                    .all(|(o, &(bank, subarray, row, age))| {
                        let a = clock.saturating_sub(o.opened_at);
                        o.bank.0 == bank
                            && o.subarray.0 == subarray
                            && o.row.0 == row
                            && (if a > t_ras { t_ras } else { a }) == age
                    })
        };
        self.queue
            .iter()
            .filter(|&&t| clock.saturating_sub(t) < t_ras)
            .map(|&t| clock.saturating_sub(t))
            .eq(sig.queue.iter().copied())
            && open_matches(&self.bank_open, &sig.bank_open)
            && open_matches(&self.share_open, &sig.share_open)
    }

    /// Replaces the open-state from a tape's recorded end-state (ages
    /// relative to `clock`).
    pub(crate) fn restore_open(
        &mut self,
        bank_open: &[OpenSig],
        share_open: &[OpenSig],
        clock: Picos,
    ) {
        let expand = |sig: &[OpenSig]| {
            sig.iter()
                .map(|&(bank, subarray, row, age)| OpenEntry {
                    bank: BankId(bank),
                    subarray: SubarrayId(subarray),
                    row: RowId(row),
                    opened_at: clock.saturating_sub(age),
                })
                .collect::<Vec<_>>()
        };
        self.bank_open = expand(bank_open);
        self.share_open = expand(share_open);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_classification_hits_misses_and_conflicts() {
        let mut rank = RankState::default();
        let (b, sa, row) = (BankId(0), SubarrayId(1), RowId(7));
        assert_eq!(rank.classify_standard(b, sa, row), (ActClass::Miss, None));
        rank.apply_standard(b, sa, row, Picos::from_ns(10.0));
        assert_eq!(rank.classify_standard(b, sa, row), (ActClass::Hit, None));
        // Different row, same bank: conflict against the open time.
        let (class, open) = rank.classify_standard(b, SubarrayId(2), RowId(0));
        assert_eq!(class, ActClass::Conflict);
        assert_eq!(open, Some(Picos::from_ns(10.0)));
        // Another bank is independent.
        assert_eq!(
            rank.classify_standard(BankId(1), sa, row),
            (ActClass::Miss, None)
        );
        rank.close(b, sa);
        assert_eq!(rank.classify_standard(b, sa, row), (ActClass::Miss, None));
    }

    #[test]
    fn share_chains_are_subarray_local_and_never_conflict() {
        let mut rank = RankState::default();
        let (b, sa) = (BankId(0), SubarrayId(3));
        // A standard open row in the same bank does not make the sweep
        // a conflict — sweeps use the subarray's local sense amps.
        rank.apply_standard(b, SubarrayId(1), RowId(0), Picos::ZERO);
        assert_eq!(rank.classify_share(b, sa), ActClass::Miss);
        rank.apply_share(b, sa, RowId(4), Picos::from_ns(5.0));
        assert_eq!(rank.classify_share(b, sa), ActClass::Hit);
        rank.close(b, sa);
        assert_eq!(rank.classify_share(b, sa), ActClass::Miss);
        // Closing the share chain left the bank-level entry alone.
        assert_eq!(
            rank.classify_standard(b, SubarrayId(1), RowId(0)),
            (ActClass::Hit, None)
        );
    }

    #[test]
    fn queue_gates_only_when_full() {
        let mut rank = RankState::default();
        let t_ras = Picos::from_ns(32.0);
        for i in 0..ACT_QUEUE_DEPTH as u64 - 1 {
            rank.push_queue(Picos(i));
            assert_eq!(rank.queue_gate(t_ras), None);
        }
        rank.push_queue(Picos(99));
        // Full: the slot occupied by the oldest entry frees at t + tRAS.
        assert_eq!(rank.queue_gate(t_ras), Some(Picos(0) + t_ras));
        rank.push_queue(Picos(100));
        assert_eq!(rank.queue.len(), ACT_QUEUE_DEPTH);
        assert_eq!(rank.queue_gate(t_ras), Some(Picos(1) + t_ras));
    }

    #[test]
    fn rewind_boundary_is_strict() {
        let mut rank = RankState::default();
        rank.push_queue(Picos(5));
        rank.push_queue(Picos(10));
        rank.apply_standard(BankId(0), SubarrayId(0), RowId(0), Picos(10));
        rank.apply_share(BankId(0), SubarrayId(1), RowId(0), Picos(9));
        rank.rewind(Picos(10));
        assert_eq!(rank.queue, [Picos(5)]);
        assert!(rank.bank_open.is_empty(), "entry opened at the mark drops");
        assert_eq!(rank.share_open.len(), 1);
    }

    #[test]
    fn signatures_clamp_stale_ages() {
        let mut rank = RankState::default();
        let t_ras = Picos::from_ns(32.0);
        rank.apply_standard(BankId(0), SubarrayId(0), RowId(3), Picos::ZERO);
        rank.push_queue(Picos::ZERO);
        rank.push_queue(Picos::from_ns(100.0));
        let clock = Picos::from_ns(120.0);
        // The open entry is far past tRAS: age clamps to tRAS.
        assert_eq!(rank.bank_open_sig(clock, t_ras), vec![(0, 0, 3, t_ras)]);
        // The tRAS-stale queue entry is inert and omitted; the young one
        // appears as an age.
        assert_eq!(rank.queue_sig(clock, t_ras), vec![Picos::from_ns(20.0)]);
    }

    #[test]
    fn restore_open_round_trips() {
        let mut rank = RankState::default();
        let t_ras = Picos::from_ns(32.0);
        let clock = Picos::from_ns(50.0);
        rank.apply_standard(BankId(1), SubarrayId(2), RowId(3), Picos::from_ns(40.0));
        rank.apply_share(BankId(1), SubarrayId(4), RowId(0), Picos::from_ns(45.0));
        let banks = rank.bank_open_sig(clock, t_ras);
        let shares = rank.share_open_sig(clock, t_ras);
        let mut fresh = RankState::default();
        fresh.restore_open(&banks, &shares, clock);
        assert_eq!(fresh, rank);
    }

    #[test]
    fn analytic_model_charges_nothing() {
        let timing = TimingParams::ddr4_2400();
        let at = Picos::from_ns(100.0);
        let issue = TimingBackend::Analytic.act_issue(
            at,
            ActClass::Conflict,
            Some(Picos::from_ns(99.0)),
            Some(Picos::from_ns(150.0)),
            &timing,
        );
        assert_eq!(issue.at, at, "analytic issue time is never delayed");
        assert!(issue.queue_stalled, "but the would-be stall is counted");
    }

    #[test]
    fn hits_and_misses_are_free() {
        let timing = TimingParams::ddr4_2400();
        let at = Picos::from_ns(100.0);
        for class in [ActClass::Hit, ActClass::Miss] {
            let issue = TimingBackend::Banked.act_issue(at, class, None, None, &timing);
            assert_eq!(issue.at, at);
            assert!(!issue.queue_stalled);
        }
    }

    #[test]
    fn conflict_waits_out_tras_then_pays_trp() {
        let timing = TimingParams::ddr4_2400();
        // Row opened at 90 ns, conflict attempted at 100 ns: the open
        // row holds until 90 + tRAS, then tRP.
        let opened = Picos::from_ns(90.0);
        let at = Picos::from_ns(100.0);
        let issue =
            TimingBackend::Banked.act_issue(at, ActClass::Conflict, Some(opened), None, &timing);
        assert_eq!(issue.at, opened + timing.t_ras + timing.t_rp);
        // A long-resident open row (tRAS already satisfied) only costs
        // the precharge.
        let stale = Picos::from_ns(10.0);
        let issue =
            TimingBackend::Banked.act_issue(at, ActClass::Conflict, Some(stale), None, &timing);
        assert_eq!(issue.at, at + timing.t_rp);
    }

    #[test]
    fn full_queue_delays_issue() {
        let timing = TimingParams::ddr4_2400();
        let at = Picos::from_ns(50.0);
        let gate = Picos::from_ns(60.0);
        let issue = TimingBackend::Banked.act_issue(at, ActClass::Miss, None, Some(gate), &timing);
        assert_eq!(issue.at, gate);
        assert!(issue.queue_stalled);
        // A gate already in the past neither stalls nor delays.
        let past = Picos::from_ns(40.0);
        let issue = TimingBackend::Banked.act_issue(at, ActClass::Miss, None, Some(past), &timing);
        assert_eq!(issue.at, at);
        assert!(!issue.queue_stalled);
    }

    #[test]
    fn conflict_resolution_can_absorb_the_queue_gate() {
        let timing = TimingParams::ddr4_2400();
        let opened = Picos::from_ns(100.0);
        let at = Picos::from_ns(101.0);
        // Conflict pushes the issue past the queue gate: no stall is
        // charged on top (the queue drained while the bank closed).
        let gate = Picos::from_ns(110.0);
        let issue = TimingBackend::Banked.act_issue(
            at,
            ActClass::Conflict,
            Some(opened),
            Some(gate),
            &timing,
        );
        assert_eq!(issue.at, opened + timing.t_ras + timing.t_rp);
        assert!(!issue.queue_stalled);
    }
}
