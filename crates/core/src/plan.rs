//! Compiled query plans (`DESIGN.md` §10): a process-wide cache of
//! [`CostTape`]s memoizing the command-stream cost of one segment lane.
//!
//! The word-parallel split made commands authoritative for *cost* and
//! words authoritative for *data*. Every query runs as a
//! [`crate::partition::PartitionedLut`] (a LUT that fits one subarray is
//! the one-segment case), and each segment lane's command stream — and
//! therefore its cost delta — is a pure function of the timing and
//! energy models, the timing backend, the design, the segment's length,
//! placement distances, and residency state; the data path is a single
//! gather. So the cost side can be *compiled*: the first lane issued
//! under a `PlanKey` records a [`CostTape`] while running the ordinary
//! issuing path, and every later lane under the same key applies the tape
//! via [`Engine::apply_replayed`], skipping per-command simulation
//! entirely. Lanes are the only tape shape, so a tape carries no phase
//! marks and the key carries no shape or slot count (a lane's cost is
//! independent of how many slots the query fills).
//!
//! ## Legality
//!
//! A tape is context-independent only when nothing outside the key can
//! shift the delta. The lane loop therefore gates replay (and capture) on:
//!
//! - the live tFAW-window *signature* at replay matching the one recorded
//!   at capture ([`CostTape::replayable_from`]) — a warm window throttles
//!   ACTs by an amount that depends on the ages of its entries;
//! - command tracing being off ([`Engine::trace_enabled`]) — a replayed
//!   delta has no per-command stream to append to the trace;
//! - the store being resident, or the design reloading per query — a
//!   stale BSA/GMC store needs a *functional* reload the replay would skip.
//!
//! Any failed gate falls back to full issuance (counted in
//! [`PlanStats::fallbacks`]) and the issuing path stays available as the
//! differential oracle (`PartitionedLut::set_use_plans(false)`), mirroring
//! `execute_scalar_reference` / `query_serial_reference`.
//!
//! The cache mirrors the packed-row cache in [`crate::store`]: one
//! process-wide map under a mutex, cleared wholesale past a deterministic
//! cap. Unlike packed rows, tapes need no identity witness — the cost of a
//! sweep is independent of the element *values*, the LUT's name and its
//! bit widths, so two segments of one length sharing a key is correct,
//! not a collision. In front of the map, each segment store keeps the key
//! and tape its last lane used, so a repeat lane under the same key skips
//! the map and its lock; such hits and every fallback reach the counters
//! through one `LaneTally` per query.

use crate::design::DesignKind;
use crate::store::LutStore;
use pluto_dram::{CostTape, Engine};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Counters of the process-wide plan cache (see [`plan_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Lane lookups that found a tape, in the segment store's own tape
    /// handle or in the shared map (a found tape that is not replayable
    /// from the lane's start state also counts a fallback).
    pub hits: u64,
    /// Lanes that recorded a new tape while issuing.
    pub misses: u64,
    /// Lanes that ran the issuing path because a legality gate failed
    /// (trace on, warm tFAW window, stale store, or plans disabled on a
    /// differential-oracle partition).
    pub fallbacks: u64,
    /// Tapes currently cached.
    pub entries: usize,
    /// Tapes dropped because the cache reached its entry cap.
    pub evictions: u64,
}

/// Everything that can shift a lane's command-stream cost delta. Two
/// lanes with equal keys issue identical command streams from any start
/// state with the same timing signature, so one recorded tape serves
/// both. The geometry, the LUT's name and its bit widths are absent on
/// purpose: a lane reads the configuration only through its timing and
/// energy models (fingerprinted below), and the LUT only through its
/// length (`tests/plan_key.rs` perturbs each of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// Timing fingerprint: the eight `Picos` parameters plus the applied
    /// tFAW scale's bits, so `with_models` engines (SALP/tFAW sweeps)
    /// never share tapes with the defaults.
    timing: [u64; 9],
    /// Energy fingerprint: the seven model parameters' `f64` bits.
    energy: [u64; 7],
    /// Timing backend the tape was recorded under — a tape is never
    /// replayed across backends (`DESIGN.md` §11), so the key must
    /// separate them even though serial single-bank streams agree.
    backend: pluto_dram::TimingBackend,
    design: DesignKind,
    /// Segment rows swept (and reloaded, for GSA).
    lut_len: usize,
    /// LISA distance master ↔ pLUTo subarray (reload cost per row).
    reload_hops: u16,
    /// LISA distance pLUTo subarray ↔ destination (copy-out cost).
    out_hops: u16,
    /// Destination sharing the source subarray reorders the closing
    /// precharge, which reorders the f64 energy additions.
    dest_is_source: bool,
}

impl PlanKey {
    /// Builds the key for a lane about to run on `engine` against the
    /// segment `store`. `out_hops` and `dest_is_source` come from the
    /// caller's placement.
    pub(crate) fn new(
        engine: &Engine,
        design: DesignKind,
        store: &LutStore,
        out_hops: u16,
        dest_is_source: bool,
    ) -> PlanKey {
        let t = engine.timing();
        let e = engine.energy_model();
        PlanKey {
            timing: [
                t.t_rcd.as_ps(),
                t.t_rp.as_ps(),
                t.t_ras.as_ps(),
                t.t_faw.as_ps(),
                t.t_cl.as_ps(),
                t.t_ccd.as_ps(),
                t.t_burst.as_ps(),
                t.t_lisa_hop.as_ps(),
                t.t_faw_scale_applied.to_bits(),
            ],
            energy: [
                e.e_act.as_pj().to_bits(),
                e.e_pre.as_pj().to_bits(),
                e.e_rd_burst.as_pj().to_bits(),
                e.e_wr_burst.as_pj().to_bits(),
                e.e_lisa_hop.as_pj().to_bits(),
                e.e_charge_share.as_pj().to_bits(),
                e.background_watts.to_bits(),
            ],
            backend: engine.timing_backend(),
            design,
            lut_len: store.lut().len(),
            reload_hops: store.master().0.abs_diff(store.subarray().0),
            out_hops,
            dest_is_source,
        }
    }
}

#[derive(Debug, Default)]
struct PlanCache {
    entries: HashMap<PlanKey, Arc<CostTape>>,
    hits: u64,
    misses: u64,
    fallbacks: u64,
    evictions: u64,
}

/// Entry count at which the cache resets (a deterministic guard against
/// unbounded growth). Tapes are small, so the count bounds the bytes
/// too: `figure_sweep` (18 registry workloads × 6 configurations)
/// records 13,196 distinct tapes in about 10.7 MiB with their keys, an
/// average of 850 B each, so a full cache pins about 27 MiB. The cap
/// holds that working set with room to spare, so a sweep repeated in one
/// process records nothing twice.
const PLAN_CACHE_CAP: usize = 32_768;

/// Locks the cache. It is pure memoization, so a map left behind by a
/// panicking lock holder is still safe to read: recover it rather than
/// fail every later query in the process.
fn plan_cache() -> MutexGuard<'static, PlanCache> {
    static CACHE: OnceLock<Mutex<PlanCache>> = OnceLock::new();
    CACHE
        .get_or_init(|| Mutex::new(PlanCache::default()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Looks up a tape, bumping the hit/miss counters.
pub(crate) fn lookup(key: &PlanKey) -> Option<Arc<CostTape>> {
    let mut cache = plan_cache();
    let hit = cache.entries.get(key).map(Arc::clone);
    match hit {
        Some(_) => cache.hits += 1,
        None => cache.misses += 1,
    }
    hit
}

/// Stores a freshly recorded tape, first clearing the cache (and
/// counting every dropped tape as an eviction) if it is full. Returns the
/// shared handle, for the recording store to keep.
pub(crate) fn insert(key: PlanKey, tape: CostTape) -> Arc<CostTape> {
    let tape = Arc::new(tape);
    let mut cache = plan_cache();
    if cache.entries.len() >= PLAN_CACHE_CAP {
        cache.evictions += cache.entries.len() as u64;
        cache.entries.clear();
    }
    cache.entries.insert(key, Arc::clone(&tape));
    tape
}

/// Hits served by segment stores' own tape handles and lanes that fell
/// back to issuing, counted locally during one query's lane loop and
/// added to the shared counters under one lock when the tally drops —
/// on every return path, an early error included.
#[derive(Debug, Default)]
pub(crate) struct LaneTally {
    pub(crate) hits: u64,
    pub(crate) fallbacks: u64,
}

impl Drop for LaneTally {
    fn drop(&mut self) {
        if self.hits + self.fallbacks > 0 {
            let mut cache = plan_cache();
            cache.hits += self.hits;
            cache.fallbacks += self.fallbacks;
        }
    }
}

/// Hit/miss/fallback/eviction counters and occupancy of the plan cache
/// (process-wide; the counters are monotonic, like
/// [`crate::store::packed_cache_stats`]).
pub fn plan_stats() -> PlanStats {
    let cache = plan_cache();
    PlanStats {
        hits: cache.hits,
        misses: cache.misses,
        fallbacks: cache.fallbacks,
        entries: cache.entries.len(),
        evictions: cache.evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut;
    use crate::partition::PartitionedLut;
    use pluto_dram::{BankId, DramConfig, RowId, SubarrayId};

    /// Queries a one-segment LUT on a fresh engine (so every call starts
    /// from the same timing state and a cached tape replays).
    fn query_fresh(lut: &Lut, inputs: &[u64]) -> Vec<u64> {
        let mut engine = Engine::new(DramConfig {
            row_bytes: 32,
            burst_bytes: 8,
            banks: 1,
            subarrays_per_bank: 8,
            rows_per_subarray: 64,
            ..DramConfig::ddr4_2400()
        });
        let mut part =
            PartitionedLut::load(&mut engine, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
        let (out, _) = part
            .query(
                &mut engine,
                DesignKind::Gmc,
                SubarrayId(0),
                SubarrayId(1),
                inputs,
                RowId(0),
                RowId(1),
            )
            .unwrap();
        out
    }

    #[test]
    fn queries_survive_a_panic_that_poisons_the_cache_lock() {
        let poisoner = std::thread::spawn(|| {
            let _cache = plan_cache();
            panic!("a lock holder panics");
        });
        assert!(poisoner.join().is_err(), "the lock holder panicked");

        let lut = Lut::from_fn("plan-poison-probe", 5, 8, |x| x ^ 0x5A).unwrap();
        let inputs: Vec<u64> = (0..32).collect();
        let expect: Vec<u64> = inputs.iter().map(|&x| x ^ 0x5A).collect();
        assert_eq!(query_fresh(&lut, &inputs), expect, "cold query records");
        let before = plan_stats();
        assert_eq!(query_fresh(&lut, &inputs), expect, "warm query replays");
        // Counters are process-wide and other tests query concurrently,
        // so only lower-bound them.
        assert!(plan_stats().hits > before.hits, "the warm lane hit");
    }
}
