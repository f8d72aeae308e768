//! Partitioned LUT queries across subarrays (paper §5.6).
//!
//! A single-subarray query supports at most `rows_per_subarray` LUT
//! elements. Larger LUTs are *partitioned*: segment `k` (rows
//! `k·R .. (k+1)·R` of the logical LUT) lives in its own pLUTo-enabled
//! subarray, every subarray sweeps its segment simultaneously, and each
//! input element matches in exactly one segment. The paper's §5.6 cost
//! semantics: **latency does not increase** (segments sweep in parallel)
//! but **energy multiplies by the segment count** — which is why pLUTo is
//! "not well suited for executing large-bit-width lookup queries".
//!
//! This module is the single implementation of those semantics
//! (`DESIGN.md` §8):
//!
//! * **Segment layout.** Segments are stored at the parent LUT's *true*
//!   `output_bits` with the parent's slot width pinned as a floor
//!   ([`crate::lut::Lut::with_min_slot_bits`]), so every segment element
//!   row is byte-identical to the corresponding row of the unpartitioned
//!   layout and row capacity is uniform across segments. Because of that
//!   identity, the parent is packed **once**, in one pass, and one
//!   packed-row cache entry ([`crate::store`]) holds every segment's table
//!   and rows, with tail padding drawn from one shared zero row. Loading N
//!   segments is one cache lookup, then each segment's row table enters
//!   its pLUTo and master subarrays as one copy-on-write handle each.
//!   Tail segments whose length is not a power of two are padded with
//!   masked-out zero elements (inputs are validated against the *parent*
//!   length, so the pad rows can never match). A table that is exactly
//!   one power-of-two sweep is its own single segment, with no element
//!   copy.
//! * **Data path — fused single pass.** Commands and data are split:
//!   each segment's *command stream* is still issued in full (that is
//!   what §5.6 charges), but the *data work* is one gather over the
//!   parent element table — `merged[i] = elements[inputs[i]]` — plus one
//!   input pack and one output pack. The old path re-based the input
//!   vector, re-packed the source row, and re-merged outputs once **per
//!   segment** (O(N × slots) data work); the fused path is O(slots + N).
//!   The invariant: *commands per lane, data in one pass.*
//! * **Cost merge.** Per-segment command streams stay authoritative for
//!   cost, issued as *parallel lanes* on the engine
//!   ([`Engine::rewind_clock`] / [`Engine::advance_clock_to`]): every
//!   lane starts at the region's start time, the clock closes at the
//!   slowest lane's end, and energy/commands accumulate across lanes.
//!   The engine's own clock and energy deltas therefore *equal* the
//!   returned [`PartitionedCost`] — there is no second bookkeeping to
//!   drift out of sync. The fused path issues each lane's spends in the
//!   exact order the per-segment [`QueryExecutor`] did, so the cost is
//!   bit-identical to the retained serial reference
//!   ([`PartitionedLut::query_serial_reference`], locked down by
//!   `tests/partition_fused.rs`).
//!
//! A LUT that fits one subarray is the one-segment case of the same
//! query (§5.6: latency is the slowest lane's, energy the sum over
//! lanes), so every LUT is stored and queried as a [`PartitionedLut`]:
//! [`crate::library::PlutoMachine`] and [`crate::controller::Controller`]
//! (and therefore every `Session` and `Cluster` worker) hold one store
//! type and run one query path, with plan replay in one lane loop.

use crate::design::DesignKind;
use crate::error::PlutoError;
use crate::lut::{pack_slots_into, unpack_slots_into, Lut};
use crate::plan::{self, PlanKey};
use crate::query::{
    check_capacity, check_range, copy_out, QueryExecutor, QueryPlacement, QueryScratch,
};
use crate::store::LutStore;
use pluto_dram::{BankId, Engine, PicoJoules, Picos, RowId, RowLoc, SubarrayId, SweepStepKind};

/// Rows per segment and segment count of a `len`-entry LUT partitioned
/// over subarrays of `rows_per_subarray` rows — the one segment rule
/// shared by [`PartitionedLut::load`] and the serve path's machine
/// sizing. Segments must be powers of two (§6.1's `lut_size` constraint
/// holds per sweep), so on a non-power-of-two geometry only the largest
/// power-of-two row prefix is usable per subarray.
pub(crate) fn segment_layout(len: usize, rows_per_subarray: usize) -> (usize, usize) {
    let max_rows = 1usize << rows_per_subarray.max(1).ilog2();
    let segment_rows = max_rows.min(len.next_power_of_two());
    (segment_rows, len.div_ceil(segment_rows))
}

/// A LUT stored across one or more pLUTo-enabled subarrays, one segment
/// per subarray.
#[derive(Debug)]
pub struct PartitionedLut {
    lut: Lut,
    segments: Vec<LutStore>,
    segment_rows: usize,
    /// Whether serially issued lanes may use the compiled-plan cache
    /// (`crate::plan`); disabled on differential-oracle partitions.
    use_plans: bool,
}

/// Cost of a partitioned query under the §5.6 semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionedCost {
    /// Number of segments (subarrays) engaged.
    pub segments: usize,
    /// Wall latency: the slowest segment lane's end-to-end query cost.
    pub latency: Picos,
    /// Total energy: the *sum* over all segments (§5.6: "partitioning the
    /// query … increases energy consumption N-fold").
    pub energy: PicoJoules,
}

impl PartitionedLut {
    /// Loads `lut` across as many subarrays as needed, starting at
    /// `first_subarray` and claiming one (pLUTo, master) pair per segment.
    /// Any LUT length ≥ 2 is accepted — including truncated tables
    /// ([`Lut::from_fn_len`]) — because the tail segment is padded to the
    /// next power of two with masked-out elements (§6.1 forbids a
    /// non-power-of-two sweep, so a truncated table that fits one
    /// subarray is one padded segment).
    ///
    /// Loading is one packed-row cache lookup for the whole partition:
    /// the entry holds every segment's table and its packed rows as one
    /// shared row table, which lands in the segment's pLUTo and master
    /// subarrays as one handle each.
    ///
    /// # Errors
    /// Fails if the bank runs out of subarrays.
    pub fn load(
        engine: &mut Engine,
        lut: Lut,
        bank: BankId,
        first_subarray: SubarrayId,
    ) -> Result<Self, PlutoError> {
        let rows = engine.config().rows_per_subarray as usize;
        let row_bytes = engine.config().row_bytes;
        let (segment_rows, count) = segment_layout(lut.len(), rows);
        let packed = crate::store::packed_segments(&lut, row_bytes, segment_rows)?;
        debug_assert_eq!(packed.len(), count);
        let mut segments = Vec::with_capacity(count);
        for (k, seg) in packed.iter().enumerate() {
            let pluto = SubarrayId(first_subarray.0 + 2 * k as u16);
            let master = SubarrayId(pluto.0 + 1);
            if master.0 >= engine.config().subarrays_per_bank {
                return Err(PlutoError::AllocationFailed {
                    reason: format!("segment {k} exceeds the bank's subarrays"),
                });
            }
            let store =
                LutStore::load_shared(engine, seg.lut.clone(), bank, pluto, master, 0, &seg.rows)?;
            segments.push(store);
        }
        Ok(PartitionedLut {
            lut,
            segments,
            segment_rows,
            use_plans: true,
        })
    }

    /// The logical (parent) LUT.
    pub fn lut(&self) -> &Lut {
        &self.lut
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Logical LUT rows per segment (the tail segment may own fewer).
    pub fn segment_rows(&self) -> usize {
        self.segment_rows
    }

    /// The per-segment stores, in segment order.
    pub fn segments(&self) -> &[LutStore] {
        &self.segments
    }

    /// The bank holding every segment.
    pub fn bank(&self) -> BankId {
        self.segments[0].bank()
    }

    /// Subarrays this store occupies (one (pLUTo, master) pair per
    /// segment) — what an allocator must advance its cursor by.
    pub fn subarrays_claimed(&self) -> u16 {
        2 * self.segments.len() as u16
    }

    /// Enables or disables the compiled-plan cache for serially issued
    /// segment lanes. With plans off every lane runs the full issuing
    /// stream — the differential oracle for plan replay.
    pub fn set_use_plans(&mut self, on: bool) {
        self.use_plans = on;
    }

    /// Executes the partitioned query: every segment sweeps as a parallel
    /// lane; outputs merge by each input's owning segment. Inputs are
    /// packed into `src_row` of the `source` subarray (left holding the
    /// global index vector) and the merged output vector is committed to
    /// `dst_row` of `dest`. Returns the outputs and the §5.6 cost
    /// (max-latency, summed energy), which the engine's own clock and
    /// energy deltas also reflect.
    ///
    /// # Errors
    /// Fails if any input exceeds the logical LUT's range.
    #[allow(clippy::too_many_arguments)]
    pub fn query(
        &mut self,
        engine: &mut Engine,
        design: DesignKind,
        source: SubarrayId,
        dest: SubarrayId,
        inputs: &[u64],
        src_row: RowId,
        dst_row: RowId,
    ) -> Result<(Vec<u64>, PartitionedCost), PlutoError> {
        let mut scratch = QueryScratch::new();
        let cost = self.query_with(
            engine,
            design,
            source,
            dest,
            inputs,
            src_row,
            dst_row,
            &mut scratch,
        )?;
        Ok((scratch.out, cost))
    }

    /// [`PartitionedLut::query`] with caller-owned scratch buffers: the
    /// merged output vector lands in [`QueryScratch::outputs`], and the
    /// source and output rows are staged in the scratch's row buffer. This
    /// is the hot-path entry point the machine/controller use.
    ///
    /// # Errors
    /// Fails if any input exceeds the logical LUT's range.
    #[allow(clippy::too_many_arguments)]
    pub fn query_with(
        &mut self,
        engine: &mut Engine,
        design: DesignKind,
        source: SubarrayId,
        dest: SubarrayId,
        inputs: &[u64],
        src_row: RowId,
        dst_row: RowId,
        scratch: &mut QueryScratch,
    ) -> Result<PartitionedCost, PlutoError> {
        let QueryScratch { out, row, .. } = scratch;
        self.query_fused(
            engine, design, source, dest, inputs, src_row, dst_row, out, row, true,
        )
    }

    /// Query whose input vector is already resident in `src_row` of
    /// `source` (the controller's `pluto_op` path):
    /// `num_slots` slots at the parent LUT's slot width are read back as
    /// global indices, queried, and the source row is left holding the
    /// same global index vector it started with.
    ///
    /// When the parent's slot width already bounds every representable
    /// value to a valid index ([`Lut::slot_width_bounds_inputs`]), the
    /// per-query linear range scan is hoisted off this path entirely.
    ///
    /// # Errors
    /// Fails if any resident slot exceeds the logical LUT's range.
    #[allow(clippy::too_many_arguments)]
    pub fn query_resident_with(
        &mut self,
        engine: &mut Engine,
        design: DesignKind,
        source: SubarrayId,
        dest: SubarrayId,
        src_row: RowId,
        dst_row: RowId,
        num_slots: usize,
        scratch: &mut QueryScratch,
    ) -> Result<PartitionedCost, PlutoError> {
        let src_loc = RowLoc {
            bank: self.bank(),
            subarray: source,
            row: src_row,
        };
        let QueryScratch { live, out, row } = scratch;
        engine.peek_row_into(src_loc, row)?;
        unpack_slots_into(row, self.lut.slot_bits(), num_slots, live);
        let check = !self.lut.slot_width_bounds_inputs();
        self.query_fused(
            engine, design, source, dest, live, src_row, dst_row, out, row, check,
        )
    }

    /// The fused single-pass query behind both entry points: one gather
    /// over the parent element table produces the merged outputs in
    /// `merged`, one pack each into `row` for the source/destination
    /// rows, and each segment's command stream is issued as a parallel
    /// lane on the engine. `check` is false only where the slot width
    /// already bounds every input to the table.
    #[allow(clippy::too_many_arguments)]
    fn query_fused(
        &mut self,
        engine: &mut Engine,
        design: DesignKind,
        source: SubarrayId,
        dest: SubarrayId,
        inputs: &[u64],
        src_row: RowId,
        dst_row: RowId,
        merged: &mut Vec<u64>,
        row: &mut Vec<u8>,
        check: bool,
    ) -> Result<PartitionedCost, PlutoError> {
        if check {
            check_range(inputs, &self.lut)?;
        }
        let bank = self.bank();
        let slot_bits = self.lut.slot_bits();
        let row_bytes = engine.config().row_bytes;
        check_capacity(inputs.len(), row_bytes, slot_bits)?;

        // The fused single pass: data work is one gather over the parent
        // table (plus the two packs below), regardless of segment count.
        // It lands straight in the caller's scratch, so a resident store
        // keeps no buffer of its own between queries.
        let elements = self.lut.elements();
        merged.clear();
        merged.extend(inputs.iter().map(|&x| elements[x as usize]));

        // Real §5.6 hardware broadcasts the *global* index vector to every
        // segment; poke it once (zero-cost backdoor — the per-lane
        // activations below carry the real cost).
        let src_loc = RowLoc {
            bank,
            subarray: source,
            row: src_row,
        };
        pack_slots_into(inputs, slot_bits, row_bytes, row)?;
        engine.poke_row(src_loc, row)?;

        // §5.6: all segments sweep simultaneously. Issue each segment's
        // command stream as a parallel lane from one start time; the
        // region closes at the slowest lane's end, so the engine clock
        // advances by the max while energy and command counters sum.
        let clock0 = engine.elapsed();
        let energy0 = engine.command_energy();
        // Every lane commits the *merged* output row (each subarray's
        // copy-out only drives the slots its segment matched; the merged
        // vector is what the destination row holds when the last lane's
        // RBM lands).
        pack_slots_into(merged, slot_bits, row_bytes, row)?;
        self.issue_lanes(engine, design, dest, src_loc, dst_row, row)?;

        Ok(PartitionedCost {
            segments: self.segments.len(),
            latency: engine.elapsed() - clock0,
            energy: engine.command_energy() - energy0,
        })
    }

    /// Issues every segment's command stream serially on the engine, each
    /// as a parallel lane from the current clock. The per-lane spend
    /// sequence replicates [`QueryExecutor::execute_with`] after its
    /// source-row write exactly (reload → activate → sweep →
    /// precharge/destroy → copy-out), so cost, counters, and the tFAW
    /// window evolve bit-identically to the old per-segment executor loop.
    /// `out_row` must hold the packed merged output row.
    ///
    /// Each lane consults the compiled-plan cache (`crate::plan`): a
    /// warm lane applies its memoized cost tape and skips issuance; the
    /// functional effects the tape stands in for — the destination-row
    /// commit and GSA destruction — are applied directly. A segment store
    /// keeps the key and tape its last lane used, so a lane whose key
    /// matches skips the shared cache; its hit, like every fallback, is
    /// counted in one locked update per query.
    fn issue_lanes(
        &mut self,
        engine: &mut Engine,
        design: DesignKind,
        dest: SubarrayId,
        src_loc: RowLoc,
        dst_row: RowId,
        out_row: &[u8],
    ) -> Result<(), PlutoError> {
        let bank = src_loc.bank;
        let clock0 = engine.elapsed();
        let mut slowest = clock0;
        let plans_ok = self.use_plans && !engine.trace_enabled();
        let mut any_replayed = false;
        let mut tally = plan::LaneTally::default();
        for store in self.segments.iter_mut() {
            engine.rewind_clock(clock0);
            // A stale BSA/GMC segment needs the *functional* reload only
            // the issuing path performs.
            let legal = plans_ok && (design.reload_per_query() || store.is_loaded());
            let mut record: Option<PlanKey> = None;
            if legal {
                let key = PlanKey::new(
                    engine,
                    design,
                    store,
                    store.subarray().0.abs_diff(dest.0),
                    dest == src_loc.subarray,
                );
                if matches!(&store.tape, Some((held, _)) if *held == key) {
                    tally.hits += 1;
                } else {
                    // The shared lookup counts its own hit or miss.
                    store.tape = plan::lookup(&key).map(|tape| (key, tape));
                }
                let replayed = match &store.tape {
                    Some((_, tape)) if tape.replayable_from(engine) => {
                        engine.apply_replayed(tape);
                        true
                    }
                    Some(_) => {
                        // Captured from a different tFAW phase (e.g. a
                        // hop-distance key collision between two lane
                        // positions) — issue in full.
                        tally.fallbacks += 1;
                        false
                    }
                    None => {
                        engine.begin_tape();
                        record = Some(key);
                        false
                    }
                };
                if replayed {
                    // The sweep the tape stands in for destroyed the
                    // segment (zero-cost functional effect).
                    if design.destructive_reads() {
                        store.mark_destroyed(engine)?;
                    }
                    any_replayed = true;
                    slowest = slowest.max(engine.elapsed());
                    continue;
                }
            } else if self.use_plans {
                tally.fallbacks += 1;
            }
            if let Err(e) = issue_lane(engine, design, store, dest, src_loc, dst_row, out_row) {
                engine.abort_tape();
                return Err(e);
            }
            if let Some(key) = record {
                if let Some(tape) = engine.end_tape() {
                    store.tape = Some((key, plan::insert(key, tape)));
                }
            }
            slowest = slowest.max(engine.elapsed());
        }
        engine.advance_clock_to(slowest);
        if any_replayed {
            // Replayed lanes skipped the LISA write-through; commit the
            // merged output row they would have landed (idempotent when
            // issued lanes already wrote the same bytes).
            engine.poke_row(
                RowLoc {
                    bank,
                    subarray: dest,
                    row: dst_row,
                },
                out_row,
            )?;
        }
        Ok(())
    }

    /// The retained pre-fusion data path: one full [`QueryExecutor`] run
    /// per segment with rebased inputs, re-packed source rows, and an
    /// O(N × slots) output merge. Kept verbatim as the differential
    /// oracle — `tests/partition_fused.rs` asserts the fused path matches
    /// it in outputs, [`PartitionedCost`] (to the bit), engine clock,
    /// stats, and committed row bytes. Not a production entry point.
    ///
    /// # Errors
    /// Fails if any input exceeds the logical LUT's range.
    #[allow(clippy::too_many_arguments)]
    pub fn query_serial_reference(
        &mut self,
        engine: &mut Engine,
        design: DesignKind,
        source: SubarrayId,
        dest: SubarrayId,
        inputs: &[u64],
        src_row: RowId,
        dst_row: RowId,
        scratch: &mut QueryScratch,
    ) -> Result<PartitionedCost, PlutoError> {
        check_range(inputs, &self.lut)?;
        let bank = self.bank();
        let slot_bits = self.lut.slot_bits();
        let row_bytes = engine.config().row_bytes;
        let mut merged = vec![0; inputs.len()];
        let mut local = Vec::with_capacity(inputs.len());

        let clock0 = engine.elapsed();
        let energy0 = engine.command_energy();
        let mut slowest = clock0;
        for (k, store) in self.segments.iter_mut().enumerate() {
            engine.rewind_clock(clock0);
            let base = (k * self.segment_rows) as u64;
            let span = store.lut().len() as u64;
            // Inputs rebased into this segment; out-of-segment slots query
            // index 0 (their captured values are discarded on merge).
            local.clear();
            local.extend(inputs.iter().map(|&x| {
                if x >= base && x < base + span {
                    x - base
                } else {
                    0
                }
            }));
            let placement = QueryPlacement {
                bank,
                source,
                pluto: store.subarray(),
                dest,
            };
            let mut ex = QueryExecutor::new(engine, design);
            ex.execute_with(store, placement, &local, src_row, dst_row, scratch)?;
            for (i, &x) in inputs.iter().enumerate() {
                if x >= base && x < base + span {
                    merged[i] = scratch.outputs()[i];
                }
            }
            slowest = slowest.max(engine.elapsed());
        }
        engine.advance_clock_to(slowest);

        // Restore the global index vector and commit the merged outputs
        // (zero-cost backdoors; the per-lane streams carried the cost).
        let src_loc = RowLoc {
            bank,
            subarray: source,
            row: src_row,
        };
        let mut row = Vec::new();
        pack_slots_into(inputs, slot_bits, row_bytes, &mut row)?;
        engine.poke_row(src_loc, &row)?;
        let dst_loc = RowLoc {
            bank,
            subarray: dest,
            row: dst_row,
        };
        pack_slots_into(&merged, slot_bits, row_bytes, &mut row)?;
        engine.poke_row(dst_loc, &row)?;
        scratch.out = merged;

        Ok(PartitionedCost {
            segments: self.segments.len(),
            latency: engine.elapsed() - clock0,
            energy: engine.command_energy() - energy0,
        })
    }
}

/// One segment's issuing lane — the spend sequence the per-segment
/// [`QueryExecutor`] produced pre-fusion, and the issuing path a lane's
/// plan tape is recorded from. `out_row` must hold the packed merged
/// output row.
fn issue_lane(
    engine: &mut Engine,
    design: DesignKind,
    store: &mut LutStore,
    dest: SubarrayId,
    src_loc: RowLoc,
    dst_row: RowId,
    out_row: &[u8],
) -> Result<(), PlutoError> {
    let bank = src_loc.bank;
    let step_kind = design.sweep_step_kind();
    // Phase R: GSA reloads the LUT before every query (§5.2.1). The
    // reload is transient — full cost, no functional restore — because
    // this same lane destroys the segment again below, before any caller
    // can observe the restored rows.
    if design.reload_per_query() {
        store.reload_transient(engine)?;
    } else {
        store.ensure_ready(engine)?;
    }
    // Phase 1: latch the (global) input vector.
    engine.activate(src_loc)?;
    // Phases 2–4: the pLUTo Row Sweep, one step per segment row.
    let pluto = store.subarray();
    engine.sweep_rows(bank, pluto, RowId(0), store.lut().len(), step_kind)?;
    if step_kind == SweepStepKind::ChargeShare {
        engine.precharge(bank, pluto)?;
    }
    if design.destructive_reads() {
        store.mark_destroyed(engine)?;
    }
    // Phase 5: copy-out.
    let placement = QueryPlacement {
        bank,
        source: src_loc.subarray,
        pluto,
        dest,
    };
    copy_out(engine, placement, dst_row, out_row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::{pack_slots, slots_per_row, unpack_slots};
    use pluto_dram::DramConfig;

    fn engine() -> Engine {
        Engine::new(DramConfig {
            row_bytes: 32,
            burst_bytes: 8,
            banks: 1,
            subarrays_per_bank: 64,
            rows_per_subarray: 64, // force partitioning for 256-entry LUTs
            ..DramConfig::ddr4_2400()
        })
    }

    const SRC: SubarrayId = SubarrayId(0);
    const DST: SubarrayId = SubarrayId(1);

    #[test]
    fn large_lut_partitions_and_answers_correctly() {
        let mut e = engine();
        // 256-entry LUT over 64-row subarrays => 4 segments.
        let lut = Lut::from_fn("sq8", 8, 16, |x| x * x).unwrap();
        let mut part = PartitionedLut::load(&mut e, lut, BankId(0), SubarrayId(2)).unwrap();
        assert_eq!(part.segment_count(), 4);
        let inputs: Vec<u64> = (0..16u64).map(|i| i * 16 + 3).collect();
        let (out, cost) = part
            .query(
                &mut e,
                DesignKind::Gmc,
                SRC,
                DST,
                &inputs,
                RowId(0),
                RowId(1),
            )
            .unwrap();
        let expect: Vec<u64> = inputs.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
        assert_eq!(cost.segments, 4);
        assert_eq!(part.subarrays_claimed(), 8);
    }

    #[test]
    fn partition_cost_semantics_match_section_5_6() {
        // Latency equals a single 64-row query; energy is ~4x.
        let mut e = engine();
        let small = Lut::from_fn("sq6", 6, 16, |x| x * x).unwrap(); // 64 rows, 1 segment
        let mut p1 = PartitionedLut::load(&mut e, small, BankId(0), SubarrayId(2)).unwrap();
        let (_, c1) = p1
            .query(&mut e, DesignKind::Bsa, SRC, DST, &[5], RowId(0), RowId(1))
            .unwrap();
        let big = Lut::from_fn("sq8b", 8, 16, |x| x * x).unwrap(); // 4 segments
        let mut p4 = PartitionedLut::load(&mut e, big, BankId(0), SubarrayId(10)).unwrap();
        let (_, c4) = p4
            .query(&mut e, DesignKind::Bsa, SRC, DST, &[5], RowId(0), RowId(1))
            .unwrap();
        // Same wall latency up to LISA placement distance (each segment
        // sweeps the same 64 rows; the farthest segment's copy-out crosses
        // a few more subarrays).
        let delta = c4.latency.saturating_sub(c1.latency);
        assert!(
            delta.as_ns() < 300.0 && c4.latency.as_ns() / c1.latency.as_ns() < 1.2,
            "partitioned latency {} vs single {}",
            c4.latency,
            c1.latency
        );
        // …roughly segment-count-times the energy.
        let ratio = c4.energy.as_pj() / c1.energy.as_pj();
        assert!((ratio - 4.0).abs() < 0.5, "energy ratio {ratio}");
    }

    #[test]
    fn engine_accounting_agrees_with_partitioned_cost() {
        // The §5.6 merge is implemented *on the engine* (parallel lanes),
        // so the engine's clock/energy deltas must equal the returned
        // cost — the old per-segment serial loop advanced the clock
        // segment-count times instead.
        for design in DesignKind::ALL {
            let mut e = engine();
            let lut = Lut::from_fn("acct8", 8, 16, |x| x * 3).unwrap();
            let mut part = PartitionedLut::load(&mut e, lut, BankId(0), SubarrayId(2)).unwrap();
            let inputs: Vec<u64> = (0..16u64).map(|i| i * 17 % 256).collect();
            let t0 = e.elapsed();
            let e0 = e.command_energy();
            let (_, cost) = part
                .query(&mut e, design, SRC, DST, &inputs, RowId(0), RowId(1))
                .unwrap();
            assert_eq!(e.elapsed() - t0, cost.latency, "{design} clock drift");
            assert_eq!(
                (e.command_energy() - e0).as_pj().to_bits(),
                cost.energy.as_pj().to_bits(),
                "{design} energy drift"
            );
        }
    }

    #[test]
    fn odd_length_tail_segment_is_padded() {
        // 650 elements over 64-row subarrays: 10 full segments plus a
        // 10-element tail padded to 16. The old loader rejected any
        // non-power-of-two segment outright.
        let mut e = engine();
        let lut = Lut::from_fn_len("odd650", 650, 16, |x| (x * x) & 0xFFFF).unwrap();
        let mut part = PartitionedLut::load(&mut e, lut, BankId(0), SubarrayId(2)).unwrap();
        assert_eq!(part.segment_count(), 11);
        assert_eq!(part.segments()[10].lut().len(), 16, "tail padded to 2^4");
        // Seam and tail indices answer from the logical table.
        let inputs: Vec<u64> = vec![0, 63, 64, 127, 128, 639, 640, 648, 649];
        let (out, _) = part
            .query(
                &mut e,
                DesignKind::Gmc,
                SRC,
                DST,
                &inputs,
                RowId(0),
                RowId(1),
            )
            .unwrap();
        let expect: Vec<u64> = inputs.iter().map(|&x| (x * x) & 0xFFFF).collect();
        assert_eq!(out, expect);
        // Indices in the padded range are rejected like any out-of-range
        // input.
        assert!(matches!(
            part.query(
                &mut e,
                DesignKind::Gmc,
                SRC,
                DST,
                &[650],
                RowId(0),
                RowId(1)
            ),
            Err(PlutoError::IndexOutOfRange { value: 650, .. })
        ));
    }

    #[test]
    fn segments_keep_parent_output_bits_and_row_layout() {
        // Parent: 8-bit indices, 4-bit elements => slot width 8. The old
        // loader inflated segment output_bits to max(out, in); segments
        // must instead carry the true 4-bit output with the parent's slot
        // width pinned, making each element row byte-identical to the
        // unpartitioned layout.
        let mut e = engine();
        let lut = Lut::from_fn("narrow8to4", 8, 4, |x| x % 13).unwrap();
        let parent = lut.clone();
        let part = PartitionedLut::load(&mut e, lut, BankId(0), SubarrayId(2)).unwrap();
        let row_bytes = e.config().row_bytes;
        let per_row = slots_per_row(row_bytes, parent.slot_bits());
        for (k, seg) in part.segments().iter().enumerate() {
            assert_eq!(seg.lut().output_bits(), parent.output_bits(), "seg {k}");
            assert_eq!(seg.lut().slot_bits(), parent.slot_bits(), "seg {k}");
            for i in 0..seg.lut().len() {
                let global = k * part.segment_rows() + i;
                let elem = parent.elements()[global];
                let expect =
                    pack_slots(&vec![elem; per_row], parent.slot_bits(), row_bytes).unwrap();
                assert_eq!(
                    e.peek_row(seg.element_row(i)).unwrap(),
                    expect,
                    "seg {k} row {i} differs from the unpartitioned layout"
                );
            }
        }
    }

    #[test]
    fn sliced_segment_load_matches_master_copies_and_pad_rows() {
        // Each segment's table is a slice of the parent pack: element rows
        // land in both the pLUTo and master subarrays, and tail pad rows
        // are zero.
        let mut e = engine();
        let lut = Lut::from_fn_len("slice650", 650, 16, |x| (x * 7) & 0xFFFF).unwrap();
        let part = PartitionedLut::load(&mut e, lut, BankId(0), SubarrayId(2)).unwrap();
        let tail = part.segments().last().unwrap();
        for i in 0..tail.lut().len() {
            let pluto_row = e.peek_row(tail.element_row(i)).unwrap();
            let master_row = e
                .peek_row(RowLoc {
                    bank: BankId(0),
                    subarray: tail.master(),
                    row: RowId(i as u16),
                })
                .unwrap();
            assert_eq!(pluto_row, master_row, "row {i}: pluto vs master copy");
        }
        // 650 = 10×64 + 10: tail rows 10.. are shared zero padding.
        for i in 10..tail.lut().len() {
            assert!(
                e.peek_row(tail.element_row(i))
                    .unwrap()
                    .iter()
                    .all(|&b| b == 0),
                "pad row {i} must be zero"
            );
        }
    }

    #[test]
    fn shared_table_load_reads_like_a_per_row_load() {
        // A 4-segment load shares one row table per segment into its
        // pLUTo and master subarrays. Every row of those subarrays must
        // read as if each row had been written on its own, right after the
        // load and after one query (GSA's destruction included).
        let lut = Lut::from_fn("shared-vs-rows8", 8, 16, |x| (x * 7 + 1) & 0xFFFF).unwrap();
        let inputs: Vec<u64> = (0..16u64).map(|i| i * 16 + 5).collect();
        let per_row = slots_per_row(32, lut.slot_bits());
        for design in DesignKind::ALL {
            let mut shared = engine();
            let mut part =
                PartitionedLut::load(&mut shared, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
            assert_eq!(part.segment_count(), 4);
            // The oracle: the same stores with every row rewritten one by
            // one, each into its own buffer.
            let mut by_row = engine();
            let mut oracle =
                PartitionedLut::load(&mut by_row, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
            for seg in oracle.segments() {
                for (i, &elem) in seg.lut().elements().iter().enumerate() {
                    let bytes = pack_slots(&vec![elem; per_row], lut.slot_bits(), 32).unwrap();
                    for subarray in [seg.subarray(), seg.master()] {
                        let loc = RowLoc {
                            bank: BankId(0),
                            subarray,
                            row: RowId(i as u16),
                        };
                        by_row.poke_row(loc, &bytes).unwrap();
                    }
                }
            }
            let subarrays: Vec<SubarrayId> = part
                .segments()
                .iter()
                .flat_map(|seg| [seg.subarray(), seg.master()])
                .collect();
            let same_rows = |stage: &str, a: &Engine, b: &Engine| {
                for &subarray in &subarrays {
                    for row in 0..64 {
                        let loc = RowLoc {
                            bank: BankId(0),
                            subarray,
                            row: RowId(row),
                        };
                        assert_eq!(
                            a.peek_row(loc).unwrap(),
                            b.peek_row(loc).unwrap(),
                            "{design} {stage}: subarray {} row {row}",
                            subarray.0
                        );
                    }
                }
            };
            same_rows("after the load", &shared, &by_row);
            let (got, cost) = part
                .query(&mut shared, design, SRC, DST, &inputs, RowId(0), RowId(1))
                .unwrap();
            let (want, want_cost) = oracle
                .query(&mut by_row, design, SRC, DST, &inputs, RowId(0), RowId(1))
                .unwrap();
            assert_eq!((got, cost), (want, want_cost), "{design}");
            same_rows("after a query", &shared, &by_row);
        }
    }

    #[test]
    fn source_and_destination_rows_hold_global_vectors() {
        // After a partitioned query the source row holds the *global*
        // index vector (not the last segment's rebased copy) and the
        // destination row holds the *merged* output vector.
        let mut e = engine();
        let lut = Lut::from_fn("sq8r", 8, 16, |x| x * x).unwrap();
        let slot = lut.slot_bits();
        let mut part = PartitionedLut::load(&mut e, lut, BankId(0), SubarrayId(2)).unwrap();
        let inputs: Vec<u64> = vec![7, 200, 70, 135];
        part.query(
            &mut e,
            DesignKind::Bsa,
            SRC,
            DST,
            &inputs,
            RowId(0),
            RowId(3),
        )
        .unwrap();
        let src = e
            .peek_row(RowLoc {
                bank: BankId(0),
                subarray: SRC,
                row: RowId(0),
            })
            .unwrap();
        assert_eq!(unpack_slots(&src, slot, inputs.len()), inputs);
        let dst = e
            .peek_row(RowLoc {
                bank: BankId(0),
                subarray: DST,
                row: RowId(3),
            })
            .unwrap();
        let expect: Vec<u64> = inputs.iter().map(|&x| x * x).collect();
        assert_eq!(unpack_slots(&dst, slot, inputs.len()), expect);
    }

    #[test]
    fn small_luts_stay_single_segment() {
        // A table that is exactly one power-of-two sweep is its own
        // segment: one (pLUTo, master) pair and no element copy.
        let mut e = engine();
        let lut = Lut::from_fn("id4", 4, 4, |x| x).unwrap();
        let part = PartitionedLut::load(&mut e, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
        assert_eq!(part.segment_count(), 1);
        assert_eq!(part.subarrays_claimed(), 2);
        let seg = part.segments()[0].lut();
        assert_eq!(seg.name(), "id4");
        assert!(std::ptr::eq(seg.elements(), lut.elements()));
    }

    #[test]
    fn out_of_range_inputs_rejected() {
        let mut e = engine();
        let lut = Lut::from_fn("sq8c", 8, 16, |x| x * x).unwrap();
        let mut part = PartitionedLut::load(&mut e, lut, BankId(0), SubarrayId(2)).unwrap();
        assert!(matches!(
            part.query(
                &mut e,
                DesignKind::Bsa,
                SRC,
                DST,
                &[256],
                RowId(0),
                RowId(1)
            ),
            Err(PlutoError::IndexOutOfRange { value: 256, .. })
        ));
    }

    #[test]
    fn exhausting_subarrays_fails_cleanly() {
        let mut e = Engine::new(DramConfig {
            row_bytes: 32,
            burst_bytes: 8,
            banks: 1,
            subarrays_per_bank: 6, // room for at most 2 segments
            rows_per_subarray: 64,
            ..DramConfig::ddr4_2400()
        });
        let lut = Lut::from_fn("sq8d", 8, 16, |x| x * x).unwrap();
        assert!(matches!(
            PartitionedLut::load(&mut e, lut, BankId(0), SubarrayId(2)),
            Err(PlutoError::AllocationFailed { .. })
        ));
    }

    #[test]
    fn non_power_of_two_luts_that_fit_are_one_padded_segment() {
        // §6.1 forbids a non-power-of-two sweep, so a truncated 50-entry
        // LUT on a 64-row subarray is one segment, padded to 64 rows.
        let mut e = engine();
        let lut = Lut::from_fn_len("odd50", 50, 16, |x| x * 5).unwrap();
        let mut part = PartitionedLut::load(&mut e, lut, BankId(0), SubarrayId(2)).unwrap();
        assert_eq!(part.segment_count(), 1);
        assert_eq!(part.segments()[0].lut().len(), 64, "padded to 2^6");
        let mut scratch = QueryScratch::new();
        part.query_with(
            &mut e,
            DesignKind::Bsa,
            SRC,
            DST,
            &[0, 7, 49],
            RowId(0),
            RowId(1),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(scratch.outputs(), [0, 35, 245]);
        // Indices in the padded range stay invalid.
        assert!(matches!(
            part.query_with(
                &mut e,
                DesignKind::Bsa,
                SRC,
                DST,
                &[50],
                RowId(0),
                RowId(1),
                &mut scratch,
            ),
            Err(PlutoError::IndexOutOfRange { value: 50, .. })
        ));
    }

    #[test]
    fn one_query_path_serves_small_and_large_luts() {
        // The same `query_with` call answers a 1-segment and a 4-segment
        // LUT. One scratch carries its staged rows from the first store to
        // the second; a twin engine that gives every query a fresh scratch
        // must see the same outputs, costs and destination rows.
        let mut e = engine();
        let mut twin = engine();
        let mut scratch = QueryScratch::new();
        for (name, bits, segments) in [("uni6", 6u32, 1usize), ("uni8", 8u32, 4usize)] {
            let lut = Lut::from_fn(name, bits, 16, |x| x * 2 + 1).unwrap();
            let mut part =
                PartitionedLut::load(&mut e, lut.clone(), BankId(0), SubarrayId(20)).unwrap();
            let mut twin_part =
                PartitionedLut::load(&mut twin, lut, BankId(0), SubarrayId(20)).unwrap();
            let n = 1u64 << bits;
            let inputs: Vec<u64> = (0..8u64).map(|i| i * (n / 8)).collect();
            let cost = part
                .query_with(
                    &mut e,
                    DesignKind::Gmc,
                    SRC,
                    DST,
                    &inputs,
                    RowId(0),
                    RowId(1),
                    &mut scratch,
                )
                .unwrap();
            let mut fresh = QueryScratch::new();
            let twin_cost = twin_part
                .query_with(
                    &mut twin,
                    DesignKind::Gmc,
                    SRC,
                    DST,
                    &inputs,
                    RowId(0),
                    RowId(1),
                    &mut fresh,
                )
                .unwrap();
            let expect: Vec<u64> = inputs.iter().map(|&x| x * 2 + 1).collect();
            assert_eq!(scratch.outputs(), expect, "{name}");
            assert_eq!(fresh.outputs(), expect, "{name}: fresh scratch");
            assert_eq!(cost, twin_cost, "{name}: cost");
            let dst = RowLoc {
                bank: BankId(0),
                subarray: DST,
                row: RowId(1),
            };
            assert_eq!(
                e.peek_row(dst).unwrap(),
                twin.peek_row(dst).unwrap(),
                "{name}: destination row"
            );
            assert_eq!(cost.segments, segments, "{name}");
            assert!(cost.latency > Picos::ZERO && cost.energy > PicoJoules::ZERO);
        }
    }
}
