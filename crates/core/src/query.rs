//! The pLUTo LUT Query (paper §4.1).
//!
//! A query proceeds in five steps:
//!
//! 1. the input vector is loaded into the **source row buffer** (one ACT);
//! 2. a **pLUTo Row Sweep** consecutively activates every LUT-holding row
//!    of the pLUTo-enabled subarray;
//! 3. after each activation the **match logic** compares the active row
//!    index against every element of the input vector;
//! 4. matching elements are captured — into the **FF buffer** (BSA) or by
//!    the gated sense amplifiers (GSA/GMC);
//! 5. the captured output vector is copied to the **destination row buffer**
//!    with a LISA-RBM.
//!
//! The executor issues the real per-design command streams on the
//! [`Engine`], so measured latency/energy match the paper's Table 1 closed
//! forms (asserted by tests), while the data path is simulated bit-exactly.
//! It is the issuing path and the per-phase oracle: production queries run
//! through [`crate::partition::PartitionedLut`] (a LUT that fits one
//! subarray is its one-segment case), whose warm lanes replay compiled
//! plans.
//!
//! ## Word-parallel data path (DESIGN.md §7)
//!
//! Commands are authoritative for *cost*; words are authoritative for
//! *data*. The executor drives the full per-design command stream on the
//! engine — every sweep step, precharge, and LISA hop, so `QueryCost` and
//! all engine accounting stay bit-identical to the original element-by-
//! element simulation — but computes the output vector in one pass over
//! the input slots (`out[j] = lut[in[j]]`), exploiting the paper's
//! simultaneous-many-element semantics instead of scanning every slot on
//! every sweep step. Slot packing runs on a streaming 64-bit shift/mask
//! accumulator ([`crate::lut::pack_slots`]);
//! [`QueryExecutor::execute_scalar_reference`] retains the original
//! bit-serial sweep-scan path as the differential oracle.

use crate::design::DesignKind;
use crate::error::PlutoError;
use crate::lut::{
    pack_slots_into, pack_slots_scalar, slots_per_row, unpack_slots_into, unpack_slots_scalar, Lut,
};
use crate::match_logic;
use crate::store::LutStore;
use pluto_dram::{BankId, Engine, PicoJoules, Picos, RowId, RowLoc, SubarrayId};

/// Where the three subarrays participating in a query live (paper Fig. 2:
/// source subarray, pLUTo-enabled subarray, destination subarray).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryPlacement {
    /// Bank shared by all three subarrays (LISA links are intra-bank).
    pub bank: BankId,
    /// Subarray holding the LUT query input vector.
    pub source: SubarrayId,
    /// The pLUTo-enabled subarray (must match the [`LutStore`]).
    pub pluto: SubarrayId,
    /// Subarray receiving the LUT query output vector.
    pub dest: SubarrayId,
}

impl QueryPlacement {
    /// The canonical adjacent placement: master at `s-2` (managed by the
    /// store), source at `s-1`, pLUTo subarray at `s`, destination at `s+1`.
    pub fn adjacent(bank: BankId, pluto: SubarrayId) -> Self {
        QueryPlacement {
            bank,
            source: SubarrayId(pluto.0 - 1),
            pluto,
            dest: SubarrayId(pluto.0 + 1),
        }
    }
}

/// Per-phase cost breakdown of one pLUTo LUT Query.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryCost {
    /// Source-row activation (step 1).
    pub setup: Picos,
    /// GSA LUT reload (zero for BSA/GMC).
    pub reload: Picos,
    /// The row sweep itself (steps 2–4).
    pub sweep: Picos,
    /// FF-buffer / row-buffer copy-out to the destination (step 5).
    pub copyout: Picos,
    /// Total dynamic energy across all phases.
    pub energy: PicoJoules,
    /// Energy of the sweep phase alone (for Table 1 parity checks).
    pub sweep_energy: PicoJoules,
    /// Energy of the reload phase alone.
    pub reload_energy: PicoJoules,
}

impl QueryCost {
    /// End-to-end latency of the query.
    pub fn total(&self) -> Picos {
        self.setup + self.reload + self.sweep + self.copyout
    }

    /// The paper's Table 1 "query latency": reload + sweep (setup and
    /// copy-out are shared pipeline stages the closed forms omit).
    pub fn table1_latency(&self) -> Picos {
        self.reload + self.sweep
    }
}

/// Reusable buffers for the query hot path: input slots, output slots,
/// and one packed row. A long-lived holder ([`crate::library::PlutoMachine`],
/// the controller) keeps one `QueryScratch` and threads it through every
/// query, so operation streams of thousands of queries stop paying three
/// heap allocations per query. It is the only scratch a query uses: the
/// stores themselves keep none.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Unpacked input slots (the executor's latched input vector, or a
    /// resident query's read-back source row).
    pub(crate) live: Vec<u64>,
    /// Gathered output slots.
    pub(crate) out: Vec<u64>,
    /// Packed-row staging buffer.
    pub(crate) row: Vec<u8>,
}

impl QueryScratch {
    /// Creates empty scratch buffers (they grow to row size on first use).
    pub fn new() -> Self {
        QueryScratch::default()
    }

    /// The output slots of the most recent query run with this scratch.
    pub fn outputs(&self) -> &[u64] {
        &self.out
    }
}

/// Rejects an input vector wider than one row of `slot_bits`-bit slots:
/// the capacity check of every query front end.
pub(crate) fn check_capacity(
    inputs: usize,
    row_bytes: usize,
    slot_bits: u32,
) -> Result<(), PlutoError> {
    let capacity = slots_per_row(row_bytes, slot_bits);
    if inputs > capacity {
        return Err(PlutoError::LayoutMismatch {
            reason: format!("{inputs} inputs exceed the {capacity}-slot row capacity"),
        });
    }
    Ok(())
}

/// Rejects the first input outside `lut`'s index range: such an index
/// would match no sweep step, breaking §5.3.3's match-exactly-once
/// invariant.
pub(crate) fn check_range(inputs: &[u64], lut: &Lut) -> Result<(), PlutoError> {
    let n = lut.len() as u64;
    match inputs.iter().find(|&&x| x >= n) {
        Some(&value) => Err(PlutoError::IndexOutOfRange {
            value,
            input_bits: lut.input_bits(),
        }),
        None => Ok(()),
    }
}

/// Phase 5: copies the packed output row `out_row` through the pLUTo
/// subarray's buffer to `dst_row` of the destination subarray with one
/// LISA-RBM, and closes the source row. If the destination shares the
/// source subarray, the source row closes *first* so the LISA
/// write-through cannot clobber the still-open input row.
pub(crate) fn copy_out(
    engine: &mut Engine,
    placement: QueryPlacement,
    dst_row: RowId,
    out_row: &[u8],
) -> Result<(), PlutoError> {
    let (bank, source, pluto) = (placement.bank, placement.source, placement.pluto);
    if placement.dest == source {
        engine.precharge(bank, source)?;
    }
    engine.deposit_buffer(bank, pluto, out_row)?;
    engine.lisa_rbm_to_row(bank, pluto, placement.dest, dst_row)?;
    if placement.dest != source {
        engine.precharge(bank, source)?;
    }
    Ok(())
}

/// Executes pLUTo LUT Queries of one design on an [`Engine`], always
/// through the full issuing path, with a per-phase [`QueryCost`]
/// breakdown: the Table 1 cost API and the per-lane oracle behind
/// [`crate::partition::PartitionedLut::query_serial_reference`].
#[derive(Debug)]
pub struct QueryExecutor<'e> {
    engine: &'e mut Engine,
    design: DesignKind,
}

impl<'e> QueryExecutor<'e> {
    /// Creates an executor for `design` driving `engine`.
    pub fn new(engine: &'e mut Engine, design: DesignKind) -> Self {
        QueryExecutor { engine, design }
    }

    /// The design this executor models.
    pub fn design(&self) -> DesignKind {
        self.design
    }

    /// Read access to the underlying engine.
    pub fn engine(&self) -> &Engine {
        self.engine
    }

    /// Executes one bulk LUT query.
    ///
    /// `inputs` are the LUT indices (one per slot, paper Fig. 2's
    /// "LUT query input vector"); they are packed into `src_row` of the
    /// source subarray, swept against `store`, and the output vector is
    /// deposited into `dst_row` of the destination subarray. Returns the
    /// output values and the cost breakdown.
    ///
    /// # Errors
    /// Fails if any input ≥ the LUT's size (the match-exactly-once
    /// invariant of §5.3.3 would be violated), if the inputs exceed one
    /// row's slot capacity, or on any underlying DRAM error.
    pub fn execute(
        &mut self,
        store: &mut LutStore,
        placement: QueryPlacement,
        inputs: &[u64],
        src_row: RowId,
        dst_row: RowId,
    ) -> Result<(Vec<u64>, QueryCost), PlutoError> {
        let mut scratch = QueryScratch::new();
        let cost = self.execute_with(store, placement, inputs, src_row, dst_row, &mut scratch)?;
        Ok((scratch.out, cost))
    }

    /// [`QueryExecutor::execute`] with caller-owned scratch buffers: the
    /// output vector lands in [`QueryScratch::outputs`] instead of a fresh
    /// allocation.
    ///
    /// # Errors
    /// Same conditions as [`QueryExecutor::execute`].
    pub fn execute_with(
        &mut self,
        store: &mut LutStore,
        placement: QueryPlacement,
        inputs: &[u64],
        src_row: RowId,
        dst_row: RowId,
        scratch: &mut QueryScratch,
    ) -> Result<QueryCost, PlutoError> {
        let slot_bits = store.lut().slot_bits();
        let row_bytes = self.engine.config().row_bytes;
        check_capacity(inputs.len(), row_bytes, slot_bits)?;
        check_range(inputs, store.lut())?;

        // The input vector is workload data already resident in the source
        // subarray (writing it there is the producer's cost, not the
        // query's).
        let bank = placement.bank;
        let src_loc = RowLoc {
            bank,
            subarray: placement.source,
            row: src_row,
        };
        pack_slots_into(inputs, slot_bits, row_bytes, &mut scratch.row)?;
        self.engine.poke_row(src_loc, &scratch.row)?;

        let clock0 = self.engine.elapsed();
        let energy0 = self.engine.command_energy();

        // Phase R: GSA reloads the LUT before *every* query (§5.2.1: "a LUT
        // must be loaded into the pLUTo-enabled subarray before every pLUTo
        // LUT Query in pLUTo-GSA"; Table 1 charges LISA_RBM × N per query).
        if self.design.reload_per_query() {
            store.reload(self.engine)?;
        } else {
            store.ensure_ready(self.engine)?;
        }
        let clock_r = self.engine.elapsed();
        let energy_r = self.engine.command_energy();

        // Phase 1: load the input vector into the source row buffer. The
        // match logic reads the *row buffer*, so the indices used below are
        // whatever the activation latched — the data path is bit-exact.
        self.engine.activate(src_loc)?;
        {
            let buf = self.engine.row_buffer(bank, placement.source)?;
            unpack_slots_into(&buf.data, slot_bits, inputs.len(), &mut scratch.live);
        }
        let clock_s = self.engine.elapsed();
        let energy_s = self.engine.command_energy();

        // Phases 2–4: the pLUTo Row Sweep with match capture. The command
        // stream is the real per-design sweep — one step per LUT row.
        let step_kind = self.design.sweep_step_kind();
        for i in 0..store.lut().len() {
            let loc = store.element_row(i);
            self.engine.sweep_step(loc, step_kind)?;
        }
        // GSA/GMC sweeps end with a single precharge (§5.2.2, §5.3.3).
        if step_kind == pluto_dram::SweepStepKind::ChargeShare {
            self.engine.precharge(bank, placement.pluto)?;
        }
        // Data path, inverted: rather than scanning every slot on every
        // sweep step (O(lut_len × slots)), gather each slot's element in
        // one pass (O(slots)). Over the whole sweep, slot j matches exactly
        // on step `live[j]` and captures that row's element — so the
        // gather below is bit-identical to the per-step match capture. A
        // (structurally impossible) out-of-range slot would never match
        // and leave the FF buffer's reset value, which the gather mirrors.
        scratch.out.clear();
        let elements = store.lut().elements();
        scratch.out.extend(
            scratch
                .live
                .iter()
                .map(|&x| elements.get(x as usize).copied().unwrap_or(0)),
        );
        let clock_w = self.engine.elapsed();
        let energy_w = self.engine.command_energy();

        // GSA: unmatched rows lost their charge — the LUT is gone.
        if self.design.destructive_reads() {
            store.mark_destroyed(self.engine)?;
        }

        // Phase 5: copy the output vector to the destination row buffer
        // (and commit it to the destination row).
        pack_slots_into(&scratch.out, slot_bits, row_bytes, &mut scratch.row)?;
        copy_out(self.engine, placement, dst_row, &scratch.row)?;
        let clock_end = self.engine.elapsed();
        let energy_end = self.engine.command_energy();

        Ok(QueryCost {
            setup: clock_s - clock_r,
            reload: clock_r - clock0,
            sweep: clock_w - clock_s,
            copyout: clock_end - clock_w,
            energy: energy_end - energy0,
            sweep_energy: energy_w - energy_s,
            reload_energy: energy_r - energy0,
        })
    }

    /// The retained pre-refactor scalar path: bit-serial slot packing and
    /// the element-by-element sweep scan with per-step matchline
    /// allocations. Drives the *same* command stream as the word-parallel
    /// path, so outputs, costs, engine stats, and DRAM contents must all
    /// be bit-identical — `tests/query_differential.rs` asserts exactly
    /// that, and `benches/query.rs` measures the throughput gap.
    ///
    /// # Errors
    /// Same conditions as [`QueryExecutor::execute`].
    pub fn execute_scalar_reference(
        &mut self,
        store: &mut LutStore,
        placement: QueryPlacement,
        inputs: &[u64],
        src_row: RowId,
        dst_row: RowId,
    ) -> Result<(Vec<u64>, QueryCost), PlutoError> {
        let lut = store.lut().clone();
        let n = lut.len() as u64;
        let slot_bits = lut.slot_bits();
        let cfg = self.engine.config().clone();
        let capacity = slots_per_row(cfg.row_bytes, slot_bits);
        if inputs.len() > capacity {
            return Err(PlutoError::LayoutMismatch {
                reason: format!(
                    "{} inputs exceed the {capacity}-slot row capacity",
                    inputs.len()
                ),
            });
        }
        if !match_logic::each_element_matches_exactly_once(inputs, n) {
            let bad = *inputs
                .iter()
                .find(|&&x| x >= n)
                .expect("some input too large");
            return Err(PlutoError::IndexOutOfRange {
                value: bad,
                input_bits: lut.input_bits(),
            });
        }
        let bank = placement.bank;
        let src_loc = RowLoc {
            bank,
            subarray: placement.source,
            row: src_row,
        };
        let packed = pack_slots_scalar(inputs, slot_bits, cfg.row_bytes)?;
        self.engine.poke_row(src_loc, &packed)?;

        let clock0 = self.engine.elapsed();
        let energy0 = self.engine.command_energy();
        if self.design.reload_per_query() {
            store.reload(self.engine)?;
        } else {
            store.ensure_ready(self.engine)?;
        }
        let clock_r = self.engine.elapsed();
        let energy_r = self.engine.command_energy();

        self.engine.activate(src_loc)?;
        let live_inputs = {
            let buf = self.engine.row_buffer(bank, placement.source)?;
            unpack_slots_scalar(&buf.data, slot_bits, inputs.len())
        };
        let clock_s = self.engine.elapsed();
        let energy_s = self.engine.command_energy();

        // The original per-step match capture, allocation profile intact.
        let mut out_slots: Vec<u64> = vec![0; inputs.len()];
        let step_kind = self.design.sweep_step_kind();
        for i in 0..lut.len() {
            let loc = store.element_row(i);
            self.engine.sweep_step(loc, step_kind)?;
            let element = lut.element(i as u64)?;
            let matched: Vec<usize> =
                match_logic::matched_positions(&live_inputs, i as u64).collect();
            for j in matched {
                out_slots[j] = element;
            }
        }
        if step_kind == pluto_dram::SweepStepKind::ChargeShare {
            self.engine.precharge(bank, placement.pluto)?;
        }
        let clock_w = self.engine.elapsed();
        let energy_w = self.engine.command_energy();

        if self.design.destructive_reads() {
            store.mark_destroyed(self.engine)?;
        }

        let out_packed = pack_slots_scalar(&out_slots, slot_bits, cfg.row_bytes)?;
        if placement.dest == placement.source {
            self.engine.precharge(bank, placement.source)?;
        }
        self.engine
            .deposit_buffer(bank, placement.pluto, &out_packed)?;
        self.engine
            .lisa_rbm_to_row(bank, placement.pluto, placement.dest, dst_row)?;
        if placement.dest != placement.source {
            self.engine.precharge(bank, placement.source)?;
        }
        let clock_end = self.engine.elapsed();
        let energy_end = self.engine.command_energy();

        let cost = QueryCost {
            setup: clock_s - clock_r,
            reload: clock_r - clock0,
            sweep: clock_w - clock_s,
            copyout: clock_end - clock_w,
            energy: energy_end - energy0,
            sweep_energy: energy_w - energy_s,
            reload_energy: energy_r - energy0,
        };
        Ok((out_slots, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignModel;
    use crate::lut::{catalog, unpack_slots};
    use crate::partition::PartitionedLut;
    use pluto_dram::DramConfig;

    fn engine() -> Engine {
        Engine::new(DramConfig {
            row_bytes: 32,
            burst_bytes: 8,
            banks: 2,
            subarrays_per_bank: 8,
            rows_per_subarray: 64,
            ..DramConfig::ddr4_2400()
        })
    }

    fn setup(e: &mut Engine, lut: Lut) -> (LutStore, QueryPlacement) {
        let bank = BankId(0);
        let pluto = SubarrayId(2);
        // Master copy co-located with the source subarray (pluto - 1), in
        // its upper rows, so GSA reloads cost exactly one LISA hop per row.
        let n = lut.len() as u16;
        let base = e.config().rows_per_subarray - n;
        let store = LutStore::load(e, lut, bank, pluto, SubarrayId(1), base).unwrap();
        (store, QueryPlacement::adjacent(bank, pluto))
    }

    #[test]
    fn paper_figure3_example_all_designs() {
        // LUT = first four primes; query [1,0,1,3] -> [3,2,3,7].
        for design in DesignKind::ALL {
            let mut e = engine();
            let lut = Lut::from_table("primes", 2, 4, vec![2, 3, 5, 7]).unwrap();
            let (mut store, placement) = setup(&mut e, lut);
            let mut ex = QueryExecutor::new(&mut e, design);
            let (out, _) = ex
                .execute(&mut store, placement, &[1, 0, 1, 3], RowId(0), RowId(0))
                .unwrap();
            assert_eq!(out, vec![3, 2, 3, 7], "{design}");
        }
    }

    #[test]
    fn output_committed_to_destination_row() {
        let mut e = engine();
        let lut = Lut::from_table("primes", 2, 4, vec![2, 3, 5, 7]).unwrap();
        let (mut store, placement) = setup(&mut e, lut);
        let mut ex = QueryExecutor::new(&mut e, DesignKind::Bsa);
        ex.execute(&mut store, placement, &[3, 3, 0, 2], RowId(0), RowId(9))
            .unwrap();
        let dest = e
            .peek_row(RowLoc {
                bank: placement.bank,
                subarray: placement.dest,
                row: RowId(9),
            })
            .unwrap();
        let out = unpack_slots(&dest, 4, 4);
        assert_eq!(out, vec![7, 7, 2, 5]);
    }

    #[test]
    fn sweep_cost_matches_table1_closed_forms() {
        for design in DesignKind::ALL {
            let mut e = engine();
            let lut = catalog::popcount(4).unwrap(); // 16 elements
            let (mut store, placement) = setup(&mut e, lut);
            if design.reload_per_query() {
                // Stale store forces the pre-query reload that Table 1 charges.
                store.mark_destroyed(&mut e).unwrap();
            }
            let model = DesignModel::new(design, e.timing().clone(), e.energy_model().clone());
            let mut ex = QueryExecutor::new(&mut e, design);
            let inputs: Vec<u64> = (0..16u64).collect();
            let (_, cost) = ex
                .execute(&mut store, placement, &inputs, RowId(0), RowId(0))
                .unwrap();
            assert_eq!(
                cost.table1_latency(),
                model.query_latency(16),
                "{design} latency mismatch"
            );
            let model_e = model.query_energy(16).as_pj();
            let measured = (cost.sweep_energy + cost.reload_energy).as_pj();
            assert!(
                (measured - model_e).abs() < 1e-6,
                "{design} energy: measured {measured} vs model {model_e}"
            );
        }
    }

    #[test]
    fn gsa_destroys_lut_and_reloads_next_query() {
        let mut e = engine();
        let lut = Lut::from_table("primes", 2, 4, vec![2, 3, 5, 7]).unwrap();
        let (mut store, placement) = setup(&mut e, lut);
        let mut ex = QueryExecutor::new(&mut e, DesignKind::Gsa);
        let (_, first) = ex
            .execute(&mut store, placement, &[0, 1], RowId(0), RowId(0))
            .unwrap();
        // GSA charges the reload before every query, including the first
        // (§5.2.1 / Table 1).
        assert!(first.reload > Picos::ZERO);
        assert!(!store.is_loaded(), "sweep destroyed the LUT");
        let (out, second) = ex
            .execute(&mut store, placement, &[2, 3], RowId(1), RowId(1))
            .unwrap();
        assert_eq!(out, vec![5, 7], "reloaded LUT answers correctly");
        assert!(second.reload > Picos::ZERO, "second query paid the reload");
    }

    #[test]
    fn bsa_and_gmc_keep_lut_across_queries() {
        for design in [DesignKind::Bsa, DesignKind::Gmc] {
            let mut e = engine();
            let lut = Lut::from_table("primes", 2, 4, vec![2, 3, 5, 7]).unwrap();
            let (mut store, placement) = setup(&mut e, lut);
            let mut ex = QueryExecutor::new(&mut e, design);
            for q in 0..3 {
                let (out, cost) = ex
                    .execute(&mut store, placement, &[3, 1], RowId(0), RowId(0))
                    .unwrap();
                assert_eq!(out, vec![7, 3], "{design} query {q}");
                assert_eq!(cost.reload, Picos::ZERO, "{design} never reloads");
            }
            assert!(store.is_loaded());
        }
    }

    #[test]
    fn word_parallel_path_matches_scalar_reference() {
        // Same query on two identical engines: the word-parallel path and
        // the retained scalar path must agree on outputs, cost, stats, and
        // the committed destination row (the full differential suite lives
        // in tests/query_differential.rs).
        for design in DesignKind::ALL {
            let lut = catalog::popcount(4).unwrap();
            let inputs: Vec<u64> = (0..40u64).map(|i| (i * 7) % 16).collect();

            let mut e_word = engine();
            let (mut store_w, placement) = setup(&mut e_word, lut.clone());
            let mut ex = QueryExecutor::new(&mut e_word, design);
            let (out_w, cost_w) = ex
                .execute(&mut store_w, placement, &inputs, RowId(0), RowId(3))
                .unwrap();

            let mut e_scalar = engine();
            let (mut store_s, placement) = setup(&mut e_scalar, lut);
            let mut ex = QueryExecutor::new(&mut e_scalar, design);
            let (out_s, cost_s) = ex
                .execute_scalar_reference(&mut store_s, placement, &inputs, RowId(0), RowId(3))
                .unwrap();

            assert_eq!(out_w, out_s, "{design}");
            assert_eq!(cost_w, cost_s, "{design}");
            assert_eq!(e_word.elapsed(), e_scalar.elapsed(), "{design}");
            assert_eq!(e_word.stats(), e_scalar.stats(), "{design}");
            let dst = RowLoc {
                bank: placement.bank,
                subarray: placement.dest,
                row: RowId(3),
            };
            assert_eq!(
                e_word.peek_row(dst).unwrap(),
                e_scalar.peek_row(dst).unwrap(),
                "{design}"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_queries() {
        let mut e = engine();
        let lut = catalog::popcount(4).unwrap();
        let (mut store, placement) = setup(&mut e, lut);
        let mut ex = QueryExecutor::new(&mut e, DesignKind::Gmc);
        let mut scratch = QueryScratch::new();
        for round in 0..3u64 {
            let inputs: Vec<u64> = (0..32u64).map(|i| (i + round) % 16).collect();
            ex.execute_with(
                &mut store,
                placement,
                &inputs,
                RowId(0),
                RowId(1),
                &mut scratch,
            )
            .unwrap();
            let expect: Vec<u64> = inputs.iter().map(|x| x.count_ones() as u64).collect();
            assert_eq!(scratch.outputs(), expect, "round {round}");
        }
    }

    #[test]
    fn rejects_out_of_range_inputs() {
        let mut e = engine();
        let lut = Lut::from_table("primes", 2, 4, vec![2, 3, 5, 7]).unwrap();
        let (mut store, placement) = setup(&mut e, lut);
        let mut ex = QueryExecutor::new(&mut e, DesignKind::Bsa);
        assert!(matches!(
            ex.execute(&mut store, placement, &[4], RowId(0), RowId(0)),
            Err(PlutoError::IndexOutOfRange { value: 4, .. })
        ));
    }

    #[test]
    fn rejects_over_capacity_inputs() {
        let mut e = engine();
        let lut = Lut::from_table("primes", 2, 4, vec![2, 3, 5, 7]).unwrap();
        let (mut store, placement) = setup(&mut e, lut);
        let mut ex = QueryExecutor::new(&mut e, DesignKind::Bsa);
        let too_many = vec![0u64; 65]; // 32 B row / 4-bit slots = 64 slots
        assert!(ex
            .execute(&mut store, placement, &too_many, RowId(0), RowId(0))
            .is_err());
    }

    #[test]
    fn executor_and_partitioned_path_reject_inputs_alike() {
        // Both front ends run the same capacity and range checks, so each
        // faulty vector (one fault apiece) gets one error from either.
        let lut = Lut::from_table("primes", 2, 4, vec![2, 3, 5, 7]).unwrap();
        let over_capacity = vec![0u64; 65]; // 32 B row / 4-bit slots = 64 slots
        let out_of_range = vec![0u64, 4, 1];
        let cases = [
            (
                over_capacity,
                PlutoError::LayoutMismatch {
                    reason: "65 inputs exceed the 64-slot row capacity".into(),
                },
            ),
            (
                out_of_range,
                PlutoError::IndexOutOfRange {
                    value: 4,
                    input_bits: 2,
                },
            ),
        ];
        for (inputs, want) in cases {
            let mut e = engine();
            let (mut store, placement) = setup(&mut e, lut.clone());
            let executor = QueryExecutor::new(&mut e, DesignKind::Bsa).execute_with(
                &mut store,
                placement,
                &inputs,
                RowId(0),
                RowId(0),
                &mut QueryScratch::new(),
            );
            // The same table as a one-segment store above the placement.
            let mut e = engine();
            let mut part =
                PartitionedLut::load(&mut e, lut.clone(), placement.bank, SubarrayId(4)).unwrap();
            let partitioned = part.query_with(
                &mut e,
                DesignKind::Bsa,
                placement.source,
                placement.dest,
                &inputs,
                RowId(0),
                RowId(0),
                &mut QueryScratch::new(),
            );
            assert_eq!(executor, Err(want.clone()), "executor");
            assert_eq!(partitioned, Err(want), "partitioned");
        }
    }

    #[test]
    fn full_row_of_queries_in_one_sweep() {
        // One query performs row-width lookups simultaneously (the paper's
        // central throughput claim).
        let mut e = engine();
        let lut = catalog::binarize(128).unwrap(); // 256-entry, 8-bit slots
        let bank = BankId(0);
        let store = LutStore::load(&mut e, lut, bank, SubarrayId(2), SubarrayId(0), 0);
        // 256 elements need 256 rows; our tiny test subarray has 64, so use
        // a 4-bit LUT at full width instead.
        assert!(store.is_err() || store.is_ok());
        let lut = catalog::popcount(4).unwrap();
        let (mut store, placement) = setup(&mut e, lut);
        let inputs: Vec<u64> = (0..64u64).map(|i| i % 16).collect();
        let mut ex = QueryExecutor::new(&mut e, DesignKind::Gmc);
        let (out, cost) = ex
            .execute(&mut store, placement, &inputs, RowId(0), RowId(0))
            .unwrap();
        assert_eq!(out.len(), 64);
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, inputs[i].count_ones() as u64);
        }
        // Sweep cost is independent of how many slots were queried.
        let model = DesignModel::new(
            DesignKind::Gmc,
            e.timing().clone(),
            e.energy_model().clone(),
        );
        assert_eq!(cost.sweep, model.sweep_latency(16));
    }
}
