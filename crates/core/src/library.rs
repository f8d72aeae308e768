//! The pLUTo Library (paper §6.2): high-level computation routines.
//!
//! [`PlutoMachine`] is the programmer-facing facade: each routine builds the
//! corresponding expression graph, compiles it with the pLUTo Compiler
//! (§6.3), and executes it on the pLUTo Controller (§6.4), so every call
//! exercises the full system-integration stack down to individual DRAM
//! commands. Results carry both the computed values and the simulated
//! cost.

use crate::compiler::Graph;
use crate::controller::Controller;
use crate::design::DesignKind;
use crate::error::PlutoError;
use crate::lut::{catalog, slots_per_row, Lut};
use crate::partition::PartitionedLut;
use crate::query::QueryScratch;
use pluto_dram::{
    BankId, CommandStats, DramConfig, Engine, PicoJoules, Picos, RowId, SubarrayId, TimingBackend,
};
use std::collections::HashMap;

/// Aggregate cost of the operations a [`PlutoMachine`] has executed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AggregateCost {
    /// Number of library calls executed.
    pub calls: u64,
    /// Total simulated time (serial, single-subarray; see [`crate::salp`]
    /// for parallel scaling).
    pub time: Picos,
    /// Total dynamic DRAM energy.
    pub energy: PicoJoules,
}

/// Result of one library routine: values plus the cost of the call.
#[derive(Debug, Clone, PartialEq)]
pub struct MapResult {
    /// Output element values.
    pub values: Vec<u64>,
    /// Simulated time of this call.
    pub time: Picos,
    /// Dynamic DRAM energy of this call.
    pub energy: PicoJoules,
    /// DRAM command counts of this call.
    pub stats: CommandStats,
}

/// A simulated pLUTo-enabled module exposing the pLUTo Library routines.
///
/// Two execution paths are provided:
///
/// * [`PlutoMachine::map`] / [`PlutoMachine::map2`] compile an expression
///   graph and run it through the full Compiler → ISA → Controller stack —
///   exactly the paper's §6 flow, used by the system-integration tests.
/// * [`PlutoMachine::apply`] / [`PlutoMachine::apply2`] drive a persistent
///   engine directly through [`PartitionedLut`] stores — the fast path the
///   workload suite uses for operation streams of thousands of queries
///   (LUT stores persist across calls, so GSA's per-query reload semantics
///   are preserved end to end).
#[derive(Debug)]
pub struct PlutoMachine {
    cfg: DramConfig,
    design: DesignKind,
    backend: TimingBackend,
    totals: AggregateCost,
    engine: Engine,
    /// Resident stores keyed by the full LUT (name, shape and elements),
    /// so a different table reusing a name claims its own subarrays.
    stores: HashMap<Lut, PartitionedLut>,
    /// Query-path scratch buffers, reused across every `apply` chunk so
    /// operation streams stop reallocating per query. Pure buffers — no
    /// state survives a query, so reuse cannot perturb results.
    scratch: QueryScratch,
    next_pluto: u16,
    bank: BankId,
    data_sa: SubarrayId,
}

impl PlutoMachine {
    /// Creates a machine over an arbitrary geometry.
    ///
    /// # Errors
    /// Fails if the geometry cannot host the controller layout.
    pub fn new(cfg: DramConfig, design: DesignKind) -> Result<Self, PlutoError> {
        PlutoMachine::with_backend(cfg, design, TimingBackend::Analytic)
    }

    /// Creates a machine whose fast-path engine uses the given timing
    /// backend (`DESIGN.md` §11). [`PlutoMachine::new`] is this with
    /// [`TimingBackend::Analytic`].
    ///
    /// # Errors
    /// Fails if the geometry cannot host the controller layout.
    pub fn with_backend(
        cfg: DramConfig,
        design: DesignKind,
        backend: TimingBackend,
    ) -> Result<Self, PlutoError> {
        // Validate the layout once up front.
        Controller::new(cfg.clone(), design)?;
        Ok(PlutoMachine {
            engine: Engine::new(cfg.clone()).with_timing_backend(backend),
            cfg,
            design,
            backend,
            totals: AggregateCost::default(),
            stores: HashMap::new(),
            scratch: QueryScratch::new(),
            next_pluto: 1,
            bank: BankId(0),
            data_sa: SubarrayId(0),
        })
    }

    /// The paper's DDR4 configuration (Table 3).
    ///
    /// # Errors
    /// Never fails for the built-in geometry; the `Result` mirrors
    /// [`PlutoMachine::new`].
    pub fn ddr4(design: DesignKind) -> Result<Self, PlutoError> {
        PlutoMachine::new(DramConfig::ddr4_2400(), design)
    }

    /// The paper's 3D-stacked (HMC) configuration (§7).
    ///
    /// # Errors
    /// Never fails for the built-in geometry; the `Result` mirrors
    /// [`PlutoMachine::new`].
    pub fn hmc_3ds(design: DesignKind) -> Result<Self, PlutoError> {
        PlutoMachine::new(DramConfig::hmc_3ds(), design)
    }

    /// The design this machine simulates.
    pub fn design(&self) -> DesignKind {
        self.design
    }

    /// The timing backend the fast-path engine charges costs with.
    pub fn timing_backend(&self) -> TimingBackend {
        self.backend
    }

    /// The DRAM geometry this machine simulates.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Aggregate cost across all calls so far.
    pub fn totals(&self) -> AggregateCost {
        self.totals
    }

    /// Cumulative DRAM command counters of the fast-path engine.
    pub fn engine_stats(&self) -> CommandStats {
        self.engine.stats()
    }

    /// Resets the aggregate counters.
    pub fn reset_totals(&mut self) {
        self.totals = AggregateCost::default();
    }

    /// Pins a LUT resident on the machine ahead of its first query,
    /// returning the number of subarrays its store claims (2 per §5.6
    /// segment: pLUTo + master). Layered pipelines use this to keep a
    /// whole layer's tables — weight-product LUT plus requantization
    /// LUT — co-resident before any activation streams through, so the
    /// first inference pays no mid-layer load and every later layer
    /// shares the same stores via the content-keyed cache.
    ///
    /// Idempotent: preloading an already-resident LUT costs nothing and
    /// reports the same claim.
    ///
    /// # Errors
    /// Fails if the subarray pool cannot hold the store.
    pub fn preload(&mut self, lut: &Lut) -> Result<u16, PlutoError> {
        self.ensure_resident(lut)?;
        Ok(self.stores[lut].subarrays_claimed())
    }

    /// Number of distinct LUT stores currently resident on the machine
    /// (same-name tables with different contents count separately).
    pub fn resident_luts(&self) -> usize {
        self.stores.len()
    }

    /// Restores the machine to its just-constructed state: a pristine
    /// engine (zero clock/energy/stats, empty array), no cached LUT
    /// stores, and zeroed totals.
    ///
    /// A reset machine is bit-identical in behavior to a freshly built
    /// one, but skips the controller-layout validation that
    /// [`PlutoMachine::new`] performs — this is what lets the cluster
    /// worker pool keep one machine per configuration and reuse it across
    /// jobs without perturbing any measurement.
    pub fn reset(&mut self) {
        self.engine = Engine::new(self.cfg.clone()).with_timing_backend(self.backend);
        self.totals = AggregateCost::default();
        self.stores.clear();
        self.next_pluto = 1;
    }

    /// Runs a compiled graph through a fresh controller.
    fn run_graph(
        &mut self,
        graph: &Graph,
        output: crate::compiler::NodeId,
        inputs: &[Vec<u64>],
    ) -> Result<MapResult, PlutoError> {
        let n = inputs.iter().map(Vec::len).max().unwrap_or(0);
        let compiled = graph.compile(output, n as u32)?;
        let mut controller = Controller::new(self.cfg.clone(), self.design)?;
        for lut in &compiled.luts {
            controller.register_lut(lut.clone());
        }
        let stats0 = controller.engine().stats();
        let run = controller.run(&compiled.program, inputs)?;
        let stats = controller.engine().stats().since(&stats0);
        self.totals.calls += 1;
        self.totals.time += run.elapsed;
        self.totals.energy += run.energy;
        Ok(MapResult {
            values: run.outputs,
            time: run.elapsed,
            energy: run.energy,
            stats,
        })
    }

    /// Loads (on first use) the persistent [`PartitionedLut`] for a LUT
    /// on the fast path. Stores claim one (pLUTo, master) subarray pair
    /// per §5.6 segment, starting at subarray 1 — one pair for a LUT that
    /// fits a subarray.
    fn ensure_resident(&mut self, lut: &Lut) -> Result<(), PlutoError> {
        if !self.stores.contains_key(lut) {
            let store = PartitionedLut::load(
                &mut self.engine,
                lut.clone(),
                self.bank,
                SubarrayId(self.next_pluto),
            )?;
            self.next_pluto += store.subarrays_claimed();
            self.stores.insert(lut.clone(), store);
        }
        Ok(())
    }

    /// Charges the §6.3 operand-alignment sequence for one merged input
    /// row: RowClone the left operand, DRISA-shift it by the right
    /// operand's width, and Ambit-OR the operands together (real engine
    /// commands on scratch rows).
    fn charge_alignment(&mut self, shift_bits: u32) -> Result<(), PlutoError> {
        let loc = |row: u16| pluto_dram::RowLoc {
            bank: self.bank,
            subarray: self.data_sa,
            row: RowId(row),
        };
        // Scratch rows 2..8 of the data subarray.
        self.engine.row_clone_fpm(loc(2), RowId(3))?;
        self.engine.shift_row(loc(3), true, shift_bits)?;
        // Ambit OR: AAP(a,T0); AAP(b,T1); AAP(C1,T2); TRA; AAP(T0,dst).
        self.engine.row_clone_fpm(loc(3), RowId(4))?;
        self.engine.row_clone_fpm(loc(2), RowId(5))?;
        self.engine.row_clone_fpm(loc(7), RowId(6))?;
        self.engine
            .triple_row_activate(self.bank, self.data_sa, [RowId(4), RowId(5), RowId(6)])?;
        self.engine.row_clone_fpm(loc(4), RowId(2))?;
        Ok(())
    }

    /// Fast-path elementwise LUT application on the persistent engine.
    /// Chunks the input across as many queries as needed; the LUT store
    /// persists across calls (GSA reload costs recur per query, §5.2.1).
    ///
    /// Every LUT runs through the §5.6 partitioned data path
    /// ([`crate::partition`]), one segment per subarray: the same call
    /// serves an 8-bit gamma table (one segment) and a 4096-entry direct
    /// table, with §5.6 max-latency / summed-energy cost semantics folded
    /// into the reported call cost.
    ///
    /// # Errors
    /// Fails if inputs exceed the LUT's index range or the subarray pool is
    /// exhausted.
    pub fn apply(&mut self, lut: &Lut, inputs: &[u64]) -> Result<MapResult, PlutoError> {
        self.ensure_resident(lut)?;
        let capacity = slots_per_row(self.cfg.row_bytes, lut.slot_bits());
        let clock0 = self.engine.elapsed();
        let energy0 = self.engine.command_energy();
        let stats0 = self.engine.stats();
        let mut values = Vec::with_capacity(inputs.len());
        let store = self.stores.get_mut(lut).expect("made resident above");
        for chunk in inputs.chunks(capacity.max(1)) {
            store.query_with(
                &mut self.engine,
                self.design,
                self.data_sa,
                self.data_sa,
                chunk,
                RowId(0),
                RowId(1),
                &mut self.scratch,
            )?;
            values.extend_from_slice(self.scratch.outputs());
        }
        let time = self.engine.elapsed() - clock0;
        let energy = self.engine.command_energy() - energy0;
        self.totals.calls += 1;
        self.totals.time += time;
        self.totals.energy += energy;
        Ok(MapResult {
            values,
            time,
            energy,
            stats: self.engine.stats().since(&stats0),
        })
    }

    /// Fast-path binary LUT application: `lut[(a << b_bits) | b]`, charging
    /// the shift + OR alignment commands per input row (§6.3).
    ///
    /// # Errors
    /// Fails if `a_bits + b_bits` differs from the LUT's input width, the
    /// vectors differ in length, or any operand is out of range.
    pub fn apply2(
        &mut self,
        lut: &Lut,
        a: &[u64],
        a_bits: u32,
        b: &[u64],
        b_bits: u32,
    ) -> Result<MapResult, PlutoError> {
        if a.len() != b.len() {
            return Err(PlutoError::LayoutMismatch {
                reason: format!("operand lengths differ: {} vs {}", a.len(), b.len()),
            });
        }
        if a_bits + b_bits != lut.input_bits() {
            return Err(PlutoError::InvalidProgram {
                reason: format!(
                    "LUT `{}` expects {} input bits, operands supply {}",
                    lut.name(),
                    lut.input_bits(),
                    a_bits + b_bits
                ),
            });
        }
        let mask_a = crate::lut::width_mask(a_bits);
        let mask_b = crate::lut::width_mask(b_bits);
        for (&x, &y) in a.iter().zip(b) {
            if x & !mask_a != 0 || y & !mask_b != 0 {
                return Err(PlutoError::IndexOutOfRange {
                    value: if x & !mask_a != 0 { x } else { y },
                    input_bits: lut.input_bits(),
                });
            }
        }
        let merged: Vec<u64> = a.iter().zip(b).map(|(&x, &y)| (x << b_bits) | y).collect();
        // Charge the alignment sequence once per input row-chunk.
        let capacity = slots_per_row(self.cfg.row_bytes, lut.slot_bits()).max(1);
        let clock0 = self.engine.elapsed();
        let energy0 = self.engine.command_energy();
        let stats0 = self.engine.stats();
        for _ in 0..merged.len().div_ceil(capacity) {
            self.charge_alignment(b_bits)?;
        }
        let mut result = self.apply(lut, &merged)?;
        // Fold the alignment cost into the reported call cost.
        result.time = self.engine.elapsed() - clock0;
        result.energy = self.engine.command_energy() - energy0;
        result.stats = self.engine.stats().since(&stats0);
        Ok(result)
    }

    /// `api_pluto_map`: applies an arbitrary LUT elementwise.
    ///
    /// # Errors
    /// Fails if inputs exceed the LUT's index range or the geometry's
    /// capacity.
    pub fn map(&mut self, lut: &Lut, inputs: &[u64]) -> Result<MapResult, PlutoError> {
        let mut g = Graph::new();
        let x = g.input(lut.input_bits());
        let y = g.map(lut.clone(), x);
        self.run_graph(&g, y, &[inputs.to_vec()])
    }

    /// `api_pluto_map2`: applies a binary LUT over concatenated operands
    /// `lut[(a << b_bits) | b]`.
    ///
    /// # Errors
    /// Fails if `a_bits + b_bits` differs from the LUT's input width.
    pub fn map2(
        &mut self,
        lut: &Lut,
        a: &[u64],
        a_bits: u32,
        b: &[u64],
        b_bits: u32,
    ) -> Result<MapResult, PlutoError> {
        let mut g = Graph::new();
        let na = g.input(a_bits);
        let nb = g.input(b_bits);
        let y = g.combine(lut.clone(), na, nb);
        self.run_graph(&g, y, &[a.to_vec(), b.to_vec()])
    }

    /// `api_pluto_add`: `n`-bit + `n`-bit addition via an add LUT.
    ///
    /// # Errors
    /// Fails if operands exceed `n` bits.
    pub fn add(&mut self, bits: u32, a: &[u64], b: &[u64]) -> Result<MapResult, PlutoError> {
        self.map2(&catalog::add(bits)?, a, bits, b, bits)
    }

    /// `api_pluto_mul`: `n`-bit × `n`-bit multiplication via a mul LUT.
    ///
    /// # Errors
    /// Fails if operands exceed `n` bits.
    pub fn mul(&mut self, bits: u32, a: &[u64], b: &[u64]) -> Result<MapResult, PlutoError> {
        self.map2(&catalog::mul(bits)?, a, bits, b, bits)
    }

    /// Row-level bitwise AND via Ambit.
    ///
    /// # Errors
    /// Propagates controller errors.
    pub fn bitwise_and(
        &mut self,
        bits: u32,
        a: &[u64],
        b: &[u64],
    ) -> Result<MapResult, PlutoError> {
        let mut g = Graph::new();
        let na = g.input(bits);
        let nb = g.input(bits);
        let y = g.and(na, nb);
        self.run_graph(&g, y, &[a.to_vec(), b.to_vec()])
    }

    /// Row-level bitwise OR via Ambit.
    ///
    /// # Errors
    /// Propagates controller errors.
    pub fn bitwise_or(&mut self, bits: u32, a: &[u64], b: &[u64]) -> Result<MapResult, PlutoError> {
        let mut g = Graph::new();
        let na = g.input(bits);
        let nb = g.input(bits);
        let y = g.or(na, nb);
        self.run_graph(&g, y, &[a.to_vec(), b.to_vec()])
    }

    /// Row-level bitwise XOR — not natively supported by Ambit's
    /// AND/OR/NOT set; pLUTo's flexibility lets it run as one LUT query
    /// over paired operands (Table 6's XOR advantage).
    ///
    /// # Errors
    /// Fails if operands exceed `bits` bits.
    pub fn bitwise_xor(
        &mut self,
        bits: u32,
        a: &[u64],
        b: &[u64],
    ) -> Result<MapResult, PlutoError> {
        self.map2(&catalog::xor(bits)?, a, bits, b, bits)
    }

    /// Bit counting (the paper's BC-4 / BC-8 workloads).
    ///
    /// # Errors
    /// Fails if inputs exceed `bits` bits.
    pub fn popcount(&mut self, bits: u32, inputs: &[u64]) -> Result<MapResult, PlutoError> {
        self.map(&catalog::popcount(bits)?, inputs)
    }

    /// Image binarization at `threshold` (the paper's ImgBin workload).
    ///
    /// # Errors
    /// Fails if inputs exceed 8 bits.
    pub fn binarize(&mut self, threshold: u8, pixels: &[u64]) -> Result<MapResult, PlutoError> {
        self.map(&catalog::binarize(threshold)?, pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DramConfig {
        DramConfig {
            row_bytes: 64,
            burst_bytes: 8,
            banks: 2,
            subarrays_per_bank: 16,
            rows_per_subarray: 512,
            ..DramConfig::ddr4_2400()
        }
    }

    #[test]
    fn map_applies_lut_elementwise() {
        let mut m = PlutoMachine::new(small_cfg(), DesignKind::Gmc).unwrap();
        let lut = Lut::from_fn("sq", 8, 16, |x| x * x).unwrap();
        let inputs: Vec<u64> = (0..200).collect();
        let r = m.map(&lut, &inputs).unwrap();
        let expect: Vec<u64> = inputs.iter().map(|&x| x * x).collect();
        assert_eq!(r.values, expect);
        assert!(r.time > Picos::ZERO);
        assert!(r.stats.sweep_steps > 0);
    }

    #[test]
    fn add_and_mul_library_routines() {
        let mut m = PlutoMachine::new(small_cfg(), DesignKind::Bsa).unwrap();
        let a: Vec<u64> = (0..50u64).map(|i| i % 16).collect();
        let b: Vec<u64> = (0..50u64).map(|i| (i * 7) % 16).collect();
        let sum = m.add(4, &a, &b).unwrap();
        let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        assert_eq!(sum.values, expect);
        let prod = m.mul(4, &a, &b).unwrap();
        let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
        assert_eq!(prod.values, expect);
        assert_eq!(m.totals().calls, 2);
    }

    #[test]
    fn bitwise_routines() {
        let mut m = PlutoMachine::new(small_cfg(), DesignKind::Bsa).unwrap();
        let a: Vec<u64> = (0..64u64).map(|i| (i * 37) % 256).collect();
        let b: Vec<u64> = (0..64u64).map(|i| (i * 11 + 5) % 256).collect();
        assert_eq!(
            m.bitwise_and(8, &a, &b).unwrap().values,
            a.iter().zip(&b).map(|(&x, &y)| x & y).collect::<Vec<_>>()
        );
        assert_eq!(
            m.bitwise_or(8, &a, &b).unwrap().values,
            a.iter().zip(&b).map(|(&x, &y)| x | y).collect::<Vec<_>>()
        );
        // XOR uses a 4-bit paired LUT to keep the LUT size moderate.
        let a4: Vec<u64> = a.iter().map(|x| x % 16).collect();
        let b4: Vec<u64> = b.iter().map(|x| x % 16).collect();
        assert_eq!(
            m.bitwise_xor(4, &a4, &b4).unwrap().values,
            a4.iter().zip(&b4).map(|(&x, &y)| x ^ y).collect::<Vec<_>>()
        );
    }

    #[test]
    fn popcount_and_binarize() {
        let mut m = PlutoMachine::new(small_cfg(), DesignKind::Gsa).unwrap();
        let inputs: Vec<u64> = (0..100u64).map(|i| i % 256).collect();
        let bc = m.popcount(8, &inputs).unwrap();
        assert_eq!(
            bc.values,
            inputs
                .iter()
                .map(|x| x.count_ones() as u64)
                .collect::<Vec<_>>()
        );
        let bin = m.binarize(128, &inputs).unwrap();
        assert_eq!(
            bin.values,
            inputs
                .iter()
                .map(|&x| if x >= 128 { 255 } else { 0 })
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn gmc_beats_bsa_beats_gsa_on_map_time() {
        // Table 1 throughput ordering must emerge from the full stack.
        let inputs: Vec<u64> = (0..256).collect();
        let lut = catalog::binarize(99).unwrap();
        let mut times = Vec::new();
        for design in [DesignKind::Gsa, DesignKind::Bsa, DesignKind::Gmc] {
            let mut m = PlutoMachine::new(small_cfg(), design).unwrap();
            // Two calls: the second GSA call pays the reload.
            m.map(&lut, &inputs).unwrap();
            let r = m.map(&lut, &inputs).unwrap();
            times.push((design, r.time));
        }
        assert!(times[2].1 < times[1].1, "GMC faster than BSA: {times:?}");
        assert!(times[1].1 < times[0].1, "BSA faster than GSA: {times:?}");
    }

    #[test]
    fn apply_matches_map_output() {
        let mut m = PlutoMachine::new(small_cfg(), DesignKind::Bsa).unwrap();
        let lut = Lut::from_fn("sq", 8, 16, |x| x * x).unwrap();
        let inputs: Vec<u64> = (0..150).collect();
        let fast = m.apply(&lut, &inputs).unwrap();
        let slow = m.map(&lut, &inputs).unwrap();
        assert_eq!(fast.values, slow.values);
        assert!(fast.stats.sweep_steps > 0);
    }

    #[test]
    fn apply_reuses_cached_store() {
        let mut m = PlutoMachine::new(small_cfg(), DesignKind::Gmc).unwrap();
        let lut = catalog::binarize(64).unwrap();
        m.apply(&lut, &[1, 2, 3]).unwrap();
        let before = m.next_pluto;
        m.apply(&lut, &[200, 201]).unwrap();
        assert_eq!(m.next_pluto, before, "second call reuses the store");
    }

    #[test]
    fn apply2_computes_concatenated_lookup_and_charges_alignment() {
        let mut m = PlutoMachine::new(small_cfg(), DesignKind::Bsa).unwrap();
        let a: Vec<u64> = (0..40u64).map(|i| i % 16).collect();
        let b: Vec<u64> = (0..40u64).map(|i| (i * 3) % 16).collect();
        let r = m.apply2(&catalog::mul(4).unwrap(), &a, 4, &b, 4).unwrap();
        let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
        assert_eq!(r.values, expect);
        assert!(r.stats.row_clones > 0, "alignment RowClones charged");
        assert!(r.stats.triple_acts > 0, "alignment Ambit OR charged");
    }

    #[test]
    fn apply2_validates_widths_and_lengths() {
        let mut m = PlutoMachine::new(small_cfg(), DesignKind::Bsa).unwrap();
        let lut = catalog::mul(4).unwrap();
        assert!(m.apply2(&lut, &[1, 2], 4, &[1], 4).is_err());
        assert!(m.apply2(&lut, &[1], 5, &[1], 4).is_err());
        assert!(m.apply2(&lut, &[99], 4, &[1], 4).is_err());
    }

    #[test]
    fn gsa_apply_pays_reload_every_query() {
        let mut m = PlutoMachine::new(small_cfg(), DesignKind::Gsa).unwrap();
        let lut = catalog::popcount(4).unwrap();
        let r1 = m.apply(&lut, &[1, 2, 3]).unwrap();
        let r2 = m.apply(&lut, &[4, 5, 6]).unwrap();
        assert!(
            r1.stats.lisa_hops >= 16,
            "reload hops: {}",
            r1.stats.lisa_hops
        );
        assert!(r2.stats.lisa_hops >= 16);
    }

    #[test]
    fn reset_machine_is_bit_identical_to_fresh() {
        // The cluster's machine-pooling contract: a reset machine costs
        // and computes exactly like a freshly constructed one, including
        // the GSA reload semantics that depend on LUT-store state.
        for design in [DesignKind::Bsa, DesignKind::Gsa, DesignKind::Gmc] {
            let lut = catalog::popcount(8).unwrap();
            let inputs: Vec<u64> = (0..150u64).map(|i| (i * 37) % 256).collect();
            let mut fresh = PlutoMachine::new(small_cfg(), design).unwrap();
            let want = fresh.apply(&lut, &inputs).unwrap();
            let want_totals = fresh.totals();
            let want_stats = fresh.engine_stats();

            let mut pooled = PlutoMachine::new(small_cfg(), design).unwrap();
            // Dirty the machine with unrelated work, then reset.
            pooled
                .apply(&catalog::binarize(90).unwrap(), &[1, 2, 3])
                .unwrap();
            pooled.reset();
            assert_eq!(pooled.totals(), AggregateCost::default());
            let got = pooled.apply(&lut, &inputs).unwrap();
            assert_eq!(got, want, "{design}");
            assert_eq!(pooled.totals(), want_totals, "{design}");
            assert_eq!(pooled.engine_stats(), want_stats, "{design}");
        }
    }

    #[test]
    fn apply_routes_oversized_luts_through_the_partitioned_path() {
        // 2048-entry LUT over 512-row subarrays => 4 segments, served by
        // the *same* `apply` call sites use for small LUTs.
        for design in DesignKind::ALL {
            let mut m = PlutoMachine::new(small_cfg(), design).unwrap();
            let lut = Lut::from_fn("tri11", 11, 16, |x| (x * 3) & 0xFFFF).unwrap();
            let inputs: Vec<u64> = (0..300u64).map(|i| (i * 13) % 2048).collect();
            let r = m.apply(&lut, &inputs).unwrap();
            let expect: Vec<u64> = inputs.iter().map(|&x| (x * 3) & 0xFFFF).collect();
            assert_eq!(r.values, expect, "{design}");
            assert!(r.time > Picos::ZERO);
            // All 4 segments swept per chunk: ≥ 4 × 512 sweep steps.
            assert!(r.stats.sweep_steps >= 4 * 512, "{design}");
        }
    }

    #[test]
    fn partitioned_apply_pays_max_latency_not_serial_segments() {
        // §5.6 end-to-end through the library: a 4-segment LUT query's
        // reported time is close to a 1-segment query of the same row
        // count, while its energy is ~4x.
        let mut m = PlutoMachine::new(small_cfg(), DesignKind::Gmc).unwrap();
        let small = Lut::from_fn("lat9", 9, 16, |x| x).unwrap(); // 512 = 1 subarray
        let big = Lut::from_fn("lat11", 11, 16, |x| x).unwrap(); // 2048 = 4 segments
        let inputs: Vec<u64> = (0..32u64).collect();
        let r1 = m.apply(&small, &inputs).unwrap();
        let r4 = m.apply(&big, &inputs).unwrap();
        let t_ratio = r4.time.as_ns() / r1.time.as_ns();
        assert!(
            t_ratio < 1.2,
            "partitioned latency should stay flat, got {t_ratio:.2}x"
        );
        let e_ratio = r4.energy.as_pj() / r1.energy.as_pj();
        assert!(
            (3.0..5.0).contains(&e_ratio),
            "partitioned energy should be ~4x, got {e_ratio:.2}x"
        );
    }

    #[test]
    fn oversized_lut_store_is_cached_across_calls() {
        let mut m = PlutoMachine::new(small_cfg(), DesignKind::Gmc).unwrap();
        let lut = Lut::from_fn("cache11", 11, 16, |x| x ^ 0x55).unwrap();
        m.apply(&lut, &[1, 2, 3]).unwrap();
        let before = m.next_pluto;
        assert_eq!(before, 1 + 2 * 4, "4 segment pairs claimed");
        m.apply(&lut, &[2000, 2047]).unwrap();
        assert_eq!(m.next_pluto, before, "second call reuses the store");
    }

    #[test]
    fn same_name_different_contents_never_alias_a_cached_store() {
        // The store cache's identity is the full LUT, not its name and
        // widths: two truncated tables sharing both must get distinct
        // stores, answer from their own elements, and accept their own
        // index ranges.
        let mut m = PlutoMachine::new(small_cfg(), DesignKind::Gmc).unwrap();
        let first = Lut::from_fn_len("alias", 650, 16, |x| x + 1).unwrap();
        let second = Lut::from_fn_len("alias", 700, 16, |x| x + 2).unwrap();
        assert_eq!(m.apply(&first, &[0, 649]).unwrap().values, vec![1, 650]);
        let r = m.apply(&second, &[0, 690]).unwrap();
        assert_eq!(
            r.values,
            vec![2, 692],
            "second table answers from its own elements"
        );
        // And the first store is still intact (no eviction aliasing).
        assert_eq!(m.apply(&first, &[10]).unwrap().values, vec![11]);
        assert!(matches!(
            m.apply(&first, &[650]),
            Err(PlutoError::IndexOutOfRange { value: 650, .. })
        ));
    }

    #[test]
    fn totals_accumulate_and_reset() {
        let mut m = PlutoMachine::new(small_cfg(), DesignKind::Bsa).unwrap();
        let lut = catalog::binarize(10).unwrap();
        m.map(&lut, &[1, 2, 3]).unwrap();
        m.map(&lut, &[4, 5, 6]).unwrap();
        assert_eq!(m.totals().calls, 2);
        assert!(m.totals().time > Picos::ZERO);
        m.reset_totals();
        assert_eq!(m.totals(), AggregateCost::default());
    }
}
