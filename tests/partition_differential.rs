//! Differential suite for §5.6 partitioned LUT queries (`DESIGN.md` §8).
//!
//! Partitioned queries must be *bit-identical* to two independent
//! oracles — the host-side software LUT and an unpartitioned
//! single-subarray run of the same table on a geometry where it fits —
//! across all 3 designs × 2 memory kinds × segment counts {1, 2, 3, 4},
//! including boundary inputs on segment seams. On top, the suite locks
//! the §5.6 engine-reconciliation invariant (the engine's own clock and
//! energy deltas equal the merged cost) and the end-to-end
//! `Session`/`Cluster` routing of large (including non-power-of-two)
//! LUTs.

use pluto_repro::core::cluster::Cluster;
use pluto_repro::core::lut::unpack_slots;
use pluto_repro::core::partition::PartitionedLut;
use pluto_repro::core::session::{self, ExecConfig, Session, Workload};
use pluto_repro::core::{DesignKind, Lut, LutStore, PlutoError, QueryExecutor, QueryPlacement};
use pluto_repro::dram::{BankId, DramConfig, Engine, MemoryKind, RowId, RowLoc, SubarrayId};
use sim_support::StdRng;

/// Rows per subarray of the partitioned geometry: small enough that a
/// 2-segment LUT is only 128 entries, keeping the full design × kind ×
/// segment sweep fast.
const SEG_ROWS: usize = 64;

fn partitioned_engine(kind: MemoryKind) -> Engine {
    Engine::new(DramConfig {
        kind,
        row_bytes: 32,
        burst_bytes: 8,
        banks: 1,
        subarrays_per_bank: 48,
        rows_per_subarray: SEG_ROWS as u16,
    })
}

/// The oracle geometry: identical rows/bytes but subarrays deep enough
/// to hold every swept LUT unpartitioned.
fn unpartitioned_engine(kind: MemoryKind) -> Engine {
    Engine::new(DramConfig {
        kind,
        row_bytes: 32,
        burst_bytes: 8,
        banks: 1,
        subarrays_per_bank: 8,
        rows_per_subarray: 1024,
    })
}

/// Boundary inputs hugging every segment seam (`k·R ± 1`), the table
/// ends, plus interior points and duplicates — capped at the 16-slot row
/// capacity of the 32 B / 16-bit-slot layout.
fn seam_inputs(len: usize) -> Vec<u64> {
    let mut inputs = vec![0u64, 1, (len - 1) as u64];
    for k in 1..len.div_ceil(SEG_ROWS) {
        let seam = (k * SEG_ROWS) as u64;
        inputs.extend([seam - 1, seam, seam + 1]);
    }
    inputs.push((len / 2) as u64);
    inputs.push(0); // duplicate input: every copy must capture
    inputs.retain(|&x| (x as usize) < len);
    inputs.truncate(16);
    inputs
}

#[test]
fn partitioned_matches_host_oracle_and_unpartitioned_run() {
    for kind in [MemoryKind::Ddr4, MemoryKind::Stacked3d] {
        for design in DesignKind::ALL {
            for segs in [1usize, 2, 3, 4] {
                let label = format!("{design}/{kind}/{segs}seg");
                let len = segs * SEG_ROWS;
                let lut =
                    Lut::from_fn_len(format!("diff{segs}"), len, 16, |x| (x * 37 + 11) & 0xFFFF)
                        .unwrap();
                let inputs = seam_inputs(len);
                let host = lut.apply_all(&inputs).unwrap();

                // Partitioned run.
                let mut e = partitioned_engine(kind);
                let mut part =
                    PartitionedLut::load(&mut e, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
                assert_eq!(part.segment_count(), segs, "{label}");
                let (out, cost) = part
                    .query(
                        &mut e,
                        design,
                        SubarrayId(0),
                        SubarrayId(1),
                        &inputs,
                        RowId(0),
                        RowId(3),
                    )
                    .unwrap();
                assert_eq!(out, host, "{label}: partitioned vs host oracle");
                assert_eq!(cost.segments, segs, "{label}");

                // Unpartitioned run of the *same* table where it fits.
                let mut eu = unpartitioned_engine(kind);
                let mut store = LutStore::load(
                    &mut eu,
                    lut.clone(),
                    BankId(0),
                    SubarrayId(2),
                    SubarrayId(3),
                    0,
                )
                .unwrap();
                let placement = QueryPlacement {
                    bank: BankId(0),
                    source: SubarrayId(0),
                    pluto: SubarrayId(2),
                    dest: SubarrayId(1),
                };
                let mut ex = QueryExecutor::new(&mut eu, design);
                let (flat, _) = ex
                    .execute(&mut store, placement, &inputs, RowId(0), RowId(3))
                    .unwrap();
                assert_eq!(out, flat, "{label}: partitioned vs unpartitioned");

                // The committed destination row is byte-identical too: the
                // §5.6 merge leaves the same packed output vector a flat
                // sweep would.
                let dst = |e: &Engine| {
                    e.peek_row(RowLoc {
                        bank: BankId(0),
                        subarray: SubarrayId(1),
                        row: RowId(3),
                    })
                    .unwrap()
                };
                assert_eq!(dst(&e), dst(&eu), "{label}: destination row bytes");
                assert_eq!(
                    unpack_slots(&dst(&e), lut.slot_bits(), inputs.len()),
                    host,
                    "{label}: destination row decodes to the oracle"
                );
            }
        }
    }
}

#[test]
fn engine_deltas_equal_the_merged_cost_for_every_design_and_kind() {
    // Satellite: the §5.6 merge runs *on* the engine (parallel lanes), so
    // engine-side totals can no longer disagree with the returned cost.
    for kind in [MemoryKind::Ddr4, MemoryKind::Stacked3d] {
        for design in DesignKind::ALL {
            let mut e = partitioned_engine(kind);
            let lut = Lut::from_fn("acct", 8, 16, |x| x ^ 0xA5).unwrap();
            let mut part = PartitionedLut::load(&mut e, lut, BankId(0), SubarrayId(2)).unwrap();
            let inputs: Vec<u64> = (0..16u64).map(|i| i * 16 + 7).collect();
            for round in 0..2 {
                let t0 = e.elapsed();
                let e0 = e.command_energy();
                let (_, cost) = part
                    .query(
                        &mut e,
                        design,
                        SubarrayId(0),
                        SubarrayId(1),
                        &inputs,
                        RowId(0),
                        RowId(1),
                    )
                    .unwrap();
                assert_eq!(
                    e.elapsed() - t0,
                    cost.latency,
                    "{design}/{kind} round {round}: clock drift"
                );
                assert!(
                    ((e.command_energy() - e0).as_pj() - cost.energy.as_pj()).abs() < 1e-9,
                    "{design}/{kind} round {round}: energy drift"
                );
            }
        }
    }
}

#[test]
fn gsa_partitioned_queries_reload_every_segment_every_query() {
    // GSA destroys each segment per sweep; repeated partitioned queries
    // must keep answering correctly and cost identically (the reload is
    // charged inside every query, §5.2.1).
    let mut e = partitioned_engine(MemoryKind::Ddr4);
    let lut = Lut::from_fn("gsa8", 8, 16, |x| (x * 3) & 0xFFFF).unwrap();
    let mut part = PartitionedLut::load(&mut e, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
    let inputs: Vec<u64> = vec![0, 64, 128, 192, 255];
    let host = lut.apply_all(&inputs).unwrap();
    let mut costs = Vec::new();
    for round in 0..3 {
        let (out, cost) = part
            .query(
                &mut e,
                DesignKind::Gsa,
                SubarrayId(0),
                SubarrayId(1),
                &inputs,
                RowId(0),
                RowId(1),
            )
            .unwrap();
        assert_eq!(out, host, "round {round}");
        costs.push(cost);
    }
    assert_eq!(costs[0], costs[1]);
    assert_eq!(costs[1], costs[2], "every GSA query pays the same reload");
}

/// A pluggable scenario over a non-power-of-two 650-entry LUT — the shape
/// `Lut::from_table` cannot even express — running through the standard
/// `Session`/`Cluster` `query()` path.
#[derive(Debug)]
struct OddGamma {
    inputs: Vec<u64>,
}

impl OddGamma {
    const LEN: usize = 650;

    fn new() -> Self {
        OddGamma {
            inputs: (0..120u64).map(|i| (i * 131) % Self::LEN as u64).collect(),
        }
    }

    fn lut() -> Lut {
        Lut::from_fn_len("odd650", Self::LEN, 16, |x| (x * x) & 0xFFFF).unwrap()
    }
}

impl Workload for OddGamma {
    fn id(&self) -> &'static str {
        "OddGamma650"
    }
    fn prepare(&mut self, _rng: &mut StdRng) {
        self.inputs = (0..120u64).map(|i| (i * 131) % Self::LEN as u64).collect();
    }
    fn run_pluto(&mut self, sess: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let out = sess.machine_mut().apply(&Self::lut(), &self.inputs)?.values;
        Ok(session::encode_words(&out))
    }
    fn run_reference(&self) -> Vec<u8> {
        let expect: Vec<u64> = self.inputs.iter().map(|&x| (x * x) & 0xFFFF).collect();
        session::encode_words(&expect)
    }
    fn input_bytes(&self) -> f64 {
        self.inputs.len() as f64 * 10.0 / 8.0
    }
}

#[test]
fn session_and_cluster_route_non_power_of_two_large_luts() {
    // Acceptance: a LUT larger than `rows_per_subarray` with a
    // non-power-of-two length executes through the standard `Session` /
    // `Cluster` path — one validated report, bit-identical across the
    // serial and pooled-parallel executors.
    let config = ExecConfig::measurement_on(DesignKind::Gmc, MemoryKind::Ddr4);
    let serial = Session::with_config(config.clone())
        .unwrap()
        .run(&mut OddGamma::new())
        .unwrap();
    assert!(serial.validated, "odd-length partitioned run validates");
    assert!(serial.acts > 0);

    let mut cluster = Cluster::new(2);
    cluster.submit(config.clone(), Box::new(OddGamma::new()));
    cluster.submit(config, Box::new(OddGamma::new()));
    let reports = cluster.run().unwrap();
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(*r, serial, "cluster run {i} diverged from serial");
    }
}

#[test]
fn apply_and_map_agree_on_odd_length_luts_that_fit_one_subarray() {
    // Regression: a 650-entry truncated LUT on a 1024-row geometry used
    // to run as a §6.1-forbidden 650-step single sweep on the fast path
    // while the ISA path rejected it. Both now route partitioned (one
    // padded segment) and agree.
    let mut session = Session::builder(DesignKind::Gmc)
        .rows_per_subarray(1024)
        .build()
        .unwrap();
    let m = session.machine_mut();
    let lut = Lut::from_fn_len("oddfit650", 650, 16, |x| (x * 11) & 0xFFFF).unwrap();
    let inputs: Vec<u64> = (0..100u64).map(|i| (i * 131) % 650).collect();
    let fast = m.apply(&lut, &inputs).unwrap();
    let slow = m.map(&lut, &inputs).unwrap();
    assert_eq!(fast.values, slow.values);
    let expect: Vec<u64> = inputs.iter().map(|&x| (x * 11) & 0xFFFF).collect();
    assert_eq!(fast.values, expect);
}

#[test]
fn machine_map_and_apply_agree_on_partitioned_luts() {
    // The compiled ISA path (map → Controller → pluto_op) and the fast
    // path (apply → PartitionedLut) must produce identical values for a
    // partitioned LUT, exactly as they do for small LUTs.
    let mut session = Session::builder(DesignKind::Bsa)
        .subarrays(24)
        .build()
        .unwrap();
    let m = session.machine_mut();
    let lut = Lut::from_fn("agree11", 11, 16, |x| (x * 7 + 5) & 0xFFFF).unwrap();
    let inputs: Vec<u64> = (0..200u64).map(|i| (i * 19) % 2048).collect();
    let fast = m.apply(&lut, &inputs).unwrap();
    let slow = m.map(&lut, &inputs).unwrap();
    assert_eq!(fast.values, slow.values);
    let expect: Vec<u64> = inputs.iter().map(|&x| (x * 7 + 5) & 0xFFFF).collect();
    assert_eq!(fast.values, expect);
}
