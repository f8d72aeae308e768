//! Throughput of the §5.6 partitioned-LUT data path (`DESIGN.md` §8),
//! writing the machine-readable `BENCH_partition.json` baseline.
//!
//! Four groups on the measurement geometry (256 B rows, 512 rows per
//! subarray):
//!
//! * `query` — the end-to-end partitioned query (a 2048-entry LUT swept
//!   as 4 parallel segment lanes through [`PartitionedLut::query_with`])
//!   against a single-segment query of a 512-entry LUT (the same
//!   per-subarray sweep length), all three designs. The partitioned
//!   query still issues 4× the commands (§5.6 is authoritative for
//!   cost), but the fused data path does its data work in one pass —
//!   the wall-clock ratio gates the simulator's constant factor. Both
//!   sides run the issuing path (plans disabled on the partition; the
//!   single query through [`QueryExecutor`], which never replays): with
//!   warm plans the ratio would gate the plan cache, not the fusion —
//!   the plan cache has its own ≥ 2× guard in `benches/query.rs` and a
//!   hit-counter guard in `benches/serve.rs`.
//! * `query_wide` — the high-segment-count regime: the Gamma12 LUT
//!   (4096 entries, 8 segments) and the full 8-bit multiplier table
//!   (65536 entries, 128 segments), the shapes §5.6 warns about.
//! * `store` — `PartitionedLut::load` with the parent's packed rows
//!   served by the process-wide cache (`load_cached`, the pooled-cluster
//!   steady state; the engine is constructed outside the timed loop)
//!   against `pack_segments_uncached`, the per-element packing work a
//!   cold cache performs.
//! * `routing` — `PlutoMachine::apply` over the same inputs with a
//!   512-entry (one segment) and a 2048-entry (four segments) LUT: the
//!   per-call cost callers actually see.
//!
//! Before the timed groups, a deterministic gate checks that one
//! `query` 4-segment query issues exactly 4× the sweep steps of one
//! single-segment query, on every design.

use pluto_core::lut::{catalog, pack_slots, slots_per_row};
use pluto_core::partition::PartitionedLut;
use pluto_core::query::QueryScratch;
use pluto_core::store::LutStore;
use pluto_core::{DesignKind, Lut, PlutoMachine, QueryExecutor, QueryPlacement};
use pluto_dram::{BankId, DramConfig, Engine, RowId, SubarrayId};
use pluto_workloads::direct::gamma12_lut;
use sim_support::bench::Criterion;

fn wide_engine(subarrays: u16) -> Engine {
    Engine::new(DramConfig {
        row_bytes: 256,
        burst_bytes: 32,
        banks: 1,
        subarrays_per_bank: subarrays,
        rows_per_subarray: 512,
        ..DramConfig::ddr4_2400()
    })
}

fn bench_engine() -> Engine {
    wide_engine(16)
}

/// 2048-entry LUT: 4 segments on the 512-row measurement geometry.
fn big_lut() -> Lut {
    Lut::from_fn("bench2048", 11, 16, |x| (x * x) & 0xFFFF).unwrap()
}

/// 512-entry LUT: the same per-subarray sweep length, one segment.
fn small_lut() -> Lut {
    Lut::from_fn("bench512", 9, 16, |x| (x * x) & 0xFFFF).unwrap()
}

/// The `query` group's 4-segment side: the 2048-entry LUT loaded with
/// plans off, so every query issues all four lanes.
fn partitioned4_side() -> (Engine, PartitionedLut, Vec<u64>) {
    let mut e = bench_engine();
    let mut part = PartitionedLut::load(&mut e, big_lut(), BankId(0), SubarrayId(2)).unwrap();
    part.set_use_plans(false);
    let inputs = (0..128u64).map(|i| (i * 16) % 2048).collect();
    (e, part, inputs)
}

fn query_partitioned4(
    e: &mut Engine,
    part: &mut PartitionedLut,
    design: DesignKind,
    inputs: &[u64],
    scratch: &mut QueryScratch,
) -> usize {
    part.query_with(
        e,
        design,
        SubarrayId(0),
        SubarrayId(1),
        inputs,
        RowId(0),
        RowId(1),
        scratch,
    )
    .unwrap();
    scratch.outputs().len()
}

/// The `query` group's single-segment side: the 512-entry LUT, queried
/// through [`QueryExecutor`].
fn single_side() -> (Engine, LutStore, Vec<u64>) {
    let mut e = bench_engine();
    let store = LutStore::load(
        &mut e,
        small_lut(),
        BankId(0),
        SubarrayId(2),
        SubarrayId(1),
        0,
    )
    .unwrap();
    let inputs = (0..128u64).map(|i| (i * 4) % 512).collect();
    (e, store, inputs)
}

fn query_single(
    e: &mut Engine,
    store: &mut LutStore,
    design: DesignKind,
    inputs: &[u64],
    scratch: &mut QueryScratch,
) -> usize {
    let placement = QueryPlacement::adjacent(BankId(0), SubarrayId(2));
    QueryExecutor::new(e, design)
        .execute_with(store, placement, inputs, RowId(0), RowId(1), scratch)
        .unwrap();
    scratch.outputs().len()
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("query");
    for design in DesignKind::ALL {
        let (mut e, mut part, inputs) = partitioned4_side();
        let mut scratch = QueryScratch::new();
        group.bench_function(&format!("partitioned4/{design}"), |b| {
            b.iter(|| query_partitioned4(&mut e, &mut part, design, &inputs, &mut scratch))
        });

        let (mut e, mut store, inputs) = single_side();
        let mut scratch = QueryScratch::new();
        group.bench_function(&format!("single/{design}"), |b| {
            b.iter(|| query_single(&mut e, &mut store, design, &inputs, &mut scratch))
        });
    }
    group.finish();
}

/// High-segment-count queries: Gamma12 (4096 entries → 8 segments) and
/// the full 8-bit multiplier table (65536 entries → 128 segments).
fn bench_query_wide(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_wide");
    for design in DesignKind::ALL {
        // Gamma12: 12→8-bit, 8 segments (needs 2 + 8×2 subarrays).
        let lut = gamma12_lut().unwrap();
        let inputs: Vec<u64> = (0..128u64).map(|i| (i * 31) % 4096).collect();
        let mut e = wide_engine(20);
        let mut part = PartitionedLut::load(&mut e, lut, BankId(0), SubarrayId(2)).unwrap();
        assert_eq!(part.segment_count(), 8);
        let mut scratch = QueryScratch::new();
        group.bench_function(&format!("gamma12_8seg/{design}"), |b| {
            b.iter(|| {
                part.query_with(
                    &mut e,
                    design,
                    SubarrayId(0),
                    SubarrayId(1),
                    &inputs,
                    RowId(0),
                    RowId(1),
                    &mut scratch,
                )
                .unwrap();
                scratch.outputs().len()
            })
        });

        // MulDirect8: 16→16-bit, 128 segments (needs 2 + 128×2 subarrays).
        let lut = catalog::mul(8).unwrap();
        let inputs: Vec<u64> = (0..128u64).map(|i| (i * 509) % 65536).collect();
        let mut e = wide_engine(260);
        let mut part = PartitionedLut::load(&mut e, lut, BankId(0), SubarrayId(2)).unwrap();
        assert_eq!(part.segment_count(), 128);
        let mut scratch = QueryScratch::new();
        group.bench_function(&format!("mul8_128seg/{design}"), |b| {
            b.iter(|| {
                part.query_with(
                    &mut e,
                    design,
                    SubarrayId(0),
                    SubarrayId(1),
                    &inputs,
                    RowId(0),
                    RowId(1),
                    &mut scratch,
                )
                .unwrap();
                scratch.outputs().len()
            })
        });
    }
    group.finish();
}

fn bench_store_load(c: &mut Criterion) {
    let lut = big_lut();
    let mut group = c.benchmark_group("store");
    // The engine lives outside the timed loop: `load_cached` measures the
    // load itself (one cache lookup, per-segment row slicing, batched
    // pokes), not engine construction.
    let mut e = bench_engine();
    group.bench_function("load_cached", |b| {
        b.iter(|| {
            let part = PartitionedLut::load(&mut e, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
            part.segment_count()
        })
    });
    let row_bytes = bench_engine().config().row_bytes;
    let per_row = slots_per_row(row_bytes, lut.slot_bits());
    group.bench_function("pack_segments_uncached", |b| {
        b.iter(|| {
            // The packing work every segment's cache miss performs.
            lut.elements()
                .iter()
                .map(|&elem| {
                    let values = vec![elem; per_row];
                    pack_slots(&values, lut.slot_bits(), row_bytes)
                        .unwrap()
                        .len()
                })
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_machine_routing(c: &mut Criterion) {
    let inputs: Vec<u64> = (0..128u64).map(|i| (i * 3) % 512).collect();
    let mut group = c.benchmark_group("routing");
    for (label, lut) in [("single512", small_lut()), ("partitioned2048", big_lut())] {
        let mut m = PlutoMachine::new(
            DramConfig {
                row_bytes: 256,
                burst_bytes: 32,
                banks: 1,
                subarrays_per_bank: 16,
                rows_per_subarray: 512,
                ..DramConfig::ddr4_2400()
            },
            DesignKind::Gmc,
        )
        .unwrap();
        group.bench_function(&format!("apply/{label}"), |b| {
            b.iter(|| m.apply(&lut, &inputs).unwrap().values.len())
        });
    }
    group.finish();
}

/// Sanity gates (deliberately loose — wall-clock on shared containers is
/// noisy), tightened for the fused single-pass data path:
///
/// * a cached 4-segment load must beat redoing the full packing work AND
///   cost less than the partitioned query it serves;
/// * a 4-segment query must cost less than 2× a single-segment query of
///   the same sweep length — it still issues 4× the commands, but data
///   moves in one pass, so only the per-lane cost accounting scales with
///   the segment count.
fn guard(c: &Criterion) {
    let cached = c.mean_ns("store/load_cached");
    let packing = c.mean_ns("store/pack_segments_uncached");
    assert!(
        cached < packing,
        "cached segment load ({cached:.0} ns) should beat uncached packing ({packing:.0} ns)"
    );
    println!(
        "guard: cached 4-segment load {:.1}x faster than uncached packing",
        packing / cached
    );
    for design in DesignKind::ALL {
        let part = c.mean_ns(&format!("query/partitioned4/{design}"));
        let single = c.mean_ns(&format!("query/single/{design}"));
        let ratio = part / single;
        assert!(
            ratio < 2.0,
            "4-segment query costs {ratio:.2}x a single-segment query on {design} \
             (fused data path expected < 2x despite 4x the commands)"
        );
        assert!(
            cached < part,
            "cached segment load ({cached:.0} ns) should cost less than the \
             partitioned query it serves ({part:.0} ns on {design})"
        );
        println!("guard: {design} partitioned/single query cost {ratio:.2}x (4x commands)");
    }
}

/// The deterministic count beside the wall-clock ratio in [`guard`]: one
/// 4-segment query sweeps exactly 4x the rows of one single-segment
/// query of the same sweep length. A change that skipped a lane would
/// pass the timing gate more easily; it fails this one.
fn sweep_step_guard() {
    for design in DesignKind::ALL {
        let mut scratch = QueryScratch::new();
        let (mut e, mut part, inputs) = partitioned4_side();
        let before = e.stats().sweep_steps;
        query_partitioned4(&mut e, &mut part, design, &inputs, &mut scratch);
        let part_steps = e.stats().sweep_steps - before;

        let (mut e, mut store, inputs) = single_side();
        let before = e.stats().sweep_steps;
        query_single(&mut e, &mut store, design, &inputs, &mut scratch);
        let single_steps = e.stats().sweep_steps - before;

        assert!(
            single_steps > 0,
            "single-segment query swept no rows on {design}"
        );
        assert_eq!(
            part_steps,
            4 * single_steps,
            "4-segment query swept {part_steps} rows on {design}, not 4x the \
             single-segment query's {single_steps}"
        );
        println!(
            "guard: {design} 4-segment query swept {part_steps} rows, exactly 4x the \
             single-segment query's {single_steps}"
        );
    }
}

fn main() {
    let mut c = Criterion::named("partition");
    sweep_step_guard();
    bench_query(&mut c);
    bench_query_wide(&mut c);
    bench_store_load(&mut c);
    bench_machine_routing(&mut c);
    guard(&c);
    c.finalize();
}
