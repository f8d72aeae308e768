//! Single-thread throughput of the word-parallel LUT query engine
//! (`DESIGN.md` §7) against the retained scalar reference path, writing
//! the machine-readable `BENCH_query.json` baseline.
//!
//! Three groups:
//!
//! * `pack` / `unpack` — the slot packing microbenches (the streaming
//!   64-bit shift/mask accumulator vs the original bit-serial loops) at
//!   aligned, non-power-of-two, and word-straddling slot widths over one
//!   paper-sized 8 KiB row.
//! * `query` — the end-to-end LUT query on the measurement geometry (one
//!   full row of 8-bit lookups through a 256-entry LUT, all three
//!   designs), three ways: `word` (the word-parallel [`QueryExecutor`],
//!   which always issues — the cold cost every first-seen plan key
//!   pays), `scalar` (the retained scalar reference), and `warm_plan`
//!   (the production store, a one-segment [`PartitionedLut`], with the
//!   compiled-plan cache hot: its lane applies a memoized cost tape
//!   instead of re-simulating every command, `DESIGN.md` §10).
//! * `store` — `LutStore::load` with the packed-row cache warm (the
//!   pooled-cluster steady state) vs `pack_rows_uncached`, the
//!   per-element packing work a cache miss performs.
//!
//! All paths are bit-identical (enforced by `tests/query_differential.rs`
//! and `tests/plan_replay.rs`); only throughput differs. This target also
//! acts as CI's **throughput regression guard**: it fails outright if the
//! word-parallel packer is less than 2x the scalar reference on the
//! packing microbench (1.5x at the narrowest width, where the structural
//! gap is smallest), if the end-to-end word query is not faster than the
//! scalar query it replaced, or if a warm-plan query is not at least 2x
//! faster than the issuing path it memoizes. Before the timed groups, a
//! deterministic count checks that warm-plan queries replay every lane:
//! plan hits rise by exactly one per lane and query, misses and
//! fallbacks by 0.

use pluto_core::lut::{catalog, pack_slots, pack_slots_scalar, unpack_slots, unpack_slots_scalar};
use pluto_core::partition::PartitionedLut;
use pluto_core::plan::plan_stats;
use pluto_core::query::{QueryExecutor, QueryPlacement, QueryScratch};
use pluto_core::store::LutStore;
use pluto_core::DesignKind;
use pluto_dram::{BankId, DramConfig, Engine, RowId, SubarrayId};
use sim_support::bench::Criterion;

/// The paper's DDR4 row width (Table 3) — the realistic packing volume.
const ROW_BYTES: usize = 8192;

/// Aligned (8), non-power-of-two (5), and word-straddling (11) widths.
const WIDTHS: [u32; 3] = [5, 8, 11];

fn values_for(width: u32) -> Vec<u64> {
    let capacity = (ROW_BYTES * 8) / width as usize;
    let mask = (1u64 << width) - 1;
    (0..capacity as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
        .collect()
}

fn bench_pack(c: &mut Criterion) {
    let mut group = c.benchmark_group("pack");
    for width in WIDTHS {
        let values = values_for(width);
        group.bench_function(&format!("word/w{width}"), |b| {
            b.iter(|| pack_slots(&values, width, ROW_BYTES).unwrap())
        });
        group.bench_function(&format!("scalar/w{width}"), |b| {
            b.iter(|| pack_slots_scalar(&values, width, ROW_BYTES).unwrap())
        });
    }
    group.finish();
}

fn bench_unpack(c: &mut Criterion) {
    let mut group = c.benchmark_group("unpack");
    for width in WIDTHS {
        let values = values_for(width);
        let count = values.len();
        let row = pack_slots(&values, width, ROW_BYTES).unwrap();
        group.bench_function(&format!("word/w{width}"), |b| {
            b.iter(|| unpack_slots(&row, width, count))
        });
        group.bench_function(&format!("scalar/w{width}"), |b| {
            b.iter(|| unpack_slots_scalar(&row, width, count))
        });
    }
    group.finish();
}

/// The measurement geometry every `Session` runs on (256 B rows, 512
/// rows per subarray), with a 256-entry 8-bit LUT: one query serves a
/// full row of 256 lookups in a 256-step sweep.
fn query_engine() -> Engine {
    Engine::new(DramConfig {
        row_bytes: 256,
        burst_bytes: 32,
        banks: 1,
        subarrays_per_bank: 16,
        rows_per_subarray: 512,
        ..DramConfig::ddr4_2400()
    })
}

fn query_setup(e: &mut Engine) -> (LutStore, QueryPlacement) {
    let lut = catalog::binarize(128).unwrap();
    let bank = BankId(0);
    let pluto = SubarrayId(2);
    let store = LutStore::load(e, lut, bank, pluto, SubarrayId(1), 0).unwrap();
    (store, QueryPlacement::adjacent(bank, pluto))
}

fn bench_query(c: &mut Criterion) {
    let inputs: Vec<u64> = (0..256u64).collect();
    let mut group = c.benchmark_group("query");
    for design in DesignKind::ALL {
        let mut e = query_engine();
        let (mut store, placement) = query_setup(&mut e);
        let mut scratch = QueryScratch::new();
        group.bench_function(&format!("word/{design}"), |b| {
            b.iter(|| {
                // The issuing path — the cold cost a first-seen plan key
                // pays, and the differential oracle.
                let mut ex = QueryExecutor::new(&mut e, design);
                ex.execute_with(
                    &mut store,
                    placement,
                    &inputs,
                    RowId(0),
                    RowId(1),
                    &mut scratch,
                )
                .unwrap();
                scratch.outputs().len()
            })
        });
        let mut e = query_engine();
        let (mut store, placement) = query_setup(&mut e);
        group.bench_function(&format!("scalar/{design}"), |b| {
            b.iter(|| {
                let mut ex = QueryExecutor::new(&mut e, design);
                ex.execute_scalar_reference(&mut store, placement, &inputs, RowId(0), RowId(1))
                    .unwrap()
                    .0
                    .len()
            })
        });
        let (mut e, mut part) = warm_plan_side();
        let mut scratch = QueryScratch::new();
        // One unmeasured query records the plan; the measured loop then
        // runs the warm steady state (tape replay + data gather only).
        query_warm_plan(&mut e, &mut part, design, &inputs, &mut scratch);
        group.bench_function(&format!("warm_plan/{design}"), |b| {
            b.iter(|| query_warm_plan(&mut e, &mut part, design, &inputs, &mut scratch))
        });
    }
    group.finish();
}

/// The `warm_plan` side: the production store, a one-segment
/// [`PartitionedLut`], on the measurement geometry.
fn warm_plan_side() -> (Engine, PartitionedLut) {
    let mut e = query_engine();
    let lut = catalog::binarize(128).unwrap();
    let part = PartitionedLut::load(&mut e, lut, BankId(0), SubarrayId(2)).unwrap();
    (e, part)
}

fn query_warm_plan(
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

/// The deterministic count beside the warm-plan timing ratio in
/// [`guard`]: after one recording query, `N` further queries on the
/// production store replay every lane, so plan hits rise by exactly `N`
/// per lane and misses and fallbacks by 0. Unlike the timing ratio, the
/// count neither trips on host noise nor passes by it. The bench runs on
/// one thread, so the process-wide counters are exact.
fn warm_plan_count_guard() {
    const N: u64 = 16;
    let inputs: Vec<u64> = (0..256u64).collect();
    for design in DesignKind::ALL {
        let (mut e, mut part) = warm_plan_side();
        let mut scratch = QueryScratch::new();
        query_warm_plan(&mut e, &mut part, design, &inputs, &mut scratch);
        let before = plan_stats();
        for _ in 0..N {
            query_warm_plan(&mut e, &mut part, design, &inputs, &mut scratch);
        }
        let after = plan_stats();
        let lanes = part.segment_count() as u64;
        let (hits, misses, fallbacks) = (
            after.hits - before.hits,
            after.misses - before.misses,
            after.fallbacks - before.fallbacks,
        );
        assert_eq!(
            (hits, misses, fallbacks),
            (N * lanes, 0, 0),
            "{N} warm-plan queries on {design} over {lanes} lane(s): \
             (hits, misses, fallbacks) must be ({}, 0, 0)",
            N * lanes
        );
        println!(
            "guard: {design} {N} warm-plan queries replayed {hits} lane tapes \
             (exactly {N} per lane), 0 misses, 0 fallbacks"
        );
    }
}

/// `LutStore::load` in the pooled-cluster steady state (`load_cached`:
/// after the first load the packed rows come from the process-wide
/// cache) against `pack_rows_uncached`, the per-element packing work a
/// cache miss performs — the cost every load used to pay.
fn bench_store_load(c: &mut Criterion) {
    let lut = catalog::binarize(200).unwrap();
    let mut group = c.benchmark_group("store");
    group.bench_function("load_cached", |b| {
        b.iter(|| {
            let mut e = query_engine();
            let store = LutStore::load(
                &mut e,
                lut.clone(),
                BankId(0),
                SubarrayId(2),
                SubarrayId(1),
                0,
            )
            .unwrap();
            store.lut().len()
        })
    });
    let row_bytes = query_engine().config().row_bytes;
    let per_row = row_bytes * 8 / lut.slot_bits() as usize;
    group.bench_function("pack_rows_uncached", |b| {
        b.iter(|| {
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

/// The CI throughput gates. Floors sit well below the observed gaps so
/// scheduler noise on small containers cannot produce false failures,
/// while a regression that reverts the vectorization (ratio ~1.0x)
/// still trips them immediately.
fn guard(c: &Criterion) {
    for width in WIDTHS {
        let ratio =
            c.mean_ns(&format!("pack/scalar/w{width}")) / c.mean_ns(&format!("pack/word/w{width}"));
        // The word-vs-scalar gap grows with slot width (the accumulator
        // amortizes shifts over more bits per slot): w11 measures ~20x,
        // w8 ~3x, but w5 sits near 2x — close enough that scheduler
        // noise straddles a 2.0 floor. A reverted vectorization lands at
        // ~1.0x either way, so the narrow-width floor is 1.5.
        let floor = if width < 8 { 1.5 } else { 2.0 };
        assert!(
            ratio >= floor,
            "throughput regression: word-parallel pack is only {ratio:.2}x the scalar \
             reference at w{width} (the guard requires >= {floor}x)"
        );
        println!("guard: pack w{width} word/scalar speedup {ratio:.1}x (>= {floor}x required)");
    }
    for design in DesignKind::ALL {
        let ratio = c.mean_ns(&format!("query/scalar/{design}"))
            / c.mean_ns(&format!("query/word/{design}"));
        // GSA's query is dominated by its per-query LUT reload (Table 1
        // charges LISA_RBM × N every query) — engine data movement both
        // paths share — so its end-to-end ratio is structurally smaller
        // than BSA/GMC's, which measure ≥ 3x.
        let floor = if design.reload_per_query() { 1.2 } else { 2.0 };
        assert!(
            ratio >= floor,
            "throughput regression: word-parallel end-to-end query is only {ratio:.2}x \
             the scalar reference on {design} (the guard requires >= {floor}x)"
        );
        println!("guard: end-to-end query {design} word/scalar speedup {ratio:.1}x");
    }
    for design in DesignKind::ALL {
        let ratio = c.mean_ns(&format!("query/word/{design}"))
            / c.mean_ns(&format!("query/warm_plan/{design}"));
        assert!(
            ratio >= 2.0,
            "plan-cache regression: warm-plan query is only {ratio:.2}x the issuing \
             path on {design} (the guard requires >= 2x) — replay is not skipping \
             command simulation"
        );
        println!("guard: warm-plan query {design} replay speedup {ratio:.1}x (>= 2x required)");
    }
}

fn main() {
    let mut c = Criterion::named("query");
    warm_plan_count_guard();
    bench_pack(&mut c);
    bench_unpack(&mut c);
    bench_query(&mut c);
    bench_store_load(&mut c);
    guard(&c);
    c.finalize();
}
