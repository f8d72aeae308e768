//! Exact plan-cache counters under segment stores' tape handles
//! (`DESIGN.md` §10). Each segment store keeps the key and tape its last
//! lane used, so a repeat lane replays without a shared lookup, yet it
//! still counts one hit: the counters read as if every lane had looked
//! its key up in the shared cache. The counters are process-wide, so this
//! binary holds exactly one test: no other test may query while the
//! deltas are read.

use pluto_repro::core::lut::{slots_per_row, Lut};
use pluto_repro::core::partition::PartitionedLut;
use pluto_repro::core::plan::{plan_stats, PlanStats};
use pluto_repro::core::{DesignKind, PlutoMachine};
use pluto_repro::dram::{BankId, DramConfig, Engine, RowId, SubarrayId};

/// Counter deltas `(hits, misses, fallbacks)` from `before` to now.
fn since(before: PlanStats) -> (u64, u64, u64) {
    let now = plan_stats();
    (
        now.hits - before.hits,
        now.misses - before.misses,
        now.fallbacks - before.fallbacks,
    )
}

#[test]
fn every_lane_counts_one_lookup_whether_its_handle_or_the_shared_cache_serves_it() {
    // A 1024-entry LUT over 8-row subarrays: 128 segment lanes, each at
    // its own hop distance from the destination, so each its own key.
    let cfg = DramConfig {
        row_bytes: 32,
        burst_bytes: 8,
        banks: 1,
        subarrays_per_bank: 260,
        rows_per_subarray: 8,
        ..DramConfig::ddr4_2400()
    };
    let lut = Lut::from_fn("plan-handles-128seg", 10, 12, |x| {
        x.wrapping_mul(29) & 0xfff
    })
    .unwrap();
    let inputs: Vec<u64> = (0..6).map(|i| i * 171).collect();
    let mut engine = Engine::new(cfg);
    let mut part =
        PartitionedLut::load(&mut engine, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
    assert_eq!(part.segment_count(), 128);
    let mut query = |engine: &mut Engine| {
        let (out, _) = part
            .query(
                engine,
                DesignKind::Gmc,
                SubarrayId(0),
                SubarrayId(1),
                &inputs,
                RowId(0),
                RowId(1),
            )
            .unwrap();
        assert_eq!(out, lut.apply_all(&inputs).unwrap());
    };

    // Fresh stores hold no handle: one shared lookup per lane.
    let before = plan_stats();
    query(&mut engine);
    let (hits, misses, fallbacks) = since(before);
    assert_eq!(
        hits + misses,
        128,
        "first query: {hits} hits + {misses} misses"
    );
    assert_eq!(fallbacks, 0);

    // Every store now holds its lane's key: 128 handle hits.
    let before = plan_stats();
    query(&mut engine);
    assert_eq!(
        since(before),
        (128, 0, 0),
        "repeat query (hits, misses, fallbacks)"
    );

    // A machine query longer than one row runs one partitioned query per
    // row chunk: the first chunk's lanes look their keys up, later
    // chunks' lanes hit their handles, and each lane counts once.
    let mut machine = PlutoMachine::new(
        DramConfig {
            row_bytes: 32,
            burst_bytes: 8,
            banks: 1,
            subarrays_per_bank: 24,
            rows_per_subarray: 64,
            ..DramConfig::ddr4_2400()
        },
        DesignKind::Gmc,
    )
    .unwrap();
    let lut = Lut::from_fn("plan-handles-machine", 9, 8, |x| (x * 7 + 1) & 0xff).unwrap();
    let inputs: Vec<u64> = (0..100).map(|i| (i * 37) % 512).collect();
    let chunks = inputs.len().div_ceil(slots_per_row(32, lut.slot_bits())) as u64;
    assert!(chunks > 1, "the inputs must span several row chunks");
    let before = plan_stats();
    let result = machine.apply(&lut, &inputs).unwrap();
    assert_eq!(result.values, lut.apply_all(&inputs).unwrap());
    let (hits, misses, fallbacks) = since(before);
    let segments = 8;
    assert_eq!(
        hits + misses,
        chunks * segments,
        "{chunks} chunks x {segments} segments: {hits} hits + {misses} misses"
    );
    assert!(
        misses <= segments,
        "only the first chunk can miss: {misses}"
    );
    assert_eq!(fallbacks, 0);
}
