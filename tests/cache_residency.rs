//! Residency of the plan and packed-row caches (`DESIGN.md` §7, §10): a
//! working set with more entries than the old 512-entry caps, but far
//! below the plan cache's entry cap and the packed-row cache's byte
//! budget, stays cached, so repeating a run packs and records nothing.
//!
//! One CRC-32 run loads 1,025 distinct tables (128 byte positions × 8
//! nibble planes, plus the XOR LUT) and records as many plan keys. The
//! counters are process-wide, so this binary holds exactly one test: no
//! other test may query while the deltas are read.

use pluto_repro::baselines::WorkloadId;
use pluto_repro::core::plan::plan_stats;
use pluto_repro::core::session::Session;
use pluto_repro::core::store::packed_cache_stats;
use pluto_repro::core::DesignKind;
use pluto_repro::workloads::workload_for;

#[test]
fn a_repeated_crc32_run_above_the_old_caps_packs_and_records_nothing() {
    let mut session = Session::builder(DesignKind::Gmc).build().unwrap();
    let mut workload = workload_for(WorkloadId::Crc32);

    let (plan0, packed0) = (plan_stats(), packed_cache_stats());
    let first = session.run(workload.as_mut()).unwrap();
    let (plan1, packed1) = (plan_stats(), packed_cache_stats());
    assert!(first.validated);
    assert!(
        packed1.misses - packed0.misses > 512,
        "{} tables packed: the working set must exceed the old cap",
        packed1.misses - packed0.misses
    );
    assert!(
        plan1.misses - plan0.misses > 512,
        "{} tapes recorded: the working set must exceed the old cap",
        plan1.misses - plan0.misses
    );

    let second = session.run(workload.as_mut()).unwrap();
    let (plan2, packed2) = (plan_stats(), packed_cache_stats());
    assert_eq!(second, first, "a cached run costs exactly what it did cold");
    assert_eq!(
        packed2.misses - packed1.misses,
        0,
        "no table is packed again"
    );
    assert_eq!(plan2.misses - plan1.misses, 0, "no tape is recorded again");
    assert_eq!(plan2.fallbacks - plan1.fallbacks, 0);
    assert_eq!((plan2.evictions, packed2.evictions), (0, 0));
    // Every lookup the cold run made, the warm run hits.
    assert_eq!(
        packed2.hits - packed1.hits,
        packed1.hits - packed0.hits + packed1.misses - packed0.misses
    );
    assert_eq!(
        plan2.hits - plan1.hits,
        plan1.hits - plan0.hits + plan1.misses - plan0.misses
    );
}
