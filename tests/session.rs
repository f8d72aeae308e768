//! Integration tests of the unified `Session`/`Workload` execution API
//! (`DESIGN.md` §5): full-registry coverage on both memory kinds, the
//! paper-row scaling invariant, batching, and the composition guarantees
//! the old thread-local implementation could not give.

use pluto_repro::baselines::WorkloadId;
use pluto_repro::core::session::{CostReport, Session, Workload};
use pluto_repro::core::DesignKind;
use pluto_repro::dram::MemoryKind;
use pluto_repro::workloads::{registry, workload_for};

/// `PLUTO_QUICK=1` (the CI smoke configuration) skips the three
/// long-running measurement workloads; a plain `cargo test` covers the
/// full registry.
fn skip_in_quick_mode(id: &str) -> bool {
    let quick = std::env::var("PLUTO_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    quick && ["CRC-16", "CRC-32", "Salsa20"].contains(&id)
}

fn run_workload(id: WorkloadId, design: DesignKind, kind: MemoryKind) -> CostReport {
    let mut workload = workload_for(id);
    let mut session = Session::builder(design)
        .memory(kind)
        .build()
        .unwrap_or_else(|e| panic!("session for {id}: {e}"));
    session
        .run(workload.as_mut())
        .unwrap_or_else(|e| panic!("{id} on {design}/{kind}: {e}"))
}

/// Every registry workload validates under both memory kinds, and the
/// reported byte volume obeys the paper-row scaling invariant: ×32 on
/// DDR4 (8 KiB paper rows over 256 B measurement rows), ×1 on 3DS (whose
/// rows are 256 B to begin with).
#[test]
fn registry_validates_on_both_memory_kinds_with_row_scaling() {
    for kind in [MemoryKind::Ddr4, MemoryKind::Stacked3d] {
        let mut session = Session::builder(DesignKind::Gmc)
            .memory(kind)
            .build()
            .unwrap();
        let expect_ratio = match kind {
            MemoryKind::Ddr4 => 32.0,
            MemoryKind::Stacked3d => 1.0,
        };
        for mut workload in registry() {
            if skip_in_quick_mode(workload.id()) {
                continue;
            }
            let report = session.run(workload.as_mut()).unwrap_or_else(|e| {
                panic!("{} on {kind}: {e}", workload.id());
            });
            assert!(report.validated, "{} on {kind}", report.workload);
            assert_eq!(report.kind, kind);
            let expect = workload.input_bytes() * expect_ratio;
            assert!(
                (report.paper_bytes - expect).abs() < 1e-9,
                "{} on {kind}: paper_bytes {} != input_bytes {} x {expect_ratio}",
                report.workload,
                report.paper_bytes,
                workload.input_bytes()
            );
        }
    }
}

/// Regression for the old `measure_on` nesting bug (it restored
/// `MemoryKind::Ddr4` unconditionally instead of the previous value):
/// with explicit sessions, interleaving and nesting configurations of
/// different memory kinds composes — no run perturbs any other.
#[test]
fn interleaved_and_nested_sessions_compose() {
    let first = run_workload(WorkloadId::Bc4, DesignKind::Gmc, MemoryKind::Ddr4);
    let inner = run_workload(WorkloadId::Bc4, DesignKind::Gmc, MemoryKind::Stacked3d);
    let second = run_workload(WorkloadId::Bc4, DesignKind::Gmc, MemoryKind::Ddr4);
    assert_eq!(first, second, "interleaved 3DS run perturbed DDR4 results");
    assert_eq!(inner.kind, MemoryKind::Stacked3d);

    // Nested: an outer session stays live while an inner session of the
    // other kind runs between its two (identical) runs.
    let mut outer = Session::builder(DesignKind::Bsa).build().unwrap();
    let mut workload = workload_for(WorkloadId::BitwiseRow);
    let before = outer.run(workload.as_mut()).unwrap();
    let mut inner_session = Session::builder(DesignKind::Bsa)
        .memory(MemoryKind::Stacked3d)
        .build()
        .unwrap();
    inner_session
        .run(workload_for(WorkloadId::BitwiseRow).as_mut())
        .unwrap();
    let after = outer.run(workload.as_mut()).unwrap();
    assert_eq!(before, after, "nested session perturbed the outer session");
}

/// `run_all` batching is pure composition: each batched report is
/// bit-identical to the same workload measured alone, and the session
/// accumulates the reports in order.
#[test]
fn batched_run_all_matches_individual_runs() {
    let ids = [
        WorkloadId::Vmpc,
        WorkloadId::ImgBin,
        WorkloadId::Bc8,
        WorkloadId::BitwiseRow,
    ];
    let mut workloads: Vec<Box<dyn Workload>> = ids.iter().map(|&id| workload_for(id)).collect();
    let mut session = Session::builder(DesignKind::Bsa).build().unwrap();
    let batch = session.run_all(&mut workloads).unwrap();
    assert_eq!(batch, session.reports());
    for (report, &id) in batch.iter().zip(&ids) {
        let single = run_workload(id, DesignKind::Bsa, MemoryKind::Ddr4);
        assert_eq!(*report, single, "{id}");
        assert_eq!(report.workload, id.label());
    }
}

/// The registry enumerates exactly the canonical workloads, each under
/// its canonical label, and alias ids resolve to the same scenario.
#[test]
fn registry_matches_canonical_ids() {
    let labels: Vec<&'static str> = registry().iter().map(|w| w.id()).collect();
    let expect: Vec<&'static str> = WorkloadId::CANONICAL
        .into_iter()
        .map(WorkloadId::label)
        .collect();
    assert_eq!(labels, expect);
    assert_eq!(
        workload_for(WorkloadId::MulQ1_7).id(),
        WorkloadId::Mul8.label()
    );
    assert_eq!(
        workload_for(WorkloadId::MulQ1_15).id(),
        WorkloadId::Mul16.label()
    );
}

/// A fixed-input scenario builds its inputs once, in its constructor,
/// from its own generator seeds, and a run only reads them. So one
/// workload object reruns to the same validated report, and the session
/// seed does not reach it. The two qnn scenarios draw their inputs from
/// the session seed, so they are left out.
#[test]
fn fixed_input_scenarios_rerun_identically_on_any_seed() {
    let mut session = Session::builder(DesignKind::Gmc).build().unwrap();
    let mut reseeded = Session::builder(DesignKind::Gmc).seed(99).build().unwrap();
    for id in WorkloadId::CANONICAL {
        if matches!(id, WorkloadId::QnnGemv8 | WorkloadId::QnnMlp) || skip_in_quick_mode(id.label())
        {
            continue;
        }
        let mut workload = workload_for(id);
        let first = session
            .run(workload.as_mut())
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let rerun = session
            .run(workload.as_mut())
            .unwrap_or_else(|e| panic!("{id} rerun: {e}"));
        let other_seed = reseeded
            .run(workload.as_mut())
            .unwrap_or_else(|e| panic!("{id} at seed 99: {e}"));
        assert!(first.validated, "{id}");
        assert_eq!(first, rerun, "{id}: a rerun changed the report");
        assert_eq!(
            first, other_seed,
            "{id}: the session seed changed the report"
        );
    }
}
