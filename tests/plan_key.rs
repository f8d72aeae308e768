//! Plan-key completeness (`DESIGN.md` §10): a segment lane's cost tape is
//! keyed by `plan::PlanKey`, so every input the key leaves out must be
//! one a lane's cost cannot read. Each case perturbs one input of a base
//! query and runs the perturbed query twice, each time from a fresh
//! engine: once with plans on, after the base query has recorded its
//! tapes (so a key blind to that input replays the base tape), and once
//! on a `set_use_plans(false)` twin that issues every command. Outputs,
//! `PartitionedCost`, clock, energy bits, command counters and the
//! committed destination row must agree.
//!
//! The inputs: every `DramConfig`, `TimingParams` and `EnergyModel`
//! field (destructured without `..`, so a field added later breaks this
//! file's build until a case perturbs it), the tFAW scale, the timing
//! backend, the design, the LUT's name, widths, slot floor, length and
//! elements, the query's inputs, the first pLUTo subarray (hop
//! distances), the source and destination subarrays (dest == source or
//! not), the source and destination rows, and residency (a second query
//! on the same machine).
//!
//! Three key fields no case can expose, by construction: `reload_hops`
//! (`PartitionedLut` always puts a segment's master copy one subarray
//! above it), `loaded` (only a GSA lane may start from a stale store, and
//! GSA reloads before every sweep anyway) and `backend` (a tape also
//! refuses to replay under another backend, `CostTape::replayable_from`).

use pluto_repro::core::lut::{width_mask, Lut};
use pluto_repro::core::partition::{PartitionedCost, PartitionedLut};
use pluto_repro::core::plan::plan_stats;
use pluto_repro::core::DesignKind;
use pluto_repro::dram::{
    BankId, CommandStats, DramConfig, EnergyModel, Engine, MemoryKind, PicoJoules, Picos, RowId,
    RowLoc, SubarrayId, TimingBackend, TimingParams,
};

/// Everything one query depends on.
#[derive(Debug, Clone)]
struct Setup {
    cfg: DramConfig,
    timing: TimingParams,
    energy: EnergyModel,
    backend: TimingBackend,
    design: DesignKind,
    lut: Lut,
    inputs: Vec<u64>,
    /// First pLUTo subarray; segment `k` sits at `pluto + 2k`, its master
    /// copy one above.
    pluto: u16,
    source: SubarrayId,
    dest: SubarrayId,
    src_row: RowId,
    dst_row: RowId,
    /// Queries run back to back on one machine; the last one is observed.
    queries: usize,
}

/// What a query leaves observable.
#[derive(Debug, PartialEq)]
struct Observation {
    outputs: Vec<u64>,
    cost: PartitionedCost,
    clock: Picos,
    energy_bits: u64,
    stats: CommandStats,
    dest_row: Vec<u8>,
}

fn base_lut(name: &str, len: usize, output_bits: u32, salt: u64) -> Lut {
    Lut::from_fn_len(name, len, output_bits, |x| {
        (x * 37 + salt) & width_mask(output_bits)
    })
    .unwrap()
}

/// Inputs spread over every segment of a `len`-entry LUT.
fn spread(len: usize) -> Vec<u64> {
    let len = len as u64;
    vec![0, len / 3, len / 2, len - 1, 1, len / 2 + 1]
}

/// A 128-entry LUT over 64-row subarrays: two segments, at subarrays 4
/// and 6, queried from subarray 0 into subarray 1.
fn base_setup(design: DesignKind, backend: TimingBackend) -> Setup {
    let lut = base_lut("plan-key", 128, 8, 11);
    Setup {
        cfg: DramConfig {
            kind: MemoryKind::Ddr4,
            banks: 2,
            subarrays_per_bank: 16,
            rows_per_subarray: 64,
            row_bytes: 32,
            burst_bytes: 8,
        },
        timing: TimingParams::ddr4_2400(),
        // DDR4's energies are whole picojoules, which f64 adds exactly in
        // any order. At these, closing the source row before or after the
        // copy-out changes the energy bits, so the dest == source case can
        // see which order a tape recorded.
        energy: EnergyModel {
            e_act: PicoJoules::from_pj(29_837.409),
            e_pre: PicoJoules::from_pj(2_340.321),
            e_rd_burst: PicoJoules::from_pj(4_000.7),
            e_wr_burst: PicoJoules::from_pj(4_200.9),
            e_lisa_hop: PicoJoules::from_pj(24_125.839),
            e_charge_share: PicoJoules::from_pj(18_000.3),
            background_watts: 0.35,
        },
        backend,
        design,
        inputs: spread(lut.len()),
        lut,
        pluto: 4,
        source: SubarrayId(0),
        dest: SubarrayId(1),
        src_row: RowId(0),
        dst_row: RowId(3),
        queries: 1,
    }
}

fn observe(s: &Setup, use_plans: bool) -> Observation {
    let mut engine = Engine::with_models(s.cfg.clone(), s.timing.clone(), s.energy.clone())
        .with_timing_backend(s.backend);
    let mut part =
        PartitionedLut::load(&mut engine, s.lut.clone(), BankId(0), SubarrayId(s.pluto)).unwrap();
    part.set_use_plans(use_plans);
    let mut last = None;
    for _ in 0..s.queries {
        last = Some(
            part.query(
                &mut engine,
                s.design,
                s.source,
                s.dest,
                &s.inputs,
                s.src_row,
                s.dst_row,
            )
            .unwrap(),
        );
    }
    let (outputs, cost) = last.expect("at least one query");
    assert_eq!(outputs, s.lut.apply_all(&s.inputs).unwrap(), "semantics");
    Observation {
        outputs,
        cost,
        clock: engine.elapsed(),
        energy_bits: engine.command_energy().as_pj().to_bits(),
        stats: engine.stats(),
        dest_row: engine
            .peek_row(RowLoc {
                bank: BankId(0),
                subarray: s.dest,
                row: s.dst_row,
            })
            .unwrap(),
    }
}

fn tweak(base: &Setup, f: impl FnOnce(&mut Setup)) -> Setup {
    let mut s = base.clone();
    f(&mut s);
    s
}

/// One perturbed copy of `base` per input, labelled.
fn perturbations(base: &Setup) -> Vec<(&'static str, Setup)> {
    let DramConfig {
        kind,
        banks,
        subarrays_per_bank,
        rows_per_subarray,
        row_bytes,
        burst_bytes,
    } = base.cfg.clone();
    let TimingParams {
        t_rcd,
        t_rp,
        t_ras,
        t_faw,
        t_cl,
        t_ccd,
        t_burst,
        t_lisa_hop,
        t_faw_scale_applied,
    } = base.timing.clone();
    let EnergyModel {
        e_act,
        e_pre,
        e_rd_burst,
        e_wr_burst,
        e_lisa_hop,
        e_charge_share,
        background_watts,
    } = base.energy.clone();
    // Large enough to make tFAW and the banked command queue bite.
    let ns = Picos::from_ns(100.0);
    let pj = PicoJoules::from_pj(100.0);
    let other_kind = match kind {
        MemoryKind::Ddr4 => MemoryKind::Stacked3d,
        MemoryKind::Stacked3d => MemoryKind::Ddr4,
    };
    let other_backend = match base.backend {
        TimingBackend::Analytic => TimingBackend::Banked,
        TimingBackend::Banked => TimingBackend::Analytic,
    };
    let len = base.lut.len();
    let mut cases = vec![
        ("dram.kind", tweak(base, |s| s.cfg.kind = other_kind)),
        ("dram.banks", tweak(base, |s| s.cfg.banks = banks * 2)),
        (
            "dram.subarrays_per_bank",
            tweak(base, |s| s.cfg.subarrays_per_bank = subarrays_per_bank * 2),
        ),
        (
            "dram.rows_per_subarray (one segment)",
            tweak(base, |s| s.cfg.rows_per_subarray = rows_per_subarray * 2),
        ),
        (
            "dram.rows_per_subarray (same segments)",
            tweak(base, |s| s.cfg.rows_per_subarray = rows_per_subarray + 36),
        ),
        (
            "dram.rows_per_subarray (four segments)",
            tweak(base, |s| s.cfg.rows_per_subarray = rows_per_subarray / 2),
        ),
        (
            "dram.row_bytes",
            tweak(base, |s| s.cfg.row_bytes = row_bytes * 2),
        ),
        (
            "dram.burst_bytes",
            tweak(base, |s| s.cfg.burst_bytes = burst_bytes * 2),
        ),
        ("timing.t_rcd", tweak(base, |s| s.timing.t_rcd = t_rcd + ns)),
        ("timing.t_rp", tweak(base, |s| s.timing.t_rp = t_rp + ns)),
        ("timing.t_ras", tweak(base, |s| s.timing.t_ras = t_ras + ns)),
        ("timing.t_faw", tweak(base, |s| s.timing.t_faw = t_faw + ns)),
        ("timing.t_cl", tweak(base, |s| s.timing.t_cl = t_cl + ns)),
        ("timing.t_ccd", tweak(base, |s| s.timing.t_ccd = t_ccd + ns)),
        (
            "timing.t_burst",
            tweak(base, |s| s.timing.t_burst = t_burst + ns),
        ),
        (
            "timing.t_lisa_hop",
            tweak(base, |s| s.timing.t_lisa_hop = t_lisa_hop + ns),
        ),
        (
            "timing.t_faw_scale_applied",
            tweak(base, |s| {
                s.timing.t_faw_scale_applied = t_faw_scale_applied * 2.0;
            }),
        ),
        (
            "timing tFAW scale x4",
            tweak(base, |s| s.timing = s.timing.with_t_faw_scale(4.0)),
        ),
        (
            "timing tFAW off",
            tweak(base, |s| s.timing = s.timing.with_t_faw_scale(0.0)),
        ),
        ("energy.e_act", tweak(base, |s| s.energy.e_act = e_act + pj)),
        ("energy.e_pre", tweak(base, |s| s.energy.e_pre = e_pre + pj)),
        (
            "energy.e_rd_burst",
            tweak(base, |s| s.energy.e_rd_burst = e_rd_burst + pj),
        ),
        (
            "energy.e_wr_burst",
            tweak(base, |s| s.energy.e_wr_burst = e_wr_burst + pj),
        ),
        (
            "energy.e_lisa_hop",
            tweak(base, |s| s.energy.e_lisa_hop = e_lisa_hop + pj),
        ),
        (
            "energy.e_charge_share",
            tweak(base, |s| s.energy.e_charge_share = e_charge_share + pj),
        ),
        (
            "energy.background_watts",
            tweak(base, |s| s.energy.background_watts = background_watts * 2.0),
        ),
        ("backend", tweak(base, |s| s.backend = other_backend)),
        (
            "lut.name",
            tweak(base, |s| s.lut = base_lut("plan-key-renamed", len, 8, 11)),
        ),
        (
            "lut.input_bits (four segments)",
            tweak(base, |s| {
                s.lut = base_lut("plan-key", 2 * len, 8, 11);
                s.inputs = spread(2 * len);
            }),
        ),
        (
            "lut.output_bits",
            tweak(base, |s| s.lut = base_lut("plan-key", len, 16, 11)),
        ),
        (
            "lut.slot_floor",
            tweak(base, |s| {
                s.lut = base_lut("plan-key", len, 8, 11).with_min_slot_bits(16);
            }),
        ),
        (
            "lut.len (tail padded to a full segment)",
            tweak(base, |s| {
                s.lut = base_lut("plan-key", 100, 8, 11);
                s.inputs = spread(100);
            }),
        ),
        (
            "lut.len (short tail segment)",
            tweak(base, |s| {
                s.lut = base_lut("plan-key", 80, 8, 11);
                s.inputs = spread(80);
            }),
        ),
        (
            "lut.elements",
            tweak(base, |s| s.lut = base_lut("plan-key", len, 8, 200)),
        ),
        (
            "inputs",
            tweak(base, |s| s.inputs = vec![len as u64 - 2, 5]),
        ),
        ("placement.pluto", tweak(base, |s| s.pluto = 8)),
        (
            "placement.source",
            tweak(base, |s| s.source = SubarrayId(2)),
        ),
        ("placement.dest", tweak(base, |s| s.dest = SubarrayId(3))),
        // Same output hop distance, only the closing precharge moves.
        (
            "placement.dest == source",
            tweak(base, |s| s.source = s.dest),
        ),
        ("rows.src_row", tweak(base, |s| s.src_row = RowId(5))),
        ("rows.dst_row", tweak(base, |s| s.dst_row = RowId(9))),
        ("residency (second query)", tweak(base, |s| s.queries = 2)),
    ];
    for design in DesignKind::ALL {
        if design != base.design {
            cases.push(("design", tweak(base, |s| s.design = design)));
        }
    }
    cases
}

#[test]
fn every_input_the_plan_key_omits_leaves_lane_cost_unchanged() {
    let before = plan_stats();
    for backend in [TimingBackend::Analytic, TimingBackend::Banked] {
        for design in DesignKind::ALL {
            let base = base_setup(design, backend);
            // Records the base query's tapes (no-op when already cached).
            observe(&base, true);
            for (input, perturbed) in perturbations(&base) {
                assert_eq!(
                    observe(&perturbed, true),
                    observe(&perturbed, false),
                    "{design}/{backend:?}: perturbing {input} changed a lane's cost, \
                     but the plan key replayed the unperturbed tape"
                );
            }
        }
    }
    // This is the binary's only test, so the process-wide counters are
    // exact: the cases above must have replayed tapes, not only issued.
    let after = plan_stats();
    assert!(
        after.hits > before.hits,
        "no perturbed query replayed a tape"
    );
    assert!(after.misses > before.misses, "no query recorded a tape");
}
