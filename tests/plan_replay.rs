//! Differential suite for the compiled query-plan cache (`DESIGN.md`
//! §10): warm-plan replay must be indistinguishable from the full
//! issuing path at every observable level — output words, the
//! `PartitionedCost` breakdown, engine clock, energy (compared on raw
//! `f64` bits), command counters, and committed DRAM rows — across all
//! three designs × both memory kinds × varied tFAW scales × interleaved
//! LUTs, cold and warm, including GSA's reload-per-query stores and
//! 128-segment partitioned queries. Every query runs through
//! `PartitionedLut` (a LUT that fits one subarray is the one-segment
//! case), with a `set_use_plans(false)` twin as the issuing oracle.
//! Non-replayable contexts (command tracing, a tFAW-window signature
//! mismatch) must fall back to full issuance, not replay a wrong tape.
//! With fractional energies, one store queried under changing plan keys
//! must also stay bit-identical while its energy accumulator crosses
//! binades mid-run (a segment store's tape handle serves only its own key,
//! and replay sums a run of equal spends exactly as the issuing path does).

use pluto_repro::core::lut::{slots_per_row, width_mask, Lut};
use pluto_repro::core::partition::PartitionedLut;
use pluto_repro::core::plan;
use pluto_repro::core::DesignKind;
use pluto_repro::dram::{
    BankId, DramConfig, EnergyModel, Engine, MemoryKind, PicoJoules, Picos, RowId, RowLoc,
    SubarrayId, SweepStepKind, TimingParams,
};
use sim_support::prop::{self, Gen};
use sim_support::prop_assert_eq;

/// Source and destination subarrays of every query; stores claim their
/// (pLUTo, master) pairs from subarray 2 up.
const SRC: SubarrayId = SubarrayId(0);
const DST: SubarrayId = SubarrayId(1);

/// A small-geometry engine with an explicit tFAW scale (0.0 disables the
/// window entirely; >1.0 makes the four-activate throttle bite harder).
fn engine(kind: MemoryKind, t_faw_scale: f64) -> Engine {
    let (base, timing, energy) = match kind {
        MemoryKind::Ddr4 => (
            DramConfig::ddr4_2400(),
            TimingParams::ddr4_2400(),
            EnergyModel::ddr4(),
        ),
        MemoryKind::Stacked3d => (
            DramConfig::hmc_3ds(),
            TimingParams::hmc_3ds(),
            EnergyModel::hmc_3ds(),
        ),
    };
    Engine::with_models(
        DramConfig {
            row_bytes: 32,
            burst_bytes: 8,
            banks: 2,
            subarrays_per_bank: 8,
            rows_per_subarray: 64,
            ..base
        },
        timing.with_t_faw_scale(t_faw_scale),
        energy,
    )
}

/// Loads `lut` (≤ 64 entries) as a one-segment partition at subarray
/// `pluto`, master copy at `pluto + 1`.
fn setup(e: &mut Engine, lut: Lut, pluto: u16) -> PartitionedLut {
    let part = PartitionedLut::load(e, lut, BankId(0), SubarrayId(pluto)).unwrap();
    assert_eq!(part.segment_count(), 1);
    part
}

/// [`setup`] with plans disabled: the issuing oracle.
fn oracle(e: &mut Engine, lut: Lut, pluto: u16) -> PartitionedLut {
    let mut part = setup(e, lut, pluto);
    part.set_use_plans(false);
    part
}

fn dst_loc(row: RowId) -> RowLoc {
    RowLoc {
        bank: BankId(0),
        subarray: DST,
        row,
    }
}

/// A random LUT with an effectively unique name, so every sweep case
/// records its own plans (repeat queries within the case then replay
/// them).
fn random_lut(g: &mut Gen, tag: u64) -> Lut {
    let input_bits = g.range(1u32..=6);
    let output_bits = g.range(1u32..=16);
    let mask = width_mask(output_bits);
    let len = 1usize << input_bits;
    let elements: Vec<u64> = (0..len).map(|_| g.any::<u64>() & mask).collect();
    Lut::from_table(
        format!("plan-{tag}-{input_bits}x{output_bits}"),
        input_bits,
        output_bits,
        elements,
    )
    .unwrap()
}

/// The tentpole property: a fresh plans-enabled engine (whose first
/// query records a tape and whose second replays from a warm clock), a
/// second plans-enabled engine (whose first query replays the cached
/// tape cold), and a plans-disabled issuing oracle are indistinguishable
/// query by query. The two queries take different random input vectors,
/// so a tape recorded at one slot count replays at another.
#[test]
fn warm_plan_replay_is_bit_identical_to_the_issuing_oracle() {
    let before = plan::plan_stats();
    prop::check("plan_replay_vs_issuing", 24, |g| {
        let tag: u64 = g.any();
        let scale = [0.0, 0.5, 1.0, 4.0][g.range(0usize..4)];
        for kind in [MemoryKind::Ddr4, MemoryKind::Stacked3d] {
            for design in DesignKind::ALL {
                let lut = random_lut(g, tag);
                let capacity = slots_per_row(32, lut.slot_bits());
                let queries: Vec<Vec<u64>> = (0..2)
                    .map(|_| g.vec(1, capacity, |g| g.range(0..lut.len() as u64)))
                    .collect();
                let dst_row = RowId(g.range(0u16..8));
                let label = format!("{design}/{kind}/x{scale}/{}", lut.name());

                let mut e_rec = engine(kind, scale);
                let mut p_rec = setup(&mut e_rec, lut.clone(), 2);
                let mut e_warm = engine(kind, scale);
                let mut p_warm = setup(&mut e_warm, lut.clone(), 2);
                let mut e_oracle = engine(kind, scale);
                let mut p_oracle = oracle(&mut e_oracle, lut.clone(), 2);

                // Two back-to-back queries: the first records (recorder) /
                // replays cold (warm engine); the second replays from a
                // warm clock — or legally falls back when the live tFAW
                // window diverges from the recorded signature.
                for (step, inputs) in queries.iter().enumerate() {
                    let (out_r, cost_r) = p_rec
                        .query(&mut e_rec, design, SRC, DST, inputs, RowId(0), dst_row)
                        .unwrap();
                    let (out_w, cost_w) = p_warm
                        .query(&mut e_warm, design, SRC, DST, inputs, RowId(0), dst_row)
                        .unwrap();
                    let (out_o, cost_o) = p_oracle
                        .query(&mut e_oracle, design, SRC, DST, inputs, RowId(0), dst_row)
                        .unwrap();
                    prop_assert_eq!(&out_o, &lut.apply_all(inputs).unwrap(), "semantics {label}");
                    for (who, out, cost, e) in [
                        ("recorder", &out_r, cost_r, &mut e_rec),
                        ("warm", &out_w, cost_w, &mut e_warm),
                    ] {
                        prop_assert_eq!(out, &out_o, "outputs {who}#{step} {label}");
                        prop_assert_eq!(cost, cost_o, "cost {who}#{step} {label}");
                        prop_assert_eq!(
                            e.elapsed(),
                            e_oracle.elapsed(),
                            "clock {who}#{step} {label}"
                        );
                        prop_assert_eq!(
                            e.command_energy().as_pj().to_bits(),
                            e_oracle.command_energy().as_pj().to_bits(),
                            "energy {who}#{step} {label}"
                        );
                        prop_assert_eq!(e.stats(), e_oracle.stats(), "stats {who}#{step} {label}");
                        prop_assert_eq!(
                            e.peek_row(dst_loc(dst_row)).unwrap(),
                            e_oracle.peek_row(dst_loc(dst_row)).unwrap(),
                            "destination row {who}#{step} {label}"
                        );
                    }
                }
            }
        }
        Ok(())
    });
    let after = plan::plan_stats();
    // The cache is process-wide, so only monotone deltas are meaningful:
    // the sweep must have both recorded tapes and replayed them.
    assert!(after.misses > before.misses, "sweep never recorded a plan");
    assert!(after.hits > before.hits, "sweep never replayed a plan");
}

/// Interleaving two LUTs (alternating stores, shared engine) never lets
/// one plan's tape leak into the other's queries, cold or warm.
#[test]
fn interleaved_luts_replay_their_own_plans() {
    prop::check("plan_interleaved_luts", 12, |g| {
        let tag: u64 = g.any();
        for design in DesignKind::ALL {
            let lut_a = random_lut(g, tag);
            let lut_b = random_lut(g, tag.wrapping_add(1));
            let mut e_plan = engine(MemoryKind::Ddr4, 1.0);
            let mut e_oracle = engine(MemoryKind::Ddr4, 1.0);
            // Two stores side by side: A at subarray 2, B at subarray 4.
            let mut pa_p = setup(&mut e_plan, lut_a.clone(), 2);
            let mut pa_o = oracle(&mut e_oracle, lut_a.clone(), 2);
            let mut pb_p = setup(&mut e_plan, lut_b.clone(), 4);
            let mut pb_o = oracle(&mut e_oracle, lut_b.clone(), 4);
            let ins_a: Vec<u64> = g.vec(1, 4, |g| g.range(0..lut_a.len() as u64));
            let ins_b: Vec<u64> = g.vec(1, 4, |g| g.range(0..lut_b.len() as u64));

            for round in 0..3 {
                for (which, part_p, part_o, inputs) in [
                    ("A", &mut pa_p, &mut pa_o, &ins_a),
                    ("B", &mut pb_p, &mut pb_o, &ins_b),
                ] {
                    let (out_p, cost_p) = part_p
                        .query(&mut e_plan, design, SRC, DST, inputs, RowId(0), RowId(1))
                        .unwrap();
                    let (out_o, cost_o) = part_o
                        .query(&mut e_oracle, design, SRC, DST, inputs, RowId(0), RowId(1))
                        .unwrap();
                    let label = format!("{design}/{which}#{round}");
                    prop_assert_eq!(&out_p, &out_o, "outputs {label}");
                    prop_assert_eq!(cost_p, cost_o, "cost {label}");
                    prop_assert_eq!(e_plan.elapsed(), e_oracle.elapsed(), "clock {label}");
                    prop_assert_eq!(
                        e_plan.command_energy().as_pj().to_bits(),
                        e_oracle.command_energy().as_pj().to_bits(),
                        "energy {label}"
                    );
                    prop_assert_eq!(e_plan.stats(), e_oracle.stats(), "stats {label}");
                }
            }
        }
        Ok(())
    });
}

/// Partitioned queries replay per-lane plans — including a full
/// 128-segment partition — with outputs, the §5.6 merged cost, and the
/// engine's end state bit-identical to the plans-disabled serial lanes,
/// for every design (GSA re-records once per residency state, then
/// replays warm).
#[test]
fn partitioned_lanes_replay_warm_including_128_segments() {
    let before = plan::plan_stats();
    // 1024-entry LUT over 8-row subarrays => 128 segment lanes.
    let cfg = DramConfig {
        row_bytes: 32,
        burst_bytes: 8,
        banks: 1,
        subarrays_per_bank: 260,
        rows_per_subarray: 8,
        ..DramConfig::ddr4_2400()
    };
    let src = SubarrayId(0);
    let dst = SubarrayId(1);
    for design in DesignKind::ALL {
        let lut = Lut::from_fn(format!("plan-128seg-{design}"), 10, 12, |x| {
            x.wrapping_mul(31) & 0xfff
        })
        .unwrap();
        let mut e_plan = Engine::new(cfg.clone());
        let mut p_plan =
            PartitionedLut::load(&mut e_plan, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
        let mut e_oracle = Engine::new(cfg.clone());
        let mut p_oracle =
            PartitionedLut::load(&mut e_oracle, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
        p_oracle.set_use_plans(false);
        assert_eq!(p_plan.segment_count(), 128);

        let inputs: Vec<u64> = (0..6).map(|i| i * 171).collect();
        for round in 0..3 {
            let (out_p, cost_p) = p_plan
                .query(&mut e_plan, design, src, dst, &inputs, RowId(0), RowId(1))
                .unwrap();
            let (out_o, cost_o) = p_oracle
                .query(&mut e_oracle, design, src, dst, &inputs, RowId(0), RowId(1))
                .unwrap();
            let label = format!("{design}#{round}");
            assert_eq!(out_p, out_o, "outputs {label}");
            assert_eq!(out_p, lut.apply_all(&inputs).unwrap(), "semantics {label}");
            assert_eq!(cost_p, cost_o, "cost {label}");
            assert_eq!(e_plan.elapsed(), e_oracle.elapsed(), "clock {label}");
            assert_eq!(
                e_plan.command_energy().as_pj().to_bits(),
                e_oracle.command_energy().as_pj().to_bits(),
                "energy {label}"
            );
            assert_eq!(e_plan.stats(), e_oracle.stats(), "stats {label}");
        }
    }
    let after = plan::plan_stats();
    // Three designs × three rounds × 128 lanes; at least the final warm
    // round of each design replays every lane.
    assert!(
        after.hits - before.hits >= 128,
        "partitioned lanes never replayed: {before:?} -> {after:?}"
    );
}

/// One 8-segment store on an engine with fractional energies, queried
/// 72 times with the design and `dest == source` changing from query to
/// query, against a plans-off twin. Every change of key sends each lane's
/// lookup past its store's tape handle to the shared cache, and the
/// accumulator (no longer exact in any summation order) climbs through
/// several binades, crossing each inside some lane's run of equal spends.
#[test]
fn a_changing_key_on_one_store_replays_fractional_energy_bit_for_bit() {
    let cfg = DramConfig {
        row_bytes: 32,
        burst_bytes: 8,
        banks: 1,
        subarrays_per_bank: 20,
        rows_per_subarray: 64,
        ..DramConfig::ddr4_2400()
    };
    // Fractional picojoules (as in `tests/plan_key.rs`): f64 sums of
    // these round, so a replay that added a run's energy at once, or a
    // tape replayed under the wrong key, lands on different bits.
    let energy = EnergyModel {
        e_act: PicoJoules::from_pj(29_837.409),
        e_pre: PicoJoules::from_pj(2_340.321),
        e_rd_burst: PicoJoules::from_pj(4_000.7),
        e_wr_burst: PicoJoules::from_pj(4_200.9),
        e_lisa_hop: PicoJoules::from_pj(24_125.839),
        e_charge_share: PicoJoules::from_pj(18_000.3),
        background_watts: 0.35,
    };
    let fresh = || Engine::with_models(cfg.clone(), TimingParams::ddr4_2400(), energy.clone());
    let lut = Lut::from_fn("plan-fractional-512", 9, 8, |x| (x * 13 + 5) & 0xff).unwrap();
    let mut e_plan = fresh();
    let mut p_plan =
        PartitionedLut::load(&mut e_plan, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
    let mut e_oracle = fresh();
    let mut p_oracle =
        PartitionedLut::load(&mut e_oracle, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
    p_oracle.set_use_plans(false);
    assert_eq!(p_plan.segment_count(), 8);

    let before = plan::plan_stats();
    let inputs: Vec<u64> = (0..24).map(|i| (i * 89) % 512).collect();
    let mut binades = std::collections::BTreeSet::new();
    for q in 0..72 {
        let design = DesignKind::ALL[q % 3];
        // Cycle dest == source with a period coprime to the designs'.
        let dest = if q % 4 < 2 { DST } else { SRC };
        let label = format!("query {q} {design} dest {dest:?}");
        let (out_p, cost_p) = p_plan
            .query(&mut e_plan, design, SRC, dest, &inputs, RowId(0), RowId(3))
            .unwrap();
        let (out_o, cost_o) = p_oracle
            .query(
                &mut e_oracle,
                design,
                SRC,
                dest,
                &inputs,
                RowId(0),
                RowId(3),
            )
            .unwrap();
        assert_eq!(out_p, out_o, "outputs {label}");
        assert_eq!(out_p, lut.apply_all(&inputs).unwrap(), "semantics {label}");
        assert_eq!(cost_p, cost_o, "cost {label}");
        assert_eq!(e_plan.elapsed(), e_oracle.elapsed(), "clock {label}");
        assert_eq!(e_plan.stats(), e_oracle.stats(), "stats {label}");
        let bits = e_plan.command_energy().as_pj().to_bits();
        assert_eq!(
            bits,
            e_oracle.command_energy().as_pj().to_bits(),
            "energy {label}"
        );
        binades.insert(bits >> 52);
    }
    assert!(
        binades.len() >= 4,
        "the accumulator crossed only {} binades",
        binades.len()
    );
    // Counters are process-wide and other tests query concurrently, so
    // only lower-bound them: the store both recorded and replayed.
    let after = plan::plan_stats();
    assert!(after.misses > before.misses, "no lane recorded a tape");
    assert!(after.hits > before.hits, "no lane replayed a tape");
}

/// Seam regression for `Engine::rewind_clock`'s boundary rule: an ACT
/// issued at *exactly* the rewind timestamp belongs to the region being
/// rewound and must be dropped (strict `t < to`). The §5.6 partitioned
/// max-lane pattern rewinds to the region start before replaying each
/// lane, and a lane's first ACT issues at exactly that mark on a fresh
/// engine — under the old `t <= to` retention, that boundary ACT (and
/// the subarray it left open) survived into the next lane, which then
/// saw a fake warm tFAW window and a fake row-buffer hit.
#[test]
fn rewind_drops_the_act_issued_exactly_at_the_mark() {
    // Binding timing: 1 ns ACT spacing against a ~27 ns four-activate
    // window, so a single stale window entry re-gates the 4th ACT.
    let timing = TimingParams {
        t_rcd: Picos::from_ns(1.0),
        ..TimingParams::ddr4_2400().with_t_faw_scale(2.0)
    };
    let fresh =
        || Engine::with_models(DramConfig::ddr4_2400(), timing.clone(), EnergyModel::ddr4());
    // Exactly four ACTs: the window holds four entries, so the boundary
    // ACT at t0 is still *in* the window when the rewind runs (a fifth
    // ACT would evict it and mask the boundary rule).
    let lane = |e: &mut Engine| {
        e.sweep_rows(
            BankId(1),
            SubarrayId(0),
            RowId(0),
            4,
            SweepStepKind::ChargeShare,
        )
        .unwrap();
    };

    let mut oracle = fresh();
    lane(&mut oracle);
    let expect_elapsed = oracle.elapsed();
    let expect_stats = oracle.stats();

    let mut e = fresh();
    let t0 = e.elapsed();
    assert_eq!(t0, Picos::ZERO);
    lane(&mut e); // lane A: first ACT issues at exactly t0
    let stats_a = e.stats();
    e.rewind_clock(t0);
    assert_eq!(e.elapsed(), t0);
    assert!(
        e.tfaw_window_inert(),
        "the boundary ACT at t0 must not survive the rewind"
    );
    lane(&mut e); // lane B: identical stream from the same mark
    assert_eq!(
        e.elapsed(),
        expect_elapsed,
        "lane B must replay at lane A's exact cost"
    );
    // Classification must also restart: lane B re-opens the subarray
    // (one miss, then charge-share hits), exactly like lane A did.
    assert_eq!(e.stats().since(&stats_a), expect_stats);
}

/// Explicit non-replayable-context tests: a legality gate failure must
/// run the full issuing path (bit-identical to a plans-disabled twin)
/// and count a fallback — never replay a wrong tape.
#[test]
fn non_replayable_contexts_fall_back_to_full_issuance() {
    let lut = Lut::from_fn("plan-fallback-probe", 5, 9, |x| (x * 7) & 0x1ff).unwrap();
    let inputs: Vec<u64> = vec![3, 17, 30, 8];
    let gmc = DesignKind::Gmc;

    // Gate 1: command tracing. A traced engine must issue (the replayed
    // delta has no command stream to append), and its trace must match
    // the plans-disabled twin's exactly.
    let before = plan::plan_stats();
    let mut e_traced = engine(MemoryKind::Ddr4, 1.0);
    e_traced.enable_trace();
    let mut p_traced = setup(&mut e_traced, lut.clone(), 2);
    let (out_t, cost_t) = p_traced
        .query(&mut e_traced, gmc, SRC, DST, &inputs, RowId(0), RowId(1))
        .unwrap();
    let mut e_oracle = engine(MemoryKind::Ddr4, 1.0);
    e_oracle.enable_trace();
    let mut p_oracle = oracle(&mut e_oracle, lut.clone(), 2);
    let (out_o, cost_o) = p_oracle
        .query(&mut e_oracle, gmc, SRC, DST, &inputs, RowId(0), RowId(1))
        .unwrap();
    assert_eq!(out_t, out_o, "traced outputs");
    assert_eq!(cost_t, cost_o, "traced cost");
    assert_eq!(e_traced.take_trace(), e_oracle.take_trace(), "traces");
    let after = plan::plan_stats();
    assert!(
        after.fallbacks > before.fallbacks,
        "tracing did not fall back: {before:?} -> {after:?}"
    );

    // Gate 2: tFAW-window signature mismatch. Record a tape on an engine
    // whose window is warm (a just-issued ACT ages into the query), then
    // query the same key from a fresh engine: the live signature differs,
    // so the hit must be refused and the query issued in full.
    let lut = Lut::from_fn("plan-sig-mismatch-probe", 5, 9, |x| (x * 11) & 0x1ff).unwrap();
    let warm_clock = |e: &mut Engine| {
        // One ACT immediately before the query, with tFAW stretched so
        // the entry is still live when the query begins.
        let probe = RowLoc {
            bank: BankId(1),
            subarray: SubarrayId(0),
            row: RowId(0),
        };
        e.activate(probe).unwrap();
        e.precharge(probe.bank, probe.subarray).unwrap();
    };
    let mut e_rec = engine(MemoryKind::Ddr4, 40.0);
    let mut p_rec = setup(&mut e_rec, lut.clone(), 2);
    warm_clock(&mut e_rec);
    let (out_r, _) = p_rec
        .query(&mut e_rec, gmc, SRC, DST, &inputs, RowId(0), RowId(1))
        .unwrap();
    assert_eq!(out_r, lut.apply_all(&inputs).unwrap());

    let before = plan::plan_stats();
    let mut e_cold = engine(MemoryKind::Ddr4, 40.0);
    let mut p_cold = setup(&mut e_cold, lut.clone(), 2);
    let (out_c, cost_c) = p_cold
        .query(&mut e_cold, gmc, SRC, DST, &inputs, RowId(0), RowId(1))
        .unwrap();
    let mut e_oracle = engine(MemoryKind::Ddr4, 40.0);
    let mut p_oracle = oracle(&mut e_oracle, lut.clone(), 2);
    let (out_o, cost_o) = p_oracle
        .query(&mut e_oracle, gmc, SRC, DST, &inputs, RowId(0), RowId(1))
        .unwrap();
    assert_eq!(out_c, out_o, "mismatch outputs");
    assert_eq!(cost_c, cost_o, "mismatch cost");
    assert_eq!(e_cold.elapsed(), e_oracle.elapsed(), "mismatch clock");
    assert_eq!(
        e_cold.command_energy().as_pj().to_bits(),
        e_oracle.command_energy().as_pj().to_bits(),
        "mismatch energy"
    );
    let after = plan::plan_stats();
    assert!(
        after.fallbacks > before.fallbacks,
        "signature mismatch did not fall back: {before:?} -> {after:?}"
    );
}
