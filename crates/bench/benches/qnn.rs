//! Throughput and cost of the layered quantized-inference pipeline
//! (`DESIGN.md` §12), writing the machine-readable `BENCH_qnn.json`
//! baseline — the LoCalut capacity–computation sweep made explicit.
//!
//! Groups:
//!
//! * `gemv` — wall-clock of one 16×32 GEMV tile per operand width and
//!   lowering: `direct/w4` (a 256-entry signed product table, one
//!   segment), `direct/w8` (the 65 536-entry `MulDirect8`-scale table,
//!   128 partitioned §5.6 segments), and the nibble-plane `Mul8`-style
//!   contrast (`nibble/w4`, `nibble/w8`).
//! * `gemv_sim` / `gemv_energy_nj` — the *simulated* device cost of the
//!   same tiles (deterministic: engine time/energy, not host
//!   wall-clock), measured warm (stores resident, plans cached). These
//!   carry the tradeoff the sweep exists to expose: the direct path
//!   spends one lookup per MAC but every lookup sweeps the table's
//!   128 §5.6 segments — energy multiplies by the segment count while
//!   the latency merge (max over lanes, not sum) keeps the tile within
//!   ~1.5× of the nibble-plane path, which runs `limbs²` lookups per
//!   MAC against a one-segment table.
//! * `mlp` — wall-clock of the full 196→32→16→10 forward pass plus
//!   per-layer simulated-time summaries (`mlp_sim/<layer>`), the
//!   per-layer `CostReport` breakdown of the committed baseline.
//!
//! Guards (CI gates, `ci.sh`):
//!
//! * warm layers replay compiled plans — the second forward pass on a
//!   resident machine must add plan-cache hits;
//! * the direct-table GEMV holds its committed cost ratios against the
//!   nibble-plane path at 8 bits: tile energy ≥ 100× (the §5.6 segment
//!   sweep is real) while tile latency stays ≤ 2× (the partitioned
//!   latency merge is max-over-lanes — a regression to serial segment
//!   sweeps would show up as ~32×).

use pluto_core::plan::plan_stats;
use pluto_core::session::{ExecConfig, Session};
use pluto_core::DesignKind;
use pluto_qnn::gemv::{GemvPath, QuantLinear};
use pluto_qnn::model::{sample_batch, QuantModel};
use pluto_qnn::requant::Requant;
use sim_support::bench::Criterion;
use sim_support::{SeedableRng, StdRng};

/// Committed floor on the direct/nibble tile *energy* ratio at 8-bit
/// operands — the §5.6 segment sweep (measured ≈ 151×).
const DIRECT_ENERGY_FLOOR: f64 = 100.0;

/// Committed ceiling on the direct/nibble tile *latency* ratio at 8-bit
/// operands (measured ≈ 1.54×). The partitioned latency merge takes the
/// max over segment lanes; if it regressed to summing the 128 lanes the
/// ratio would land near 32×.
const DIRECT_TIME_CEILING: f64 = 2.0;

fn bench_session() -> Session {
    let mut cfg = ExecConfig::measurement(DesignKind::Gmc);
    cfg.subarrays_per_bank = 300;
    Session::with_config(cfg).expect("bench session")
}

fn tile(width: u32) -> (QuantLinear, Vec<i32>) {
    let mut rng = StdRng::seed_from_u64(u64::from(width));
    let lo = -(1i32 << (width - 1));
    let hi = (1i32 << (width - 1)) - 1;
    let linear = QuantLinear::seeded("bench-tile", 16, 32, width, lo..=hi, &mut rng);
    let x = {
        use sim_support::Rng;
        (0..32).map(|_| rng.gen_range(lo..=hi)).collect()
    };
    (linear, x)
}

/// Simulated device cost `(time ns, energy nJ)` of one GEMV tile,
/// measured warm: one throwaway pass makes the stores resident and the
/// plans cached, then the second pass is the steady-state cost.
fn sim_cost(width: u32, path: GemvPath) -> (f64, f64) {
    let (linear, x) = tile(width);
    let mut session = bench_session();
    let m = session.machine_mut();
    linear.forward_on(m, &x, path).unwrap();
    let cold = m.totals();
    linear.forward_on(m, &x, path).unwrap();
    let warm = m.totals();
    (
        (warm.time - cold.time).as_ns(),
        (warm.energy - cold.energy).as_nj(),
    )
}

fn bench_gemv(c: &mut Criterion) {
    for width in [4u32, 8] {
        let (linear, x) = tile(width);
        for path in GemvPath::ALL {
            // Wall-clock on a persistent machine (stores stay resident,
            // the steady state of a model reusing tables across layers).
            let mut session = bench_session();
            let m = session.machine_mut();
            let expect = linear.forward_reference(&x);
            assert_eq!(linear.forward_on(m, &x, path).unwrap(), expect);
            let mut group = c.benchmark_group("gemv");
            group.bench_function(&format!("{path}/w{width}"), |b| {
                b.iter(|| linear.forward_on(m, &x, path).unwrap().len())
            });
            group.finish();

            let (sim_t, sim_e) = sim_cost(width, path);
            c.summary_ns(&format!("gemv_sim/{path}/w{width}"), sim_t);
            c.summary_ns(&format!("gemv_energy_nj/{path}/w{width}"), sim_e);
        }
    }
}

fn bench_mlp(c: &mut Criterion) {
    let model = QuantModel::mnist_mlp(7);
    let (_, x) = sample_batch(5, 1).remove(0);
    let oracle = model.forward_reference(&x);

    let mut session = bench_session();
    assert_eq!(
        model
            .forward_on(session.machine_mut(), &x, GemvPath::Direct)
            .unwrap(),
        oracle
    );
    let mut group = c.benchmark_group("mlp");
    group.bench_function("forward_direct", |b| {
        b.iter(|| {
            model
                .forward_on(session.machine_mut(), &x, GemvPath::Direct)
                .unwrap()
                .len()
        })
    });
    group.finish();

    // Per-layer simulated-time breakdown on a warm machine (stores
    // resident, plans cached — the serving steady state).
    let mut act = x.clone();
    for layer in &model.layers {
        let m = session.machine_mut();
        let before = m.totals();
        let accs = layer.linear.forward_on(m, &act, GemvPath::Direct).unwrap();
        act = match &layer.requant {
            Some(r) => r.apply_on(m, &accs).unwrap(),
            None => accs,
        };
        let after = session.machine().totals();
        c.summary_ns(
            &format!("mlp_sim/{}", layer.linear.name()),
            (after.time - before.time).as_ns(),
        );
    }
}

/// Requantization stays one query stream regardless of batch width.
fn bench_requant(c: &mut Criterion) {
    let stage = Requant::new(12, 2, 8);
    let accs: Vec<i32> = (0..192).map(|i| (i * 37) % 4000 - 2000).collect();
    let mut session = bench_session();
    let m = session.machine_mut();
    let mut group = c.benchmark_group("requant");
    group.bench_function("w12_batch192", |b| {
        b.iter(|| stage.apply_on(m, &accs).unwrap().len())
    });
    group.finish();
}

fn guard() {
    // Plan replay on warm layers: the second forward pass over resident
    // stores must hit the compiled-plan cache.
    let model = QuantModel::mnist_mlp(7);
    let (_, x) = sample_batch(5, 1).remove(0);
    let mut session = bench_session();
    model
        .forward_on(session.machine_mut(), &x, GemvPath::Direct)
        .unwrap();
    let cold = plan_stats();
    model
        .forward_on(session.machine_mut(), &x, GemvPath::Direct)
        .unwrap();
    let warm = plan_stats();
    let hits = warm.hits - cold.hits;
    assert!(
        hits > 0,
        "warm forward pass must replay compiled plans (0 new hits)"
    );
    println!("guard: warm MLP forward pass replayed {hits} compiled plan(s)");

    // The LoCalut axis at 8 bits, on warm (resident) stores: the direct
    // table trades 4× fewer lookups for a 128-segment sweep per lookup.
    let (direct_t, direct_e) = sim_cost(8, GemvPath::Direct);
    let (nibble_t, nibble_e) = sim_cost(8, GemvPath::NibblePlane);
    let e_ratio = direct_e / nibble_e;
    assert!(
        e_ratio >= DIRECT_ENERGY_FLOOR,
        "the 128-segment direct sweep lost its energy signature: \
         direct/nibble = {e_ratio:.1}x (committed floor {DIRECT_ENERGY_FLOOR}x)"
    );
    println!("guard: direct w8 pays {e_ratio:.1}x the nibble-plane tile energy (§5.6 sweep)");
    let t_ratio = direct_t / nibble_t;
    assert!(
        t_ratio <= DIRECT_TIME_CEILING,
        "partitioned direct GEMV latency blew past the nibble-plane path: \
         direct/nibble = {t_ratio:.2}x (committed ceiling {DIRECT_TIME_CEILING}x; \
         serial segment sweeps would read ~32x)"
    );
    println!(
        "guard: direct w8 tile latency {t_ratio:.2}x nibble-plane (max-over-lanes merge holds)"
    );
}

fn main() {
    let mut c = Criterion::named("qnn");
    bench_gemv(&mut c);
    bench_requant(&mut c);
    bench_mlp(&mut c);
    guard();
    c.finalize();
}
