//! Session quickstart: the unified execution API (`DESIGN.md` §5).
//!
//! Build a [`Session`] from explicit configuration, pick workloads from
//! the registry, run them batched, and scale the measured costs — no
//! hidden globals, no per-workload dispatch tables.
//!
//! ```sh
//! cargo run --release --example session
//! ```

use pluto_repro::baselines::WorkloadId;
use pluto_repro::core::session::{default_salp, Session, Workload};
use pluto_repro::core::{DesignKind, PlutoError};
use pluto_repro::dram::{MemoryKind, TimingParams};
use pluto_repro::workloads::workload_for;

fn main() -> Result<(), PlutoError> {
    // 1. A session over the highest-throughput design. Every knob —
    //    design, memory kind, geometry, seed, timing backend — is an
    //    explicit builder value with Table 3 defaults.
    let mut session = Session::builder(DesignKind::Gmc).build()?;

    // 2. Pluggable workloads from the registry, run as one batch. Each
    //    run executes the full pLUTo mapping on a fresh machine and
    //    validates the output against the reference implementation.
    // Gamma12's 4096-entry LUT exceeds one 512-row subarray, so its runs
    // route through the §5.6 partitioned path (`DESIGN.md` §8) — same
    // `query()` API, 8 parallel segment sweeps, max-latency/summed-energy
    // cost.
    let ids = [
        WorkloadId::Vmpc,
        WorkloadId::ImgBin,
        WorkloadId::ColorGrade,
        WorkloadId::Add4,
        WorkloadId::Bc8,
        WorkloadId::BitwiseRow,
        WorkloadId::Gamma12,
    ];
    let mut workloads: Vec<Box<dyn Workload>> = ids.iter().map(|&id| workload_for(id)).collect();
    let reports = session.run_all(&mut workloads)?;

    println!(
        "{:<12} {:>14} {:>14} {:>7} {:>10}",
        "workload", "batch time", "batch energy", "acts", "validated"
    );
    for r in &reports {
        println!(
            "{:<12} {:>14} {:>14} {:>7} {:>10}",
            r.workload,
            r.time.to_string(),
            r.energy.to_string(),
            r.acts,
            r.validated
        );
    }
    assert!(reports.iter().all(|r| r.validated));

    // 3. Scale a measured batch to a 100 MB stream under the memory
    //    kind's Table 3 SALP degree (16 subarrays on DDR4), unthrottled.
    let vmpc = &reports[0];
    let kind = session.config().kind;
    let salp = default_salp(kind);
    println!(
        "\nVMPC over 100 MB @ {} subarrays: {:.3e} s, {:.3e} J",
        salp,
        vmpc.scaled_wall_time(100e6, salp, 0.0, &TimingParams::for_kind(kind)),
        vmpc.scaled_energy(100e6),
    );

    // 4. The same workload on 3D-stacked memory: a second, independent
    //    session — kinds compose, there is no global state to restore.
    let mut hmc = Session::builder(DesignKind::Gmc)
        .memory(MemoryKind::Stacked3d)
        .build()?;
    let on_hmc = hmc.run(workload_for(WorkloadId::Vmpc).as_mut())?;
    assert!(on_hmc.validated);
    println!(
        "VMPC batch on 3DS: {} (paper-row scaling x{:.0}, vs x{:.0} on DDR4)",
        on_hmc.time,
        hmc.config().row_ratio(),
        session.config().row_ratio(),
    );
    Ok(())
}
