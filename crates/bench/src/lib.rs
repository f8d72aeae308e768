//! # pluto-bench — harness regenerating every table and figure
//!
//! One binary per experiment (see `DESIGN.md` §4 for the full index):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig06_bitline` | Fig. 6 — Monte Carlo bitline transients |
//! | `fig07_speedup` | Fig. 7 — speedup over CPU |
//! | `fig08_perf_per_area` | Fig. 8 — speedup per unit area |
//! | `fig09_fpga` | Fig. 9 — speedup over FPGA |
//! | `fig10_energy` | Fig. 10 — CPU-normalized energy |
//! | `fig11_lut_loading` | Fig. 11 — LUT loading overhead |
//! | `fig12_scalability` | Fig. 12 — LUT-size scaling + mul energy efficiency |
//! | `fig13_tfaw` | Fig. 13 — tFAW sensitivity |
//! | `fig14_salp` | Fig. 14 — subarray-level-parallelism scaling |
//! | `table1_designs` | Table 1 — design comparison |
//! | `table5_area` | Table 5 — area breakdown |
//! | `table6_pum` | Table 6 — prior-PuM comparison |
//! | `table7_qnn` | Table 7 — LeNet-5 inference |
//!
//! Binaries print the paper's rows/series as aligned tables plus CSV. Set
//! `PLUTO_QUICK=1` to shrink the expensive measurement runs (Salsa20,
//! CRC-32) for smoke testing.
//!
//! Measurement sweeps run on a `pluto_core::cluster::Cluster` worker
//! pool ([`measure_sweep`]/[`measure_all_on`]): results are bit-identical
//! to the serial session path for any worker count, so parallelism is a
//! pure wall-clock win. Pass `--workers N` (or set `PLUTO_WORKERS`) to
//! pin the pool size; the default is one worker per available CPU.

#![warn(missing_docs)]

use pluto_baselines::{estimate, machine::Machine, profile, WorkloadId};
use pluto_core::cluster::Cluster;
use pluto_core::session::{ExecConfig, Session, Workload};
use pluto_core::DesignKind;
use pluto_dram::MemoryKind;
use pluto_workloads::runner::{self, PlutoCost};
use pluto_workloads::workload_for;

/// Input volume used when scaling workload costs (bytes).
pub fn volume_bytes(id: WorkloadId) -> f64 {
    match id {
        // The paper's image workloads are one 936 000-pixel 3-channel image.
        WorkloadId::ImgBin | WorkloadId::ColorGrade => 936_000.0 * 3.0,
        // Packet workloads: 100 MB streams.
        _ => 100e6,
    }
}

/// The six pLUTo configurations of Figs. 7, 8, 10 (design × memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlutoConfig {
    /// The hardware design.
    pub design: DesignKind,
    /// DDR4 or 3D-stacked memory.
    pub kind: MemoryKind,
}

impl PlutoConfig {
    /// The paper's six configurations, in figure legend order.
    pub const ALL: [PlutoConfig; 6] = [
        PlutoConfig {
            design: DesignKind::Gsa,
            kind: MemoryKind::Ddr4,
        },
        PlutoConfig {
            design: DesignKind::Bsa,
            kind: MemoryKind::Ddr4,
        },
        PlutoConfig {
            design: DesignKind::Gmc,
            kind: MemoryKind::Ddr4,
        },
        PlutoConfig {
            design: DesignKind::Gsa,
            kind: MemoryKind::Stacked3d,
        },
        PlutoConfig {
            design: DesignKind::Bsa,
            kind: MemoryKind::Stacked3d,
        },
        PlutoConfig {
            design: DesignKind::Gmc,
            kind: MemoryKind::Stacked3d,
        },
    ];

    /// Figure legend label.
    pub fn label(&self) -> String {
        match self.kind {
            MemoryKind::Ddr4 => format!("{}", self.design),
            MemoryKind::Stacked3d => format!("{}-3DS", self.design),
        }
    }

    /// Default subarray-level parallelism (Table 3: 16 for DDR4, 512 for
    /// 3DS).
    pub fn subarrays(&self) -> usize {
        pluto_core::session::default_salp(self.kind)
    }

    /// A [`Session`] configured for this figure configuration (built
    /// from [`PlutoConfig::exec_config`], so the serial and cluster
    /// paths share one configuration by construction), panicking with
    /// context on failure.
    pub fn session(&self) -> Session {
        Session::with_config(self.exec_config())
            .unwrap_or_else(|e| panic!("building a session for {}: {e}", self.label()))
    }

    /// The explicit [`ExecConfig`] of this figure configuration — what
    /// cluster submissions use.
    pub fn exec_config(&self) -> ExecConfig {
        ExecConfig::measurement_on(self.design, self.kind)
    }
}

/// Measures (and caches nothing — callers decide) the pLUTo cost of a
/// workload under one configuration, panicking with context on failure.
pub fn measure_config(id: WorkloadId, cfg: PlutoConfig) -> PlutoCost {
    let mut workload = workload_for(id);
    let report = cfg
        .session()
        .run(workload.as_mut())
        .unwrap_or_else(|e| panic!("measuring {id} on {}: {e}", cfg.label()));
    assert!(
        report.validated,
        "{id} failed functional validation on {}",
        cfg.label()
    );
    PlutoCost::from_report(id, report)
}

/// Serial batched measurement: runs every workload in `ids` on one
/// [`Session`] via `run_all` (the serial oracle [`measure_all_on`] is
/// checked against), panicking with context on failure.
pub fn measure_all(ids: &[WorkloadId], cfg: PlutoConfig) -> Vec<PlutoCost> {
    let mut workloads: Vec<Box<dyn Workload>> = ids.iter().map(|&id| workload_for(id)).collect();
    let mut session = cfg.session();
    let reports = session
        .run_all(&mut workloads)
        .unwrap_or_else(|e| panic!("batched measurement on {}: {e}", cfg.label()));
    ids.iter()
        .zip(reports)
        .map(|(&id, report)| {
            assert!(
                report.validated,
                "{id} failed functional validation on {}",
                cfg.label()
            );
            PlutoCost::from_report(id, report)
        })
        .collect()
}

/// Parallel batched measurement: the cluster counterpart of
/// [`measure_all`] — same ids, same configuration, bit-identical costs,
/// executed across `cluster`'s workers. Panics with context on failure.
pub fn measure_all_on(
    ids: &[WorkloadId],
    cfg: PlutoConfig,
    cluster: &mut Cluster,
) -> Vec<PlutoCost> {
    let sweep = measure_sweep(ids, &[cfg], cluster);
    sweep.into_iter().map(|mut row| row.remove(0)).collect()
}

/// The full figure sweep on a [`Cluster`]: every `(workload, config)`
/// pair becomes one job, all jobs run across the pool's workers, and the
/// costs come back indexed `[workload][config]` — each bit-identical to
/// the serial [`measure_config`] measurement of the same pair. Panics
/// with context on the first failing or non-validating job (matching the
/// serial sweep's behavior), or if `cluster` still has submissions
/// pending from before this call (collect them with [`Cluster::run`]
/// first — otherwise their reports would be misattributed to sweep
/// cells).
pub fn measure_sweep(
    ids: &[WorkloadId],
    cfgs: &[PlutoConfig],
    cluster: &mut Cluster,
) -> Vec<Vec<PlutoCost>> {
    assert_eq!(
        cluster.pending(),
        0,
        "measure_sweep runs its own batch; collect pending submissions with run() first"
    );
    for &id in ids {
        for cfg in cfgs {
            cluster.submit(cfg.exec_config(), workload_for(id));
        }
    }
    let reports = cluster
        .run()
        .unwrap_or_else(|e| panic!("cluster sweep ({} jobs): {e}", ids.len() * cfgs.len()));
    let mut rows = Vec::with_capacity(ids.len());
    let mut it = reports.into_iter();
    for &id in ids {
        let row: Vec<PlutoCost> = cfgs
            .iter()
            .map(|cfg| {
                let report = it.next().expect("one report per submitted job");
                assert!(
                    report.validated,
                    "{id} failed functional validation on {}",
                    cfg.label()
                );
                PlutoCost::from_report(id, report)
            })
            .collect();
        rows.push(row);
    }
    rows
}

/// Worker-thread count for figure binaries: `--workers N` on the command
/// line, else the `PLUTO_WORKERS` environment variable, else one per
/// available CPU. Worker count never changes results — only wall-clock
/// time (see `pluto_core::cluster`).
///
/// # Panics
/// Panics (rather than silently falling back) when `--workers` or
/// `PLUTO_WORKERS` is present but not a positive integer.
pub fn worker_count() -> usize {
    let parse = |source: &str, v: &str| -> usize {
        v.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| panic!("{source} expects a positive integer, got {v:?}"))
    };
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--workers" {
            let v = args
                .next()
                .unwrap_or_else(|| panic!("--workers expects a value"));
            return parse("--workers", &v);
        }
    }
    if let Ok(v) = std::env::var("PLUTO_WORKERS") {
        return parse("PLUTO_WORKERS", &v);
    }
    pluto_core::cluster::default_workers()
}

/// A [`Cluster`] sized by [`worker_count`] — what every migrated figure
/// binary executes its sweeps on.
pub fn cluster() -> Cluster {
    Cluster::new(worker_count())
}

/// pLUTo wall-clock seconds for a workload volume under one configuration.
pub fn pluto_wall_secs(id: WorkloadId, cfg: PlutoConfig, cost: &PlutoCost) -> f64 {
    let timing = pluto_dram::TimingParams::for_kind(cfg.kind);
    runner::scaled_wall_time(cost, volume_bytes(id), cfg.subarrays(), 0.0, &timing)
}

/// Baseline runtime in seconds for a workload volume.
pub fn baseline_secs(id: WorkloadId, machine: &Machine) -> f64 {
    estimate::runtime_secs(machine, &profile::workload_profile(id), volume_bytes(id))
}

/// Baseline energy in joules for a workload volume.
pub fn baseline_joules(id: WorkloadId, machine: &Machine) -> f64 {
    estimate::energy_joules(machine, &profile::workload_profile(id), volume_bytes(id))
}

/// Geometric mean of a slice.
///
/// # Panics
/// Panics on an empty slice or non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Prints a row of an aligned table.
pub fn print_row(first: &str, cells: &[String]) {
    print!("{first:<14}");
    for c in cells {
        print!(" {c:>13}");
    }
    println!();
}

/// Formats a speedup-style number compactly.
pub fn fmt_x(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}x")
    } else if v >= 1.0 {
        format!("{v:.1}x")
    } else {
        format!("{v:.2}x")
    }
}

/// Whether quick mode is enabled — `PLUTO_QUICK=1` in the environment or
/// a `--quick` flag on the binary's command line. Every figure/table
/// binary honors this (the `bins_smoke` integration tests run them all
/// with `--quick`).
pub fn quick_mode() -> bool {
    std::env::var("PLUTO_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
        || std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 16.0]) - 8.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn config_labels_and_parallelism() {
        assert_eq!(PlutoConfig::ALL[1].label(), "pLUTo-BSA");
        assert_eq!(PlutoConfig::ALL[4].label(), "pLUTo-BSA-3DS");
        assert_eq!(PlutoConfig::ALL[0].subarrays(), 16);
        assert_eq!(PlutoConfig::ALL[3].subarrays(), 512);
    }

    #[test]
    fn volumes_positive() {
        for id in WorkloadId::FIG7 {
            assert!(volume_bytes(id) > 0.0);
        }
    }

    #[test]
    fn cluster_sweep_is_bit_identical_to_serial_measurement() {
        let ids = [WorkloadId::Bc4, WorkloadId::BitwiseRow];
        let cfgs = [PlutoConfig::ALL[2], PlutoConfig::ALL[5]];
        let mut cluster = Cluster::new(2);
        let sweep = measure_sweep(&ids, &cfgs, &mut cluster);
        for (i, &id) in ids.iter().enumerate() {
            for (j, &cfg) in cfgs.iter().enumerate() {
                assert_eq!(sweep[i][j], measure_config(id, cfg), "{id}/{}", cfg.label());
            }
        }
        // measure_all_on agrees with the serial batched path.
        let parallel = measure_all_on(&ids, cfgs[0], &mut cluster);
        assert_eq!(parallel, measure_all(&ids, cfgs[0]));
    }
}
