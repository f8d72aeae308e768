//! `figure_sweep`: the fig07/fig10 path — all 18 registry workloads ×
//! `PlutoConfig::ALL` (3 designs × DDR4/3DS) submitted to a 2-worker
//! `Cluster` and collected in one `run`. Every job starts on a cold
//! machine; the sweep's plan keys overflow the plan cache.
//!
//! `Cluster::run` hands back every job at once, so a job's latency is
//! the whole sweep's: from the first submit to `run` returning.

use crate::replay::Sim;
use crate::trace::{self, CacheDelta, Span};
use crate::{Args, Deadline, Outcome, Timed};
use pluto_baselines::WorkloadId;
use pluto_bench::PlutoConfig;
use pluto_core::cluster::Cluster;
use pluto_core::session::{CostReport, ExecConfig, Session};
use pluto_core::PlutoError;
use pluto_workloads::workload_for;
use std::time::Instant;

const WORKERS: usize = 2;

/// Registry modules, in the order the per-module metrics are named.
const MODULES: [&str; 9] = [
    "crc", "salsa20", "vmpc", "image", "vecops", "bitcount", "bitwise", "direct", "qnn",
];

/// The registry module implementing `id`'s scenario.
fn module_of(id: WorkloadId) -> usize {
    use WorkloadId::*;
    match id.canonical() {
        Crc8 | Crc16 | Crc32 => 0,
        Salsa20 => 1,
        Vmpc => 2,
        ImgBin | ColorGrade => 3,
        Add4 | Add8 | Mul8 | Mul16 | MulQ1_7 | MulQ1_15 => 4,
        Bc4 | Bc8 => 5,
        BitwiseRow => 6,
        Gamma12 | MulDirect8 => 7,
        QnnGemv8 | QnnMlp => 8,
    }
}

struct Job {
    id: WorkloadId,
    config: ExecConfig,
}

/// Every `(workload, configuration)` pair, workload-major like
/// `pluto_bench::measure_sweep`, each configuration carrying the seed.
fn jobs(seed: u64) -> Vec<Job> {
    WorkloadId::CANONICAL
        .into_iter()
        .flat_map(|id| {
            PlutoConfig::ALL.iter().map(move |cfg| {
                let mut config = cfg.exec_config();
                config.seed = seed;
                Job { id, config }
            })
        })
        .collect()
}

/// Host time around the two cluster calls of a sweep.
#[derive(Debug, Default)]
struct SweepSpans {
    submit: Span,
    run: Span,
}

/// Submits every job and collects them in one `run`.
fn sweep(
    cluster: &mut Cluster,
    jobs: &[Job],
    spans: Option<&mut SweepSpans>,
) -> Result<Vec<CostReport>, PlutoError> {
    let submit = |cluster: &mut Cluster| {
        for job in jobs {
            cluster.submit(job.config.clone(), workload_for(job.id));
        }
    };
    match spans {
        Some(s) => {
            s.submit.time(|| submit(cluster));
            s.run.time(|| cluster.run())
        }
        None => {
            submit(cluster);
            cluster.run()
        }
    }
}

/// Checks every job validated and, once the warm-up sweep is recorded,
/// that its report repeats that sweep's bit-for-bit.
fn check(
    out: &mut Outcome,
    jobs: &[Job],
    result: &Result<Vec<CostReport>, PlutoError>,
    reference: Option<&[CostReport]>,
) {
    for (j, job) in jobs.iter().enumerate() {
        out.attempted += 1;
        let ok = result.as_ref().is_ok_and(|reports| {
            reports
                .get(j)
                .is_some_and(|r| r.validated && reference.is_none_or(|refs| refs[j] == *r))
        });
        out.check(ok, || {
            format!(
                "{} on {:?}/{:?}: {:?}",
                job.id,
                job.config.design,
                job.config.kind,
                result.as_ref().err()
            )
        });
    }
}

/// One timed sweep; every job's latency is the sweep's.
fn timed_sweep(
    cluster: &mut Cluster,
    jobs: &[Job],
    reference: &[CostReport],
    timed: &mut Timed,
    out: &mut Outcome,
    spans: Option<&mut SweepSpans>,
) {
    let t = Instant::now();
    let result = sweep(cluster, jobs, spans);
    let secs = t.elapsed().as_secs_f64();
    timed.record(secs, &vec![secs * 1e3; jobs.len()]);
    check(out, jobs, &result, Some(reference));
}

pub fn run(args: &Args, start: Instant) -> Result<Outcome, String> {
    let jobs = jobs(args.seed);
    let mut cluster = Cluster::new(WORKERS);
    let mut out = Outcome::default();

    // Warm-up: one full sweep pools a machine per configuration on each
    // worker and packs every LUT row; its reports are the reference.
    let warm = sweep(&mut cluster, &jobs, None);
    check(&mut out, &jobs, &warm, None);
    let reference = warm.map_err(|e| format!("warm-up sweep failed: {e}"))?;
    if !args.trace {
        out.set("setup_s", start.elapsed().as_secs_f64());
    }
    if args.setup_only {
        return Ok(out);
    }

    if !args.trace {
        let deadline = Deadline::after(args.seconds);
        let mut timed = Timed::default();
        while timed.ops == 0 || !deadline.passed() {
            timed_sweep(&mut cluster, &jobs, &reference, &mut timed, &mut out, None);
        }
        timed.report(&mut out);
        return Ok(out);
    }

    // Traced run: untraced and traced sweeps alternate for two thirds of
    // the run, then every job runs once serially, timed per job.
    let deadline = Deadline::after(args.seconds * 2.0 / 3.0);
    let steals = cluster.steals();
    let mut caches = CacheDelta::default();
    let (mut untraced, mut traced) = (Timed::default(), Timed::default());
    let mut spans = SweepSpans::default();
    while untraced.ops == 0 || !deadline.passed() {
        timed_sweep(
            &mut cluster,
            &jobs,
            &reference,
            &mut untraced,
            &mut out,
            None,
        );
        caches.around(|| {
            let spans = Some(&mut spans);
            timed_sweep(
                &mut cluster,
                &jobs,
                &reference,
                &mut traced,
                &mut out,
                spans,
            )
        });
    }
    caches.report(&mut out, traced.ops);
    out.set("cluster.run_s", spans.run.mean_us() / 1e6);
    out.set(
        "cluster.steals",
        (cluster.steals() - steals) as f64 / (untraced.ops + traced.ops) as f64,
    );
    drop(cluster);

    // Phase C: every job serially through `Session::run`, one pooled
    // session per configuration, grouped by registry module.
    let mut sessions: Vec<(ExecConfig, Session)> = Vec::new();
    let mut secs = [0.0f64; MODULES.len()];
    let mut count = [0u32; MODULES.len()];
    let mut plan = [CacheDelta::default(); MODULES.len()];
    for (j, job) in jobs.iter().enumerate() {
        let pos = match sessions.iter().position(|(c, _)| *c == job.config) {
            Some(pos) => pos,
            None => {
                let session =
                    Session::with_config(job.config.clone()).map_err(|e| e.to_string())?;
                sessions.push((job.config.clone(), session));
                sessions.len() - 1
            }
        };
        let mut workload = workload_for(job.id);
        let m = module_of(job.id);
        let t = Instant::now();
        let report = plan[m].around(|| sessions[pos].1.run(workload.as_mut()));
        secs[m] += t.elapsed().as_secs_f64();
        count[m] += 1;
        sessions[pos].1.clear_reports();
        out.attempted += 1;
        out.check(report.as_ref().is_ok_and(|r| *r == reference[j]), || {
            format!("{} serial report differs from the cluster's", job.id)
        });
    }
    for (m, name) in MODULES.iter().enumerate() {
        out.set(
            &format!("workloads.{name}.job_ms"),
            crate::ratio(secs[m] * 1e3, f64::from(count[m])),
        );
        out.set(
            &format!("workloads.{name}.plan_hit_ratio"),
            plan[m].plan_hit_ratio(),
        );
    }
    let serial: f64 = secs.iter().sum();
    let capacity = untraced.busy_s / untraced.ops as f64 * jobs.len() as f64 * WORKERS as f64;
    out.set("trace.coverage", serial / capacity);
    out.set(
        "trace.overhead_pct",
        (traced.per_op_s() - untraced.per_op_s()) / untraced.per_op_s() * 100.0,
    );
    out.note(format!(
        "sweep {:.3} s untraced, {:.3} s traced; serial jobs {:.3} s over {WORKERS} workers",
        untraced.per_op_s() * jobs.len() as f64,
        traced.per_op_s() * jobs.len() as f64,
        serial
    ));

    let mut sim = Sim::default();
    for r in &reference {
        sim.add(&Sim::of(r));
    }
    trace::report_sim(&mut out, &sim, reference.len() as u64);
    Ok(out)
}
