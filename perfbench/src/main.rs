//! Repository benchmark driver: three seeded workloads over the pLUTo
//! serve, quantized-inference, and cluster stacks, timed in host
//! wall-clock.
//!
//! ```sh
//! perfbench --workload serve_mixed --seed 1 --seconds 30 --trace 0
//! perfbench --workload figure_sweep --seed 1 --seconds 30 --setup-only
//! ```
//!
//! * `--trace 0` runs the workload untraced and reports its end-to-end
//!   metrics (`setup_s`, `ops_per_s`, latency, peak RSS).
//! * `--trace 1` interleaves, op by op, an untraced op, the same op with
//!   spans around every call into a layer, and a replay of the op through
//!   the layers' public steps, attributing host time to the layers (the
//!   per-layer metrics).
//! * `--setup-only` stops after set-up and reports `setup_s` alone; the
//!   wrapper (`run.py`) repeats it in fresh processes and reports the
//!   median.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` as `name -> value`.

mod figure_sweep;
mod qnn_serve;
mod replay;
mod serve_mixed;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} expects a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one run measured: op accounting plus named metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one oracle check; a disagreement is a failed op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }
}

/// Wall-clock length of one throughput window.
const WINDOW_S: f64 = 1.0;
/// The latency tail percentile. Ops of one burst or sweep share their
/// stalls, and on a shared 2-vCPU host p99 tracks how often the host
/// preempts the VM rather than the program; p90 leaves at least ten
/// samples beyond it at every workload's sample count.
const TAIL_PCT: f64 = 90.0;

/// Latency histogram with bins 0.1% wide: constant memory however many
/// ops a run completes, so `peak_rss_mb` measures the program rather
/// than the benchmark's bookkeeping.
#[derive(Debug, Default)]
struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

/// Bins per factor of e.
const BINS_PER_E: f64 = 1000.0;

impl Histogram {
    fn record(&mut self, ms: f64) {
        let bin = ((ms * 1e6).max(1.0).ln() * BINS_PER_E) as usize;
        if self.counts.len() <= bin {
            self.counts.resize(bin + 1, 0);
        }
        self.counts[bin] += 1;
        self.total += 1;
    }

    /// Nearest-rank percentile, as the geometric centre of its bin (ms).
    fn percentile(&self, pct: f64) -> f64 {
        let rank = ((pct / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (bin, &count) in self.counts.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return ((bin as f64 + 0.5) / BINS_PER_E).exp() / 1e6;
            }
        }
        f64::NAN
    }
}

/// End-to-end host metrics of one timed phase.
#[derive(Debug)]
pub struct Timed {
    /// Completed ops.
    pub ops: u64,
    /// Host seconds the ops were in flight (client-side checking between
    /// ops excluded).
    pub busy_s: f64,
    latencies: Histogram,
    start: Instant,
    /// Ops and busy seconds per `WINDOW_S` of wall time since `start`.
    windows: Vec<(u64, f64)>,
}

impl Default for Timed {
    fn default() -> Self {
        Timed {
            ops: 0,
            busy_s: 0.0,
            latencies: Histogram::default(),
            start: Instant::now(),
            windows: Vec::new(),
        }
    }
}

impl Timed {
    /// Records completed ops with their latencies, in flight for `busy_s`.
    pub fn record(&mut self, busy_s: f64, latencies_ms: &[f64]) {
        let ops = latencies_ms.len() as u64;
        self.ops += ops;
        self.busy_s += busy_s;
        for &ms in latencies_ms {
            self.latencies.record(ms);
        }
        let w = (self.start.elapsed().as_secs_f64() / WINDOW_S) as usize;
        if self.windows.len() <= w {
            self.windows.resize(w + 1, (0, 0.0));
        }
        self.windows[w].0 += ops;
        self.windows[w].1 += busy_s;
    }

    pub fn per_op_s(&self) -> f64 {
        self.busy_s / self.ops.max(1) as f64
    }

    /// Median over windows of completed ops per busy second: robust to
    /// the seconds-long slowdowns a shared host imposes on a run.
    pub fn ops_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.0 > 0)
            .map(|&(ops, busy)| ops as f64 / busy)
            .collect();
        rates.sort_by(f64::total_cmp);
        percentile(&rates, 50.0)
    }

    /// Folds `ops_per_s`, `latency_p50_ms`, and `latency_tail_ms` into
    /// `out`, naming the tail percentile in a note.
    pub fn report(&self, out: &mut Outcome) {
        let p50 = self.latencies.percentile(50.0);
        let tail = self.latencies.percentile(TAIL_PCT);
        out.set("ops_per_s", self.ops_per_s());
        out.set("latency_p50_ms", p50);
        out.set("latency_tail_ms", tail);
        let beyond = self.ops - ((TAIL_PCT / 100.0) * self.ops as f64).ceil() as u64;
        out.note(format!(
            "latency over {} ops: p50 {p50:.4} ms, p{TAIL_PCT} {tail:.4} ms ({beyond} ops beyond)",
            self.ops
        ));
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A wall-clock budget for one phase.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(seconds: f64) -> Self {
        Deadline(Instant::now() + Duration::from_secs_f64(seconds))
    }

    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kib / 1024.0)
}

/// Prints the notes and the closing JSON line.
fn emit(out: &Outcome) -> Result<(), String> {
    for line in &out.notes {
        println!("{line}");
    }
    let mut fields = Vec::with_capacity(out.metrics.len());
    for (name, value) in &out.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!("\"{name}\": {value:?}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    Ok(())
}

fn main() {
    let start = Instant::now();
    let result = parse_args().and_then(|args| {
        let out = match args.workload.as_str() {
            "serve_mixed" => serve_mixed::run(&args, start),
            "qnn_serve" => qnn_serve::run(&args, start),
            "figure_sweep" => figure_sweep::run(&args, start),
            other => Err(format!(
                "unknown workload {other:?} (serve_mixed|qnn_serve|figure_sweep)"
            )),
        };
        let mut out = out?;
        if !args.trace && !args.setup_only {
            out.set("peak_rss_mb", peak_rss_mb()?);
        }
        emit(&out)
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
