//! Outside-in replay of one served query through the steps of
//! `Session::run`, each timed around its public call:
//!
//! 1. `session.reset` — `PlutoMachine::reset` (pristine machine);
//! 2. `store.load` — `PlutoMachine::preload` right after the reset;
//! 3. `query.apply` — `PlutoMachine::apply` on the resident store;
//! 4. `session.validate` — `Lut::apply_all` plus the `encode_words`
//!    byte compare the session runs against its reference.
//!
//! The replay machine is sized the way the server sizes a standalone
//! query's machine, so its cost counters can be compared with a served
//! reply's `CostReport`.

use pluto_core::lut::Lut;
use pluto_core::session::{encode_words, CostReport, ExecConfig};
use pluto_core::{PlutoError, PlutoMachine};
use std::time::Instant;

/// Host seconds per replayed step.
#[derive(Debug, Default, Clone, Copy)]
pub struct Steps {
    pub reset: f64,
    pub load: f64,
    pub apply: f64,
    pub validate: f64,
}

impl Steps {
    pub fn total(&self) -> f64 {
        self.reset + self.load + self.apply + self.validate
    }

    pub fn add(&mut self, other: &Steps) {
        self.reset += other.reset;
        self.load += other.load;
        self.apply += other.apply;
        self.validate += other.validate;
    }
}

/// Simulated cost of one op (deterministic; compared bit-for-bit).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Sim {
    pub us: f64,
    pub uj: f64,
    pub acts: u64,
    pub row_hits: u64,
}

impl Sim {
    pub fn of(report: &CostReport) -> Self {
        Sim {
            us: report.time.as_us(),
            uj: report.energy.as_uj(),
            acts: report.acts,
            row_hits: report.row_hits,
        }
    }

    pub fn add(&mut self, other: &Sim) {
        self.us += other.us;
        self.uj += other.uj;
        self.acts += other.acts;
        self.row_hits += other.row_hits;
    }
}

/// One replayed query's outputs.
#[derive(Debug)]
pub struct Replayed {
    pub values: Vec<u64>,
    pub steps: Steps,
    pub sim: Sim,
    /// The session's validation verdict (pLUTo bytes == reference bytes).
    pub validated: bool,
}

/// Subarrays-per-bank a standalone query against `lut` runs with: two
/// per §5.6 segment plus the controller rails, floored at the
/// measurement geometry's 16 (the server's sizing rule).
fn effective(config: &ExecConfig, lut: &Lut) -> ExecConfig {
    let rows = usize::from(config.rows_per_subarray.max(1));
    let demand = 2 * lut.len().div_ceil(rows) + 4;
    let floor = u16::try_from(demand).unwrap_or(u16::MAX).max(16);
    let mut cfg = config.clone();
    cfg.subarrays_per_bank = cfg.subarrays_per_bank.max(floor);
    cfg
}

/// Replays queries on one machine per effective configuration.
#[derive(Debug, Default)]
pub struct Replayer {
    machines: Vec<(ExecConfig, PlutoMachine)>,
}

impl Replayer {
    pub fn query(
        &mut self,
        config: &ExecConfig,
        lut: &Lut,
        inputs: &[u64],
    ) -> Result<Replayed, PlutoError> {
        let cfg = effective(config, lut);
        let pos = match self.machines.iter().position(|(c, _)| *c == cfg) {
            Some(pos) => pos,
            None => {
                let m =
                    PlutoMachine::with_backend(cfg.dram_config(), cfg.design, cfg.timing_backend)?;
                self.machines.push((cfg, m));
                self.machines.len() - 1
            }
        };
        let m = &mut self.machines[pos].1;
        let t0 = Instant::now();
        m.reset();
        let t1 = Instant::now();
        m.preload(lut)?;
        let t2 = Instant::now();
        let values = m.apply(lut, inputs)?.values;
        let t3 = Instant::now();
        let validated = encode_words(&values) == encode_words(&lut.apply_all(inputs)?);
        let t4 = Instant::now();
        let totals = m.totals();
        let stats = m.engine_stats();
        Ok(Replayed {
            values,
            steps: Steps {
                reset: (t1 - t0).as_secs_f64(),
                load: (t2 - t1).as_secs_f64(),
                apply: (t3 - t2).as_secs_f64(),
                validate: (t4 - t3).as_secs_f64(),
            },
            sim: Sim {
                us: totals.time.as_us(),
                uj: totals.energy.as_uj(),
                acts: stats.activates,
                row_hits: stats.row_hits,
            },
            validated,
        })
    }
}

/// Folds the four per-query step means into `out` (microseconds).
pub fn report_steps(out: &mut crate::Outcome, steps: &Steps, queries: u64) {
    let per = |s: f64| s * 1e6 / queries.max(1) as f64;
    out.set("session.reset_us", per(steps.reset));
    out.set("store.load_us", per(steps.load));
    out.set("query.apply_us", per(steps.apply));
    out.set("session.validate_us", per(steps.validate));
}
