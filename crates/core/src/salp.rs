//! Subarray-level parallelism (SALP) scaling (paper §5.5, §8.7, §8.8).
//!
//! Independent pLUTo LUT Queries execute concurrently across subarrays; the
//! binding shared constraint is tFAW, which limits the module to four row
//! activations per window. This module turns a per-design query recipe into
//! per-subarray command lanes and computes the parallel makespan with the
//! [`pluto_dram::schedule`] scheduler. It backs the `ablations` binary's
//! SALP × tFAW grid. The paper's Fig. 13 (tFAW sensitivity) and Fig. 14
//! (subarray scaling) are not scheduled here: `fig13_tfaw` and
//! `fig14_salp` scale each workload's measured cost through
//! [`crate::session::CostReport::scaled_wall_time`] (serial time divided
//! across subarrays, floored by the tFAW activation rate).
//!
//! Energy is *not* affected by the degree of parallelism (§8.3): callers
//! take energy from the serial model.

use crate::design::{DesignKind, DesignModel};
use pluto_dram::{Lane, LaneStep, ParallelScheduler, Picos};

/// A batch of identical LUT queries to schedule across subarrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryBatch {
    /// Number of LUT elements (rows swept per query).
    pub lut_elems: u64,
    /// Total queries to execute.
    pub queries: u64,
}

/// SALP execution parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SalpConfig {
    /// Number of subarrays operating in parallel (paper default: 16 for
    /// DDR4, 512 for 3DS).
    pub subarrays: usize,
    /// tFAW scale relative to nominal: 0.0 = unthrottled (the paper's
    /// default, Table 3), 1.0 = nominal DDR4 (§8.7).
    pub t_faw_scale: f64,
}

impl SalpConfig {
    /// The paper's default DDR4 configuration: 16 subarrays, unthrottled
    /// activations.
    pub fn ddr4_default() -> Self {
        SalpConfig {
            subarrays: 16,
            t_faw_scale: 0.0,
        }
    }

    /// The paper's default 3DS configuration: 512 subarrays.
    pub fn hmc_default() -> Self {
        SalpConfig {
            subarrays: 512,
            t_faw_scale: 0.0,
        }
    }
}

/// Builds the command lane of one subarray executing `queries_here`
/// consecutive LUT queries of `lut_elems` rows each on `design`.
pub fn query_lane(model: &DesignModel, lut_elems: u64, queries_here: u64) -> Lane {
    let t = model.timing();
    let mut lane = Lane::new();
    for _ in 0..queries_here {
        // GSA reload before each query (zero-length for other designs).
        let reload = model.reload_latency(lut_elems);
        if reload > Picos::ZERO {
            lane.push(LaneStep::other(reload));
        }
        // Source-row activation.
        lane.push(LaneStep::act(t.t_rcd));
        // The row sweep.
        match model.kind {
            DesignKind::Bsa => {
                lane.push_repeated(LaneStep::act(t.act_pre_cycle()), lut_elems as usize);
            }
            DesignKind::Gsa | DesignKind::Gmc => {
                lane.push_repeated(LaneStep::act(t.t_rcd), lut_elems as usize);
                lane.push(LaneStep::other(t.t_rp));
            }
        }
        // Copy-out to the destination row buffer (one LISA hop) and source
        // precharge.
        lane.push(LaneStep::other(t.t_lisa_hop));
        lane.push(LaneStep::other(t.t_rp));
    }
    lane
}

/// Computes the wall-clock time of `batch` under `salp`, distributing
/// queries round-robin across subarrays.
pub fn batch_makespan(model: &DesignModel, batch: QueryBatch, salp: SalpConfig) -> Picos {
    if batch.queries == 0 {
        return Picos::ZERO;
    }
    let subarrays = salp.subarrays.max(1) as u64;
    let per_lane = batch.queries / subarrays;
    let remainder = (batch.queries % subarrays) as usize;
    let t_faw = model.timing().t_faw.scale(salp.t_faw_scale);
    let scheduler = ParallelScheduler::new(t_faw);
    let mut lanes = Vec::with_capacity(salp.subarrays.min(batch.queries as usize));
    for i in 0..salp.subarrays.min(batch.queries as usize) {
        let q = per_lane + u64::from(i < remainder);
        if q > 0 {
            lanes.push(query_lane(model, batch.lut_elems, q));
        }
    }
    scheduler.makespan(&lanes)
}

/// Relative performance at a given tFAW scale versus unthrottled execution
/// (the paper's Fig. 13 y-axis).
pub fn t_faw_relative_performance(
    model: &DesignModel,
    batch: QueryBatch,
    subarrays: usize,
    t_faw_scale: f64,
) -> f64 {
    let free = batch_makespan(
        model,
        batch,
        SalpConfig {
            subarrays,
            t_faw_scale: 0.0,
        },
    );
    let throttled = batch_makespan(
        model,
        batch,
        SalpConfig {
            subarrays,
            t_faw_scale,
        },
    );
    free.as_secs() / throttled.as_secs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pluto_dram::{EnergyModel, TimingParams};

    fn model(kind: DesignKind) -> DesignModel {
        DesignModel::new(kind, TimingParams::ddr4_2400(), EnergyModel::ddr4())
    }

    #[test]
    fn one_lane_matches_serial_query_latency() {
        for kind in DesignKind::ALL {
            let m = model(kind);
            let batch = QueryBatch {
                lut_elems: 256,
                queries: 1,
            };
            let t = batch_makespan(
                &m,
                batch,
                SalpConfig {
                    subarrays: 1,
                    t_faw_scale: 0.0,
                },
            );
            // Lane = setup ACT + query latency + copyout + source PRE.
            let overhead = m.timing().t_rcd + m.timing().t_lisa_hop + m.timing().t_rp;
            assert_eq!(t, m.query_latency(256) + overhead, "{kind}");
        }
    }

    #[test]
    fn scaling_is_nearly_linear_without_tfaw() {
        // Paper §8.8: "performance scaling is approximately proportional to
        // the number of subarrays operating in parallel".
        let m = model(DesignKind::Bsa);
        let total_queries = 256;
        let t1 = batch_makespan(
            &m,
            QueryBatch {
                lut_elems: 256,
                queries: total_queries,
            },
            SalpConfig {
                subarrays: 1,
                t_faw_scale: 0.0,
            },
        );
        let t16 = batch_makespan(
            &m,
            QueryBatch {
                lut_elems: 256,
                queries: total_queries,
            },
            SalpConfig {
                subarrays: 16,
                t_faw_scale: 0.0,
            },
        );
        let speedup = t1.as_secs() / t16.as_secs();
        assert!(
            (speedup - 16.0).abs() < 0.5,
            "16-subarray speedup = {speedup}"
        );
    }

    #[test]
    fn tfaw_penalty_grows_with_scale() {
        // Paper Fig. 13: performance decreases monotonically as tFAW
        // tightens from 0 % to 100 %.
        let m = model(DesignKind::Gmc);
        let batch = QueryBatch {
            lut_elems: 256,
            queries: 64,
        };
        let p0 = t_faw_relative_performance(&m, batch, 16, 0.0);
        let p50 = t_faw_relative_performance(&m, batch, 16, 0.5);
        let p100 = t_faw_relative_performance(&m, batch, 16, 1.0);
        assert!((p0 - 1.0).abs() < 1e-9);
        assert!(p50 <= p0 && p100 <= p50, "p0={p0} p50={p50} p100={p100}");
        assert!(
            p100 > 0.2,
            "throttling should not collapse performance: {p100}"
        );
    }

    #[test]
    fn single_subarray_unaffected_by_tfaw() {
        // Serial activations are spaced wider than tFAW/4 already.
        let m = model(DesignKind::Bsa);
        let batch = QueryBatch {
            lut_elems: 64,
            queries: 4,
        };
        let p = t_faw_relative_performance(&m, batch, 1, 1.0);
        assert!((p - 1.0).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn empty_batch_is_free() {
        let m = model(DesignKind::Bsa);
        assert_eq!(
            batch_makespan(
                &m,
                QueryBatch {
                    lut_elems: 16,
                    queries: 0
                },
                SalpConfig::ddr4_default()
            ),
            Picos::ZERO
        );
    }

    #[test]
    fn more_subarrays_never_slower() {
        let m = model(DesignKind::Gsa);
        let batch = QueryBatch {
            lut_elems: 128,
            queries: 128,
        };
        let mut prev = Picos::from_ps(u64::MAX);
        for s in [1usize, 2, 4, 8, 16, 32] {
            let t = batch_makespan(
                &m,
                batch,
                SalpConfig {
                    subarrays: s,
                    t_faw_scale: 1.0,
                },
            );
            assert!(t <= prev, "{s} subarrays slower than {}", s / 2);
            prev = t;
        }
    }

    #[test]
    fn defaults_match_paper() {
        assert_eq!(SalpConfig::ddr4_default().subarrays, 16);
        assert_eq!(SalpConfig::hmc_default().subarrays, 512);
        assert_eq!(SalpConfig::ddr4_default().t_faw_scale, 0.0);
    }
}
