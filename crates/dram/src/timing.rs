//! DRAM timing parameter sets.
//!
//! The paper's Table 3 specifies DDR4-2400 with 17-17-17 timings, i.e.
//! tRCD = tRP = tCL = 17 clock cycles × 0.833 ns = 14.16 ns, and (§8.7) a
//! nominal tFAW of 13.328 ns. The 3D-stacked (HMC) configuration benefits
//! from faster row activation (§8.2 reports 3DS designs outperform DDR4 by
//! 38 % on average, i.e. activation phases take ≈ 1/1.38 of the DDR4 time).

use crate::geometry::MemoryKind;
use crate::units::Picos;
use std::fmt;

/// The timing parameters the simulator enforces.
///
/// All durations are integer picoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingParams {
    /// ACT-to-RD/WR delay, also the charge-share + sense phase of a row
    /// activation (the paper's tRCD).
    pub t_rcd: Picos,
    /// PRE-to-ACT delay (row precharge time).
    pub t_rp: Picos,
    /// Minimum time a row must stay open (ACT to PRE).
    pub t_ras: Picos,
    /// Four-activate window: at most four ACTs may issue within any window
    /// of this length per rank (paper §5.5, §8.7; nominal 13.328 ns).
    pub t_faw: Picos,
    /// Column access latency (CAS latency), used for RD data return.
    pub t_cl: Picos,
    /// Column-to-column delay between successive bursts.
    pub t_ccd: Picos,
    /// Data burst duration on the bus for one RD/WR command.
    pub t_burst: Picos,
    /// One hop of a LISA row-buffer-movement between adjacent subarrays.
    /// LISA's RBM performs paired activations across the isolation
    /// transistors; its per-row cost exceeds a precharge (this is what
    /// makes the GSA query latency strictly worse than BSA's, paper
    /// §5.2.2 / Table 1).
    pub t_lisa_hop: Picos,
    /// Scaling factor currently applied to `t_faw` (1.0 = nominal). Retained
    /// so that sensitivity studies can report the active setting.
    pub t_faw_scale_applied: f64,
}

impl TimingParams {
    /// DDR4-2400 17-17-17 (paper Table 3: "timings 17-17-17 (14.16 ns)").
    pub fn ddr4_2400() -> Self {
        TimingParams {
            t_rcd: Picos::from_ns(14.16),
            t_rp: Picos::from_ns(14.16),
            t_ras: Picos::from_ns(32.0),
            t_faw: Picos::from_ns(13.328),
            t_cl: Picos::from_ns(14.16),
            t_ccd: Picos::from_ns(4.166),   // tCCD_S = 4 tCK
            t_burst: Picos::from_ns(3.332), // BL8 @ 2400 MT/s
            t_lisa_hop: Picos::from_ns(16.0),
            t_faw_scale_applied: 1.0,
        }
    }

    /// HMC-like 3D-stacked timings. Row activation phases are scaled by
    /// 1/1.38 relative to DDR4 (§8.2: 3DS designs outperform their DDR4
    /// counterparts by 38 % on average due to HMC's faster row activations).
    pub fn hmc_3ds() -> Self {
        let f = 1.0 / 1.38;
        let ddr4 = TimingParams::ddr4_2400();
        TimingParams {
            t_rcd: ddr4.t_rcd.scale(f),
            t_rp: ddr4.t_rp.scale(f),
            t_ras: ddr4.t_ras.scale(f),
            t_faw: ddr4.t_faw.scale(f),
            t_cl: ddr4.t_cl.scale(f),
            t_ccd: ddr4.t_ccd.scale(f),
            t_burst: Picos::from_ns(0.25), // 32 B on a wide TSV interface
            t_lisa_hop: ddr4.t_lisa_hop.scale(f),
            t_faw_scale_applied: 1.0,
        }
    }

    /// Picks the parameter set matching a memory kind (the timing
    /// counterpart of [`crate::EnergyModel::for_config`]).
    pub fn for_kind(kind: MemoryKind) -> Self {
        match kind {
            MemoryKind::Ddr4 => TimingParams::ddr4_2400(),
            MemoryKind::Stacked3d => TimingParams::hmc_3ds(),
        }
    }

    /// Returns a copy with tFAW scaled to `scale` × nominal.
    ///
    /// `scale = 0.0` removes the constraint entirely (the paper's
    /// "tFAW = 0 s" unthrottled configuration, Table 3); `scale = 0.5` allows
    /// twice as many activations per unit time as nominal (§8.7).
    ///
    /// # Panics
    /// Panics if `scale` is negative or not finite.
    pub fn with_t_faw_scale(&self, scale: f64) -> Self {
        let mut t = self.clone();
        t.t_faw = t
            .t_faw
            .scale(scale / self.t_faw_scale_applied.max(f64::MIN_POSITIVE));
        // Recompute from the nominal value to avoid compounding rounding.
        let nominal = self
            .t_faw
            .scale(1.0 / self.t_faw_scale_applied.max(f64::MIN_POSITIVE));
        t.t_faw = nominal.scale(scale);
        t.t_faw_scale_applied = scale;
        t
    }

    /// Whether the four-activate window is currently enforced.
    pub fn t_faw_enabled(&self) -> bool {
        self.t_faw > Picos::ZERO
    }

    /// Latency of one full ACT + PRE cycle (the paper's per-element sweep
    /// step for pLUTo-BSA: tRCD + tRP).
    pub fn act_pre_cycle(&self) -> Picos {
        self.t_rcd + self.t_rp
    }

    /// Latency to read one full row out over the bus after activation
    /// (bursts pipelined at tCCD).
    pub fn row_readout(&self, bursts: usize) -> Picos {
        if bursts == 0 {
            return Picos::ZERO;
        }
        self.t_cl + self.t_ccd.times(bursts as u64 - 1) + self.t_burst
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::ddr4_2400()
    }
}

impl fmt::Display for TimingParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tRCD={} tRP={} tRAS={} tFAW={}",
            self.t_rcd, self.t_rp, self.t_ras, self.t_faw
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_matches_paper_table3() {
        let t = TimingParams::ddr4_2400();
        assert_eq!(t.t_rcd, Picos::from_ps(14_160));
        assert_eq!(t.t_rp, Picos::from_ps(14_160));
        assert_eq!(t.t_faw, Picos::from_ps(13_328));
    }

    #[test]
    fn act_pre_cycle_is_sum() {
        let t = TimingParams::ddr4_2400();
        assert_eq!(t.act_pre_cycle(), Picos::from_ps(28_320));
    }

    #[test]
    fn hmc_is_38_percent_faster_activation() {
        let d = TimingParams::ddr4_2400();
        let h = TimingParams::hmc_3ds();
        let ratio = d.t_rcd.as_ns() / h.t_rcd.as_ns();
        assert!((ratio - 1.38).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn t_faw_scaling() {
        let t = TimingParams::ddr4_2400();
        let half = t.with_t_faw_scale(0.5);
        assert_eq!(half.t_faw, Picos::from_ps(6_664));
        assert!(half.t_faw_enabled());
        let off = t.with_t_faw_scale(0.0);
        assert_eq!(off.t_faw, Picos::ZERO);
        assert!(!off.t_faw_enabled());
        // Scaling an already-scaled set recovers from the nominal value.
        let back = half.with_t_faw_scale(1.0);
        assert_eq!(back.t_faw, t.t_faw);
    }

    #[test]
    fn row_readout_pipelines_bursts() {
        let t = TimingParams::ddr4_2400();
        assert_eq!(t.row_readout(0), Picos::ZERO);
        let one = t.row_readout(1);
        let two = t.row_readout(2);
        assert_eq!(two - one, t.t_ccd);
    }
}
