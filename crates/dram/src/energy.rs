//! Per-command DRAM energy model.
//!
//! The paper evaluates energy with CACTI 7 DDR4 and HMC models (§7.1): each
//! memory command is assigned an energy, and operation energy is the sum over
//! the command sequence. We reproduce that structure with parameter tables
//! seeded from published CACTI-7/DRAMPower-derived figures for an 8 KiB-row
//! DDR4 module and scale by row size for the HMC configuration.
//!
//! Absolute joule values are not expected to match the authors' (their CACTI
//! runs are not public); all of the paper's energy *results* are ratios
//! (CPU-normalized, design-vs-design), which depend only on the relative
//! magnitudes encoded here.

use crate::geometry::{DramConfig, MemoryKind};
use crate::units::PicoJoules;

/// Energy assigned to each DRAM command class.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Energy of a full row activation (charge share + sense + restore)
    /// — the paper's `E_RCD`.
    pub e_act: PicoJoules,
    /// Energy of a precharge — the paper's `E_RP`.
    pub e_pre: PicoJoules,
    /// Energy of one RD burst (column read + I/O).
    pub e_rd_burst: PicoJoules,
    /// Energy of one WR burst (column write + I/O).
    pub e_wr_burst: PicoJoules,
    /// Energy of one LISA row-buffer-movement hop — the paper's `E_LISARBM`.
    pub e_lisa_hop: PicoJoules,
    /// Energy of a charge-share-only sweep step (GSA/GMC): the sense phase
    /// without the restore/precharge of a full cycle. For GMC only matched
    /// bitlines move charge, which is captured by the per-step fraction
    /// below.
    pub e_charge_share: PicoJoules,
    /// Static/background power of the module in watts, integrated over
    /// elapsed time by the engine.
    pub background_watts: f64,
}

impl EnergyModel {
    /// DDR4 module-level energies for 8 KiB rows.
    ///
    /// Seeds: an ACT/PRE pair on a x64 DDR4 module with a 8 KiB row costs
    /// ≈ 30 nJ in CACTI-7-class models; we split it 60/40 between ACT and
    /// PRE. RD/WR bursts (64 B) cost ≈ 4 nJ module-wide including I/O.
    pub fn ddr4() -> Self {
        EnergyModel {
            e_act: PicoJoules::from_nj(18.0),
            e_pre: PicoJoules::from_nj(12.0),
            e_rd_burst: PicoJoules::from_nj(4.0),
            e_wr_burst: PicoJoules::from_nj(4.2),
            e_lisa_hop: PicoJoules::from_nj(13.5), // 0.75 x E_ACT; > E_PRE, per Table 1 orderings
            e_charge_share: PicoJoules::from_nj(18.0), // Table 1 charges full E_RCD per step
            background_watts: 0.35,
        }
    }

    /// HMC-like 3D-stacked energies. The cell-array portion of an
    /// activation scales with row size (256 B vs 8 KiB), but per-activation
    /// peripheral costs (decoders, wordline drivers, TSV signaling) do not
    /// amortize over the small row — so energy *per activated bit* is ≈ 8×
    /// the DDR4 figure. This is why the paper's 3DS configurations save
    /// roughly 8× less energy than DDR4 pLUTo (Fig. 10: 1855× vs 236× for
    /// BSA).
    pub fn hmc_3ds() -> Self {
        let per_act_ratio = (256.0 / 8192.0) * 8.0;
        let d = EnergyModel::ddr4();
        EnergyModel {
            e_act: d.e_act * per_act_ratio,
            e_pre: d.e_pre * per_act_ratio,
            e_rd_burst: PicoJoules::from_nj(0.6),
            e_wr_burst: PicoJoules::from_nj(0.65),
            e_lisa_hop: d.e_lisa_hop * per_act_ratio,
            e_charge_share: d.e_charge_share * per_act_ratio,
            background_watts: 0.5,
        }
    }

    /// Picks the model matching a configuration's memory kind.
    pub fn for_config(cfg: &DramConfig) -> Self {
        match cfg.kind {
            MemoryKind::Ddr4 => EnergyModel::ddr4(),
            MemoryKind::Stacked3d => EnergyModel::hmc_3ds(),
        }
    }

    /// Energy of one full ACT+PRE cycle (`E_RCD + E_RP` in the paper's
    /// Table 1 formulas).
    pub fn act_pre_cycle(&self) -> PicoJoules {
        self.e_act + self.e_pre
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::ddr4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_act_pre_is_30_nj() {
        let e = EnergyModel::ddr4();
        assert!((e.act_pre_cycle().as_nj() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn hmc_activation_cheaper_per_row_dearer_per_bit() {
        let d = EnergyModel::ddr4();
        let h = EnergyModel::hmc_3ds();
        // Per activation: 4x cheaper (smaller row)…
        let ratio = d.e_act.as_pj() / h.e_act.as_pj();
        assert!((ratio - 4.0).abs() < 1e-6, "got {ratio}");
        // …but per activated bit: 8x more expensive (fixed peripherals).
        let d_per_bit = d.e_act.as_pj() / (8192.0 * 8.0);
        let h_per_bit = h.e_act.as_pj() / (256.0 * 8.0);
        assert!((h_per_bit / d_per_bit - 8.0).abs() < 1e-6);
    }

    #[test]
    fn for_config_dispatches_on_kind() {
        assert_eq!(
            EnergyModel::for_config(&DramConfig::ddr4_2400()),
            EnergyModel::ddr4()
        );
        assert_eq!(
            EnergyModel::for_config(&DramConfig::hmc_3ds()),
            EnergyModel::hmc_3ds()
        );
    }

    #[test]
    fn timing_for_kind_dispatches_on_kind() {
        use crate::timing::TimingParams;
        assert_eq!(
            TimingParams::for_kind(MemoryKind::Ddr4),
            TimingParams::ddr4_2400()
        );
        assert_eq!(
            TimingParams::for_kind(MemoryKind::Stacked3d),
            TimingParams::hmc_3ds()
        );
    }

    #[test]
    fn lisa_hop_cheaper_than_act_pre() {
        // LISA avoids a full activation pair; its energy must sit below one
        // ACT+PRE cycle for the paper's GSA-vs-BSA energy ordering to hold.
        let e = EnergyModel::ddr4();
        assert!(e.e_lisa_hop < e.act_pre_cycle());
    }
}
