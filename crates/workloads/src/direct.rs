//! Direct large-table workloads exercising the §5.6 partitioned-LUT path.
//!
//! Both scenarios tabulate the *whole* function as one logical LUT that
//! exceeds `rows_per_subarray`, so every query sweeps many segments of
//! the partitioned store (`pluto_core::partition`) that the
//! machine/controller keep every LUT in:
//!
//! * [`Gamma12Workload`] — a direct 12-bit → 8-bit tone map (4096-entry
//!   table, 8 segments on the 512-row measurement geometry): the
//!   wide-input pixel pipeline the paper's §5.6 flags as the regime where
//!   partitioning trades energy for capacity.
//! * [`MulDirect8Workload`] — a direct-table 8×8 → 16-bit multiply
//!   (65 536-entry table, 128 segments): the capacity–computation
//!   tradeoff in its purest form, contrasting with the existing
//!   nibble-plane `Mul8` mapping ([`crate::vecops::QMulWorkload`]) that
//!   decomposes the same product into 4-bit-limb LUTs.
//!
//! Under §5.6 cost semantics a partitioned query keeps single-query
//! latency but pays segment-count × energy, so these scenarios are
//! latency-competitive with the small-LUT workloads while their
//! energy-per-byte exposes the partitioning tax the related LUT-PIM
//! literature optimizes (LoCalut; Khabbazan et al.).

use crate::gen;
use pluto_baselines::WorkloadId;
use pluto_core::lut::catalog;
use pluto_core::session::{self, Session, Workload};
use pluto_core::{Lut, PlutoError, PlutoMachine};

/// The direct 12-bit → 8-bit tone-map curve: `y = round(255·√(x/4095))`,
/// a lift-the-shadows display gamma. `sqrt` is correctly rounded per
/// IEEE-754, so the table is bit-stable on every platform.
///
/// # Errors
/// Never fails for these widths; the `Result` mirrors [`Lut::from_fn`].
pub fn gamma12_lut() -> Result<Lut, PlutoError> {
    Lut::from_fn("gamma12", 12, 8, |x| {
        (255.0 * (x as f64 / 4095.0).sqrt()).round() as u64
    })
}

/// Reference tone map (host software).
pub fn gamma12_reference(pixels: &[u64]) -> Vec<u64> {
    pixels
        .iter()
        .map(|&x| (255.0 * (x as f64 / 4095.0).sqrt()).round() as u64)
        .collect()
}

/// pLUTo tone map: one partitioned 4096-entry LUT query stream.
///
/// # Errors
/// Propagates machine errors.
pub fn gamma12_pluto(m: &mut PlutoMachine, pixels: &[u64]) -> Result<Vec<u64>, PlutoError> {
    Ok(m.apply(&gamma12_lut()?, pixels)?.values)
}

/// Reference direct multiply (host software).
pub fn mul_direct8_reference(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).map(|(&x, &y)| x * y).collect()
}

/// pLUTo direct multiply: the full 8×8 → 16 product as *one* partitioned
/// 65 536-entry LUT query stream (`lut[(a << 8) | b]`), instead of the
/// nibble-plane decomposition [`crate::vecops::q1_7_mul_pluto`] uses.
///
/// # Errors
/// Propagates machine errors.
pub fn mul_direct8_pluto(
    m: &mut PlutoMachine,
    a: &[u64],
    b: &[u64],
) -> Result<Vec<u64>, PlutoError> {
    Ok(m.apply2(&catalog::mul(8)?, a, 8, b, 8)?.values)
}

/// The direct 12-bit tone-map workload as a pluggable [`Workload`]
/// scenario over a synthetic 12-bit sensor plane.
#[derive(Debug)]
pub struct Gamma12Workload {
    pixels: Vec<u64>,
}

impl Gamma12Workload {
    /// A scenario over one measurement batch.
    pub fn new() -> Self {
        Gamma12Workload::with_batch(crate::MEASURE_BATCH_ELEMS)
    }

    /// A scenario over a batch of `elems` 12-bit pixels; oversize batches
    /// split into measurement-sized [`Workload::shards`].
    pub fn with_batch(elems: usize) -> Self {
        Gamma12Workload {
            pixels: gen::values(21, elems, 12),
        }
    }
}

impl Default for Gamma12Workload {
    fn default() -> Self {
        Gamma12Workload::new()
    }
}

impl Workload for Gamma12Workload {
    fn id(&self) -> &'static str {
        WorkloadId::Gamma12.label()
    }

    fn run_pluto(&mut self, sess: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let out = gamma12_pluto(sess.machine_mut(), &self.pixels)?;
        Ok(session::encode_words(&out))
    }

    fn run_reference(&self) -> Vec<u8> {
        session::encode_words(&gamma12_reference(&self.pixels))
    }

    fn input_bytes(&self) -> f64 {
        self.pixels.len() as f64 * 12.0 / 8.0
    }

    fn min_subarrays(&self) -> u16 {
        // 8 segment pairs (4096 entries / 512 rows) after the data
        // subarray, plus headroom.
        20
    }

    fn shards(&self) -> Vec<Box<dyn Workload>> {
        self.pixels
            .chunks(crate::MEASURE_BATCH_ELEMS)
            .map(|chunk| {
                Box::new(Gamma12Workload {
                    pixels: chunk.to_vec(),
                }) as Box<dyn Workload>
            })
            .collect()
    }
}

/// The direct-table 8×8 → 16 multiply workload as a pluggable
/// [`Workload`] scenario.
#[derive(Debug)]
pub struct MulDirect8Workload {
    a: Vec<u64>,
    b: Vec<u64>,
}

impl MulDirect8Workload {
    /// A scenario over one measurement batch.
    pub fn new() -> Self {
        MulDirect8Workload::with_batch(crate::MEASURE_BATCH_ELEMS)
    }

    /// A scenario over a batch of `elems` operand pairs; oversize batches
    /// split into measurement-sized [`Workload::shards`].
    pub fn with_batch(elems: usize) -> Self {
        MulDirect8Workload {
            a: gen::values(22, elems, 8),
            b: gen::values(23, elems, 8),
        }
    }
}

impl Default for MulDirect8Workload {
    fn default() -> Self {
        MulDirect8Workload::new()
    }
}

impl Workload for MulDirect8Workload {
    fn id(&self) -> &'static str {
        WorkloadId::MulDirect8.label()
    }

    fn run_pluto(&mut self, sess: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let out = mul_direct8_pluto(sess.machine_mut(), &self.a, &self.b)?;
        Ok(session::encode_words(&out))
    }

    fn run_reference(&self) -> Vec<u8> {
        session::encode_words(&mul_direct8_reference(&self.a, &self.b))
    }

    fn input_bytes(&self) -> f64 {
        (self.a.len() * 2) as f64
    }

    fn min_subarrays(&self) -> u16 {
        // 128 segment pairs (65 536 entries / 512 rows) after the data
        // subarray, plus headroom.
        260
    }

    fn shards(&self) -> Vec<Box<dyn Workload>> {
        self.a
            .chunks(crate::MEASURE_BATCH_ELEMS)
            .zip(self.b.chunks(crate::MEASURE_BATCH_ELEMS))
            .map(|(ca, cb)| {
                Box::new(MulDirect8Workload {
                    a: ca.to_vec(),
                    b: cb.to_vec(),
                }) as Box<dyn Workload>
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pluto_core::DesignKind;
    use pluto_dram::DramConfig;

    fn machine(subarrays: u16, design: DesignKind) -> PlutoMachine {
        PlutoMachine::new(
            DramConfig {
                row_bytes: 256,
                burst_bytes: 32,
                banks: 1,
                subarrays_per_bank: subarrays,
                rows_per_subarray: 512,
                ..DramConfig::ddr4_2400()
            },
            design,
        )
        .unwrap()
    }

    #[test]
    fn gamma12_lut_is_monotone_and_saturating() {
        let lut = gamma12_lut().unwrap();
        assert_eq!(lut.len(), 4096);
        let e = lut.elements();
        assert!(e.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(e[0], 0);
        assert_eq!(*e.last().unwrap(), 255);
    }

    #[test]
    fn pluto_gamma12_matches_reference() {
        let pixels = gen::values(99, 80, 12);
        let mut m = machine(20, DesignKind::Gmc);
        assert_eq!(
            gamma12_pluto(&mut m, &pixels).unwrap(),
            gamma12_reference(&pixels)
        );
    }

    #[test]
    fn pluto_mul_direct8_matches_reference_and_nibble_planes() {
        let a = gen::values(91, 12, 8);
        let b = gen::values(92, 12, 8);
        let mut m = machine(260, DesignKind::Gmc);
        let direct = mul_direct8_pluto(&mut m, &a, &b).unwrap();
        assert_eq!(direct, mul_direct8_reference(&a, &b));
        // The direct table computes the same unsigned product the
        // nibble-plane Mul8 mapping decomposes (before its Q1.7 sign and
        // shift steps): cross-check against host truth on edge operands.
        let edge = [0u64, 1, 127, 128, 255];
        for &x in &edge {
            for &y in &edge {
                let out = mul_direct8_pluto(&mut m, &[x], &[y]).unwrap();
                assert_eq!(out, vec![x * y], "{x} * {y}");
            }
        }
    }

    #[test]
    fn scenarios_shard_on_measurement_batches() {
        let g = Gamma12Workload::with_batch(3 * crate::MEASURE_BATCH_ELEMS);
        assert_eq!(g.shards().len(), 3);
        let m = MulDirect8Workload::with_batch(2 * crate::MEASURE_BATCH_ELEMS + 1);
        let shards = m.shards();
        assert_eq!(shards.len(), 3);
    }
}
