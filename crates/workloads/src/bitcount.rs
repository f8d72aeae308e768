//! Bit counting (paper Table 4: BC-4 with a 16-entry LUT, BC-8 with a
//! 256-entry LUT — the Hacker's Delight population-count workload).

use pluto_core::lut::catalog;
use pluto_core::{PlutoError, PlutoMachine};

/// Reference population counts of `bits`-wide values.
pub fn popcount_reference(values: &[u64]) -> Vec<u64> {
    values.iter().map(|v| v.count_ones() as u64).collect()
}

/// BC-4: 4-bit popcount via a 16-entry LUT (one bulk query stream).
///
/// # Errors
/// Propagates machine errors.
pub fn bc4_pluto(m: &mut PlutoMachine, values: &[u64]) -> Result<Vec<u64>, PlutoError> {
    Ok(m.apply(&catalog::popcount(4)?, values)?.values)
}

/// BC-8: 8-bit popcount via a 256-entry LUT.
///
/// # Errors
/// Propagates machine errors.
pub fn bc8_pluto(m: &mut PlutoMachine, values: &[u64]) -> Result<Vec<u64>, PlutoError> {
    Ok(m.apply(&catalog::popcount(8)?, values)?.values)
}

/// Popcount of 16-bit words by summing the two per-byte BC-8 counts with a
/// 512-entry add LUT (how the paper composes BC-8 into wider counts).
///
/// # Errors
/// Propagates machine errors.
pub fn popcount_u16_pluto(m: &mut PlutoMachine, values: &[u64]) -> Result<Vec<u64>, PlutoError> {
    let bc8 = catalog::popcount(8)?;
    // Per-byte counts are ≤ 8, so a (count ≤ 15) + (count ≤ 15) LUT with a
    // 5-bit result covers the sum (≤ 16). 8-bit index = 256 entries.
    let add = catalog::add(4)?;
    let lo: Vec<u64> = values.iter().map(|&v| v & 0xFF).collect();
    let hi: Vec<u64> = values.iter().map(|&v| (v >> 8) & 0xFF).collect();
    let c_lo = m.apply(&bc8, &lo)?.values;
    let c_hi = m.apply(&bc8, &hi)?.values;
    // Counts ≤ 8 each fit the 4-bit add operands; the 5-bit sum ≤ 16.
    let mut c_lo4 = c_lo;
    let mut c_hi4 = c_hi;
    for v in c_lo4.iter_mut().chain(c_hi4.iter_mut()) {
        debug_assert!(*v <= 8);
        *v &= 0xF;
    }
    Ok(m.apply2(&add, &c_lo4, 4, &c_hi4, 4)?.values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use pluto_core::DesignKind;
    use pluto_dram::DramConfig;

    fn machine() -> PlutoMachine {
        PlutoMachine::new(
            DramConfig {
                row_bytes: 128,
                burst_bytes: 16,
                banks: 2,
                subarrays_per_bank: 32,
                rows_per_subarray: 512,
                ..DramConfig::ddr4_2400()
            },
            DesignKind::Bsa,
        )
        .unwrap()
    }

    #[test]
    fn bc4_matches_reference() {
        let v = gen::values(8, 100, 4);
        let mut m = machine();
        assert_eq!(bc4_pluto(&mut m, &v).unwrap(), popcount_reference(&v));
    }

    #[test]
    fn bc8_matches_reference() {
        let v = gen::values(9, 100, 8);
        let mut m = machine();
        assert_eq!(bc8_pluto(&mut m, &v).unwrap(), popcount_reference(&v));
    }

    #[test]
    fn bc8_full_range() {
        let v: Vec<u64> = (0..256).collect();
        let mut m = machine();
        assert_eq!(bc8_pluto(&mut m, &v).unwrap(), popcount_reference(&v));
    }

    #[test]
    fn composed_u16_popcount() {
        let v = gen::values(10, 64, 16);
        let mut m = machine();
        assert_eq!(
            popcount_u16_pluto(&mut m, &v).unwrap(),
            popcount_reference(&v)
        );
        // Extremes.
        let mut m = machine();
        assert_eq!(
            popcount_u16_pluto(&mut m, &[0, 0xFFFF, 0x8001]).unwrap(),
            vec![0, 16, 2]
        );
    }
}

// --- Pluggable scenario -------------------------------------------------

use crate::gen;
use pluto_baselines::WorkloadId;
use pluto_core::session::{self, Session, Workload};

/// The bit-counting workload (Fig. 9 BC-4/BC-8) as a pluggable
/// [`Workload`] scenario.
#[derive(Debug)]
pub struct BitcountWorkload {
    id: WorkloadId,
    bits: u32,
    values: Vec<u64>,
}

impl BitcountWorkload {
    /// A scenario for `bits`-wide popcounts (4 or 8) over one measurement
    /// batch.
    ///
    /// # Panics
    /// Panics on widths other than 4 or 8.
    pub fn new(bits: u32) -> Self {
        BitcountWorkload::with_batch(bits, crate::MEASURE_BATCH_ELEMS)
    }

    /// A scenario over a batch of `elems` values; oversize batches split
    /// into measurement-row-sized [`Workload::shards`] for cluster
    /// fan-out.
    ///
    /// # Panics
    /// Panics on widths other than 4 or 8.
    pub fn with_batch(bits: u32, elems: usize) -> Self {
        let id = match bits {
            4 => WorkloadId::Bc4,
            8 => WorkloadId::Bc8,
            _ => panic!("BitcountWorkload supports BC-4 and BC-8, not {bits}"),
        };
        BitcountWorkload {
            id,
            bits,
            values: gen::values(17, elems, bits),
        }
    }
}

impl Workload for BitcountWorkload {
    fn id(&self) -> &'static str {
        self.id.label()
    }

    fn run_pluto(&mut self, sess: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let m = sess.machine_mut();
        let out = if self.bits == 4 {
            bc4_pluto(m, &self.values)?
        } else {
            bc8_pluto(m, &self.values)?
        };
        Ok(session::encode_words(&out))
    }

    fn run_reference(&self) -> Vec<u8> {
        session::encode_words(&popcount_reference(&self.values))
    }

    fn input_bytes(&self) -> f64 {
        (self.values.len() as f64) * self.bits as f64 / 8.0
    }

    fn shards(&self) -> Vec<Box<dyn Workload>> {
        self.values
            .chunks(crate::MEASURE_BATCH_ELEMS)
            .map(|c| {
                Box::new(BitcountWorkload {
                    id: self.id,
                    bits: self.bits,
                    values: c.to_vec(),
                }) as Box<dyn Workload>
            })
            .collect()
    }
}
