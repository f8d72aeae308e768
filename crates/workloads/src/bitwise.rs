//! Row-level bitwise logic (paper Table 4: "Row-Level Bitwise Logic
//! Operations, # LUT entries: 4").
//!
//! A 4-entry LUT means a 2-bit index — i.e. the operands are processed as
//! *paired single bits*. The pLUTo mapping therefore bit-slices each byte
//! vector into eight bit planes and issues one 4-entry-LUT query stream per
//! plane. (Ambit can do AND/OR natively; XOR/XNOR are where pLUTo's LUT
//! flexibility pays off — Table 6.)

use pluto_core::lut::catalog;
use pluto_core::{Lut, PlutoError, PlutoMachine};

/// The row-level bitwise operations evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BitOp {
    And,
    Or,
    Xor,
    Xnor,
    Not,
}

impl BitOp {
    /// All five operations.
    pub const ALL: [BitOp; 5] = [BitOp::And, BitOp::Or, BitOp::Xor, BitOp::Xnor, BitOp::Not];

    /// Reference semantics on bytes.
    pub fn reference(self, a: u8, b: u8) -> u8 {
        match self {
            BitOp::And => a & b,
            BitOp::Or => a | b,
            BitOp::Xor => a ^ b,
            BitOp::Xnor => !(a ^ b),
            BitOp::Not => !a,
        }
    }

    /// The paired-bit (4-entry or 2-entry) LUT for this operation.
    ///
    /// # Errors
    /// Never fails for these widths; the `Result` mirrors LUT construction.
    pub fn lut(self) -> Result<Lut, PlutoError> {
        match self {
            BitOp::And => catalog::and(1),
            BitOp::Or => catalog::or(1),
            BitOp::Xor => catalog::xor(1),
            BitOp::Xnor => catalog::xnor(1),
            BitOp::Not => catalog::not(1),
        }
    }
}

/// Reference byte-vector operation.
pub fn bitwise_reference(op: BitOp, a: &[u8], b: &[u8]) -> Vec<u8> {
    a.iter()
        .zip(b.iter().chain(std::iter::repeat(&0)))
        .map(|(&x, &y)| op.reference(x, y))
        .collect()
}

/// pLUTo byte-vector operation via eight bit-plane query streams of the
/// 4-entry LUT.
///
/// # Errors
/// Propagates machine errors.
pub fn bitwise_pluto(
    m: &mut PlutoMachine,
    op: BitOp,
    a: &[u8],
    b: &[u8],
) -> Result<Vec<u8>, PlutoError> {
    let lut = op.lut()?;
    let mut out = vec![0u8; a.len()];
    // Bit-plane staging buffers shared by all eight planes.
    let mut pa: Vec<u64> = Vec::with_capacity(a.len());
    let mut pb: Vec<u64> = Vec::with_capacity(b.len());
    for bit in 0..8u32 {
        pa.clear();
        pa.extend(a.iter().map(|&x| ((x >> bit) & 1) as u64));
        let result = if op == BitOp::Not {
            m.apply(&lut, &pa)?.values
        } else {
            pb.clear();
            pb.extend(b.iter().map(|&x| ((x >> bit) & 1) as u64));
            m.apply2(&lut, &pa, 1, &pb, 1)?.values
        };
        for (i, v) in result.iter().enumerate() {
            out[i] |= (*v as u8) << bit;
        }
    }
    Ok(out)
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
                row_bytes: 64,
                burst_bytes: 8,
                banks: 2,
                subarrays_per_bank: 32,
                rows_per_subarray: 64,
                ..DramConfig::ddr4_2400()
            },
            DesignKind::Gmc,
        )
        .unwrap()
    }

    #[test]
    fn all_ops_match_reference() {
        let a: Vec<u8> = gen::values(61, 48, 8).iter().map(|&v| v as u8).collect();
        let b: Vec<u8> = gen::values(62, 48, 8).iter().map(|&v| v as u8).collect();
        for op in BitOp::ALL {
            let mut m = machine();
            let out = bitwise_pluto(&mut m, op, &a, &b).unwrap();
            assert_eq!(out, bitwise_reference(op, &a, &b), "{op:?}");
        }
    }

    #[test]
    fn four_entry_luts() {
        // Table 4: the row-level bitwise workload uses 4-entry LUTs.
        assert_eq!(BitOp::Xor.lut().unwrap().len(), 4);
        assert_eq!(BitOp::And.lut().unwrap().len(), 4);
        assert_eq!(BitOp::Not.lut().unwrap().len(), 2);
    }

    #[test]
    fn xnor_is_complement_of_xor() {
        let a: Vec<u8> = vec![0xAA, 0x0F, 0xFF];
        let b: Vec<u8> = vec![0x55, 0x0F, 0x00];
        let x = bitwise_reference(BitOp::Xor, &a, &b);
        let nx = bitwise_reference(BitOp::Xnor, &a, &b);
        for (p, q) in x.iter().zip(&nx) {
            assert_eq!(p ^ q, 0xFF);
        }
    }
}

// --- Pluggable scenario -------------------------------------------------

use crate::gen;
use pluto_baselines::WorkloadId;
use pluto_core::session::Session;
use pluto_core::Workload;

/// The row-level bitwise workload (Table 4) as a pluggable [`Workload`]
/// scenario: bulk XOR — the operation prior PuM cannot run natively —
/// over one byte-vector measurement batch.
#[derive(Debug)]
pub struct BitwiseWorkload {
    a: Vec<u8>,
    b: Vec<u8>,
}

impl BitwiseWorkload {
    /// A scenario over the fixed-seed operand vectors.
    pub fn new() -> Self {
        BitwiseWorkload {
            a: gen::values(18, crate::MEASURE_BATCH_ELEMS, 8)
                .iter()
                .map(|&v| v as u8)
                .collect(),
            b: gen::values(19, crate::MEASURE_BATCH_ELEMS, 8)
                .iter()
                .map(|&v| v as u8)
                .collect(),
        }
    }
}

impl Default for BitwiseWorkload {
    fn default() -> Self {
        BitwiseWorkload::new()
    }
}

impl Workload for BitwiseWorkload {
    fn id(&self) -> &'static str {
        WorkloadId::BitwiseRow.label()
    }

    fn run_pluto(&mut self, sess: &mut Session) -> Result<Vec<u8>, PlutoError> {
        bitwise_pluto(sess.machine_mut(), BitOp::Xor, &self.a, &self.b)
    }

    fn run_reference(&self) -> Vec<u8> {
        bitwise_reference(BitOp::Xor, &self.a, &self.b)
    }

    fn input_bytes(&self) -> f64 {
        (self.a.len() + self.b.len()) as f64
    }

    fn min_subarrays(&self) -> u16 {
        32
    }
}
