//! LUT-based vector addition and Q-format point-wise multiplication
//! (paper Table 4: 4-bit addition; Q1.7 and Q1.15 multiplies).
//!
//! Q1.m is a signed fixed-point format: one sign bit, `m` fraction bits,
//! values in [−1, 1). The product of two Q1.m values is computed as the
//! wrapping signed product shifted right by `m` — the reference uses host
//! integer arithmetic; the pLUTo mapping decomposes the multiply into
//! 4-bit-limb LUT partial products ([`crate::wide::mul`]) with sign
//! correction and LUT-based shifting.

use crate::wide::{self, Planes};
use pluto_core::lut::catalog;
use pluto_core::{Lut, PlutoError, PlutoMachine};

/// Reference 4-bit vector addition (5-bit results, the paper's LUT-based
/// vector-add workload).
pub fn add4_reference(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).map(|(&x, &y)| (x + y) & 0x1F).collect()
}

/// pLUTo 4-bit vector addition: one `add4` LUT query stream.
///
/// # Errors
/// Propagates machine errors.
pub fn add4_pluto(m: &mut PlutoMachine, a: &[u64], b: &[u64]) -> Result<Vec<u64>, PlutoError> {
    Ok(m.apply2(&catalog::add(4)?, a, 4, b, 4)?.values)
}

/// Reference Q1.m point-wise product (wrapping, like the hardware).
///
/// Operands and results are raw two's-complement words of `m + 1` bits.
pub fn qmul_reference(frac_bits: u32, a: &[u64], b: &[u64]) -> Vec<u64> {
    let width = frac_bits + 1;
    let mask = (1u64 << width) - 1;
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let sx = sign_extend(x, width);
            let sy = sign_extend(y, width);
            (((sx * sy) >> frac_bits) as u64) & mask
        })
        .collect()
}

fn sign_extend(v: u64, width: u32) -> i64 {
    let shift = 64 - width;
    ((v << shift) as i64) >> shift
}

/// pLUTo Q1.7 product: 8-bit operands. Unsigned 8×8 → 16 limb multiply,
/// two conditional sign corrections (`p −= (b << 8)` when `a < 0`, and
/// symmetrically), then an arithmetic shift right by 7 — all as LUT
/// queries on nibble planes.
///
/// # Errors
/// Propagates machine errors.
pub fn q1_7_mul_pluto(m: &mut PlutoMachine, a: &[u64], b: &[u64]) -> Result<Vec<u64>, PlutoError> {
    qmul_pluto(m, 7, a, b)
}

/// pLUTo Q1.15 product: 16-bit operands via the same decomposition.
///
/// # Errors
/// Propagates machine errors.
pub fn q1_15_mul_pluto(m: &mut PlutoMachine, a: &[u64], b: &[u64]) -> Result<Vec<u64>, PlutoError> {
    qmul_pluto(m, 15, a, b)
}

fn qmul_pluto(
    m: &mut PlutoMachine,
    frac_bits: u32,
    a: &[u64],
    b: &[u64],
) -> Result<Vec<u64>, PlutoError> {
    let width = frac_bits + 1; // 8 or 16
    let limbs = (width / 4) as usize;
    let n = a.len();
    let pa = Planes::from_values(a, limbs);
    let pb = Planes::from_values(b, limbs);
    // Unsigned product, 2×limbs wide.
    let prod = wide::mul(m, &pa, &pb)?;
    // Signed correction: for two's-complement operands interpreted
    // unsigned, signed = unsigned − (a<0 ? b<<width : 0) − (b<0 ? a<<width : 0)
    // (mod 2^(2·width)).
    let sign = Lut::from_fn("sign4", 4, 1, |x| x >> 3)?;
    let select = Lut::from_fn("select4", 5, 4, |x| {
        let flag = x & 1;
        if flag == 1 {
            x >> 1
        } else {
            0
        }
    })?;
    let a_neg = m.apply(&sign, &pa.planes[limbs - 1])?.values;
    let b_neg = m.apply(&sign, &pb.planes[limbs - 1])?.values;
    let zero: Vec<u64> = vec![0; n];
    let corr =
        |operand: &Planes, flag: &[u64], mach: &mut PlutoMachine| -> Result<Planes, PlutoError> {
            // (operand << width) masked by flag, as a 2·width-wide value.
            let mut planes = vec![zero.clone(); 2 * limbs];
            for l in 0..limbs {
                planes[limbs + l] = mach.apply2(&select, &operand.planes[l], 4, flag, 1)?.values;
            }
            Ok(Planes { planes })
        };
    let corr_b = corr(&pb, &a_neg, m)?;
    let corr_a = corr(&pa, &b_neg, m)?;
    let step = wide::sub(m, &prod, &corr_b)?;
    let signed = wide::sub(m, &step, &corr_a)?;
    // Arithmetic shift right by frac_bits == logical shift then take the
    // low `width` bits (the discarded high bits carry the sign copies).
    let shifted = wide::shr(m, &signed, frac_bits)?;
    let out = Planes {
        planes: shifted.planes[..limbs].to_vec(),
    };
    Ok(out.to_values())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use pluto_core::DesignKind;

    #[test]
    fn add4_matches_reference() {
        let a = gen::values(1, 60, 4);
        let b = gen::values(2, 60, 4);
        let mut m = wide::test_machine(DesignKind::Bsa).unwrap();
        assert_eq!(add4_pluto(&mut m, &a, &b).unwrap(), add4_reference(&a, &b));
    }

    #[test]
    fn qmul_reference_known_values() {
        // Q1.7: 0.5 × 0.5 = 0.25  (64 × 64 >> 7 = 32).
        assert_eq!(qmul_reference(7, &[64], &[64]), vec![32]);
        // −1.0 × 0.5 = −0.5  (0x80 × 0x40 ⇒ 0xC0).
        assert_eq!(qmul_reference(7, &[0x80], &[0x40]), vec![0xC0]);
        // −1.0 × −0.5 = 0.5.
        assert_eq!(qmul_reference(7, &[0x80], &[0xC0]), vec![0x40]);
    }

    #[test]
    fn pluto_q1_7_matches_reference() {
        let a = gen::values(31, 24, 8);
        let b = gen::values(32, 24, 8);
        let mut m = wide::test_machine(DesignKind::Gmc).unwrap();
        let out = q1_7_mul_pluto(&mut m, &a, &b).unwrap();
        assert_eq!(out, qmul_reference(7, &a, &b));
    }

    #[test]
    fn pluto_q1_15_matches_reference() {
        let a = gen::values(41, 10, 16);
        let b = gen::values(42, 10, 16);
        let mut m = wide::test_machine(DesignKind::Gmc).unwrap();
        let out = q1_15_mul_pluto(&mut m, &a, &b).unwrap();
        assert_eq!(out, qmul_reference(15, &a, &b));
    }

    #[test]
    fn qmul_edge_cases() {
        let edge: Vec<u64> = vec![0x00, 0x7F, 0x80, 0xFF, 0x01];
        let mut m = wide::test_machine(DesignKind::Bsa).unwrap();
        for &x in &edge {
            for &y in &edge {
                let out = q1_7_mul_pluto(&mut m, &[x], &[y]).unwrap();
                assert_eq!(out, qmul_reference(7, &[x], &[y]), "{x:#x} * {y:#x}");
            }
        }
    }
}

// --- Pluggable scenarios ------------------------------------------------

use crate::gen;
use pluto_baselines::WorkloadId;
use pluto_core::session::{self, Session, Workload};

/// The LUT-based vector addition workload (Fig. 9 ADD4/ADD8) as a
/// pluggable [`Workload`] scenario. ADD8 composes two 4-bit LUT adds via
/// nibble planes; ADD4 is a single query.
#[derive(Debug)]
pub struct AddWorkload {
    id: WorkloadId,
    bits: u32,
    a: Vec<u64>,
    b: Vec<u64>,
}

impl AddWorkload {
    /// A scenario for `bits`-wide addition (4 or 8) over one measurement
    /// batch.
    ///
    /// # Panics
    /// Panics on widths other than 4 or 8.
    pub fn new(bits: u32) -> Self {
        AddWorkload::with_batch(bits, crate::MEASURE_BATCH_ELEMS)
    }

    /// A scenario over a batch of `elems` element pairs. Batches larger
    /// than one measurement row split into row-sized [`Workload::shards`]
    /// for cluster fan-out.
    ///
    /// # Panics
    /// Panics on widths other than 4 or 8.
    pub fn with_batch(bits: u32, elems: usize) -> Self {
        let id = match bits {
            4 => WorkloadId::Add4,
            8 => WorkloadId::Add8,
            _ => panic!("AddWorkload supports 4- and 8-bit adds, not {bits}"),
        };
        AddWorkload {
            id,
            bits,
            a: gen::values(11, elems, bits),
            b: gen::values(12, elems, bits),
        }
    }
}

impl Workload for AddWorkload {
    fn id(&self) -> &'static str {
        self.id.label()
    }

    fn run_pluto(&mut self, sess: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let m = sess.machine_mut();
        let out = if self.bits == 4 {
            add4_pluto(m, &self.a, &self.b)?
        } else {
            let pa = Planes::from_values(&self.a, 2);
            let pb = Planes::from_values(&self.b, 2);
            wide::add(m, &pa, &pb, false)?.to_values()
        };
        Ok(session::encode_words(&out))
    }

    fn run_reference(&self) -> Vec<u8> {
        let expect: Vec<u64> = if self.bits == 4 {
            add4_reference(&self.a, &self.b)
        } else {
            self.a
                .iter()
                .zip(&self.b)
                .map(|(&x, &y)| (x + y) & 0xFF)
                .collect()
        };
        session::encode_words(&expect)
    }

    fn input_bytes(&self) -> f64 {
        (self.a.len() as f64) * self.bits as f64 / 8.0 * 2.0
    }

    fn min_subarrays(&self) -> u16 {
        64
    }

    fn shards(&self) -> Vec<Box<dyn Workload>> {
        let chunk = crate::MEASURE_BATCH_ELEMS;
        self.a
            .chunks(chunk)
            .zip(self.b.chunks(chunk))
            .map(|(ca, cb)| {
                Box::new(AddWorkload {
                    id: self.id,
                    bits: self.bits,
                    a: ca.to_vec(),
                    b: cb.to_vec(),
                }) as Box<dyn Workload>
            })
            .collect()
    }
}

/// The fixed-point multiply workload (Fig. 9 MUL8/MUL16 = Fig. 12b
/// Q1.7/Q1.15) as a pluggable [`Workload`] scenario.
#[derive(Debug)]
pub struct QMulWorkload {
    id: WorkloadId,
    frac_bits: u32,
    a: Vec<u64>,
    b: Vec<u64>,
}

impl QMulWorkload {
    /// A scenario for the Q1.`frac_bits` multiply (7 or 15) over one
    /// measurement batch.
    ///
    /// # Panics
    /// Panics on fractional widths other than 7 or 15.
    pub fn new(frac_bits: u32) -> Self {
        // 64 16-bit elements keep the Q1.15 batch run time level with
        // the 8-bit workloads.
        let elems = if frac_bits == 7 {
            crate::MEASURE_BATCH_ELEMS
        } else {
            64
        };
        QMulWorkload::with_batch(frac_bits, elems)
    }

    /// A scenario over a batch of `elems` operand pairs; oversize batches
    /// split into measurement-sized [`Workload::shards`].
    ///
    /// # Panics
    /// Panics on fractional widths other than 7 or 15.
    pub fn with_batch(frac_bits: u32, elems: usize) -> Self {
        let id = match frac_bits {
            7 => WorkloadId::Mul8,
            15 => WorkloadId::Mul16,
            _ => panic!("QMulWorkload supports Q1.7 and Q1.15, not Q1.{frac_bits}"),
        };
        let (a, b) = if frac_bits == 7 {
            (gen::values(13, elems, 8), gen::values(14, elems, 8))
        } else {
            (gen::values(15, elems, 16), gen::values(16, elems, 16))
        };
        QMulWorkload {
            id,
            frac_bits,
            a,
            b,
        }
    }

    /// Natural shard granularity: one measurement batch.
    fn shard_elems(&self) -> usize {
        if self.frac_bits == 7 {
            crate::MEASURE_BATCH_ELEMS
        } else {
            64
        }
    }
}

impl Workload for QMulWorkload {
    fn id(&self) -> &'static str {
        self.id.label()
    }

    fn run_pluto(&mut self, sess: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let m = sess.machine_mut();
        let out = if self.frac_bits == 7 {
            q1_7_mul_pluto(m, &self.a, &self.b)?
        } else {
            q1_15_mul_pluto(m, &self.a, &self.b)?
        };
        Ok(session::encode_words(&out))
    }

    fn run_reference(&self) -> Vec<u8> {
        session::encode_words(&qmul_reference(self.frac_bits, &self.a, &self.b))
    }

    fn input_bytes(&self) -> f64 {
        (self.a.len() * if self.frac_bits == 7 { 2 } else { 4 }) as f64
    }

    fn min_subarrays(&self) -> u16 {
        64
    }

    fn shards(&self) -> Vec<Box<dyn Workload>> {
        let chunk = self.shard_elems();
        self.a
            .chunks(chunk)
            .zip(self.b.chunks(chunk))
            .map(|(ca, cb)| {
                Box::new(QMulWorkload {
                    id: self.id,
                    frac_bits: self.frac_bits,
                    a: ca.to_vec(),
                    b: cb.to_vec(),
                }) as Box<dyn Workload>
            })
            .collect()
    }
}
