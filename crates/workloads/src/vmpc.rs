//! VMPC one-way function over packets (paper Table 4: 512-byte packets).
//!
//! Zoltak's VMPC function transforms a value through a fixed 256-byte
//! permutation `P` three times with an increment in between:
//! `Q[x] = P[(P[P[x]] + 1) mod 256]`. It is designed to be hard to invert
//! and is the core of the VMPC stream cipher family. On a CPU this is
//! three dependent, cache-hostile table lookups per byte; on pLUTo it is
//! three chained bulk LUT queries plus one increment LUT — the archetypal
//! "complex operation as memory reads" workload.

use pluto_core::{Lut, PlutoError, PlutoMachine};
use sim_support::{Rng, SeedableRng, StdRng};

/// A 256-byte permutation (the VMPC `P` table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation(pub [u8; 256]);

impl Permutation {
    /// Derives a permutation from a key via a deterministic Fisher–Yates
    /// shuffle (standing in for the VMPC KSA, which likewise produces a
    /// key-dependent permutation).
    pub fn from_key(key: u64) -> Self {
        let mut p: Vec<u8> = (0..=255).collect();
        let mut rng = StdRng::seed_from_u64(key);
        for i in (1..256).rev() {
            let j = rng.gen_range(0..=i);
            p.swap(i, j);
        }
        let mut arr = [0u8; 256];
        arr.copy_from_slice(&p);
        Permutation(arr)
    }

    /// Applies the VMPC one-way function to a single byte.
    pub fn vmpc(&self, x: u8) -> u8 {
        let p = &self.0;
        p[(p[p[x as usize] as usize] as usize + 1) % 256]
    }
}

/// Reference transformation of a packet batch.
pub fn vmpc_reference(perm: &Permutation, packets: &[Vec<u8>]) -> Vec<Vec<u8>> {
    packets
        .iter()
        .map(|p| p.iter().map(|&b| perm.vmpc(b)).collect())
        .collect()
}

/// pLUTo transformation: three chained 256-entry permutation queries plus
/// one increment LUT, applied to every packet byte in bulk.
///
/// # Errors
/// Propagates machine errors.
pub fn vmpc_pluto(
    machine: &mut PlutoMachine,
    perm: &Permutation,
    packets: &[Vec<u8>],
) -> Result<Vec<Vec<u8>>, PlutoError> {
    let p_lut = Lut::from_table("vmpc_p", 8, 8, perm.0.iter().map(|&b| b as u64).collect())?;
    let inc = Lut::from_fn("inc8", 8, 8, |x| (x + 1) & 0xFF)?;
    let flat: Vec<u64> = packets
        .iter()
        .flat_map(|p| p.iter().map(|&b| b as u64))
        .collect();
    let s1 = machine.apply(&p_lut, &flat)?.values;
    let s2 = machine.apply(&p_lut, &s1)?.values;
    let s3 = machine.apply(&inc, &s2)?.values;
    let s4 = machine.apply(&p_lut, &s3)?.values;
    // Re-chunk into packets.
    let mut out = Vec::with_capacity(packets.len());
    let mut cursor = 0usize;
    for p in packets {
        out.push(
            s4[cursor..cursor + p.len()]
                .iter()
                .map(|&v| v as u8)
                .collect(),
        );
        cursor += p.len();
    }
    Ok(out)
}

/// Composes the full function into one LUT (the memoized alternative the
/// paper's §6.5 "first-time generation" path enables).
pub fn composed_lut(perm: &Permutation) -> Result<Lut, PlutoError> {
    Lut::from_fn("vmpc_q", 8, 8, |x| perm.vmpc(x as u8) as u64)
}

/// pLUTo transformation via the composed single LUT: one query per batch.
///
/// # Errors
/// Propagates machine errors.
pub fn vmpc_pluto_composed(
    machine: &mut PlutoMachine,
    perm: &Permutation,
    packets: &[Vec<u8>],
) -> Result<Vec<Vec<u8>>, PlutoError> {
    let q = composed_lut(perm)?;
    let flat: Vec<u64> = packets
        .iter()
        .flat_map(|p| p.iter().map(|&b| b as u64))
        .collect();
    let out = machine.apply(&q, &flat)?.values;
    let mut res = Vec::with_capacity(packets.len());
    let mut cursor = 0usize;
    for p in packets {
        res.push(
            out[cursor..cursor + p.len()]
                .iter()
                .map(|&v| v as u8)
                .collect(),
        );
        cursor += p.len();
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use pluto_core::{DesignKind, PlutoMachine};
    use pluto_dram::DramConfig;

    fn machine() -> PlutoMachine {
        PlutoMachine::new(
            DramConfig {
                row_bytes: 128,
                burst_bytes: 16,
                banks: 2,
                subarrays_per_bank: 16,
                rows_per_subarray: 512,
                ..DramConfig::ddr4_2400()
            },
            DesignKind::Gmc,
        )
        .unwrap()
    }

    #[test]
    fn permutation_is_a_bijection() {
        let p = Permutation::from_key(99);
        let mut seen = [false; 256];
        for &v in &p.0 {
            assert!(!seen[v as usize], "duplicate {v}");
            seen[v as usize] = true;
        }
    }

    #[test]
    fn vmpc_differs_from_identity_and_p() {
        let p = Permutation::from_key(4);
        let same_as_p = (0..=255u8)
            .filter(|&x| p.vmpc(x) == p.0[x as usize])
            .count();
        assert!(same_as_p < 64, "Q should not collapse to P");
    }

    #[test]
    fn pluto_matches_reference() {
        let perm = Permutation::from_key(1234);
        let packets = gen::packets(77, 5, 64);
        let expect = vmpc_reference(&perm, &packets);
        let mut m = machine();
        let out = vmpc_pluto(&mut m, &perm, &packets).unwrap();
        assert_eq!(out, expect);
        // Chained mapping issues four bulk queries per batch chunk.
        assert!(m.totals().calls >= 4);
    }

    #[test]
    fn composed_lut_is_equivalent_but_fewer_queries() {
        let perm = Permutation::from_key(5);
        let packets = gen::packets(3, 4, 32);
        let expect = vmpc_reference(&perm, &packets);
        let mut m = machine();
        let chained_calls_before = m.totals().calls;
        vmpc_pluto(&mut m, &perm, &packets).unwrap();
        let chained_calls = m.totals().calls - chained_calls_before;
        let mut m2 = machine();
        let out = vmpc_pluto_composed(&mut m2, &perm, &packets).unwrap();
        assert_eq!(out, expect);
        assert!(m2.totals().calls < chained_calls);
    }
}

// --- Pluggable scenario -------------------------------------------------

use crate::gen;
use pluto_baselines::WorkloadId;
use pluto_core::session::{self, Session, Workload};

/// The VMPC workload (Table 4) as a pluggable [`Workload`] scenario: the
/// one-way function over one measurement packet.
#[derive(Debug)]
pub struct VmpcWorkload {
    perm: Permutation,
    packets: Vec<Vec<u8>>,
}

impl VmpcWorkload {
    /// A scenario over the fixed-seed key and packet data.
    pub fn new() -> Self {
        VmpcWorkload {
            perm: Permutation::from_key(0xBEEF),
            packets: gen::packets(0x7E, 1, crate::MEASURE_BATCH_ELEMS),
        }
    }
}

impl Default for VmpcWorkload {
    fn default() -> Self {
        VmpcWorkload::new()
    }
}

impl Workload for VmpcWorkload {
    fn id(&self) -> &'static str {
        WorkloadId::Vmpc.label()
    }

    fn run_pluto(&mut self, sess: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let out = vmpc_pluto(sess.machine_mut(), &self.perm, &self.packets)?;
        Ok(session::encode_packets(&out))
    }

    fn run_reference(&self) -> Vec<u8> {
        session::encode_packets(&vmpc_reference(&self.perm, &self.packets))
    }

    fn input_bytes(&self) -> f64 {
        crate::MEASURE_BATCH_ELEMS as f64
    }
}
