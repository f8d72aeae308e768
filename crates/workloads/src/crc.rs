//! CRC-8 / CRC-16 / CRC-32 over fixed-size packets (paper Table 4:
//! 128-byte packets, polynomial division workloads from Hacker's Delight).
//!
//! **Reference**: bitwise and table-driven implementations of plain
//! (init = 0, non-reflected, no final XOR) CRCs with the standard
//! polynomials 0x07 (CRC-8), 0x1021 (CRC-16/CCITT), 0x04C11DB7 (CRC-32).
//!
//! **pLUTo mapping**: CRC is linear over GF(2), so the CRC of a packet is
//! the XOR of the independent contributions of each byte position:
//! `crc(M) = ⊕_i T_i[M[i]]`, where `T_i` is a 256-entry LUT giving byte
//! `M[i]`'s contribution from position `i`. pLUTo queries `T_i` for *all
//! packets at once* (one slot per packet) and folds the contributions with
//! nibble-wise XOR LUT queries — turning the serial per-byte dependency
//! into `packet_len` bulk queries. The serial remainder the paper mentions
//! (§8.2) is the per-position loop itself.

use crate::wide::Planes;
use pluto_core::lut::catalog;
use pluto_core::{Lut, PlutoError, PlutoMachine};

/// Width-generic plain CRC parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrcSpec {
    /// CRC width in bits (8, 16, or 32).
    pub width: u32,
    /// Generator polynomial (without the implicit leading 1).
    pub poly: u64,
}

impl CrcSpec {
    /// CRC-8 (poly 0x07).
    pub const CRC8: CrcSpec = CrcSpec {
        width: 8,
        poly: 0x07,
    };
    /// CRC-16/CCITT (poly 0x1021).
    pub const CRC16: CrcSpec = CrcSpec {
        width: 16,
        poly: 0x1021,
    };
    /// CRC-32 (poly 0x04C11DB7, non-reflected).
    pub const CRC32: CrcSpec = CrcSpec {
        width: 32,
        poly: 0x04C1_1DB7,
    };

    fn mask(&self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    fn top_bit(&self) -> u64 {
        1u64 << (self.width - 1)
    }
}

/// Bitwise reference CRC of `data`.
pub fn crc_bitwise(spec: CrcSpec, data: &[u8]) -> u64 {
    let mut crc = 0u64;
    for &byte in data {
        crc ^= (byte as u64) << (spec.width - 8);
        for _ in 0..8 {
            crc = if crc & spec.top_bit() != 0 {
                ((crc << 1) ^ spec.poly) & spec.mask()
            } else {
                (crc << 1) & spec.mask()
            };
        }
    }
    crc
}

/// Builds the classic 256-entry byte-update table.
pub fn crc_table(spec: CrcSpec) -> Vec<u64> {
    (0..256u64).map(|b| crc_bitwise(spec, &[b as u8])).collect()
}

/// Table-driven reference CRC (the CPU baseline kernel).
pub fn crc_table_driven(spec: CrcSpec, table: &[u64], data: &[u8]) -> u64 {
    let mut crc = 0u64;
    for &byte in data {
        let idx = ((crc >> (spec.width - 8)) ^ byte as u64) & 0xFF;
        crc = ((crc << 8) ^ table[idx as usize]) & spec.mask();
    }
    crc
}

/// Contribution LUT of byte position `i` in an `len`-byte packet:
/// `T_i[b] = crc(b · x^{8(len−1−i)})`, i.e. the CRC of `b` followed by
/// `len−1−i` zero bytes.
pub fn contribution_table(spec: CrcSpec, len: usize, i: usize) -> Vec<u64> {
    let zeros = len - 1 - i;
    (0..256u64)
        .map(|b| {
            let mut msg = vec![b as u8];
            msg.extend(std::iter::repeat(0u8).take(zeros));
            crc_bitwise(spec, &msg)
        })
        .collect()
}

/// Every position's contribution LUT at once: `contribution_tables(spec,
/// len)[i] == contribution_table(spec, len, i)`. One linear pass instead
/// of a bitwise CRC over `len − i` bytes per position: the last position
/// is the byte-update table, and each earlier one appends a zero byte to
/// the next, `T_i[b] = (T_{i+1}[b] << 8) ⊕ table[top byte of T_{i+1}[b]]`.
pub(crate) fn contribution_tables(spec: CrcSpec, len: usize) -> Vec<Vec<u64>> {
    let byte_table = crc_table(spec);
    let append_zero_byte = |table: &Vec<u64>| {
        let shifted = table.iter().map(|&crc| {
            let top = (crc >> (spec.width - 8)) & 0xFF;
            ((crc << 8) ^ byte_table[top as usize]) & spec.mask()
        });
        Some(shifted.collect())
    };
    let mut tables: Vec<Vec<u64>> =
        std::iter::successors(Some(byte_table.clone()), append_zero_byte)
            .take(len)
            .collect();
    tables.reverse();
    tables
}

/// Computes the CRC of every packet simultaneously on `machine`.
///
/// All packets must share one length. Returns one CRC per packet.
///
/// # Errors
/// Propagates machine errors; fails on empty or ragged packet sets.
pub fn crc_pluto(
    machine: &mut PlutoMachine,
    spec: CrcSpec,
    packets: &[Vec<u8>],
) -> Result<Vec<u64>, PlutoError> {
    let Some(len) = packets.first().map(Vec::len) else {
        return Ok(Vec::new());
    };
    if packets.iter().any(|p| p.len() != len) {
        return Err(PlutoError::LayoutMismatch {
            reason: "packets must share one length".into(),
        });
    }
    let limbs = (spec.width / 4) as usize;
    let n = packets.len();
    let xor4 = catalog::xor(4)?;
    // Accumulator planes start at zero.
    let mut acc = Planes {
        planes: vec![vec![0u64; n]; limbs],
    };
    // One staging buffer for every byte plane (CRC-32 over 100-byte
    // packets reuses it 100 times instead of reallocating).
    let mut bytes: Vec<u64> = Vec::with_capacity(n);
    for (i, table) in contribution_tables(spec, len).iter().enumerate() {
        // Byte i of every packet, as one bulk query input vector.
        bytes.clear();
        bytes.extend(packets.iter().map(|p| p[i] as u64));
        // One nibble-extraction LUT query per plane of the contribution.
        let mut contrib_planes = Vec::with_capacity(limbs);
        for l in 0..limbs {
            let lut = Lut::from_fn(format!("crc{}_pos{}_n{}", spec.width, i, l), 8, 4, |b| {
                (table[b as usize] >> (4 * l)) & 0xF
            })?;
            contrib_planes.push(machine.apply(&lut, &bytes)?.values);
        }
        // Fold into the accumulator with nibble XORs.
        for (acc_plane, contrib) in acc.planes.iter_mut().zip(&contrib_planes) {
            let folded = machine.apply2(&xor4, acc_plane, 4, contrib, 4)?.values;
            *acc_plane = folded;
        }
    }
    Ok(acc.to_values())
}

/// Reference CRCs of a packet batch (CPU baseline semantics).
pub fn crc_reference(spec: CrcSpec, packets: &[Vec<u8>]) -> Vec<u64> {
    let table = crc_table(spec);
    packets
        .iter()
        .map(|p| crc_table_driven(spec, &table, p))
        .collect()
}

/// A machine sized for the CRC working set (position-specific LUTs are
/// ephemeral, so the store cache needs one pair per distinct LUT name —
/// bounded by `packet_len × limbs + 1`).
///
/// # Errors
/// Propagates machine construction errors.
pub fn crc_machine(
    design: pluto_core::DesignKind,
    packet_len: usize,
    width: u32,
) -> Result<PlutoMachine, PlutoError> {
    let lut_pairs = packet_len as u16 * (width / 4) as u16 + 2;
    PlutoMachine::new(
        pluto_dram::DramConfig {
            row_bytes: 128,
            burst_bytes: 16,
            banks: 2,
            subarrays_per_bank: (2 * lut_pairs + 4).max(16),
            rows_per_subarray: 512,
            ..pluto_dram::DramConfig::ddr4_2400()
        },
        design,
    )
}

/// Placeholder re-export so `wide` is visibly the shared substrate.
pub use crate::wide::Planes as CrcPlanes;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use pluto_core::DesignKind;

    #[test]
    fn bitwise_crc8_known_value() {
        // CRC-8 (poly 0x07) of "123456789" is 0xF4 — the standard check
        // value for CRC-8/SMBUS (init 0, no reflection, no final xor).
        assert_eq!(crc_bitwise(CrcSpec::CRC8, b"123456789"), 0xF4);
    }

    #[test]
    fn bitwise_crc16_known_value() {
        // CRC-16/XMODEM (poly 0x1021, init 0): check value 0x31C3.
        assert_eq!(crc_bitwise(CrcSpec::CRC16, b"123456789"), 0x31C3);
    }

    #[test]
    fn table_driven_matches_bitwise() {
        for spec in [CrcSpec::CRC8, CrcSpec::CRC16, CrcSpec::CRC32] {
            let table = crc_table(spec);
            for pkt in gen::packets(11, 8, 32) {
                assert_eq!(
                    crc_table_driven(spec, &table, &pkt),
                    crc_bitwise(spec, &pkt),
                    "width {}",
                    spec.width
                );
            }
        }
    }

    #[test]
    fn crc_linearity_decomposition() {
        // The property the pLUTo mapping relies on: the CRC equals the XOR
        // of per-position contributions.
        for spec in [CrcSpec::CRC8, CrcSpec::CRC16, CrcSpec::CRC32] {
            let pkt = &gen::packets(5, 1, 16)[0];
            let folded = (0..pkt.len()).fold(0u64, |acc, i| {
                acc ^ contribution_table(spec, pkt.len(), i)[pkt[i] as usize]
            });
            assert_eq!(folded, crc_bitwise(spec, pkt), "width {}", spec.width);
        }
    }

    #[test]
    fn one_pass_tables_match_the_per_position_definition() {
        for spec in [CrcSpec::CRC8, CrcSpec::CRC16, CrcSpec::CRC32] {
            for len in [1, 2, 17, 128] {
                let tables = contribution_tables(spec, len);
                assert_eq!(tables.len(), len);
                for (i, table) in tables.iter().enumerate() {
                    assert_eq!(
                        *table,
                        contribution_table(spec, len, i),
                        "width {} len {len} position {i}",
                        spec.width
                    );
                }
            }
        }
    }

    #[test]
    fn pluto_crc8_matches_reference() {
        let packets = gen::packets(21, 24, 8);
        let mut m = crc_machine(DesignKind::Gmc, 8, 8).unwrap();
        let out = crc_pluto(&mut m, CrcSpec::CRC8, &packets).unwrap();
        assert_eq!(out, crc_reference(CrcSpec::CRC8, &packets));
        assert!(m.totals().time > pluto_dram::Picos::ZERO);
    }

    #[test]
    fn pluto_crc16_matches_reference() {
        let packets = gen::packets(22, 16, 6);
        let mut m = crc_machine(DesignKind::Bsa, 6, 16).unwrap();
        let out = crc_pluto(&mut m, CrcSpec::CRC16, &packets).unwrap();
        assert_eq!(out, crc_reference(CrcSpec::CRC16, &packets));
    }

    #[test]
    fn pluto_crc32_matches_reference() {
        let packets = gen::packets(23, 10, 4);
        let mut m = crc_machine(DesignKind::Bsa, 4, 32).unwrap();
        let out = crc_pluto(&mut m, CrcSpec::CRC32, &packets).unwrap();
        assert_eq!(out, crc_reference(CrcSpec::CRC32, &packets));
    }

    #[test]
    fn empty_and_ragged_inputs() {
        let mut m = crc_machine(DesignKind::Bsa, 4, 8).unwrap();
        assert!(crc_pluto(&mut m, CrcSpec::CRC8, &[]).unwrap().is_empty());
        let ragged = vec![vec![1u8, 2], vec![3u8]];
        assert!(crc_pluto(&mut m, CrcSpec::CRC8, &ragged).is_err());
    }
}

// --- Pluggable scenario -------------------------------------------------

use crate::gen;
use pluto_baselines::WorkloadId;
use pluto_core::session::{self, Session, Workload};

/// The CRC workload (Table 4) as a pluggable [`Workload`] scenario: one
/// measurement batch of `spec`-CRCs over 128 B packets.
#[derive(Debug)]
pub struct CrcWorkload {
    id: WorkloadId,
    spec: CrcSpec,
    packets: Vec<Vec<u8>>,
}

/// Packets per CRC shard: one measurement batch. Shards don't go finer —
/// every shard must load its own copy of the 128 position-specific
/// contribution LUTs (just as an independent subarray group would), so
/// sub-batch shards would be dominated by LUT loading rather than
/// queries.
const CRC_SHARD_PACKETS: usize = crate::MEASURE_BATCH_ELEMS;

impl CrcWorkload {
    /// A scenario for `spec` (CRC-8, CRC-16, or CRC-32) over one
    /// measurement batch of 128 B packets.
    ///
    /// # Panics
    /// Panics on CRC widths other than 8, 16, or 32 (the Table 4 set).
    pub fn new(spec: CrcSpec) -> Self {
        CrcWorkload::with_packets(spec, crate::MEASURE_BATCH_ELEMS)
    }

    /// A scenario over `count` packets; batches beyond one measurement
    /// batch split into [`Workload::shards`] of independent packet
    /// groups.
    ///
    /// # Panics
    /// Panics on CRC widths other than 8, 16, or 32 (the Table 4 set).
    pub fn with_packets(spec: CrcSpec, count: usize) -> Self {
        let id = match spec.width {
            8 => WorkloadId::Crc8,
            16 => WorkloadId::Crc16,
            32 => WorkloadId::Crc32,
            w => panic!("CrcWorkload supports CRC-8/16/32, not width {w}"),
        };
        CrcWorkload {
            id,
            spec,
            // The paper dataset: generator seeds are fixed so figure data
            // is bit-stable across runs and sessions.
            packets: gen::packets(0xC0 + spec.width as u64, count, gen::CRC_PACKET_BYTES),
        }
    }
}

impl Workload for CrcWorkload {
    fn id(&self) -> &'static str {
        self.id.label()
    }

    fn run_pluto(&mut self, sess: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let out = crc_pluto(sess.machine_mut(), self.spec, &self.packets)?;
        Ok(session::encode_words(&out))
    }

    fn run_reference(&self) -> Vec<u8> {
        session::encode_words(&crc_reference(self.spec, &self.packets))
    }

    fn input_bytes(&self) -> f64 {
        (self.packets.len() * gen::CRC_PACKET_BYTES) as f64
    }

    fn min_subarrays(&self) -> u16 {
        // One LUT-store subarray pair per position-specific contribution
        // LUT, plus headroom for the scratch/data subarrays.
        let pairs = (gen::CRC_PACKET_BYTES as u16) * (self.spec.width / 4) as u16 + 8;
        2 * pairs + 8
    }

    fn shards(&self) -> Vec<Box<dyn Workload>> {
        self.packets
            .chunks(CRC_SHARD_PACKETS.max(1))
            .map(|chunk| {
                Box::new(CrcWorkload {
                    id: self.id,
                    spec: self.spec,
                    packets: chunk.to_vec(),
                }) as Box<dyn Workload>
            })
            .collect()
    }
}
