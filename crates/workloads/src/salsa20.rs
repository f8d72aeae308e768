//! Salsa20 stream cipher (paper Table 4: 512-byte packets).
//!
//! **Reference**: the full Salsa20/20 core from Bernstein's specification
//! (quarter-round → row-round/column-round → double-round ×10, feed-forward
//! add), plus keystream encryption of packets.
//!
//! **pLUTo mapping**: the core's three primitive operations — 32-bit
//! modular addition, XOR, and fixed-distance rotation — run on nibble
//! planes via [`crate::wide`]: additions as ripple-carry 4-bit LUT adds,
//! XORs as paired-nibble LUT queries, rotations as plane renaming plus an
//! 8-bit → 4-bit merge LUT. One simulated run encrypts *all packets in
//! parallel* (one slot per packet/block).

use crate::wide::{self, Planes};
use pluto_core::{PlutoError, PlutoMachine};

/// The Salsa20 rotation constants per quarter-round step.
const ROTATIONS: [u32; 4] = [7, 9, 13, 18];

/// Reference quarter-round (Bernstein's spec §3).
pub fn quarterround(y: [u32; 4]) -> [u32; 4] {
    let z1 = y[1] ^ y[0].wrapping_add(y[3]).rotate_left(ROTATIONS[0]);
    let z2 = y[2] ^ z1.wrapping_add(y[0]).rotate_left(ROTATIONS[1]);
    let z3 = y[3] ^ z2.wrapping_add(z1).rotate_left(ROTATIONS[2]);
    let z0 = y[0] ^ z3.wrapping_add(z2).rotate_left(ROTATIONS[3]);
    [z0, z1, z2, z3]
}

fn rowround(y: [u32; 16]) -> [u32; 16] {
    let mut z = [0u32; 16];
    let idx = [[0, 1, 2, 3], [5, 6, 7, 4], [10, 11, 8, 9], [15, 12, 13, 14]];
    for row in idx {
        let q = quarterround([y[row[0]], y[row[1]], y[row[2]], y[row[3]]]);
        for (k, &i) in row.iter().enumerate() {
            z[i] = q[k];
        }
    }
    z
}

fn columnround(x: [u32; 16]) -> [u32; 16] {
    let mut z = [0u32; 16];
    let idx = [[0, 4, 8, 12], [5, 9, 13, 1], [10, 14, 2, 6], [15, 3, 7, 11]];
    for col in idx {
        let q = quarterround([x[col[0]], x[col[1]], x[col[2]], x[col[3]]]);
        for (k, &i) in col.iter().enumerate() {
            z[i] = q[k];
        }
    }
    z
}

/// Reference Salsa20/20 core: 10 double-rounds plus the feed-forward add.
pub fn salsa20_core(input: [u32; 16]) -> [u32; 16] {
    let mut x = input;
    for _ in 0..10 {
        x = rowround(columnround(x));
    }
    let mut out = [0u32; 16];
    for i in 0..16 {
        out[i] = x[i].wrapping_add(input[i]);
    }
    out
}

/// Builds the Salsa20 initial state for (key, nonce, counter) — 256-bit key
/// variant with the "expand 32-byte k" constants.
pub fn initial_state(key: &[u8; 32], nonce: &[u8; 8], counter: u64) -> [u32; 16] {
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut s = [0u32; 16];
    s[0] = 0x61707865;
    s[5] = 0x3320646e;
    s[10] = 0x79622d32;
    s[15] = 0x6b206574;
    for i in 0..4 {
        s[1 + i] = word(&key[4 * i..]);
        s[11 + i] = word(&key[16 + 4 * i..]);
    }
    s[6] = word(&nonce[0..]);
    s[7] = word(&nonce[4..]);
    s[8] = counter as u32;
    s[9] = (counter >> 32) as u32;
    s
}

/// Reference encryption of one packet (keystream XOR).
pub fn encrypt_reference(key: &[u8; 32], nonce: &[u8; 8], packet: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(packet.len());
    for (block_i, chunk) in packet.chunks(64).enumerate() {
        let ks = salsa20_core(initial_state(key, nonce, block_i as u64));
        for (j, &byte) in chunk.iter().enumerate() {
            let ks_byte = (ks[j / 4] >> (8 * (j % 4))) as u8;
            out.push(byte ^ ks_byte);
        }
    }
    out
}

// ------------------------------------------------------------------
// pLUTo mapping: states as 16 nibble-plane vectors (one slot per block).
// ------------------------------------------------------------------

/// Per-block Salsa20 state vectorized across blocks.
#[derive(Debug, Clone)]
pub struct VectorState {
    /// `words[i]` holds word `i` of every block's state.
    pub words: Vec<Planes>,
}

impl VectorState {
    /// Builds the vector state from per-block scalar states.
    pub fn from_states(states: &[[u32; 16]]) -> Self {
        let words = (0..16)
            .map(|w| {
                let vals: Vec<u64> = states.iter().map(|s| s[w] as u64).collect();
                Planes::from_values(&vals, 8)
            })
            .collect();
        VectorState { words }
    }

    /// Extracts per-block scalar states.
    pub fn to_states(&self) -> Vec<[u32; 16]> {
        let n = self.words[0].len();
        let cols: Vec<Vec<u64>> = self.words.iter().map(Planes::to_values).collect();
        (0..n)
            .map(|i| {
                let mut s = [0u32; 16];
                for w in 0..16 {
                    s[w] = cols[w][i] as u32;
                }
                s
            })
            .collect()
    }
}

fn quarterround_pluto(m: &mut PlutoMachine, y: [&Planes; 4]) -> Result<[Planes; 4], PlutoError> {
    let t = wide::add(m, y[0], y[3], false)?;
    let r = wide::rotl32(m, &t, ROTATIONS[0])?;
    let z1 = wide::xor(m, y[1], &r)?;
    let t = wide::add(m, &z1, y[0], false)?;
    let r = wide::rotl32(m, &t, ROTATIONS[1])?;
    let z2 = wide::xor(m, y[2], &r)?;
    let t = wide::add(m, &z2, &z1, false)?;
    let r = wide::rotl32(m, &t, ROTATIONS[2])?;
    let z3 = wide::xor(m, y[3], &r)?;
    let t = wide::add(m, &z3, &z2, false)?;
    let r = wide::rotl32(m, &t, ROTATIONS[3])?;
    let z0 = wide::xor(m, y[0], &r)?;
    Ok([z0, z1, z2, z3])
}

fn round_pluto(
    m: &mut PlutoMachine,
    state: &mut VectorState,
    groups: [[usize; 4]; 4],
) -> Result<(), PlutoError> {
    for g in groups {
        let q = quarterround_pluto(
            m,
            [
                &state.words[g[0]],
                &state.words[g[1]],
                &state.words[g[2]],
                &state.words[g[3]],
            ],
        )?;
        for (k, &i) in g.iter().enumerate() {
            state.words[i] = q[k].clone();
        }
    }
    Ok(())
}

/// Runs the Salsa20 core on every block in parallel; `double_rounds = 10`
/// is the full Salsa20/20 (reduced-round variants are used by fast tests).
///
/// # Errors
/// Propagates machine errors.
pub fn salsa20_core_pluto(
    m: &mut PlutoMachine,
    states: &[[u32; 16]],
    double_rounds: usize,
) -> Result<Vec<[u32; 16]>, PlutoError> {
    let input = VectorState::from_states(states);
    let mut x = VectorState {
        words: input.words.clone(),
    };
    let columns = [[0, 4, 8, 12], [5, 9, 13, 1], [10, 14, 2, 6], [15, 3, 7, 11]];
    let rows = [[0, 1, 2, 3], [5, 6, 7, 4], [10, 11, 8, 9], [15, 12, 13, 14]];
    for _ in 0..double_rounds {
        round_pluto(m, &mut x, columns)?;
        round_pluto(m, &mut x, rows)?;
    }
    // Feed-forward addition.
    for w in 0..16 {
        x.words[w] = wide::add(m, &x.words[w], &input.words[w], false)?;
    }
    Ok(x.to_states())
}

/// Full pLUTo packet encryption: generates every block's keystream with
/// the in-DRAM core, then XORs it into the packets with nibble-plane LUT
/// queries (the complete Table 4 workload, end to end in memory).
///
/// All packets must share one length that is a multiple of 64 bytes.
///
/// # Errors
/// Propagates machine errors; fails on ragged or non-block-aligned input.
pub fn encrypt_pluto(
    m: &mut PlutoMachine,
    key: &[u8; 32],
    nonce: &[u8; 8],
    packets: &[Vec<u8>],
    double_rounds: usize,
) -> Result<Vec<Vec<u8>>, PlutoError> {
    let Some(len) = packets.first().map(Vec::len) else {
        return Ok(Vec::new());
    };
    if packets.iter().any(|p| p.len() != len) || len % 64 != 0 {
        return Err(PlutoError::LayoutMismatch {
            reason: "packets must share one 64-byte-aligned length".into(),
        });
    }
    let blocks_per_packet = len / 64;
    // One state per (packet, block) pair; all swept in parallel.
    let states: Vec<[u32; 16]> = (0..packets.len() * blocks_per_packet)
        .map(|i| initial_state(key, nonce, (i % blocks_per_packet) as u64))
        .collect();
    let keystream = salsa20_core_pluto(m, &states, double_rounds)?;
    // XOR the keystream into the data, word-plane by word-plane, in DRAM.
    let mut out = vec![vec![0u8; len]; packets.len()];
    for w in 0..16usize {
        let data_words: Vec<u64> = (0..states.len())
            .map(|s| {
                let pkt = s / blocks_per_packet;
                let off = (s % blocks_per_packet) * 64 + w * 4;
                u32::from_le_bytes([
                    packets[pkt][off],
                    packets[pkt][off + 1],
                    packets[pkt][off + 2],
                    packets[pkt][off + 3],
                ]) as u64
            })
            .collect();
        let ks_words: Vec<u64> = keystream.iter().map(|st| st[w] as u64).collect();
        let cipher = wide::xor(
            m,
            &Planes::from_values(&data_words, 8),
            &Planes::from_values(&ks_words, 8),
        )?
        .to_values();
        for (s, &cw) in cipher.iter().enumerate() {
            let pkt = s / blocks_per_packet;
            let off = (s % blocks_per_packet) * 64 + w * 4;
            out[pkt][off..off + 4].copy_from_slice(&(cw as u32).to_le_bytes());
        }
    }
    Ok(out)
}

/// Reference core with a configurable number of double-rounds (for
/// cross-validation against the reduced-round pLUTo runs).
pub fn salsa20_core_reduced(input: [u32; 16], double_rounds: usize) -> [u32; 16] {
    let mut x = input;
    for _ in 0..double_rounds {
        x = rowround(columnround(x));
    }
    let mut out = [0u32; 16];
    for i in 0..16 {
        out[i] = x[i].wrapping_add(input[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pluto_core::DesignKind;

    #[test]
    fn quarterround_spec_vectors() {
        // Test vectors from the Salsa20 specification (Bernstein, §3).
        assert_eq!(quarterround([0, 0, 0, 0]), [0, 0, 0, 0]);
        assert_eq!(
            quarterround([0x00000001, 0, 0, 0]),
            [0x08008145, 0x00000080, 0x00010200, 0x20500000]
        );
        assert_eq!(
            quarterround([0, 0x00000001, 0, 0]),
            [0x88000100, 0x00000001, 0x00000200, 0x00402000]
        );
    }

    #[test]
    fn core_changes_and_feedforward() {
        let s = initial_state(&[7u8; 32], &[1u8; 8], 0);
        let out = salsa20_core(s);
        assert_ne!(out, s);
        // Zero double-rounds: the core is exactly input + input.
        let ff = salsa20_core_reduced(s, 0);
        for i in 0..16 {
            assert_eq!(ff[i], s[i].wrapping_add(s[i]));
        }
    }

    #[test]
    fn encryption_roundtrips() {
        let key = [9u8; 32];
        let nonce = [3u8; 8];
        let pkt: Vec<u8> = (0..100u16).map(|i| (i * 7) as u8).collect();
        let ct = encrypt_reference(&key, &nonce, &pkt);
        assert_ne!(ct, pkt);
        let pt = encrypt_reference(&key, &nonce, &ct);
        assert_eq!(pt, pkt);
    }

    #[test]
    fn pluto_core_matches_reference_one_double_round() {
        // One double-round exercises every op class (add/xor/all four
        // rotation constants); the full 20-round run is covered by the
        // (slower) integration suite.
        let states: Vec<[u32; 16]> = (0..3u32)
            .map(|k| initial_state(&[k as u8; 32], &[5u8; 8], k as u64))
            .collect();
        let mut m = wide::test_machine(DesignKind::Gmc).unwrap();
        let out = salsa20_core_pluto(&mut m, &states, 1).unwrap();
        for (i, s) in states.iter().enumerate() {
            assert_eq!(out[i], salsa20_core_reduced(*s, 1), "block {i}");
        }
    }

    #[test]
    fn pluto_encryption_roundtrips_and_matches_reference_shape() {
        // Reduced-round end-to-end encryption: encrypt-then-encrypt with
        // the same keystream must recover the plaintext, and the keystream
        // must match the reduced-round reference core.
        let key = [5u8; 32];
        let nonce = [2u8; 8];
        let packets = crate::gen::packets(99, 2, 64);
        let mut m = wide::test_machine(DesignKind::Gmc).unwrap();
        let ct = encrypt_pluto(&mut m, &key, &nonce, &packets, 1).unwrap();
        assert_ne!(ct, packets);
        let pt = encrypt_pluto(&mut m, &key, &nonce, &ct, 1).unwrap();
        assert_eq!(pt, packets);
        // Keystream agreement with the reference core.
        let ks = salsa20_core_reduced(initial_state(&key, &nonce, 0), 1);
        let first_word = u32::from_le_bytes([ct[0][0], ct[0][1], ct[0][2], ct[0][3]]);
        let data_word =
            u32::from_le_bytes([packets[0][0], packets[0][1], packets[0][2], packets[0][3]]);
        assert_eq!(first_word, data_word ^ ks[0]);
    }

    #[test]
    fn pluto_encryption_rejects_bad_shapes() {
        let mut m = wide::test_machine(DesignKind::Bsa).unwrap();
        let ragged = vec![vec![0u8; 64], vec![0u8; 128]];
        assert!(encrypt_pluto(&mut m, &[0; 32], &[0; 8], &ragged, 1).is_err());
        let unaligned = vec![vec![0u8; 60]];
        assert!(encrypt_pluto(&mut m, &[0; 32], &[0; 8], &unaligned, 1).is_err());
        assert!(encrypt_pluto(&mut m, &[0; 32], &[0; 8], &[], 1)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn vector_state_roundtrip() {
        let states: Vec<[u32; 16]> = (0..4u32)
            .map(|k| {
                let mut s = [0u32; 16];
                for (w, slot) in s.iter_mut().enumerate() {
                    *slot = k * 131 + w as u32 * 7919;
                }
                s
            })
            .collect();
        let v = VectorState::from_states(&states);
        assert_eq!(v.to_states(), states);
    }
}

// --- Pluggable scenario -------------------------------------------------

use pluto_baselines::WorkloadId;
use pluto_core::session::{Session, Workload};

/// Blocks in one Salsa20 measurement batch.
const MEASURE_BLOCKS: usize = 96;

/// The Salsa20 workload (Table 4) as a pluggable [`Workload`] scenario:
/// the full 10-double-round core over one batch of 64 B blocks.
#[derive(Debug)]
pub struct Salsa20Workload {
    states: Vec<[u32; 16]>,
}

impl Salsa20Workload {
    /// A scenario over the fixed key/nonce/counter schedule.
    pub fn new() -> Self {
        Salsa20Workload {
            states: (0..MEASURE_BLOCKS)
                .map(|i| initial_state(&[7u8; 32], &[1u8; 8], i as u64))
                .collect(),
        }
    }

    fn encode(states: &[[u32; 16]]) -> Vec<u8> {
        let mut out = Vec::with_capacity(states.len() * 64);
        for s in states {
            for w in s {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out
    }
}

impl Default for Salsa20Workload {
    fn default() -> Self {
        Salsa20Workload::new()
    }
}

impl Workload for Salsa20Workload {
    fn id(&self) -> &'static str {
        WorkloadId::Salsa20.label()
    }

    fn run_pluto(&mut self, sess: &mut Session) -> Result<Vec<u8>, PlutoError> {
        let out = salsa20_core_pluto(sess.machine_mut(), &self.states, 10)?;
        Ok(Salsa20Workload::encode(&out))
    }

    fn run_reference(&self) -> Vec<u8> {
        let expect: Vec<[u32; 16]> = self.states.iter().map(|&s| salsa20_core(s)).collect();
        Salsa20Workload::encode(&expect)
    }

    fn input_bytes(&self) -> f64 {
        (self.states.len() * 64) as f64
    }

    fn min_subarrays(&self) -> u16 {
        128
    }
}
