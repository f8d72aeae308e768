//! Lookup-table definitions and the bit-level row packing used by pLUTo.
//!
//! A [`Lut`] maps every possible `input_bits`-wide index to an
//! `output_bits`-wide element (paper §4: "a LUT query is a memory read
//! operation that, for a given input value x, returns f(x)"). LUT size is
//! always `2^input_bits` (paper §6.1: "`lut_size` must be a power of two").
//!
//! pLUTo stores data *bit-parallel*: the bits of each element sit in
//! adjacent bitlines, and one DRAM row holds many elements side by side
//! (paper Fig. 2). [`pack_slots`]/[`unpack_slots`] implement that layout:
//! slot *j* of width `slot_bits` occupies bits `[j·slot, (j+1)·slot)` of the
//! row, counted from the most-significant bit of byte 0 — consistent with
//! the whole-row shift semantics of `pluto_dram::array`.

use crate::error::PlutoError;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A lookup table: up to `2^input_bits` elements of `output_bits` bits
/// each. The canonical constructors ([`Lut::from_fn`]/[`Lut::from_table`])
/// tabulate the full `2^input_bits` range (paper §6.1: "`lut_size` must be
/// a power of two"); the `*_len` variants admit truncated tables of
/// arbitrary length for the §5.6 partitioned path, which pads each
/// per-subarray segment back to a power of two.
#[derive(Clone)]
pub struct Lut {
    name: String,
    input_bits: u32,
    output_bits: u32,
    /// Slot-width floor (see [`Lut::with_min_slot_bits`]); 0 = derived.
    min_slot_bits: u32,
    elements: Arc<Vec<u64>>,
}

impl fmt::Debug for Lut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lut")
            .field("name", &self.name)
            .field("input_bits", &self.input_bits)
            .field("output_bits", &self.output_bits)
            .field("slot_bits", &self.slot_bits())
            .field("len", &self.elements.len())
            .finish()
    }
}

/// A LUT's identity is its name, widths, slot floor and every element:
/// the machine's store map and the packed-row cache key on the `Lut`
/// itself, so two tables sharing a name never alias a resident store.
impl PartialEq for Lut {
    fn eq(&self, other: &Self) -> bool {
        self.input_bits == other.input_bits
            && self.output_bits == other.output_bits
            && self.min_slot_bits == other.min_slot_bits
            && self.name == other.name
            // Pointer fast path: clones share one table, so the common
            // same-LUT lookup skips the element scan.
            && (Arc::ptr_eq(&self.elements, &other.elements) || self.elements == other.elements)
    }
}

impl Eq for Lut {}

/// Hashes the cheap part of the identity (name, widths, slot floor,
/// length); equal hashes fall through to [`PartialEq`]'s element compare.
impl Hash for Lut {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.input_bits.hash(state);
        self.output_bits.hash(state);
        self.min_slot_bits.hash(state);
        self.elements.len().hash(state);
    }
}

impl Lut {
    /// Builds a LUT by tabulating `f` over all `2^input_bits` indices.
    ///
    /// # Errors
    /// Fails if widths are zero, exceed 32 bits (paper §5.6: pLUTo is not
    /// suited to large-bit-width queries), or if `f` produces a value wider
    /// than `output_bits`.
    pub fn from_fn<F>(
        name: impl Into<String>,
        input_bits: u32,
        output_bits: u32,
        f: F,
    ) -> Result<Self, PlutoError>
    where
        F: FnMut(u64) -> u64,
    {
        validate_widths(input_bits, output_bits)?;
        Lut::from_fn_len(name, 1usize << input_bits, output_bits, f)
    }

    /// Builds a *truncated* LUT of arbitrary length by tabulating `f` over
    /// `0..len`. `input_bits` is the smallest index width covering `len`
    /// (`ceil(log2 len)`); indices in `len..2^input_bits` are simply
    /// invalid. Truncated LUTs cannot occupy a single pLUTo sweep (§6.1
    /// requires a power-of-two `lut_size`) but partition across subarrays
    /// (§5.6), where the tail segment is padded back to a power of two.
    ///
    /// # Errors
    /// Fails if `len < 2`, the derived index width exceeds the supported
    /// 20 bits, or `f` produces a value wider than `output_bits`.
    pub fn from_fn_len<F>(
        name: impl Into<String>,
        len: usize,
        output_bits: u32,
        mut f: F,
    ) -> Result<Self, PlutoError>
    where
        F: FnMut(u64) -> u64,
    {
        let input_bits = index_bits_for_len(len)?;
        validate_widths(input_bits, output_bits)?;
        let name = name.into();
        let mask = width_mask(output_bits);
        let mut elements = Vec::with_capacity(len);
        for x in 0..len as u64 {
            let y = f(x);
            if y & !mask != 0 {
                return Err(PlutoError::InvalidLut {
                    reason: format!("{name}: f({x}) = {y} exceeds {output_bits} output bits"),
                });
            }
            elements.push(y);
        }
        Ok(Lut {
            name,
            input_bits,
            output_bits,
            min_slot_bits: 0,
            elements: Arc::new(elements),
        })
    }

    /// Builds a *truncated* LUT of arbitrary length from an explicit
    /// element table (see [`Lut::from_fn_len`]).
    ///
    /// # Errors
    /// Fails if the table has fewer than 2 elements, the derived index
    /// width exceeds the supported 20 bits, or any element exceeds
    /// `output_bits`.
    pub fn from_table_len(
        name: impl Into<String>,
        output_bits: u32,
        elements: Vec<u64>,
    ) -> Result<Self, PlutoError> {
        let input_bits = index_bits_for_len(elements.len())?;
        validate_widths(input_bits, output_bits)?;
        let name = name.into();
        let mask = width_mask(output_bits);
        if let Some(bad) = elements.iter().find(|&&e| e & !mask != 0) {
            return Err(PlutoError::InvalidLut {
                reason: format!("{name}: element {bad} exceeds {output_bits} output bits"),
            });
        }
        Ok(Lut {
            name,
            input_bits,
            output_bits,
            min_slot_bits: 0,
            elements: Arc::new(elements),
        })
    }

    /// Pins a *slot-width floor*: [`Lut::slot_bits`] becomes at least
    /// `bits`, so this LUT's rows pack in the layout of a wider table.
    /// The §5.6 partitioned path uses it to store each segment at the
    /// parent LUT's slot width — segment element rows are then
    /// byte-identical to the corresponding rows of the unpartitioned
    /// layout, and row capacity is uniform across segments.
    #[must_use]
    pub fn with_min_slot_bits(mut self, bits: u32) -> Self {
        self.min_slot_bits = bits;
        self
    }

    /// Builds a LUT from an explicit element table.
    ///
    /// # Errors
    /// Fails if `elements.len() != 2^input_bits` or any element exceeds
    /// `output_bits`.
    pub fn from_table(
        name: impl Into<String>,
        input_bits: u32,
        output_bits: u32,
        elements: Vec<u64>,
    ) -> Result<Self, PlutoError> {
        validate_widths(input_bits, output_bits)?;
        let name = name.into();
        if elements.len() != (1usize << input_bits) {
            return Err(PlutoError::InvalidLut {
                reason: format!(
                    "{name}: {} elements provided, expected {}",
                    elements.len(),
                    1usize << input_bits
                ),
            });
        }
        Lut::from_table_len(name, output_bits, elements)
    }

    /// Name used for deduplication and traces.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Index width in bits (`N` in the paper).
    pub fn input_bits(&self) -> u32 {
        self.input_bits
    }

    /// Element width in bits (`M` in the paper).
    pub fn output_bits(&self) -> u32 {
        self.output_bits
    }

    /// Number of elements (`LUT#Elems = 2^N`).
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// A LUT is never empty, but the method is provided for API convention.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Element at `index`.
    ///
    /// # Errors
    /// Fails if `index ≥ 2^input_bits`.
    pub fn element(&self, index: u64) -> Result<u64, PlutoError> {
        self.elements
            .get(index as usize)
            .copied()
            .ok_or(PlutoError::IndexOutOfRange {
                value: index,
                input_bits: self.input_bits,
            })
    }

    /// All elements, in index order.
    pub fn elements(&self) -> &[u64] {
        &self.elements
    }

    /// Slot width used when this LUT's indices and elements share one row
    /// layout: `max(N, M)` (inputs are zero-padded to `lut_bitw ≥ N`,
    /// paper §6.1 footnote), raised to any floor pinned by
    /// [`Lut::with_min_slot_bits`].
    pub fn slot_bits(&self) -> u32 {
        self.input_bits
            .max(self.output_bits)
            .max(self.min_slot_bits)
    }

    /// Whether the slot width itself bounds every representable value to
    /// a valid index: the table is full (`len == 2^input_bits`) and slots
    /// carry no spare bits (`slot_bits == input_bits`). When this holds,
    /// unpacking a resident input row at the slot width *cannot* produce
    /// an out-of-range index, so resident-path queries skip the per-query
    /// linear range scan entirely.
    pub fn slot_width_bounds_inputs(&self) -> bool {
        self.slot_bits() == self.input_bits && self.len() == 1usize << self.input_bits
    }

    /// Applies the LUT in software (reference semantics for validation).
    ///
    /// # Errors
    /// Fails if any input is out of range.
    pub fn apply_all(&self, inputs: &[u64]) -> Result<Vec<u64>, PlutoError> {
        inputs.iter().map(|&x| self.element(x)).collect()
    }
}

/// The smallest index width covering a table of `len` elements.
fn index_bits_for_len(len: usize) -> Result<u32, PlutoError> {
    if len < 2 {
        return Err(PlutoError::InvalidLut {
            reason: format!("a LUT needs at least 2 elements, got {len}"),
        });
    }
    Ok((len - 1).ilog2() + 1)
}

fn validate_widths(input_bits: u32, output_bits: u32) -> Result<(), PlutoError> {
    if input_bits == 0 || input_bits > 20 {
        return Err(PlutoError::InvalidLut {
            reason: format!("input width {input_bits} out of supported range 1..=20"),
        });
    }
    if output_bits == 0 || output_bits > 32 {
        return Err(PlutoError::InvalidLut {
            reason: format!("output width {output_bits} out of supported range 1..=32"),
        });
    }
    Ok(())
}

/// All-ones mask of the lowest `bits` bits.
pub fn width_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Packs `values` into a row of `row_bytes` bytes, `slot_bits` per slot,
/// MSB-first (slot 0 in the high bits of byte 0).
///
/// This is the word-parallel implementation: a streaming 64-bit
/// shift/mask accumulator appends each slot in O(1) amortized word
/// operations and emits every output byte exactly once — no per-bit loop
/// and no read-modify-write. [`pack_slots_scalar`] is the retained
/// bit-serial reference; the two are asserted bit-identical by the
/// differential test suite, and `benches/query.rs` gates the word path at
/// ≥ 2× the scalar throughput.
///
/// # Errors
/// Fails if the values do not fit in the row or any value exceeds the slot
/// width.
pub fn pack_slots(values: &[u64], slot_bits: u32, row_bytes: usize) -> Result<Vec<u8>, PlutoError> {
    let mut row = Vec::new();
    pack_slots_into(values, slot_bits, row_bytes, &mut row)?;
    Ok(row)
}

/// [`pack_slots`] into a caller-owned buffer (cleared and refilled), so
/// query streams can reuse one scratch row instead of reallocating.
///
/// # Errors
/// Same conditions as [`pack_slots`].
pub fn pack_slots_into(
    values: &[u64],
    slot_bits: u32,
    row_bytes: usize,
    row: &mut Vec<u8>,
) -> Result<(), PlutoError> {
    let capacity = (row_bytes * 8) / slot_bits as usize;
    if values.len() > capacity {
        return Err(PlutoError::LayoutMismatch {
            reason: format!(
                "{} values of {} bits exceed row capacity {}",
                values.len(),
                slot_bits,
                capacity
            ),
        });
    }
    if slot_bits > ACCUMULATOR_MAX_BITS {
        // Slots wider than the 64-bit accumulator can hold alongside its
        // carry bits (LUT widths are capped far below this; only hand-built
        // programs can reach it) take the bit-serial path.
        *row = pack_slots_scalar(values, slot_bits, row_bytes)?;
        return Ok(());
    }
    let mask = width_mask(slot_bits);
    row.clear();
    row.resize(row_bytes, 0);
    // Streaming big-endian bit accumulator: `acc` holds `pending` not-yet-
    // emitted bits in its low end. With at most 7 bits pending before each
    // append, `pending + slot_bits` stays within 64 for every slot width up
    // to `ACCUMULATOR_MAX_BITS`.
    let mut acc: u64 = 0;
    let mut pending: u32 = 0;
    let mut at = 0usize;
    for &v in values {
        if v & !mask != 0 {
            return Err(PlutoError::LayoutMismatch {
                reason: format!("value {v} exceeds {slot_bits}-bit slot"),
            });
        }
        acc = (acc << slot_bits) | v;
        pending += slot_bits;
        while pending >= 8 {
            pending -= 8;
            row[at] = (acc >> pending) as u8;
            at += 1;
        }
    }
    if pending > 0 {
        // Left-align the final partial byte (the rest of the row is zero).
        row[at] = ((acc << (8 - pending)) & 0xFF) as u8;
    }
    Ok(())
}

/// Unpacks `count` slots of `slot_bits` bits from a row (inverse of
/// [`pack_slots`]). Word-parallel: the same streaming 64-bit shift/mask
/// accumulator as [`pack_slots`], reading each row byte exactly once;
/// [`unpack_slots_scalar`] is the retained bit-serial reference.
pub fn unpack_slots(row: &[u8], slot_bits: u32, count: usize) -> Vec<u64> {
    let mut out = Vec::new();
    unpack_slots_into(row, slot_bits, count, &mut out);
    out
}

/// Widest slot the streaming accumulator supports: the same 57-bit bound
/// as [`pluto_dram::MAX_FIELD_BITS`] — a field plus the up to 7 carry
/// bits of a byte-aligned stream fill a 64-bit word exactly.
const ACCUMULATOR_MAX_BITS: u32 = pluto_dram::MAX_FIELD_BITS;

/// [`unpack_slots`] into a caller-owned buffer (cleared and refilled).
pub fn unpack_slots_into(row: &[u8], slot_bits: u32, count: usize, out: &mut Vec<u64>) {
    if slot_bits > ACCUMULATOR_MAX_BITS {
        *out = unpack_slots_scalar(row, slot_bits, count);
        return;
    }
    out.clear();
    out.reserve(count);
    let mask = width_mask(slot_bits);
    let mut acc: u64 = 0;
    let mut pending: u32 = 0;
    let mut at = 0usize;
    for _ in 0..count {
        while pending < slot_bits {
            acc = (acc << 8) | u64::from(row[at]);
            at += 1;
            pending += 8;
        }
        pending -= slot_bits;
        out.push((acc >> pending) & mask);
    }
}

/// Bit-serial reference implementation of [`pack_slots`], retained so the
/// differential suite (and the packing microbench guard) can compare the
/// word-parallel path against the original slot semantics.
///
/// # Errors
/// Same conditions as [`pack_slots`].
pub fn pack_slots_scalar(
    values: &[u64],
    slot_bits: u32,
    row_bytes: usize,
) -> Result<Vec<u8>, PlutoError> {
    let capacity = (row_bytes * 8) / slot_bits as usize;
    if values.len() > capacity {
        return Err(PlutoError::LayoutMismatch {
            reason: format!(
                "{} values of {} bits exceed row capacity {}",
                values.len(),
                slot_bits,
                capacity
            ),
        });
    }
    let mask = width_mask(slot_bits);
    let mut row = vec![0u8; row_bytes];
    for (j, &v) in values.iter().enumerate() {
        if v & !mask != 0 {
            return Err(PlutoError::LayoutMismatch {
                reason: format!("value {v} exceeds {slot_bits}-bit slot"),
            });
        }
        let base = j * slot_bits as usize;
        for b in 0..slot_bits as usize {
            let bit = (v >> (slot_bits as usize - 1 - b)) & 1;
            if bit != 0 {
                let pos = base + b;
                row[pos / 8] |= 1 << (7 - (pos % 8));
            }
        }
    }
    Ok(row)
}

/// Bit-serial reference implementation of [`unpack_slots`] (see
/// [`pack_slots_scalar`]).
pub fn unpack_slots_scalar(row: &[u8], slot_bits: u32, count: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(count);
    for j in 0..count {
        let base = j * slot_bits as usize;
        let mut v = 0u64;
        for b in 0..slot_bits as usize {
            let pos = base + b;
            let bit = (row[pos / 8] >> (7 - (pos % 8))) & 1;
            v = (v << 1) | bit as u64;
        }
        out.push(v);
    }
    out
}

/// Number of slots of `slot_bits` bits that fit in a row of `row_bytes`.
pub fn slots_per_row(row_bytes: usize, slot_bits: u32) -> usize {
    (row_bytes * 8) / slot_bits as usize
}

/// Commonly used LUTs from the paper's workloads.
pub mod catalog {
    use super::Lut;
    use crate::error::PlutoError;

    /// `n`-bit + `n`-bit addition LUT: index is the concatenation
    /// `(a << n) | b`, element is the `(n+1)`-bit sum (paper §6.2's
    /// `add4_lut` pattern).
    pub fn add(n: u32) -> Result<Lut, PlutoError> {
        Lut::from_fn(format!("add{n}"), 2 * n, n + 1, move |x| {
            let a = x >> n;
            let b = x & ((1 << n) - 1);
            a + b
        })
    }

    /// `n`-bit × `n`-bit multiplication LUT producing `2n` bits.
    pub fn mul(n: u32) -> Result<Lut, PlutoError> {
        Lut::from_fn(format!("mul{n}"), 2 * n, 2 * n, move |x| {
            let a = x >> n;
            let b = x & ((1 << n) - 1);
            a * b
        })
    }

    /// Population count of an `n`-bit value (paper's BC-4 / BC-8).
    pub fn popcount(n: u32) -> Result<Lut, PlutoError> {
        let out_bits = 32 - n.leading_zeros().min(31);
        Lut::from_fn(format!("bc{n}"), n, out_bits.max(1) + 1, move |x| {
            x.count_ones() as u64
        })
    }

    /// Bitwise NOT of an `n`-bit value.
    pub fn not(n: u32) -> Result<Lut, PlutoError> {
        let mask = (1u64 << n) - 1;
        Lut::from_fn(format!("not{n}"), n, n, move |x| !x & mask)
    }

    /// Paired-operand bitwise op: index is `(a << n) | b`.
    fn paired(
        name: &str,
        n: u32,
        f: impl Fn(u64, u64) -> u64 + 'static,
    ) -> Result<Lut, PlutoError> {
        let mask = (1u64 << n) - 1;
        Lut::from_fn(format!("{name}{n}"), 2 * n, n, move |x| {
            f(x >> n, x & mask) & mask
        })
    }

    /// Bitwise AND over paired `n`-bit operands.
    pub fn and(n: u32) -> Result<Lut, PlutoError> {
        paired("and", n, |a, b| a & b)
    }

    /// Bitwise OR over paired `n`-bit operands.
    pub fn or(n: u32) -> Result<Lut, PlutoError> {
        paired("or", n, |a, b| a | b)
    }

    /// Bitwise XOR over paired `n`-bit operands.
    pub fn xor(n: u32) -> Result<Lut, PlutoError> {
        paired("xor", n, |a, b| a ^ b)
    }

    /// Bitwise XNOR over paired `n`-bit operands.
    pub fn xnor(n: u32) -> Result<Lut, PlutoError> {
        paired("xnor", n, |a, b| !(a ^ b))
    }

    /// 8-bit threshold binarization: 255 if `x ≥ threshold` else 0
    /// (paper's ImgBin workload).
    pub fn binarize(threshold: u8) -> Result<Lut, PlutoError> {
        Lut::from_fn(format!("imgbin{threshold}"), 8, 8, move |x| {
            if x >= threshold as u64 {
                255
            } else {
                0
            }
        })
    }

    /// 8-bit exponentiation LUT `x ↦ min(x², 255)`-style saturating square,
    /// standing in for the paper's "8-bit exponentiation" Table 6 row.
    pub fn exp8() -> Result<Lut, PlutoError> {
        Lut::from_fn("exp8", 8, 8, |x| {
            // e^(x/32) scaled into 8 bits, saturating — a deterministic
            // transcendental map of the kind prior PuM cannot execute.
            let v = ((x as f64 / 32.0).exp()).round() as u64;
            v.min(255)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_lut_matches_paper_example() {
        // Paper Fig. 3: LUT of the first four primes; query [1,0,1,3]
        // returns [3,2,3,7].
        let lut = Lut::from_table("primes", 2, 4, vec![2, 3, 5, 7]).unwrap();
        let out = lut.apply_all(&[1, 0, 1, 3]).unwrap();
        assert_eq!(out, vec![3, 2, 3, 7]);
    }

    #[test]
    fn from_fn_tabulates_every_index() {
        let lut = Lut::from_fn("sq", 4, 8, |x| x * x).unwrap();
        assert_eq!(lut.len(), 16);
        assert_eq!(lut.element(15).unwrap(), 225);
    }

    #[test]
    fn from_fn_rejects_wide_outputs() {
        assert!(matches!(
            Lut::from_fn("bad", 4, 4, |x| x * x),
            Err(PlutoError::InvalidLut { .. })
        ));
    }

    #[test]
    fn from_table_validates_length_and_widths() {
        assert!(Lut::from_table("bad", 2, 4, vec![1, 2, 3]).is_err());
        assert!(Lut::from_table("bad", 2, 2, vec![1, 2, 3, 9]).is_err());
        assert!(Lut::from_table("bad", 0, 2, vec![]).is_err());
        assert!(Lut::from_table("bad", 2, 0, vec![0, 0, 0, 0]).is_err());
        assert!(Lut::from_table("bad", 21, 2, vec![]).is_err());
    }

    #[test]
    fn element_out_of_range() {
        let lut = Lut::from_table("t", 2, 4, vec![1, 2, 3, 4]).unwrap();
        assert!(matches!(
            lut.element(4),
            Err(PlutoError::IndexOutOfRange { value: 4, .. })
        ));
    }

    #[test]
    fn slot_bits_is_max_of_widths() {
        let lut = Lut::from_table("t", 2, 4, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(lut.slot_bits(), 4);
        let lut = Lut::from_fn("wide-in", 8, 4, |_| 0).unwrap();
        assert_eq!(lut.slot_bits(), 8);
    }

    #[test]
    fn pack_unpack_roundtrip_8bit() {
        let vals = vec![0xAB, 0x00, 0xFF, 0x12];
        let row = pack_slots(&vals, 8, 8).unwrap();
        assert_eq!(&row[..4], &[0xAB, 0x00, 0xFF, 0x12]);
        assert_eq!(unpack_slots(&row, 8, 4), vals);
    }

    #[test]
    fn pack_unpack_roundtrip_odd_widths() {
        for slot_bits in [1u32, 2, 3, 4, 5, 7, 11, 16] {
            let mask = width_mask(slot_bits);
            let vals: Vec<u64> = (0..10u64).map(|i| (i * 0x9E37) & mask).collect();
            let row = pack_slots(&vals, slot_bits, 32).unwrap();
            assert_eq!(
                unpack_slots(&row, slot_bits, vals.len()),
                vals,
                "w={slot_bits}"
            );
        }
    }

    #[test]
    fn pack_4bit_nibble_order_is_msb_first() {
        let row = pack_slots(&[0xA, 0xB], 4, 2).unwrap();
        assert_eq!(row[0], 0xAB);
    }

    #[test]
    fn pack_rejects_overflow_and_capacity() {
        assert!(pack_slots(&[16], 4, 4).is_err());
        assert!(pack_slots(&vec![1u64; 100], 8, 8).is_err());
        assert!(pack_slots_scalar(&[16], 4, 4).is_err());
        assert!(pack_slots_scalar(&vec![1u64; 100], 8, 8).is_err());
    }

    #[test]
    fn word_parallel_pack_unpack_match_scalar_reference() {
        for slot_bits in [1u32, 2, 3, 5, 7, 8, 11, 12, 13, 16, 20, 32] {
            let mask = width_mask(slot_bits);
            let row_bytes = 64;
            let capacity = slots_per_row(row_bytes, slot_bits);
            let vals: Vec<u64> = (0..capacity as u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & mask)
                .collect();
            let word = pack_slots(&vals, slot_bits, row_bytes).unwrap();
            let scalar = pack_slots_scalar(&vals, slot_bits, row_bytes).unwrap();
            assert_eq!(word, scalar, "pack w={slot_bits}");
            assert_eq!(
                unpack_slots(&word, slot_bits, capacity),
                unpack_slots_scalar(&word, slot_bits, capacity),
                "unpack w={slot_bits}"
            );
        }
    }

    #[test]
    fn pack_unpack_into_reuse_buffers() {
        let mut row = vec![0xEEu8; 3];
        pack_slots_into(&[0xA, 0xB], 4, 1, &mut row).unwrap();
        assert_eq!(row, vec![0xAB]);
        let mut out = vec![99u64; 5];
        unpack_slots_into(&row, 4, 2, &mut out);
        assert_eq!(out, vec![0xA, 0xB]);
    }

    #[test]
    fn slots_per_row_math() {
        assert_eq!(slots_per_row(8192, 8), 8192);
        assert_eq!(slots_per_row(8192, 4), 16384);
        assert_eq!(slots_per_row(8192, 16), 4096);
        assert_eq!(slots_per_row(8192, 12), 5461);
    }

    #[test]
    fn catalog_add_and_mul() {
        let add = catalog::add(4).unwrap();
        assert_eq!(add.element((9 << 4) | 7).unwrap(), 16);
        assert_eq!(add.len(), 256);
        let mul = catalog::mul(4).unwrap();
        assert_eq!(mul.element((9 << 4) | 7).unwrap(), 63);
    }

    #[test]
    fn catalog_popcount() {
        let bc4 = catalog::popcount(4).unwrap();
        assert_eq!(bc4.len(), 16);
        assert_eq!(bc4.element(0b1111).unwrap(), 4);
        let bc8 = catalog::popcount(8).unwrap();
        assert_eq!(bc8.len(), 256);
        assert_eq!(bc8.element(0xFF).unwrap(), 8);
    }

    #[test]
    fn catalog_bitwise() {
        let and = catalog::and(4).unwrap();
        assert_eq!(and.element((0b1100 << 4) | 0b1010).unwrap(), 0b1000);
        let or = catalog::or(4).unwrap();
        assert_eq!(or.element((0b1100 << 4) | 0b1010).unwrap(), 0b1110);
        let xor = catalog::xor(4).unwrap();
        assert_eq!(xor.element((0b1100 << 4) | 0b1010).unwrap(), 0b0110);
        let xnor = catalog::xnor(4).unwrap();
        assert_eq!(xnor.element((0b1100 << 4) | 0b1010).unwrap(), 0b1001);
        let not = catalog::not(8).unwrap();
        assert_eq!(not.element(0xF0).unwrap(), 0x0F);
    }

    #[test]
    fn catalog_binarize() {
        let lut = catalog::binarize(128).unwrap();
        assert_eq!(lut.element(127).unwrap(), 0);
        assert_eq!(lut.element(128).unwrap(), 255);
        assert_eq!(lut.element(255).unwrap(), 255);
    }

    #[test]
    fn catalog_exp8_is_saturating_and_monotone() {
        let lut = catalog::exp8().unwrap();
        let e = lut.elements();
        assert!(e.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*e.last().unwrap(), 255);
    }

    #[test]
    fn truncated_luts_cover_arbitrary_lengths() {
        let lut = Lut::from_fn_len("sq640", 640, 32, |x| x * x).unwrap();
        assert_eq!(lut.len(), 640);
        assert_eq!(lut.input_bits(), 10, "ceil(log2 640)");
        assert_eq!(lut.element(639).unwrap(), 639 * 639);
        assert!(matches!(
            lut.element(640),
            Err(PlutoError::IndexOutOfRange { value: 640, .. })
        ));
        let t = Lut::from_table_len("t", 4, vec![1, 2, 3]).unwrap();
        assert_eq!(t.input_bits(), 2);
        assert_eq!(t.len(), 3);
        // Exact powers of two derive the same width as the strict form.
        let p = Lut::from_fn_len("p", 16, 5, |x| x).unwrap();
        assert_eq!(p.input_bits(), 4);
        // Degenerate and invalid shapes rejected.
        assert!(Lut::from_table_len("bad", 4, vec![7]).is_err());
        assert!(Lut::from_table_len("bad", 2, vec![1, 9]).is_err());
        assert!(Lut::from_fn_len("bad", 3, 1, |x| x).is_err());
    }

    #[test]
    fn min_slot_bits_floors_the_layout_width() {
        let lut = Lut::from_table("t", 2, 4, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(lut.slot_bits(), 4);
        let wide = lut.clone().with_min_slot_bits(12);
        assert_eq!(wide.slot_bits(), 12);
        assert_eq!(wide.output_bits(), 4, "logical width unchanged");
        // A floor below the derived width is inert.
        assert_eq!(lut.clone().with_min_slot_bits(2).slot_bits(), 4);
        // The floor is part of layout identity.
        assert_ne!(lut, wide);
        // Packed rows follow the floored width: 12-bit slots, MSB-first.
        let row = pack_slots(&[1, 2], wide.slot_bits(), 3).unwrap();
        assert_eq!(row, vec![0x00, 0x10, 0x02]);
    }

    #[test]
    fn slot_width_bounds_inputs_requires_full_table_and_tight_slots() {
        // 12→8: slots are 12-bit, table is full — every slot value is a
        // valid index.
        let gamma = Lut::from_fn("g12", 12, 8, |x| x & 0xFF).unwrap();
        assert!(gamma.slot_width_bounds_inputs());
        // 8→16: 16-bit slots can hold indices ≥ 256.
        let wide = Lut::from_fn("w8", 8, 16, |x| x).unwrap();
        assert!(!wide.slot_width_bounds_inputs());
        // Truncated table: slot values in the hole are invalid.
        let odd = Lut::from_fn_len("odd", 650, 8, |x| x & 0xFF).unwrap();
        assert!(!odd.slot_width_bounds_inputs());
        // A raised slot floor reopens the range.
        let floored = gamma.clone().with_min_slot_bits(14);
        assert!(!floored.slot_width_bounds_inputs());
    }

    #[test]
    fn luts_with_same_contents_compare_equal() {
        let a = catalog::add(4).unwrap();
        let b = catalog::add(4).unwrap();
        assert_eq!(a, b);
        let c = catalog::mul(4).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn hash_set_identity_is_name_shape_and_contents() {
        use std::collections::HashSet;
        let base = Lut::from_fn("tone", 8, 8, |x| x).unwrap();
        let mut set = HashSet::new();
        assert!(set.insert(base.clone()));
        // A clone and an equal table rebuilt from scratch are one entry.
        assert!(!set.insert(base.clone()));
        assert!(!set.insert(Lut::from_fn("tone", 8, 8, |x| x).unwrap()));
        assert_eq!(set.len(), 1);
        // Each identity field on its own opens a new entry.
        let renamed = Lut::from_fn("tone2", 8, 8, |x| x).unwrap();
        let one_element = Lut::from_fn("tone", 8, 8, |x| if x == 200 { 7 } else { x }).unwrap();
        let wider_output = Lut::from_fn("tone", 8, 9, |x| x).unwrap();
        let slot_floor = base.clone().with_min_slot_bits(12);
        for (i, lut) in [renamed, one_element, wider_output, slot_floor]
            .into_iter()
            .enumerate()
        {
            assert!(set.insert(lut), "variant {i} aliased an existing entry");
        }
        assert_eq!(set.len(), 5);
    }
}
