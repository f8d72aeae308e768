//! Bit-accurate functional model of the DRAM array.
//!
//! Storage is sparse: only touched subarrays/rows are materialized, so the
//! full 8 GB module can be simulated without allocating 8 GB. A missing row
//! reads as all-zeros (freshly initialized DRAM).
//!
//! Storage is copy-on-write at two levels. Each row is an `Arc`'d byte
//! buffer, and each subarray's row table (its vector of row handles) sits
//! behind one more `Arc`, so a LUT load shares a whole cached
//! [`RowTable`] into a subarray as a single handle and dropping the array
//! releases one handle per subarray, not one per row. Every write
//! reaches a row table through one `Arc::make_mut` helper, so no write
//! can land in a table another subarray (or the caller) still holds. Row
//! buffers and open-row state sit outside the shared table, so
//! activations never copy it.
//!
//! This module is *purely functional*: it models what data ends up where,
//! with no notion of time or energy (that is [`crate::engine`]'s job).

use crate::error::DramError;
use crate::geometry::{BankId, DramConfig, RowId, RowLoc, SubarrayId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// The local row buffer (sense amplifiers) of one subarray.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBuffer {
    /// Latched data. Only meaningful while `open_row` is `Some` or after a
    /// LISA movement deposited data (`latched` true).
    pub data: Vec<u8>,
    /// The row whose wordline is currently asserted, if any.
    pub open_row: Option<RowId>,
    /// Whether `data` holds valid latched contents (an open row, or data
    /// deposited by a LISA-RBM into a precharged subarray's buffer).
    pub latched: bool,
}

impl RowBuffer {
    fn new(row_bytes: usize) -> Self {
        RowBuffer {
            data: vec![0; row_bytes],
            open_row: None,
            latched: false,
        }
    }
}

/// Row handles of one subarray: a dense, lazily grown vector indexed by
/// row id (`None` = never written, reads as zeros). A row is replaced, or
/// written through `Arc::get_mut` when this table is its sole owner.
type RowSlots = Vec<Option<Arc<Vec<u8>>>>;

/// A whole subarray's worth of rows behind one `Arc`, every row exactly
/// `row_bytes` wide: what a LUT load shares into DRAM.
/// [`MemoryArray::set_rows_shared`] installs it into an empty subarray
/// as one handle, so a load costs O(1) per subarray instead of one row
/// handle per row. The width is checked once, when the table is built.
#[derive(Debug, Clone)]
pub struct RowTable {
    row_bytes: usize,
    rows: Arc<RowSlots>,
}

impl RowTable {
    /// Builds a table whose row `i` is `rows[i]`.
    ///
    /// # Errors
    /// Fails if a row is not exactly `row_bytes` wide.
    pub fn new(
        row_bytes: usize,
        rows: impl IntoIterator<Item = Arc<Vec<u8>>>,
    ) -> Result<Self, DramError> {
        let rows: RowSlots = rows.into_iter().map(Some).collect();
        if let Some(bad) = rows.iter().flatten().find(|row| row.len() != row_bytes) {
            return Err(DramError::RowSizeMismatch {
                expected: row_bytes,
                actual: bad.len(),
            });
        }
        Ok(RowTable {
            row_bytes,
            rows: Arc::new(rows),
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Holders of this table's storage: every `RowTable` clone plus every
    /// subarray that holds it whole.
    pub fn share_count(&self) -> usize {
        Arc::strong_count(&self.rows)
    }
}

#[derive(Debug, Clone, Default)]
struct SubarrayState {
    /// Shared with every subarray (and packed-row cache entry) the same
    /// table was loaded into; written only through `table_mut`.
    rows: Arc<RowSlots>,
    buffer: Option<RowBuffer>,
}

impl SubarrayState {
    fn row_ref(&self, row: RowId) -> Option<&Arc<Vec<u8>>> {
        self.rows.get(row.0 as usize).and_then(Option::as_ref)
    }

    /// The (growable) slot for a row; bounds must already be checked.
    fn row_slot(&mut self, row: RowId) -> &mut Option<Arc<Vec<u8>>> {
        let idx = row.0 as usize;
        &mut table_mut(&mut self.rows, idx + 1)[idx]
    }
}

/// The one write path into a row table: copies the table first if any
/// other subarray or [`RowTable`] still holds it, then grows it to at
/// least `len` slots.
fn table_mut(rows: &mut Arc<RowSlots>, len: usize) -> &mut RowSlots {
    let rows = Arc::make_mut(rows);
    if rows.len() < len {
        rows.resize(len, None);
    }
    rows
}

/// Stores `data` into a row slot, reusing the existing allocation when
/// this array is the sole owner of the row (the copy-on-write fast path).
fn store_bytes(slot: &mut Option<Arc<Vec<u8>>>, data: &[u8]) {
    if let Some(arc) = slot {
        if let Some(v) = Arc::get_mut(arc) {
            v.clear();
            v.extend_from_slice(data);
            return;
        }
    }
    *slot = Some(Arc::new(data.to_vec()));
}

/// Sparse functional storage for the whole module.
#[derive(Debug, Clone)]
pub struct MemoryArray {
    cfg: DramConfig,
    subarrays: HashMap<(BankId, SubarrayId), SubarrayState>,
}

impl MemoryArray {
    /// Creates an all-zeros array for the given geometry.
    pub fn new(cfg: DramConfig) -> Self {
        MemoryArray {
            cfg,
            subarrays: HashMap::new(),
        }
    }

    /// The configuration this array was built for.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn check(&self, loc: RowLoc) -> Result<(), DramError> {
        if self.cfg.contains(loc) {
            Ok(())
        } else {
            Err(DramError::OutOfBounds { loc })
        }
    }

    fn sa(&mut self, bank: BankId, subarray: SubarrayId) -> &mut SubarrayState {
        self.subarrays.entry((bank, subarray)).or_default()
    }

    fn buffer_mut(&mut self, bank: BankId, subarray: SubarrayId) -> &mut RowBuffer {
        let row_bytes = self.cfg.row_bytes;
        self.sa(bank, subarray)
            .buffer
            .get_or_insert_with(|| RowBuffer::new(row_bytes))
    }

    /// Reads a row's stored contents (zeros if never written).
    pub fn row(&self, loc: RowLoc) -> Result<Vec<u8>, DramError> {
        self.check(loc)?;
        Ok(self
            .subarrays
            .get(&(loc.bank, loc.subarray))
            .and_then(|sa| sa.row_ref(loc.row))
            .map(|arc| arc.as_ref().clone())
            .unwrap_or_else(|| vec![0; self.cfg.row_bytes]))
    }

    /// Reads a row's stored contents into a caller-owned buffer (cleared
    /// and refilled), avoiding the per-read allocation of
    /// [`MemoryArray::row`] — the hot-path variant the word-parallel query
    /// engine uses.
    ///
    /// # Errors
    /// Fails if `loc` is out of bounds.
    pub fn read_row_into(&self, loc: RowLoc, out: &mut Vec<u8>) -> Result<(), DramError> {
        self.check(loc)?;
        out.clear();
        match self
            .subarrays
            .get(&(loc.bank, loc.subarray))
            .and_then(|sa| sa.row_ref(loc.row))
        {
            Some(data) => out.extend_from_slice(data),
            None => out.resize(self.cfg.row_bytes, 0),
        }
        Ok(())
    }

    /// Overwrites a row's stored contents directly (no row-buffer effects).
    ///
    /// # Errors
    /// Fails if `loc` is out of bounds or `data` is not exactly one row.
    pub fn set_row(&mut self, loc: RowLoc, data: &[u8]) -> Result<(), DramError> {
        self.check(loc)?;
        if data.len() != self.cfg.row_bytes {
            return Err(DramError::RowSizeMismatch {
                expected: self.cfg.row_bytes,
                actual: data.len(),
            });
        }
        store_bytes(self.sa(loc.bank, loc.subarray).row_slot(loc.row), data);
        Ok(())
    }

    /// Bulk zero-cost row fill from a shared table: row `first + i` of the
    /// subarray becomes `table`'s row `i`. At row 0 of a subarray that
    /// holds no row yet, the subarray takes the whole table as one handle;
    /// if it already holds this very table, nothing changes. Otherwise
    /// the rows are written one handle at a time, skipping slots that
    /// already hold the same row. Either way no row bytes are copied.
    ///
    /// # Errors
    /// Fails if the row range is out of bounds or the table's rows are not
    /// exactly one row wide; nothing is written then.
    pub fn set_rows_shared(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        first: RowId,
        table: &RowTable,
    ) -> Result<(), DramError> {
        let Some(count) = check_row_range(self, bank, subarray, first, table.len())? else {
            return Ok(());
        };
        if table.row_bytes != self.cfg.row_bytes {
            return Err(DramError::RowSizeMismatch {
                expected: self.cfg.row_bytes,
                actual: table.row_bytes,
            });
        }
        let whole = first.0 == 0;
        let sa = match self.subarrays.entry((bank, subarray)) {
            Entry::Vacant(slot) if whole => {
                slot.insert(SubarrayState {
                    rows: Arc::clone(&table.rows),
                    buffer: None,
                });
                return Ok(());
            }
            entry => entry.or_default(),
        };
        if whole && (Arc::ptr_eq(&sa.rows, &table.rows) || sa.rows.is_empty()) {
            sa.rows = Arc::clone(&table.rows);
            return Ok(());
        }
        let base = first.0 as usize;
        let rows = table_mut(&mut sa.rows, base + count);
        for (slot, data) in rows[base..base + count].iter_mut().zip(table.rows.iter()) {
            match (slot.as_ref(), data) {
                (Some(existing), Some(data)) if Arc::ptr_eq(existing, data) => {}
                _ => slot.clone_from(data),
            }
        }
        Ok(())
    }

    /// Bulk functional row copy between two subarrays of one bank: row
    /// `to_first + i` becomes a shared handle to row `from_first + i`
    /// (missing source rows clear the destination slot — both read as
    /// zeros). Copy-on-write keeps the two subarrays independent.
    ///
    /// # Errors
    /// Fails if either row range is out of bounds.
    pub fn copy_rows(
        &mut self,
        bank: BankId,
        from: SubarrayId,
        from_first: RowId,
        to: SubarrayId,
        to_first: RowId,
        count: usize,
    ) -> Result<(), DramError> {
        if check_row_range(self, bank, from, from_first, count)?.is_none()
            || check_row_range(self, bank, to, to_first, count)?.is_none()
        {
            return Ok(());
        }
        let handles: Vec<Option<Arc<Vec<u8>>>> = {
            let src = self.subarrays.get(&(bank, from));
            (0..count)
                .map(|i| {
                    src.and_then(|sa| sa.row_ref(RowId(from_first.0 + i as u16)))
                        .cloned()
                })
                .collect()
        };
        let base = to_first.0 as usize;
        let rows = table_mut(&mut self.sa(bank, to).rows, base + count);
        for (slot, handle) in rows[base..base + count].iter_mut().zip(handles) {
            *slot = handle;
        }
        Ok(())
    }

    /// Bulk functional row clear: rows `first .. first + count` of the
    /// subarray revert to the never-written state (read as zeros). A clear
    /// that covers every stored row swaps in an empty table, so clearing
    /// a shared table (GSA destroying a freshly loaded segment) never
    /// copies it first.
    ///
    /// # Errors
    /// Fails if the row range is out of bounds.
    pub fn clear_rows(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        first: RowId,
        count: usize,
    ) -> Result<(), DramError> {
        let Some(count) = check_row_range(self, bank, subarray, first, count)? else {
            return Ok(());
        };
        let Some(sa) = self.subarrays.get_mut(&(bank, subarray)) else {
            return Ok(());
        };
        let first = first.0 as usize;
        let end = (first + count).min(sa.rows.len());
        if first == 0 && end == sa.rows.len() {
            match Arc::get_mut(&mut sa.rows) {
                Some(rows) => rows.clear(),
                None => sa.rows = Arc::default(),
            }
        } else if first < end {
            table_mut(&mut sa.rows, 0)[first..end].fill(None);
        }
        Ok(())
    }

    /// Returns the row buffer of a subarray, if it has ever been used.
    pub fn buffer(&self, bank: BankId, subarray: SubarrayId) -> Option<&RowBuffer> {
        self.subarrays
            .get(&(bank, subarray))
            .and_then(|sa| sa.buffer.as_ref())
    }

    /// Row currently open in a subarray (if any).
    pub fn open_row(&self, bank: BankId, subarray: SubarrayId) -> Option<RowId> {
        self.buffer(bank, subarray).and_then(|b| b.open_row)
    }

    /// Functional ACT: latch `loc`'s contents into the local row buffer.
    ///
    /// `allow_back_to_back` permits activating while another row is open in
    /// the same subarray — required for RowClone-FPM's second activation and
    /// for pLUTo sweep steps, which are exempt from the one-open-row rule.
    ///
    /// # Errors
    /// Fails if out of bounds, or if a row is already open and
    /// `allow_back_to_back` is false.
    pub fn activate(&mut self, loc: RowLoc, allow_back_to_back: bool) -> Result<(), DramError> {
        self.check(loc)?;
        let row_bytes = self.cfg.row_bytes;
        // Split-borrow the subarray so the row read can fill the buffer in
        // place: a row sweep activates once per LUT row, so the fresh
        // `Vec` per activation this used to allocate multiplied into
        // `lut_len` heap round-trips per query.
        let sa = self.sa(loc.bank, loc.subarray);
        let SubarrayState { rows, buffer } = sa;
        let buf = buffer.get_or_insert_with(|| RowBuffer::new(row_bytes));
        if buf.open_row.is_some() && !allow_back_to_back {
            return Err(DramError::RowAlreadyOpen {
                bank: loc.bank,
                subarray: loc.subarray,
            });
        }
        match rows.get(loc.row.0 as usize).and_then(Option::as_ref) {
            Some(data) => buf.data.clone_from(data.as_ref()),
            None => {
                buf.data.clear();
                buf.data.resize(row_bytes, 0);
            }
        }
        buf.open_row = Some(loc.row);
        buf.latched = true;
        Ok(())
    }

    /// Functional back-to-back activation used by RowClone-FPM: asserts the
    /// destination wordline while the buffer still drives the source data,
    /// so the *buffer contents overwrite the destination row*.
    ///
    /// # Errors
    /// Fails if no row is open in the subarray.
    pub fn activate_into(&mut self, loc: RowLoc) -> Result<(), DramError> {
        self.check(loc)?;
        let buf = self
            .subarrays
            .get(&(loc.bank, loc.subarray))
            .and_then(|sa| sa.buffer.as_ref());
        let Some(buf) = buf else {
            return Err(DramError::NoOpenRow {
                bank: loc.bank,
                subarray: loc.subarray,
            });
        };
        if !buf.latched {
            return Err(DramError::NoOpenRow {
                bank: loc.bank,
                subarray: loc.subarray,
            });
        }
        let data = buf.data.clone();
        *self.sa(loc.bank, loc.subarray).row_slot(loc.row) = Some(Arc::new(data));
        let buf = self.buffer_mut(loc.bank, loc.subarray);
        buf.open_row = Some(loc.row);
        Ok(())
    }

    /// Functional PRE: close the open row (buffer contents become stale).
    pub fn precharge(&mut self, bank: BankId, subarray: SubarrayId) {
        if let Some(sa) = self.subarrays.get_mut(&(bank, subarray)) {
            if let Some(buf) = sa.buffer.as_mut() {
                buf.open_row = None;
                buf.latched = false;
            }
        }
    }

    /// Writes bytes into the open row buffer at `offset`, write-through to
    /// the open row (cells stay connected while the wordline is asserted).
    ///
    /// # Errors
    /// Fails if no row is open.
    pub fn write_buffer(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        offset: usize,
        data: &[u8],
    ) -> Result<(), DramError> {
        let row_bytes = self.cfg.row_bytes;
        let open = self.open_row(bank, subarray);
        let Some(open) = open else {
            return Err(DramError::NoOpenRow { bank, subarray });
        };
        if offset + data.len() > row_bytes {
            return Err(DramError::RowSizeMismatch {
                expected: row_bytes,
                actual: offset + data.len(),
            });
        }
        let buf = self.buffer_mut(bank, subarray);
        buf.data[offset..offset + data.len()].copy_from_slice(data);
        let snapshot = buf.data.clone();
        *self.sa(bank, subarray).row_slot(open) = Some(Arc::new(snapshot));
        Ok(())
    }

    /// Deposits data directly into a subarray's row buffer, marking it
    /// latched without opening a row. Models a pLUTo FF buffer (or gated
    /// sense amplifiers) holding query results ready for a LISA movement.
    pub fn deposit_buffer(&mut self, bank: BankId, subarray: SubarrayId, data: &[u8]) {
        let buf = self.buffer_mut(bank, subarray);
        buf.data.clear();
        buf.data.extend_from_slice(data);
        buf.open_row = None;
        buf.latched = true;
    }

    /// LISA-RBM: deposit `from`'s latched buffer into `to`'s buffer. If `to`
    /// has an open row, the data writes through into that row.
    ///
    /// # Errors
    /// Fails if `from == to`, or `from` has no latched buffer contents.
    pub fn lisa_rbm(
        &mut self,
        bank: BankId,
        from: SubarrayId,
        to: SubarrayId,
    ) -> Result<(), DramError> {
        if from == to {
            return Err(DramError::InvalidLisa { bank, from, to });
        }
        // Borrow the source data by temporarily taking it, so the copy
        // into the destination buffer (and its write-through row) reuses
        // existing capacity: GSA pays one LISA hop per LUT row per query,
        // so the buffer clones this used to make were a per-query
        // `2 × lut_len` allocation storm.
        let mut src = match self.subarrays.get_mut(&(bank, from)) {
            Some(sa) if sa.buffer.as_ref().is_some_and(|b| b.latched) => {
                std::mem::take(&mut sa.buffer.as_mut().expect("checked above").data)
            }
            _ => {
                return Err(DramError::NoOpenRow {
                    bank,
                    subarray: from,
                })
            }
        };
        let dst = self.buffer_mut(bank, to);
        dst.data.clone_from(&src);
        dst.latched = true;
        if let Some(open) = dst.open_row {
            let SubarrayState { rows, buffer } = self.sa(bank, to);
            let data = &buffer.as_ref().expect("buffer created above").data;
            let idx = open.0 as usize;
            store_bytes(&mut table_mut(rows, idx + 1)[idx], data);
        }
        // Hand the (unchanged) source data back to its buffer.
        std::mem::swap(
            &mut self
                .sa(bank, from)
                .buffer
                .as_mut()
                .expect("source buffer existed")
                .data,
            &mut src,
        );
        Ok(())
    }

    /// Ambit triple-row activation: rows (and the buffer) settle to the
    /// bitwise majority of the three rows' contents.
    ///
    /// # Errors
    /// Fails if any row is out of bounds.
    pub fn triple_row_activate(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        rows: [RowId; 3],
    ) -> Result<(), DramError> {
        let locs = rows.map(|r| RowLoc {
            bank,
            subarray,
            row: r,
        });
        for l in locs {
            self.check(l)?;
        }
        let a = self.row(locs[0])?;
        let b = self.row(locs[1])?;
        let c = self.row(locs[2])?;
        let maj: Vec<u8> = a
            .iter()
            .zip(&b)
            .zip(&c)
            .map(|((&x, &y), &z)| (x & y) | (y & z) | (x & z))
            .collect();
        let shared = Arc::new(maj.clone());
        for l in locs {
            *self.sa(bank, subarray).row_slot(l.row) = Some(Arc::clone(&shared));
        }
        let buf = self.buffer_mut(bank, subarray);
        buf.data = maj;
        buf.open_row = Some(rows[0]);
        buf.latched = true;
        Ok(())
    }

    /// DRISA-style whole-row bit shift. The row is treated as one long
    /// big-endian bit string (byte 0 holds the most significant bits);
    /// "left" moves bits toward byte 0. Vacated bits fill with zeros.
    ///
    /// # Errors
    /// Fails if `loc` is out of bounds.
    pub fn shift_row_bits(
        &mut self,
        loc: RowLoc,
        left: bool,
        amount: u32,
    ) -> Result<(), DramError> {
        self.check(loc)?;
        let data = self.row(loc)?;
        let shifted = shift_bits(&data, left, amount);
        *self.sa(loc.bank, loc.subarray).row_slot(loc.row) = Some(Arc::new(shifted));
        Ok(())
    }
}

/// Validates a `count`-row range starting at `first` within one
/// subarray; `Ok(None)` means the range is empty (nothing to do).
fn check_row_range(
    arr: &MemoryArray,
    bank: BankId,
    subarray: SubarrayId,
    first: RowId,
    count: usize,
) -> Result<Option<usize>, DramError> {
    if count == 0 {
        return Ok(None);
    }
    let first_loc = RowLoc {
        bank,
        subarray,
        row: first,
    };
    let last = first.0 as usize + count - 1;
    if last > u16::MAX as usize {
        return Err(DramError::OutOfBounds { loc: first_loc });
    }
    arr.check(first_loc)?;
    arr.check(RowLoc {
        bank,
        subarray,
        row: RowId(last as u16),
    })?;
    Ok(Some(count))
}

/// Widest bit field a 64-bit window load can extract from a row: an
/// unaligned field starting up to 7 bits into its window must still fit
/// in 64 bits. `pluto-core`'s slot packer streams rows through a 64-bit
/// accumulator under the same bound.
pub const MAX_FIELD_BITS: u32 = 57;

/// Shifts a byte slice as one long big-endian bit string.
pub(crate) fn shift_bits(data: &[u8], left: bool, amount: u32) -> Vec<u8> {
    let n = data.len();
    let byte_shift = (amount / 8) as usize;
    let bit_shift = amount % 8;
    let mut out = vec![0u8; n];
    if byte_shift >= n {
        return out;
    }
    if left {
        for i in 0..n - byte_shift {
            let hi = data[i + byte_shift] << bit_shift;
            let lo = if bit_shift > 0 && i + byte_shift + 1 < n {
                data[i + byte_shift + 1] >> (8 - bit_shift)
            } else {
                0
            };
            out[i] = hi | lo;
        }
    } else {
        for i in byte_shift..n {
            let lo = data[i - byte_shift] >> bit_shift;
            let hi = if bit_shift > 0 && i - byte_shift >= 1 {
                data[i - byte_shift - 1] << (8 - bit_shift)
            } else {
                0
            };
            out[i] = hi | lo;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> DramConfig {
        DramConfig {
            row_bytes: 8,
            burst_bytes: 4,
            banks: 2,
            subarrays_per_bank: 4,
            rows_per_subarray: 16,
            ..DramConfig::ddr4_2400()
        }
    }

    #[test]
    fn rows_default_to_zero() {
        let arr = MemoryArray::new(tiny_cfg());
        assert_eq!(arr.row(RowLoc::new(0, 0, 0)).unwrap(), vec![0; 8]);
    }

    #[test]
    fn activate_latches_row() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let loc = RowLoc::new(0, 1, 2);
        arr.set_row(loc, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        arr.activate(loc, false).unwrap();
        let buf = arr.buffer(loc.bank, loc.subarray).unwrap();
        assert_eq!(buf.data, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(buf.open_row, Some(RowId(2)));
    }

    #[test]
    fn second_activate_rejected_unless_back_to_back() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let loc = RowLoc::new(0, 0, 0);
        arr.activate(loc, false).unwrap();
        assert!(matches!(
            arr.activate(loc.with_row(1), false),
            Err(DramError::RowAlreadyOpen { .. })
        ));
        arr.activate(loc.with_row(1), true).unwrap();
    }

    #[test]
    fn rowclone_semantics_via_activate_into() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let src = RowLoc::new(0, 0, 3);
        let dst = src.with_row(5);
        arr.set_row(src, &[9; 8]).unwrap();
        arr.activate(src, false).unwrap();
        arr.activate_into(dst).unwrap();
        arr.precharge(src.bank, src.subarray);
        assert_eq!(arr.row(dst).unwrap(), vec![9; 8]);
        assert_eq!(arr.row(src).unwrap(), vec![9; 8], "source preserved");
    }

    #[test]
    fn activate_into_requires_latched_buffer() {
        let mut arr = MemoryArray::new(tiny_cfg());
        assert!(matches!(
            arr.activate_into(RowLoc::new(0, 0, 1)),
            Err(DramError::NoOpenRow { .. })
        ));
    }

    #[test]
    fn write_buffer_writes_through_to_open_row() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let loc = RowLoc::new(1, 0, 0);
        arr.activate(loc, false).unwrap();
        arr.write_buffer(loc.bank, loc.subarray, 2, &[0xAA, 0xBB])
            .unwrap();
        arr.precharge(loc.bank, loc.subarray);
        let row = arr.row(loc).unwrap();
        assert_eq!(&row[2..4], &[0xAA, 0xBB]);
    }

    #[test]
    fn write_buffer_requires_open_row_and_bounds() {
        let mut arr = MemoryArray::new(tiny_cfg());
        assert!(matches!(
            arr.write_buffer(BankId(0), SubarrayId(0), 0, &[1]),
            Err(DramError::NoOpenRow { .. })
        ));
        let loc = RowLoc::new(0, 0, 0);
        arr.activate(loc, false).unwrap();
        assert!(matches!(
            arr.write_buffer(BankId(0), SubarrayId(0), 6, &[1, 2, 3]),
            Err(DramError::RowSizeMismatch { .. })
        ));
    }

    #[test]
    fn lisa_moves_buffer_and_writes_through() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let src = RowLoc::new(0, 0, 1);
        let dst = RowLoc::new(0, 2, 7);
        arr.set_row(src, &[7; 8]).unwrap();
        arr.activate(dst, false).unwrap(); // open destination row first
        arr.activate(src, false).unwrap();
        arr.lisa_rbm(src.bank, src.subarray, dst.subarray).unwrap();
        arr.precharge(dst.bank, dst.subarray);
        assert_eq!(arr.row(dst).unwrap(), vec![7; 8]);
    }

    #[test]
    fn lisa_rejects_same_subarray_and_unlatched_source() {
        let mut arr = MemoryArray::new(tiny_cfg());
        assert!(matches!(
            arr.lisa_rbm(BankId(0), SubarrayId(1), SubarrayId(1)),
            Err(DramError::InvalidLisa { .. })
        ));
        assert!(matches!(
            arr.lisa_rbm(BankId(0), SubarrayId(0), SubarrayId(1)),
            Err(DramError::NoOpenRow { .. })
        ));
    }

    #[test]
    fn tra_computes_majority_into_all_three_rows() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let b = BankId(0);
        let s = SubarrayId(0);
        arr.set_row(RowLoc::new(0, 0, 0), &[0b1100; 8]).unwrap();
        arr.set_row(RowLoc::new(0, 0, 1), &[0b1010; 8]).unwrap();
        arr.set_row(RowLoc::new(0, 0, 2), &[0b0110; 8]).unwrap();
        arr.triple_row_activate(b, s, [RowId(0), RowId(1), RowId(2)])
            .unwrap();
        let expect = vec![0b1110u8; 8];
        for r in 0..3 {
            assert_eq!(arr.row(RowLoc::new(0, 0, r)).unwrap(), expect);
        }
        assert_eq!(arr.buffer(b, s).unwrap().data, expect);
    }

    #[test]
    fn tra_with_zeros_row_is_and_with_ones_row_is_or() {
        // MAJ(a, b, 0) = a AND b; MAJ(a, b, 1) = a OR b (Ambit's trick).
        let mut arr = MemoryArray::new(tiny_cfg());
        arr.set_row(RowLoc::new(0, 0, 0), &[0b1100; 8]).unwrap();
        arr.set_row(RowLoc::new(0, 0, 1), &[0b1010; 8]).unwrap();
        arr.set_row(RowLoc::new(0, 0, 2), &[0x00; 8]).unwrap();
        arr.triple_row_activate(BankId(0), SubarrayId(0), [RowId(0), RowId(1), RowId(2)])
            .unwrap();
        assert_eq!(arr.row(RowLoc::new(0, 0, 0)).unwrap(), vec![0b1000u8; 8]);

        let mut arr = MemoryArray::new(tiny_cfg());
        arr.set_row(RowLoc::new(0, 0, 0), &[0b1100; 8]).unwrap();
        arr.set_row(RowLoc::new(0, 0, 1), &[0b1010; 8]).unwrap();
        arr.set_row(RowLoc::new(0, 0, 2), &[0xFF; 8]).unwrap();
        arr.triple_row_activate(BankId(0), SubarrayId(0), [RowId(0), RowId(1), RowId(2)])
            .unwrap();
        assert_eq!(arr.row(RowLoc::new(0, 0, 0)).unwrap(), vec![0b1110u8; 8]);
    }

    #[test]
    fn bit_shift_left_crosses_byte_boundaries() {
        let v = shift_bits(&[0b0000_0001, 0b1000_0000], true, 1);
        assert_eq!(v, vec![0b0000_0011, 0b0000_0000]);
        let v = shift_bits(&[0xAB, 0xCD], true, 8);
        assert_eq!(v, vec![0xCD, 0x00]);
        let v = shift_bits(&[0xAB, 0xCD], true, 16);
        assert_eq!(v, vec![0, 0]);
    }

    #[test]
    fn bit_shift_right_crosses_byte_boundaries() {
        let v = shift_bits(&[0b0000_0011, 0b0000_0000], false, 1);
        assert_eq!(v, vec![0b0000_0001, 0b1000_0000]);
        let v = shift_bits(&[0xAB, 0xCD], false, 8);
        assert_eq!(v, vec![0x00, 0xAB]);
    }

    #[test]
    fn bit_shift_roundtrip_preserves_interior() {
        let data = vec![0x12, 0x34, 0x56, 0x78];
        let back = shift_bits(&shift_bits(&data, true, 5), false, 5);
        // Top 5 bits were shifted out and lost; the rest must round-trip.
        let mask_first = 0xFFu8 >> 5;
        assert_eq!(back[0] & mask_first, data[0] & mask_first);
        assert_eq!(&back[1..], &data[1..]);
    }

    #[test]
    fn read_row_into_matches_row() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let loc = RowLoc::new(0, 1, 2);
        let mut buf = vec![0xEE; 3];
        arr.read_row_into(loc, &mut buf).unwrap();
        assert_eq!(buf, vec![0; 8], "missing rows read as zeros");
        arr.set_row(loc, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        arr.read_row_into(loc, &mut buf).unwrap();
        assert_eq!(buf, arr.row(loc).unwrap());
        assert!(arr.read_row_into(RowLoc::new(9, 0, 0), &mut buf).is_err());
    }

    /// Rows 1, 2, 3, 4 (each row filled with its value) as one table.
    fn table4() -> RowTable {
        RowTable::new(8, (0..4u8).map(|i| Arc::new(vec![i + 1; 8]))).unwrap()
    }

    #[test]
    fn bulk_shared_rows_copy_clear_and_cow() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let rows = table4();
        arr.set_rows_shared(BankId(0), SubarrayId(0), RowId(2), &rows)
            .unwrap();
        assert_eq!(arr.row(RowLoc::new(0, 0, 3)).unwrap(), vec![2; 8]);
        // Repeat loads of the same handles are idempotent.
        arr.set_rows_shared(BankId(0), SubarrayId(0), RowId(2), &rows)
            .unwrap();
        // Copy into a second subarray, then mutate the copy: COW keeps
        // the source rows (and the caller's table) intact.
        arr.copy_rows(
            BankId(0),
            SubarrayId(0),
            RowId(2),
            SubarrayId(1),
            RowId(0),
            4,
        )
        .unwrap();
        assert_eq!(arr.row(RowLoc::new(0, 1, 1)).unwrap(), vec![2; 8]);
        arr.set_row(RowLoc::new(0, 1, 1), &[9; 8]).unwrap();
        assert_eq!(arr.row(RowLoc::new(0, 0, 3)).unwrap(), vec![2; 8]);
        assert_eq!(rows.rows[1].as_deref(), Some(&vec![2u8; 8]));
        // Clearing reverts rows to the never-written (all-zeros) state.
        arr.clear_rows(BankId(0), SubarrayId(0), RowId(2), 4)
            .unwrap();
        assert_eq!(arr.row(RowLoc::new(0, 0, 3)).unwrap(), vec![0; 8]);
        // Bounds and row-width violations are rejected.
        assert!(arr
            .set_rows_shared(BankId(0), SubarrayId(0), RowId(14), &rows)
            .is_err());
        let narrow = RowTable::new(3, [Arc::new(vec![0; 3])]).unwrap();
        assert!(arr
            .set_rows_shared(BankId(0), SubarrayId(0), RowId(0), &narrow)
            .is_err());
        assert!(RowTable::new(8, [Arc::new(vec![0; 8]), Arc::new(vec![0; 3])]).is_err());
        assert!(arr
            .copy_rows(
                BankId(0),
                SubarrayId(0),
                RowId(14),
                SubarrayId(1),
                RowId(0),
                4
            )
            .is_err());
        assert!(arr
            .clear_rows(BankId(0), SubarrayId(9), RowId(0), 1)
            .is_err());
        // Empty ranges are no-ops.
        arr.clear_rows(BankId(0), SubarrayId(0), RowId(0), 0)
            .unwrap();
    }

    #[test]
    fn shared_table_loads_whole_only_into_empty_subarrays() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let table = table4();
        let load = |arr: &mut MemoryArray, sa: u16| {
            arr.set_rows_shared(BankId(0), SubarrayId(sa), RowId(0), &table)
                .unwrap();
        };
        // An empty subarray takes the table as one handle; a repeat load
        // of the very same table changes nothing.
        load(&mut arr, 0);
        assert_eq!(table.share_count(), 2);
        load(&mut arr, 0);
        assert_eq!(table.share_count(), 2);
        // A subarray that already holds a row gets the rows one by one
        // and keeps the row it had.
        arr.set_row(RowLoc::new(0, 1, 5), &[7; 8]).unwrap();
        load(&mut arr, 1);
        assert_eq!(
            table.share_count(),
            2,
            "subarray 1 holds rows, not the table"
        );
        for r in 0..4u16 {
            assert_eq!(arr.row(RowLoc::new(0, 1, r)).unwrap(), vec![r as u8 + 1; 8]);
        }
        assert_eq!(arr.row(RowLoc::new(0, 1, 5)).unwrap(), vec![7; 8]);
        // A clear of every row lets go of the table; the emptied subarray
        // takes it whole again.
        arr.clear_rows(BankId(0), SubarrayId(0), RowId(0), 4)
            .unwrap();
        assert_eq!(table.share_count(), 1);
        load(&mut arr, 0);
        assert_eq!(table.share_count(), 2);
    }

    #[test]
    fn shared_table_writes_never_reach_other_holders() {
        type Writer = fn(&mut MemoryArray);
        let writers: [(&str, Writer); 10] = [
            ("set_row", |a| {
                a.set_row(RowLoc::new(0, 1, 2), &[0xEE; 8]).unwrap();
            }),
            ("set_rows_shared at row 1", |a| {
                let other = RowTable::new(8, [Arc::new(vec![0xEE; 8])]).unwrap();
                a.set_rows_shared(BankId(0), SubarrayId(1), RowId(1), &other)
                    .unwrap();
            }),
            ("copy_rows", |a| {
                a.set_row(RowLoc::new(0, 2, 0), &[0xEE; 8]).unwrap();
                a.copy_rows(
                    BankId(0),
                    SubarrayId(2),
                    RowId(0),
                    SubarrayId(1),
                    RowId(1),
                    2,
                )
                .unwrap();
            }),
            ("clear_rows of the whole table", |a| {
                a.clear_rows(BankId(0), SubarrayId(1), RowId(0), 4).unwrap();
            }),
            ("partial clear_rows", |a| {
                a.clear_rows(BankId(0), SubarrayId(1), RowId(1), 2).unwrap();
            }),
            ("activate_into", |a| {
                a.activate(RowLoc::new(0, 1, 0), false).unwrap();
                a.activate_into(RowLoc::new(0, 1, 3)).unwrap();
            }),
            ("write_buffer", |a| {
                a.activate(RowLoc::new(0, 1, 2), false).unwrap();
                a.write_buffer(BankId(0), SubarrayId(1), 0, &[0xEE; 4])
                    .unwrap();
            }),
            ("lisa_rbm write-through", |a| {
                a.activate(RowLoc::new(0, 1, 2), false).unwrap();
                a.deposit_buffer(BankId(0), SubarrayId(2), &[0xEE; 8]);
                a.lisa_rbm(BankId(0), SubarrayId(2), SubarrayId(1)).unwrap();
            }),
            ("triple_row_activate", |a| {
                a.triple_row_activate(BankId(0), SubarrayId(1), [RowId(0), RowId(1), RowId(2)])
                    .unwrap();
            }),
            ("shift_row_bits", |a| {
                a.shift_row_bits(RowLoc::new(0, 1, 3), true, 3).unwrap();
            }),
        ];
        let rows = |arr: &MemoryArray, sa: u16| -> Vec<Vec<u8>> {
            (0..16)
                .map(|r| arr.row(RowLoc::new(0, sa, r)).unwrap())
                .collect()
        };
        for (name, write) in writers {
            let table = table4();
            let pristine = rows(&MemoryArray::new(tiny_cfg()), 0);
            // The same two subarrays with every row written on its own: a
            // write must read the same on both arrays.
            let mut shared = MemoryArray::new(tiny_cfg());
            let mut by_row = MemoryArray::new(tiny_cfg());
            for sa in [0, 1] {
                shared
                    .set_rows_shared(BankId(0), SubarrayId(sa), RowId(0), &table)
                    .unwrap();
                for (r, row) in table.rows.iter().flatten().enumerate() {
                    by_row.set_row(RowLoc::new(0, sa, r as u16), row).unwrap();
                }
            }
            assert_eq!(table.share_count(), 3, "{name}: loaded whole");
            let loaded = rows(&shared, 1);
            assert_ne!(loaded, pristine);
            write(&mut shared);
            write(&mut by_row);
            for sa in 0..3 {
                assert_eq!(
                    rows(&shared, sa),
                    rows(&by_row, sa),
                    "{name}: subarray {sa}"
                );
            }
            assert_ne!(rows(&shared, 1), loaded, "{name}: the write lands");
            assert_eq!(rows(&shared, 0), loaded, "{name}: reached subarray 0");
            let held: Vec<Vec<u8>> = table.rows.iter().flatten().map(|r| r.to_vec()).collect();
            assert_eq!(held, loaded[..4], "{name}: reached the caller's table");
            assert_eq!(table.share_count(), 2, "{name}: subarray 1 let go");
        }
    }

    #[test]
    fn out_of_bounds_rejected_everywhere() {
        let mut arr = MemoryArray::new(tiny_cfg());
        let bad = RowLoc::new(9, 0, 0);
        assert!(arr.row(bad).is_err());
        assert!(arr.set_row(bad, &[0; 8]).is_err());
        assert!(arr.activate(bad, false).is_err());
        assert!(arr.shift_row_bits(bad, true, 1).is_err());
    }
}
