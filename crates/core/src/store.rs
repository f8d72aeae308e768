//! LUT storage in a pLUTo-enabled subarray.
//!
//! Paper §4 / Fig. 2: the pLUTo-enabled subarray stores *multiple vertical
//! copies* of a LUT — row *i* contains the element at index *i*, replicated
//! across the full row width so that every comparator position can read it.
//!
//! For GSA (destructive reads, §5.2.1) a pristine *master copy* lives in a
//! neighbouring subarray and is re-loaded into the pLUTo-enabled subarray
//! before every query at a cost of `LISA_RBM × N` (Table 1).

use crate::error::PlutoError;
use crate::lut::{pack_slots_into, slots_per_row, Lut};
use crate::plan::PlanKey;
use pluto_dram::{BankId, CostTape, Engine, RowId, RowLoc, RowTable, SubarrayId};
use std::collections::HashMap;
use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Counters of the process-wide packed-row cache (see [`packed_cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackedCacheStats {
    /// Loads served from the cache.
    pub hits: u64,
    /// Loads that had to pack their element rows.
    pub misses: u64,
    /// LUT variants currently cached.
    pub entries: usize,
    /// LUT variants dropped to keep the cache within its byte budget.
    pub evictions: u64,
    /// Bytes the cached entries are charged against the budget.
    pub bytes: usize,
}

/// One segment of a cached LUT: the table its pLUTo subarray holds and
/// that table's packed rows, shared whole into DRAM.
#[derive(Debug)]
pub(crate) struct PackedSegment {
    /// The parent itself when it is exactly one segment; otherwise the
    /// padded `name@segK` slice at the parent's slot floor.
    pub(crate) lut: Lut,
    /// Row *i* holds element *i* replicated across every slot.
    pub(crate) rows: RowTable,
}

/// A cached LUT's segments in order, shared between the cache and every
/// load.
pub(crate) type PackedSegments = Arc<[PackedSegment]>;

/// Cache key: the LUT itself (name, shape and elements — see [`Lut`]'s
/// `Eq`/`Hash`), the row width it was packed for and the rows per segment
/// it was cut into.
type PackedKey = (Lut, usize, usize);

#[derive(Debug, Default)]
struct PackedCache {
    entries: HashMap<PackedKey, PackedSegments>,
    /// Sum of the entries' [`charged_bytes`].
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Byte budget of the packed-row cache. Packed tables differ in size by
/// orders of magnitude, so the cache is bounded by the bytes its entries
/// pin, not by their count. `figure_sweep` (18 registry workloads × 6
/// configurations) packs 1,820 distinct tables: 147 MiB of row payload in
/// 602,388 rows of 256 B, charged 179 MiB with row handles and keys. The
/// budget holds that working set with room to spare, so a sweep repeated
/// in one process packs nothing twice.
const PACKED_CACHE_BUDGET: usize = 256 << 20;

impl PackedCache {
    /// Caches `segments` under `key`, charged `bytes`. An insert that
    /// would take the total past [`PACKED_CACHE_BUDGET`] first clears the
    /// map (a deterministic guard against unbounded growth, counting every
    /// dropped entry as an eviction), so the newest table always stays
    /// cached, even one larger than the whole budget.
    fn insert(&mut self, key: PackedKey, segments: PackedSegments, bytes: usize) {
        if self.bytes + bytes > PACKED_CACHE_BUDGET {
            self.evictions += self.entries.len() as u64;
            self.entries.clear();
            self.bytes = 0;
        }
        self.bytes += bytes;
        self.entries.insert(key, segments);
    }
}

/// Locks the cache. It is pure memoization, so a map left behind by a
/// panicking lock holder is still safe to read: recover it rather than
/// fail every later load in the process.
fn packed_cache() -> MutexGuard<'static, PackedCache> {
    static CACHE: OnceLock<Mutex<PackedCache>> = OnceLock::new();
    CACHE
        .get_or_init(|| Mutex::new(PackedCache::default()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Heap bytes a cache entry pins: each distinct row buffer with its `Arc`
/// allocation (two counts and the `Vec` header), each segment table's
/// handles and allocation, and the elements and name of the key and of
/// every segment `Lut` that is not the key itself.
fn charged_bytes(lut: &Lut, row_bytes: usize, segments: &[PackedSegment]) -> usize {
    let arc_vec = 2 * size_of::<usize>() + size_of::<Vec<u8>>();
    let lut_bytes = |l: &Lut| l.len() * size_of::<u64>() + l.name().len();
    let table_rows: usize = segments.iter().map(|seg| seg.rows.len()).sum();
    let zero_row = usize::from(table_rows > lut.len());
    let rows = (lut.len() + zero_row) * (row_bytes + arc_vec);
    let handles = table_rows * size_of::<Option<Arc<Vec<u8>>>>() + segments.len() * arc_vec;
    let segment_luts: usize = segments
        .iter()
        .filter(|seg| !std::ptr::eq(seg.lut.elements(), lut.elements()))
        .map(|seg| lut_bytes(&seg.lut))
        .sum();
    rows + handles + lut_bytes(lut) + segment_luts
}

/// Returns `lut`'s segments for a `row_bytes` geometry cut `segment_rows`
/// rows apart, each with its packed rows as one shared [`RowTable`],
/// serving repeated loads of the same LUT (re-runs, pooled cluster
/// machines, GSA workload streams) from a process-wide cache instead of
/// re-packing. Each call counts exactly one hit or one miss.
///
/// Purely a *load-time* optimization: a table enters the engine as a
/// copy-on-write handle ([`Engine::poke_rows_shared`]), so later in-DRAM
/// mutation (GSA destruction, row writes) replaces the DRAM-side table
/// and can never leak back into the cache. Cache identity is the full
/// LUT, elements included, so stale or aliased rows are structurally
/// impossible; a table rebuilt equal to a cached one still hits.
///
/// A partitioned LUT's segments are one entry, so an N-segment load is
/// one cache lookup, not N `name@segK` lookups.
///
/// # Errors
/// Fails if a segment table cannot be built (it cannot for a valid LUT).
pub(crate) fn packed_segments(
    lut: &Lut,
    row_bytes: usize,
    segment_rows: usize,
) -> Result<PackedSegments, PlutoError> {
    let key = (lut.clone(), row_bytes, segment_rows);
    // Lookup holds the lock only briefly; the O(lut_len × row_bytes)
    // packing below runs *unlocked* so one worker's miss on a large LUT
    // never stalls other cluster workers' loads.
    {
        let mut cache = packed_cache();
        if let Some(segments) = cache.entries.get(&key).map(Arc::clone) {
            cache.hits += 1;
            return Ok(segments);
        }
        cache.misses += 1;
    }
    let segments: PackedSegments = pack_segments(lut, row_bytes, segment_rows)?.into();
    let bytes = charged_bytes(lut, row_bytes, &segments);
    let mut cache = packed_cache();
    // Another worker may have packed the same LUT while we were
    // unlocked — prefer its entry so all loads share one allocation.
    if let Some(segments) = cache.entries.get(&key) {
        return Ok(Arc::clone(segments));
    }
    cache.insert(key, Arc::clone(&segments), bytes);
    Ok(segments)
}

/// The work the cache elides: one pass over the element table packs one
/// row per element (the element replicated across every slot), then the
/// rows are cut into `segment_rows`-row segments. A LUT exactly one
/// segment long is its own segment; otherwise each segment is a
/// `name@segK` table at the parent's true `output_bits` with the parent's
/// slot width pinned as a floor, so its rows are the parent's rows, and a
/// tail shorter than a power of two is padded with masked-out zero
/// elements whose rows all share one zero row.
fn pack_segments(
    lut: &Lut,
    row_bytes: usize,
    segment_rows: usize,
) -> Result<Vec<PackedSegment>, PlutoError> {
    let slot_bits = lut.slot_bits();
    let per_row = slots_per_row(row_bytes, slot_bits);
    let mut values = vec![0u64; per_row];
    let mut row = Vec::new();
    let rows: Vec<Arc<Vec<u8>>> = lut
        .elements()
        .iter()
        .map(|&elem| {
            values.fill(elem);
            // Elements are validated against `output_bits` at LUT
            // construction, so they always fit the slot.
            pack_slots_into(&values, slot_bits, row_bytes, &mut row)
                .expect("validated elements always pack");
            Arc::new(row.clone())
        })
        .collect();
    if lut.len() == segment_rows {
        let rows = RowTable::new(row_bytes, rows)?;
        return Ok(vec![PackedSegment {
            lut: lut.clone(),
            rows,
        }]);
    }
    let zero_row = Arc::new(vec![0u8; row_bytes]);
    rows.chunks(segment_rows)
        .enumerate()
        .map(|(k, chunk)| {
            let base = k * segment_rows;
            let mut elements = lut.elements()[base..base + chunk.len()].to_vec();
            // Inputs are validated against the parent length, so a pad row
            // can never be the matching row of any query.
            elements.resize(chunk.len().next_power_of_two(), 0);
            let padded = elements.len();
            let seg = Lut::from_table(
                format!("{}@seg{k}", lut.name()),
                padded.trailing_zeros(),
                lut.output_bits(),
                elements,
            )?
            .with_min_slot_bits(slot_bits);
            debug_assert_eq!(
                seg.slot_bits(),
                slot_bits,
                "segment layout must match the unpartitioned layout"
            );
            let pad = std::iter::repeat_with(|| Arc::clone(&zero_row)).take(padded - chunk.len());
            let rows = RowTable::new(row_bytes, chunk.iter().cloned().chain(pad))?;
            Ok(PackedSegment { lut: seg, rows })
        })
        .collect()
}

/// Hit/miss/eviction counters and occupancy of the packed-row cache
/// (for tests and the bench harness; process-wide, and the counters are
/// monotonic).
pub fn packed_cache_stats() -> PackedCacheStats {
    let cache = packed_cache();
    PackedCacheStats {
        hits: cache.hits,
        misses: cache.misses,
        entries: cache.entries.len(),
        evictions: cache.evictions,
        bytes: cache.bytes,
    }
}

/// A LUT resident in a pLUTo-enabled subarray.
#[derive(Debug, Clone)]
pub struct LutStore {
    lut: Lut,
    bank: BankId,
    subarray: SubarrayId,
    /// Subarray holding the pristine master copy (used by GSA reloads).
    /// Must be LISA-adjacent to `subarray` for the Table 1 reload cost
    /// (`LISA_RBM × N`) to hold; the canonical placement co-locates it with
    /// the source subarray, in rows above the input data (§6.5 requires
    /// "close physical proximity").
    master: SubarrayId,
    /// First master-copy row (element `i` lives at `master_row_base + i`).
    master_row_base: u16,
    loaded: bool,
    /// The plan key and cost tape of the last lane that looked one up or
    /// recorded one for this store (`PartitionedLut`'s lane loop). A later
    /// lane with the same key replays it without the shared plan cache's
    /// lock; a lane with any other key goes to the shared cache.
    pub(crate) tape: Option<(PlanKey, Arc<CostTape>)>,
}

impl LutStore {
    /// Materializes `lut` into `subarray` of `bank`, with a master copy at
    /// rows `master_row_base..` of `master`. Uses the zero-cost backdoor:
    /// the LUT is modeled as already resident in DRAM; the *loading cost*
    /// trade-off is a separate study (paper §8.5 / Fig. 11, reproduced in
    /// [`crate::loading`]).
    ///
    /// # Errors
    /// Fails if the LUT has more elements than the subarray has rows, the
    /// master range overflows its subarray, `master == subarray`, or an
    /// element row cannot be packed.
    pub fn load(
        engine: &mut Engine,
        lut: Lut,
        bank: BankId,
        subarray: SubarrayId,
        master: SubarrayId,
        master_row_base: u16,
    ) -> Result<Self, PlutoError> {
        // Validate before packing, so a LUT that cannot be placed never
        // reaches the packed-row cache.
        check_placement(engine, &lut, subarray, master, master_row_base)?;
        // The LUT's own rows are the one-segment entry of the packed-row
        // cache: repeated loads of the same LUT skip the packing work, and
        // the table enters DRAM as copy-on-write handles (a repeat load of
        // an unchanged table moves nothing at all).
        let segments = packed_segments(&lut, engine.config().row_bytes, lut.len())?;
        let rows = &segments[0].rows;
        LutStore::load_shared(engine, lut, bank, subarray, master, master_row_base, rows)
    }

    /// Materializes a LUT whose packed rows the caller already holds as
    /// one table — the partitioned path, where each segment's table comes
    /// from the parent's packed-row cache entry. Performs the same
    /// placement validation as [`LutStore::load`] but no cache lookup and
    /// no packing. At row 0 of an empty subarray the table lands as one
    /// handle, so a segment load costs two refcount increments.
    ///
    /// # Errors
    /// Same conditions as [`LutStore::load`], plus a row-count mismatch.
    pub(crate) fn load_shared(
        engine: &mut Engine,
        lut: Lut,
        bank: BankId,
        subarray: SubarrayId,
        master: SubarrayId,
        master_row_base: u16,
        rows: &RowTable,
    ) -> Result<Self, PlutoError> {
        if rows.len() != lut.len() {
            return Err(PlutoError::InvalidLut {
                reason: format!("{} packed rows for a {}-element LUT", rows.len(), lut.len()),
            });
        }
        check_placement(engine, &lut, subarray, master, master_row_base)?;
        engine.poke_rows_shared(bank, subarray, RowId(0), rows)?;
        engine.poke_rows_shared(bank, master, RowId(master_row_base), rows)?;
        Ok(LutStore {
            lut,
            bank,
            subarray,
            master,
            master_row_base,
            loaded: true,
            tape: None,
        })
    }

    /// The stored LUT.
    pub fn lut(&self) -> &Lut {
        &self.lut
    }

    /// The bank holding the store.
    pub fn bank(&self) -> BankId {
        self.bank
    }

    /// The pLUTo-enabled subarray.
    pub fn subarray(&self) -> SubarrayId {
        self.subarray
    }

    /// The master-copy subarray.
    pub fn master(&self) -> SubarrayId {
        self.master
    }

    /// Whether the subarray currently holds valid LUT contents.
    pub fn is_loaded(&self) -> bool {
        self.loaded
    }

    /// Location of the row holding element `i`.
    pub fn element_row(&self, i: usize) -> RowLoc {
        RowLoc {
            bank: self.bank,
            subarray: self.subarray,
            row: RowId(i as u16),
        }
    }

    /// Marks the contents destroyed (after a GSA sweep) and functionally
    /// clears the rows: unmatched cells lost their charge, so subsequent
    /// reads return garbage — modeled as zeros.
    ///
    /// # Errors
    /// Propagates out-of-bounds errors (cannot occur for a valid store).
    pub fn mark_destroyed(&mut self, engine: &mut Engine) -> Result<(), PlutoError> {
        engine.poke_clear_rows(self.bank, self.subarray, RowId(0), self.lut.len())?;
        self.loaded = false;
        Ok(())
    }

    /// Reloads the LUT from the master copy via one LISA-RBM per element
    /// row (cost `LISA_RBM × N`, Table 1 / §5.2.2). The engine batches
    /// the transfer — cost, counters, and trace are identical to the
    /// per-row deposit + RBM loop this used to issue, but the data moves
    /// as copy-on-write row handles (GSA pays this path on every query).
    ///
    /// # Errors
    /// Propagates DRAM errors.
    pub fn reload(&mut self, engine: &mut Engine) -> Result<(), PlutoError> {
        engine.lisa_reload_rows(
            self.bank,
            self.master,
            RowId(self.master_row_base),
            self.subarray,
            RowId(0),
            self.lut.len(),
        )?;
        self.loaded = true;
        Ok(())
    }

    /// [`LutStore::reload`] with the functional restore elided: the same
    /// `LISA_RBM × N` cost, counters, and trace, but the subarray keeps
    /// its (destroyed) contents. For the fused partitioned query, which
    /// reloads and re-destroys every GSA segment within one composite
    /// operation — the restored rows are never observable, so moving the
    /// row handles would be pure overhead. The caller must destroy the
    /// store again before returning control.
    ///
    /// # Errors
    /// Propagates DRAM errors.
    pub(crate) fn reload_transient(&mut self, engine: &mut Engine) -> Result<(), PlutoError> {
        engine.lisa_reload_rows_transient(
            self.bank,
            self.master,
            RowId(self.master_row_base),
            self.subarray,
            RowId(0),
            self.lut.len(),
        )?;
        self.loaded = true;
        Ok(())
    }

    /// Ensures the store is ready for a query: reloads first if a
    /// destructive (GSA) sweep left it stale.
    ///
    /// # Errors
    /// Propagates DRAM errors.
    pub fn ensure_ready(&mut self, engine: &mut Engine) -> Result<(), PlutoError> {
        if !self.loaded {
            self.reload(engine)?;
        }
        Ok(())
    }
}

/// The placement checks both loaders share: the LUT fits one subarray,
/// the master copy lives in a different subarray, and the master rows fit
/// theirs.
fn check_placement(
    engine: &Engine,
    lut: &Lut,
    subarray: SubarrayId,
    master: SubarrayId,
    master_row_base: u16,
) -> Result<(), PlutoError> {
    let rows = engine.config().rows_per_subarray as usize;
    if lut.len() > rows {
        return Err(PlutoError::InvalidLut {
            reason: format!(
                "{} elements exceed the {rows}-row subarray (partition across subarrays instead, §5.6)",
                lut.len()
            ),
        });
    }
    if master == subarray {
        return Err(PlutoError::AllocationFailed {
            reason: "master copy must live in a different subarray".into(),
        });
    }
    let master_end = master_row_base as usize + lut.len();
    if master_end > rows {
        return Err(PlutoError::AllocationFailed {
            reason: format!(
                "master rows {master_row_base}..{master_end} overflow the {rows}-row subarray"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignKind;
    use crate::lut::catalog;
    use crate::partition::PartitionedLut;
    use pluto_dram::DramConfig;

    fn engine() -> Engine {
        Engine::new(DramConfig {
            row_bytes: 32,
            burst_bytes: 8,
            banks: 2,
            subarrays_per_bank: 8,
            rows_per_subarray: 64,
            ..DramConfig::ddr4_2400()
        })
    }

    #[test]
    fn load_replicates_elements_across_rows() {
        let mut e = engine();
        let lut = Lut::from_table("primes", 2, 4, vec![2, 3, 5, 7]).unwrap();
        let store =
            LutStore::load(&mut e, lut, BankId(0), SubarrayId(2), SubarrayId(0), 0).unwrap();
        // Row 2 holds repeated copies of element 5 = 0b0101 packed in 4-bit
        // slots => bytes of 0x55.
        let row = e.peek_row(store.element_row(2)).unwrap();
        assert!(row.iter().all(|&b| b == 0x55));
        // Master copy identical.
        let m = e.peek_row(store.element_row(2).with_subarray(0)).unwrap();
        assert_eq!(m, row);
    }

    #[test]
    fn load_rejects_oversized_luts() {
        let mut e = engine();
        let lut = catalog::add(4).unwrap(); // 256 elements > 64 rows
        assert!(matches!(
            LutStore::load(&mut e, lut, BankId(0), SubarrayId(2), SubarrayId(0), 0),
            Err(PlutoError::InvalidLut { .. })
        ));
    }

    #[test]
    fn destroy_then_reload_restores_contents() {
        let mut e = engine();
        let lut = Lut::from_table("primes", 2, 4, vec![2, 3, 5, 7]).unwrap();
        let mut store =
            LutStore::load(&mut e, lut, BankId(0), SubarrayId(1), SubarrayId(0), 60).unwrap();
        let before = e.peek_row(store.element_row(3)).unwrap();
        store.mark_destroyed(&mut e).unwrap();
        assert!(!store.is_loaded());
        assert!(e
            .peek_row(store.element_row(3))
            .unwrap()
            .iter()
            .all(|&b| b == 0));
        let t0 = e.elapsed();
        store.reload(&mut e).unwrap();
        assert!(store.is_loaded());
        assert_eq!(e.peek_row(store.element_row(3)).unwrap(), before);
        // Cost: one LISA hop per element (adjacent master).
        let dt = e.elapsed() - t0;
        assert_eq!(dt, e.timing().t_lisa_hop.times(4));
    }

    #[test]
    fn packed_cache_serves_repeat_loads_without_aliasing() {
        // Distinct name to isolate from other tests sharing the process
        // cache.
        let lut = Lut::from_table("cache-probe", 2, 4, vec![9, 8, 7, 6]).unwrap();
        let mut e1 = engine();
        let s1 = LutStore::load(
            &mut e1,
            lut.clone(),
            BankId(0),
            SubarrayId(2),
            SubarrayId(0),
            0,
        )
        .unwrap();
        let before = packed_cache_stats();
        let mut e2 = engine();
        let s2 = LutStore::load(&mut e2, lut, BankId(0), SubarrayId(2), SubarrayId(0), 0).unwrap();
        let after = packed_cache_stats();
        // Counters are process-wide and other tests load stores
        // concurrently, so only lower-bound them; the aliasing checks
        // below are the deterministic part.
        assert!(after.hits > before.hits, "second load is a cache hit");
        for i in 0..4 {
            assert_eq!(
                e1.peek_row(s1.element_row(i)).unwrap(),
                e2.peek_row(s2.element_row(i)).unwrap()
            );
        }

        // An equal table rebuilt from scratch (its own element `Arc`, as
        // a pipeline that re-derives its tables per sample holds) still
        // hits: identity is the contents, not the allocation.
        let rebuilt = Lut::from_table("cache-probe", 2, 4, vec![9, 8, 7, 6]).unwrap();
        let before_rebuilt = packed_cache_stats();
        let mut e4 = engine();
        let s4 =
            LutStore::load(&mut e4, rebuilt, BankId(0), SubarrayId(2), SubarrayId(0), 0).unwrap();
        assert!(
            packed_cache_stats().hits > before_rebuilt.hits,
            "rebuilt equal table is a cache hit"
        );
        for i in 0..4 {
            assert_eq!(
                e1.peek_row(s1.element_row(i)).unwrap(),
                e4.peek_row(s4.element_row(i)).unwrap()
            );
        }

        // Same name and shape, different contents: must re-pack, not alias.
        let impostor = Lut::from_table("cache-probe", 2, 4, vec![1, 2, 3, 4]).unwrap();
        let mut e3 = engine();
        let s3 = LutStore::load(
            &mut e3,
            impostor,
            BankId(0),
            SubarrayId(2),
            SubarrayId(0),
            0,
        )
        .unwrap();
        assert!(packed_cache_stats().misses > after.misses);
        assert_ne!(
            e3.peek_row(s3.element_row(0)).unwrap(),
            e1.peek_row(s1.element_row(0)).unwrap()
        );
    }

    /// 32 B rows over 64-row subarrays with room for four segments.
    fn wide_engine() -> Engine {
        Engine::new(DramConfig {
            row_bytes: 32,
            burst_bytes: 8,
            banks: 1,
            subarrays_per_bank: 16,
            rows_per_subarray: 64,
            ..DramConfig::ddr4_2400()
        })
    }

    #[test]
    fn shared_table_load_costs_two_refcounts_per_segment() {
        let lut = Lut::from_fn("refcount-probe8", 8, 16, |x| x ^ 0x5A).unwrap();
        let entry = packed_segments(&lut, 32, 64).unwrap();
        assert_eq!(entry.len(), 4, "256 entries over 64-row subarrays");
        let counts = || -> Vec<usize> { entry.iter().map(|seg| seg.rows.share_count()).collect() };
        assert_eq!(counts(), [1; 4], "only the cache entry holds each table");
        let mut e = wide_engine();
        PartitionedLut::load(&mut e, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
        assert_eq!(
            counts(),
            [3; 4],
            "a fresh load shares each table into pLUTo + master"
        );
        PartitionedLut::load(&mut e, lut, BankId(0), SubarrayId(2)).unwrap();
        assert_eq!(
            counts(),
            [3; 4],
            "a repeat load into the same engine shares nothing new"
        );
        drop(e);
        assert_eq!(
            counts(),
            [1; 4],
            "dropping the engine releases one handle per subarray"
        );
    }

    #[test]
    fn cache_is_immune_to_in_dram_destruction() {
        let lut = Lut::from_table("cache-destroy-probe", 2, 4, vec![2, 3, 5, 7]).unwrap();
        let mut e = engine();
        let mut store = LutStore::load(
            &mut e,
            lut.clone(),
            BankId(0),
            SubarrayId(1),
            SubarrayId(0),
            60,
        )
        .unwrap();
        let pristine = e.peek_row(store.element_row(1)).unwrap();
        store.mark_destroyed(&mut e).unwrap();
        // A fresh load of the same LUT (cache hit) must see pristine rows,
        // not the zeroed ones the destruction wrote into the DRAM array.
        let mut e2 = engine();
        let s2 = LutStore::load(&mut e2, lut, BankId(0), SubarrayId(1), SubarrayId(0), 60).unwrap();
        assert_eq!(e2.peek_row(s2.element_row(1)).unwrap(), pristine);

        // A GSA query destroys every segment of a shared-table load in
        // DRAM; a second machine loaded from the same entry (a cache hit)
        // still reads pristine rows.
        let big = Lut::from_fn("cache-destroy-probe8", 8, 16, |x| x * 3).unwrap();
        let rows_of = |e: &Engine, part: &PartitionedLut| -> Vec<Vec<u8>> {
            part.segments()
                .iter()
                .flat_map(|seg| {
                    (0..seg.lut().len()).map(|i| e.peek_row(seg.element_row(i)).unwrap())
                })
                .collect()
        };
        let mut m1 = wide_engine();
        let mut p1 = PartitionedLut::load(&mut m1, big.clone(), BankId(0), SubarrayId(2)).unwrap();
        let pristine = rows_of(&m1, &p1);
        p1.query(
            &mut m1,
            DesignKind::Gsa,
            SubarrayId(0),
            SubarrayId(1),
            &[0, 100, 200],
            RowId(0),
            RowId(1),
        )
        .unwrap();
        assert!(
            rows_of(&m1, &p1).iter().flatten().all(|&b| b == 0),
            "GSA destroyed every segment"
        );
        let hits = packed_cache_stats().hits;
        let mut m2 = wide_engine();
        let p2 = PartitionedLut::load(&mut m2, big, BankId(0), SubarrayId(2)).unwrap();
        assert!(
            packed_cache_stats().hits > hits,
            "the second load is a cache hit"
        );
        assert_eq!(rows_of(&m2, &p2), pristine);
    }

    #[test]
    fn loads_survive_a_panic_that_poisons_the_cache_lock() {
        let poisoner = std::thread::spawn(|| {
            let _cache = packed_cache();
            panic!("a lock holder panics");
        });
        assert!(poisoner.join().is_err(), "the lock holder panicked");

        let before = packed_cache_stats();
        let lut = Lut::from_table("poison-probe", 2, 4, vec![1, 4, 9, 3]).unwrap();
        for _ in 0..2 {
            let mut e = engine();
            let store = LutStore::load(
                &mut e,
                lut.clone(),
                BankId(0),
                SubarrayId(2),
                SubarrayId(0),
                0,
            )
            .unwrap();
            let row = e.peek_row(store.element_row(2)).unwrap();
            assert!(row.iter().all(|&b| b == 0x99));
        }
        // Process-wide counters: lower-bound only (see above).
        assert!(packed_cache_stats().hits > before.hits, "repeat load hit");
    }

    #[test]
    fn an_insert_past_the_byte_budget_clears_the_cache_first() {
        // A private cache with made-up charges, so the budget is reached
        // without packing hundreds of MiB.
        let mut cache = PackedCache::default();
        let key = |i: u64| Lut::from_table(format!("k{i}"), 1, 4, vec![i, 0]).unwrap();
        let mut insert = |i: u64, bytes: usize| {
            cache.insert((key(i), 32, 2), Vec::new().into(), bytes);
            (cache.entries.len(), cache.bytes, cache.evictions)
        };
        let half = PACKED_CACHE_BUDGET / 2;
        assert_eq!(insert(0, half), (1, half, 0));
        assert_eq!(insert(1, half), (2, PACKED_CACHE_BUDGET, 0), "at budget");
        assert_eq!(insert(2, 1), (1, 1, 2), "past it: both dropped first");
        let huge = 2 * PACKED_CACHE_BUDGET;
        assert_eq!(insert(3, huge), (1, huge, 3), "an oversized table stays");
        assert!(cache.entries.contains_key(&(key(3), 32, 2)));
    }

    #[test]
    fn ensure_ready_reloads_when_stale() {
        let mut e = engine();
        let lut = Lut::from_table("t", 1, 1, vec![0, 1]).unwrap();
        let mut store =
            LutStore::load(&mut e, lut, BankId(0), SubarrayId(1), SubarrayId(0), 60).unwrap();
        store.mark_destroyed(&mut e).unwrap();
        store.ensure_ready(&mut e).unwrap();
        assert!(store.is_loaded());
    }
}
