//! Fused-gather equivalence suite (`DESIGN.md` §8).
//!
//! The fused single-pass partitioned query
//! ([`PartitionedLut::query_with`]) must be indistinguishable from the
//! retained pre-fusion data path
//! ([`PartitionedLut::query_serial_reference`] — one `QueryExecutor` run
//! per segment with rebased inputs and an O(N × slots) merge) in every
//! observable except wall-clock: outputs, `PartitionedCost` **to the
//! bit** (same latency `Picos`, same f64 energy — the per-lane spend
//! sequence is replayed exactly, so even float non-associativity cannot
//! separate them), engine clock/energy deltas, command counters, and the
//! committed source/destination/LUT row bytes. Swept across segment
//! counts {1, 2, 3, 4, 8, 128} × all 3 designs × 2 memory kinds × both
//! timing backends, with seam-boundary inputs, two rounds each (GSA's
//! destroy-reload steady state included).
//!
//! Row-buffer residue is deliberately *not* compared: the fused path
//! leaves different unlatched scratch in subarray buffers (transient GSA
//! reloads, batched sweeps) — unspecified by design.

use pluto_repro::core::partition::PartitionedLut;
use pluto_repro::core::query::QueryScratch;
use pluto_repro::core::{DesignKind, Lut};
use pluto_repro::dram::{
    BankId, DramConfig, Engine, MemoryKind, RowId, RowLoc, SubarrayId, TimingBackend,
};

/// Rows per subarray: small, so even the 128-segment sweep stays fast.
const SEG_ROWS: usize = 64;

/// Segment counts under test; 1 is every LUT that fits one subarray,
/// and 128 is the §5.6 high-segment-count regime (an 8192-entry table on
/// this geometry).
const SEGMENT_COUNTS: [usize; 6] = [1, 2, 3, 4, 8, 128];

fn engine(kind: MemoryKind, backend: TimingBackend, segs: usize) -> Engine {
    Engine::new(DramConfig {
        kind,
        row_bytes: 32,
        burst_bytes: 8,
        banks: 1,
        // Source + dest + one (pluto, master) pair per segment.
        subarrays_per_bank: (2 + 2 * segs as u16).max(8),
        rows_per_subarray: SEG_ROWS as u16,
    })
    .with_timing_backend(backend)
}

/// Boundary inputs hugging every segment seam (`k·R ± 1`), the table
/// ends, plus interior points and duplicates — capped at the 16-slot row
/// capacity of the 32 B / 16-bit-slot layout.
fn seam_inputs(len: usize) -> Vec<u64> {
    let mut inputs = vec![0u64, 1, (len - 1) as u64];
    for k in 1..len.div_ceil(SEG_ROWS) {
        let seam = (k * SEG_ROWS) as u64;
        inputs.extend([seam - 1, seam, seam + 1]);
    }
    inputs.push((len / 2) as u64);
    inputs.push(0); // duplicate input: every copy must capture
    inputs.retain(|&x| (x as usize) < len);
    inputs.truncate(16);
    inputs
}

fn peek(e: &Engine, subarray: SubarrayId, row: RowId) -> Vec<u8> {
    e.peek_row(RowLoc {
        bank: BankId(0),
        subarray,
        row,
    })
    .unwrap()
}

#[test]
fn fused_gather_is_bit_identical_to_the_serial_reference() {
    for &segs in &SEGMENT_COUNTS {
        let len = segs * SEG_ROWS;
        let lut =
            Lut::from_fn_len(format!("fuse{segs}"), len, 16, |x| (x * 37 + 11) & 0xFFFF).unwrap();
        let inputs = seam_inputs(len);
        let host = lut.apply_all(&inputs).unwrap();
        let kinds = [MemoryKind::Ddr4, MemoryKind::Stacked3d];
        let backends = [TimingBackend::Analytic, TimingBackend::Banked];
        for (kind, backend) in kinds.into_iter().flat_map(|k| backends.map(|b| (k, b))) {
            for design in DesignKind::ALL {
                let label = format!("{design}/{kind}/{backend}/{segs}seg");

                // Two identically prepared engines: fused vs reference.
                let mut ef = engine(kind, backend, segs);
                let mut er = engine(kind, backend, segs);
                let mut pf =
                    PartitionedLut::load(&mut ef, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
                let mut pr =
                    PartitionedLut::load(&mut er, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
                assert_eq!(pf.segment_count(), segs, "{label}");

                let mut sf = QueryScratch::new();
                let mut sr = QueryScratch::new();
                for round in 0..2 {
                    let rl = format!("{label} round {round}");
                    let cf = pf
                        .query_with(
                            &mut ef,
                            design,
                            SubarrayId(0),
                            SubarrayId(1),
                            &inputs,
                            RowId(0),
                            RowId(3),
                            &mut sf,
                        )
                        .unwrap();
                    let cr = pr
                        .query_serial_reference(
                            &mut er,
                            design,
                            SubarrayId(0),
                            SubarrayId(1),
                            &inputs,
                            RowId(0),
                            RowId(3),
                            &mut sr,
                        )
                        .unwrap();

                    assert_eq!(sf.outputs(), &host[..], "{rl}: fused vs host oracle");
                    assert_eq!(sf.outputs(), sr.outputs(), "{rl}: outputs");
                    // `PartitionedCost` derives PartialEq over exact Picos
                    // and f64 energy: this is the bit-identity assertion.
                    assert_eq!(cf, cr, "{rl}: PartitionedCost");
                    assert_eq!(ef.elapsed(), er.elapsed(), "{rl}: engine clock");
                    assert_eq!(
                        ef.command_energy().as_pj().to_bits(),
                        er.command_energy().as_pj().to_bits(),
                        "{rl}: engine energy bits"
                    );
                    assert_eq!(ef.stats(), er.stats(), "{rl}: command counters");

                    // Committed rows: the source keeps the global index
                    // vector, the destination holds the packed merge, and
                    // every segment's LUT + master rows agree (destroyed
                    // or pristine alike).
                    assert_eq!(
                        peek(&ef, SubarrayId(0), RowId(0)),
                        peek(&er, SubarrayId(0), RowId(0)),
                        "{rl}: source row bytes"
                    );
                    assert_eq!(
                        peek(&ef, SubarrayId(1), RowId(3)),
                        peek(&er, SubarrayId(1), RowId(3)),
                        "{rl}: destination row bytes"
                    );
                    for (f, r) in pf.segments().iter().zip(pr.segments()) {
                        for probe in [0usize, f.lut().len() / 2, f.lut().len() - 1] {
                            assert_eq!(
                                peek(&ef, f.subarray(), RowId(probe as u16)),
                                peek(&er, r.subarray(), RowId(probe as u16)),
                                "{rl}: segment {} row {probe}",
                                f.lut().name()
                            );
                            assert_eq!(
                                peek(&ef, f.master(), RowId(probe as u16)),
                                peek(&er, r.master(), RowId(probe as u16)),
                                "{rl}: master {} row {probe}",
                                f.lut().name()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn fused_gather_matches_reference_on_padded_tail_segments() {
    // A non-power-of-two 650-entry table: the tail segment is padded to a
    // power of two with masked-out zero rows — seams and the true table
    // end must still merge identically.
    let lut = Lut::from_fn_len("fuse-odd650", 650, 16, |x| (x * x) & 0xFFFF).unwrap();
    let mut inputs = seam_inputs(650);
    inputs.push(649);
    inputs.truncate(16);
    let host = lut.apply_all(&inputs).unwrap();
    for design in DesignKind::ALL {
        let mut ef = engine(MemoryKind::Ddr4, TimingBackend::Analytic, 11);
        let mut er = engine(MemoryKind::Ddr4, TimingBackend::Analytic, 11);
        let mut pf = PartitionedLut::load(&mut ef, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
        let mut pr = PartitionedLut::load(&mut er, lut.clone(), BankId(0), SubarrayId(2)).unwrap();
        let mut sf = QueryScratch::new();
        let mut sr = QueryScratch::new();
        let cf = pf
            .query_with(
                &mut ef,
                design,
                SubarrayId(0),
                SubarrayId(1),
                &inputs,
                RowId(0),
                RowId(1),
                &mut sf,
            )
            .unwrap();
        let cr = pr
            .query_serial_reference(
                &mut er,
                design,
                SubarrayId(0),
                SubarrayId(1),
                &inputs,
                RowId(0),
                RowId(1),
                &mut sr,
            )
            .unwrap();
        assert_eq!(sf.outputs(), &host[..], "{design}: host oracle");
        assert_eq!(sf.outputs(), sr.outputs(), "{design}: outputs");
        assert_eq!(cf, cr, "{design}: PartitionedCost");
        assert_eq!(
            peek(&ef, SubarrayId(1), RowId(1)),
            peek(&er, SubarrayId(1), RowId(1)),
            "{design}: destination row bytes"
        );
    }
}
