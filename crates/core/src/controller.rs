//! The pLUTo Controller (paper §6.4).
//!
//! A modified memory controller that executes pLUTo ISA instructions: it
//! holds 1) an internal ROM mapping each instruction to DRAM command
//! sequences (realized here as the per-instruction `exec_*` methods driving
//! the [`Engine`]), 2) a register file of pLUTo row/subarray registers, and
//! 3) an in-memory allocation table translating registers to physical rows.
//!
//! ## Physical layout
//!
//! All row registers of a program are allocated in one *data subarray*
//! (SA 0 of bank 0) so that Ambit bitwise operations — which require their
//! operands in the same subarray — work directly. The top rows of the data
//! subarray are reserved for the Ambit compute region (T0–T2 scratch rows,
//! the all-zeros row C0 and all-ones row C1) and for GSA master LUT copies.
//! Each `pluto_subarray_alloc` claims the next pLUTo-enabled subarray
//! (SA 1, SA 2, …).

use crate::design::DesignKind;
use crate::error::PlutoError;
use crate::isa::{Instruction, Program, RowReg, ShiftDir, SubarrayReg};
use crate::lut::{pack_slots, slots_per_row, unpack_slots, Lut};
use crate::partition::PartitionedLut;
use crate::query::QueryScratch;
use pluto_dram::{BankId, DramConfig, Engine, PicoJoules, Picos, RowId, RowLoc, SubarrayId};
use std::collections::HashMap;

/// Rows reserved at the top of the data subarray for Ambit operations.
#[derive(Debug, Clone, Copy)]
struct ComputeRows {
    t0: RowId,
    t1: RowId,
    t2: RowId,
    c0: RowId,
    c1: RowId,
}

/// Physical binding of one row register.
#[derive(Debug, Clone)]
struct RowBinding {
    rows: Vec<RowId>,
    /// Number of elements the register holds.
    size: u32,
    /// Declared element bit width (`bitwidth` operand of the alloc).
    bitwidth: u32,
}

/// Result of running a program: output values and resource usage.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The output register's element values.
    pub outputs: Vec<u64>,
    /// Simulated time the program took.
    pub elapsed: Picos,
    /// Dynamic DRAM energy the program consumed.
    pub energy: PicoJoules,
}

/// The pLUTo Controller: executes ISA programs on a simulated module.
#[derive(Debug)]
pub struct Controller {
    engine: Engine,
    design: DesignKind,
    lut_registry: HashMap<String, Lut>,
    row_regs: HashMap<RowReg, RowBinding>,
    sa_regs: HashMap<SubarrayReg, PartitionedLut>,
    bank: BankId,
    data_subarray: SubarrayId,
    compute: ComputeRows,
    next_data_row: u16,
    /// Master copies are carved from just below the compute region,
    /// growing downward.
    high_cursor: u16,
    next_pluto_subarray: u16,
    slot_bits: u32,
    /// Query scratch buffers reused across `pluto_op` chunks (the op's
    /// output lives in DRAM; the unpacked output vector is never needed).
    scratch: QueryScratch,
}

impl Controller {
    /// Creates a controller for `design` over a fresh module of `cfg`.
    ///
    /// # Errors
    /// Fails if the geometry is too small for the compute region.
    pub fn new(cfg: DramConfig, design: DesignKind) -> Result<Self, PlutoError> {
        let rows = cfg.rows_per_subarray;
        if rows < 16 || cfg.subarrays_per_bank < 3 {
            return Err(PlutoError::AllocationFailed {
                reason: "geometry too small for controller layout".into(),
            });
        }
        let mut engine = Engine::new(cfg.clone());
        let compute = ComputeRows {
            t0: RowId(rows - 1),
            t1: RowId(rows - 2),
            t2: RowId(rows - 3),
            c0: RowId(rows - 4),
            c1: RowId(rows - 5),
        };
        let bank = BankId(0);
        let data_subarray = SubarrayId(0);
        // Initialize the Ambit control rows: C0 = zeros (default), C1 = ones.
        engine
            .poke_row(
                RowLoc {
                    bank,
                    subarray: data_subarray,
                    row: compute.c1,
                },
                &vec![0xFF; cfg.row_bytes],
            )
            .map_err(PlutoError::from)?;
        Ok(Controller {
            engine,
            design,
            lut_registry: HashMap::new(),
            row_regs: HashMap::new(),
            sa_regs: HashMap::new(),
            bank,
            data_subarray,
            compute,
            next_data_row: 0,
            high_cursor: rows - 5,
            next_pluto_subarray: 1,
            slot_bits: 8,
            scratch: QueryScratch::new(),
        })
    }

    /// Registers a LUT under a name so `pluto_subarray_alloc` can find it
    /// (the paper's `lut_file` indirection).
    pub fn register_lut(&mut self, lut: Lut) {
        self.lut_registry.insert(lut.name().to_string(), lut);
    }

    /// The design the controller drives.
    pub fn design(&self) -> DesignKind {
        self.design
    }

    /// Read access to the underlying engine (for cost/stats inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    fn binding(&self, reg: RowReg) -> Result<&RowBinding, PlutoError> {
        self.row_regs
            .get(&reg)
            .ok_or(PlutoError::UnallocatedRegister {
                name: reg.to_string(),
            })
    }

    fn data_loc(&self, row: RowId) -> RowLoc {
        RowLoc {
            bank: self.bank,
            subarray: self.data_subarray,
            row,
        }
    }

    /// Runs `program`, binding `inputs` to the program's declared input
    /// registers in order, and returns the declared output register's
    /// contents.
    ///
    /// # Errors
    /// Fails on malformed programs, unallocated registers, unknown LUTs, or
    /// any underlying DRAM error.
    pub fn run(&mut self, program: &Program, inputs: &[Vec<u64>]) -> Result<RunResult, PlutoError> {
        if inputs.len() != program.inputs.len() {
            return Err(PlutoError::InvalidProgram {
                reason: format!(
                    "{} input vectors supplied, program declares {}",
                    inputs.len(),
                    program.inputs.len()
                ),
            });
        }
        self.slot_bits = program.slot_bits.max(1);
        let clock0 = self.engine.elapsed();
        let energy0 = self.engine.command_energy();
        let mut pending: HashMap<RowReg, &Vec<u64>> = program
            .inputs
            .iter()
            .zip(inputs)
            .map(|((reg, _), data)| (*reg, data))
            .collect();

        for inst in &program.instructions {
            self.exec(inst)?;
            // Fill freshly allocated input registers with caller data.
            if let Instruction::RowAlloc { dst, .. } = inst {
                if let Some(data) = pending.remove(dst) {
                    self.fill_register(*dst, data)?;
                }
            }
        }
        if !pending.is_empty() {
            return Err(PlutoError::InvalidProgram {
                reason: "program never allocated one of its declared inputs".into(),
            });
        }

        let outputs = match program.output {
            Some((reg, _)) => self.read_register(reg)?,
            None => Vec::new(),
        };
        Ok(RunResult {
            outputs,
            elapsed: self.engine.elapsed() - clock0,
            energy: self.engine.command_energy() - energy0,
        })
    }

    /// Writes element values into an allocated register (zero-cost: models
    /// input data already resident in DRAM).
    ///
    /// # Errors
    /// Fails if the register is unallocated, the data overflows it, or a
    /// value exceeds the register's declared bit width.
    pub fn fill_register(&mut self, reg: RowReg, data: &[u64]) -> Result<(), PlutoError> {
        let binding = self.binding(reg)?.clone();
        if data.len() > binding.size as usize {
            return Err(PlutoError::LayoutMismatch {
                reason: format!(
                    "{} values exceed register capacity {}",
                    data.len(),
                    binding.size
                ),
            });
        }
        let mask = crate::lut::width_mask(binding.bitwidth);
        if let Some(&bad) = data.iter().find(|&&v| v & !mask != 0) {
            return Err(PlutoError::LayoutMismatch {
                reason: format!("value {bad} exceeds {reg}'s {}-bit width", binding.bitwidth),
            });
        }
        let per_row = slots_per_row(self.engine.config().row_bytes, self.slot_bits);
        for (chunk, &row) in data.chunks(per_row).zip(&binding.rows) {
            let packed = pack_slots(chunk, self.slot_bits, self.engine.config().row_bytes)?;
            self.engine.poke_row(self.data_loc(row), &packed)?;
        }
        Ok(())
    }

    /// Reads an allocated register's element values.
    ///
    /// # Errors
    /// Fails if the register is unallocated.
    pub fn read_register(&self, reg: RowReg) -> Result<Vec<u64>, PlutoError> {
        let binding = self.binding(reg)?;
        let per_row = slots_per_row(self.engine.config().row_bytes, self.slot_bits);
        let mut out = Vec::with_capacity(binding.size as usize);
        let mut remaining = binding.size as usize;
        for &row in &binding.rows {
            let take = remaining.min(per_row);
            let data = self.engine.peek_row(self.data_loc(row))?;
            out.extend(unpack_slots(&data, self.slot_bits, take));
            remaining -= take;
            if remaining == 0 {
                break;
            }
        }
        Ok(out)
    }

    fn exec(&mut self, inst: &Instruction) -> Result<(), PlutoError> {
        match inst.clone() {
            Instruction::RowAlloc {
                dst,
                size,
                bitwidth,
            } => self.exec_row_alloc(dst, size, bitwidth),
            Instruction::SubarrayAlloc {
                dst,
                num_rows,
                lut_name,
            } => self.exec_subarray_alloc(dst, num_rows, &lut_name),
            Instruction::Op {
                dst,
                src,
                lut,
                lut_size,
                lut_bitw,
            } => self.exec_op(dst, src, lut, lut_size, lut_bitw),
            Instruction::Not { dst, src } => self.exec_not(dst, src),
            Instruction::And { dst, src1, src2 } => self.exec_tra(dst, src1, src2, false),
            Instruction::Or { dst, src1, src2 } => self.exec_tra(dst, src1, src2, true),
            Instruction::BitShift { dir, reg, amount } => self.exec_shift(reg, dir, amount),
            Instruction::ByteShift { dir, reg, amount } => self.exec_shift(reg, dir, amount * 8),
            Instruction::Move { dst, src } => self.exec_move(dst, src),
        }
    }

    fn exec_row_alloc(&mut self, dst: RowReg, size: u32, bitwidth: u32) -> Result<(), PlutoError> {
        let per_row = slots_per_row(self.engine.config().row_bytes, self.slot_bits);
        let rows_needed = (size as usize).div_ceil(per_row) as u16;
        if self.next_data_row + rows_needed > self.high_cursor {
            return Err(PlutoError::AllocationFailed {
                reason: format!("data subarray exhausted allocating {dst}"),
            });
        }
        let rows = (self.next_data_row..self.next_data_row + rows_needed)
            .map(RowId)
            .collect();
        self.next_data_row += rows_needed;
        self.row_regs.insert(
            dst,
            RowBinding {
                rows,
                size,
                bitwidth,
            },
        );
        Ok(())
    }

    fn exec_subarray_alloc(
        &mut self,
        dst: SubarrayReg,
        num_rows: u32,
        lut_name: &str,
    ) -> Result<(), PlutoError> {
        let lut =
            self.lut_registry
                .get(lut_name)
                .cloned()
                .ok_or_else(|| PlutoError::InvalidProgram {
                    reason: format!("LUT `{lut_name}` not registered with the controller"),
                })?;
        if lut.len() != num_rows as usize {
            return Err(PlutoError::InvalidProgram {
                reason: format!(
                    "`{lut_name}` has {} elements, instruction reserves {num_rows} rows",
                    lut.len()
                ),
            });
        }
        // Each allocation claims one (pLUTo, master) subarray pair per
        // §5.6 segment — one pair for a LUT that fits a subarray (masters
        // stay adjacent for 1-hop GSA reloads either way).
        let store = PartitionedLut::load(
            &mut self.engine,
            lut,
            self.bank,
            SubarrayId(self.next_pluto_subarray),
        )?;
        self.next_pluto_subarray += store.subarrays_claimed();
        self.sa_regs.insert(dst, store);
        Ok(())
    }

    fn exec_op(
        &mut self,
        dst: RowReg,
        src: RowReg,
        lut_reg: SubarrayReg,
        lut_size: u32,
        lut_bitw: u32,
    ) -> Result<(), PlutoError> {
        let src_b = self.binding(src)?.clone();
        let dst_b = self.binding(dst)?.clone();
        let mut store = self
            .sa_regs
            .remove(&lut_reg)
            .ok_or(PlutoError::UnallocatedRegister {
                name: lut_reg.to_string(),
            })?;
        let check = (|| {
            if store.lut().len() != lut_size as usize {
                return Err(PlutoError::InvalidProgram {
                    reason: format!(
                        "pluto_op lut_size {lut_size} != LUT length {}",
                        store.lut().len()
                    ),
                });
            }
            if store.lut().slot_bits() != lut_bitw {
                return Err(PlutoError::InvalidProgram {
                    reason: format!(
                        "pluto_op lut_bitw {lut_bitw} incompatible with LUT slot width {}",
                        store.lut().slot_bits()
                    ),
                });
            }
            if lut_bitw != self.slot_bits {
                return Err(PlutoError::InvalidProgram {
                    reason: format!(
                        "pluto_op lut_bitw {lut_bitw} differs from the program slot width {} — \
                         the compiler must align all rows to one slot width",
                        self.slot_bits
                    ),
                });
            }
            Ok(())
        })();
        if let Err(e) = check {
            self.sa_regs.insert(lut_reg, store);
            return Err(e);
        }

        let per_row = slots_per_row(self.engine.config().row_bytes, self.slot_bits);
        let mut remaining = src_b.size as usize;
        let result: Result<(), PlutoError> = (|| {
            for (i, &src_row) in src_b.rows.iter().enumerate() {
                let slots = remaining.min(per_row);
                let dst_row = *dst_b.rows.get(i).ok_or(PlutoError::LayoutMismatch {
                    reason: format!("{dst} too small for {src}'s rows"),
                })?;
                store.query_resident_with(
                    &mut self.engine,
                    self.design,
                    self.data_subarray,
                    self.data_subarray,
                    src_row,
                    dst_row,
                    slots,
                    &mut self.scratch,
                )?;
                remaining -= slots;
                if remaining == 0 {
                    break;
                }
            }
            Ok(())
        })();
        self.sa_regs.insert(lut_reg, store);
        result
    }

    fn exec_not(&mut self, dst: RowReg, src: RowReg) -> Result<(), PlutoError> {
        let src_b = self.binding(src)?.clone();
        let dst_b = self.binding(dst)?.clone();
        for (i, &s) in src_b.rows.iter().enumerate() {
            let d = *dst_b.rows.get(i).ok_or(PlutoError::LayoutMismatch {
                reason: format!("{dst} too small for {src}"),
            })?;
            self.engine.row_clone_dcc(self.data_loc(s), d)?;
        }
        Ok(())
    }

    /// Ambit AND/OR via triple-row activation with a control row:
    /// `MAJ(a, b, 0) = a AND b`, `MAJ(a, b, 1) = a OR b`.
    fn exec_tra(&mut self, dst: RowReg, a: RowReg, b: RowReg, or: bool) -> Result<(), PlutoError> {
        let a_b = self.binding(a)?.clone();
        let b_b = self.binding(b)?.clone();
        let dst_b = self.binding(dst)?.clone();
        let control = if or { self.compute.c1 } else { self.compute.c0 };
        for i in 0..a_b.rows.len() {
            let (ra, rb) = (
                a_b.rows[i],
                *b_b.rows.get(i).ok_or(PlutoError::LayoutMismatch {
                    reason: format!("{b} shorter than {a}"),
                })?,
            );
            let rd = *dst_b.rows.get(i).ok_or(PlutoError::LayoutMismatch {
                reason: format!("{dst} too small for {a}"),
            })?;
            // AAP(a, T0); AAP(b, T1); AAP(Ck, T2); TRA; AAP(T0, dst).
            self.engine
                .row_clone_fpm(self.data_loc(ra), self.compute.t0)?;
            self.engine
                .row_clone_fpm(self.data_loc(rb), self.compute.t1)?;
            self.engine
                .row_clone_fpm(self.data_loc(control), self.compute.t2)?;
            self.engine.triple_row_activate(
                self.bank,
                self.data_subarray,
                [self.compute.t0, self.compute.t1, self.compute.t2],
            )?;
            self.engine
                .row_clone_fpm(self.data_loc(self.compute.t0), rd)?;
        }
        Ok(())
    }

    fn exec_shift(&mut self, reg: RowReg, dir: ShiftDir, bits: u32) -> Result<(), PlutoError> {
        let binding = self.binding(reg)?.clone();
        for &r in &binding.rows {
            self.engine
                .shift_row(self.data_loc(r), dir == ShiftDir::Left, bits)?;
        }
        Ok(())
    }

    fn exec_move(&mut self, dst: RowReg, src: RowReg) -> Result<(), PlutoError> {
        let src_b = self.binding(src)?.clone();
        let dst_b = self.binding(dst)?.clone();
        for (i, &s) in src_b.rows.iter().enumerate() {
            let d = *dst_b.rows.get(i).ok_or(PlutoError::LayoutMismatch {
                reason: format!("{dst} too small for {src}"),
            })?;
            self.engine.row_clone_fpm(self.data_loc(s), d)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::parse_program;
    use crate::lut::catalog;

    fn cfg() -> DramConfig {
        DramConfig {
            row_bytes: 64,
            burst_bytes: 8,
            banks: 2,
            subarrays_per_bank: 8,
            rows_per_subarray: 512,
            ..DramConfig::ddr4_2400()
        }
    }

    fn simple_map_program(lut: &Lut, n: u32) -> Program {
        Program {
            instructions: vec![
                Instruction::RowAlloc {
                    dst: RowReg(0),
                    size: n,
                    bitwidth: lut.input_bits(),
                },
                Instruction::RowAlloc {
                    dst: RowReg(1),
                    size: n,
                    bitwidth: lut.output_bits(),
                },
                Instruction::SubarrayAlloc {
                    dst: SubarrayReg(0),
                    num_rows: lut.len() as u32,
                    lut_name: lut.name().to_string(),
                },
                Instruction::Op {
                    dst: RowReg(1),
                    src: RowReg(0),
                    lut: SubarrayReg(0),
                    lut_size: lut.len() as u32,
                    lut_bitw: lut.slot_bits(),
                },
            ],
            inputs: vec![(RowReg(0), lut.input_bits())],
            output: Some((RowReg(1), lut.output_bits())),
            slot_bits: lut.slot_bits(),
        }
    }

    #[test]
    fn runs_a_map_program_end_to_end() {
        for design in DesignKind::ALL {
            let mut c = Controller::new(cfg(), design).unwrap();
            let lut = catalog::popcount(4).unwrap();
            c.register_lut(lut.clone());
            let prog = simple_map_program(&lut, 40);
            let inputs: Vec<u64> = (0..40u64).map(|i| i % 16).collect();
            let result = c.run(&prog, std::slice::from_ref(&inputs)).unwrap();
            let expect: Vec<u64> = inputs.iter().map(|x| x.count_ones() as u64).collect();
            assert_eq!(result.outputs, expect, "{design}");
            assert!(result.elapsed > Picos::ZERO);
            assert!(result.energy > PicoJoules::ZERO);
        }
    }

    #[test]
    fn runs_a_partitioned_map_program_end_to_end() {
        // A 1024-entry LUT over 512-row subarrays: the ISA path routes
        // `pluto_op` through two §5.6 segments transparently.
        for design in DesignKind::ALL {
            let mut c = Controller::new(cfg(), design).unwrap();
            let lut = Lut::from_fn("wide10", 10, 16, |x| (x * x) & 0xFFFF).unwrap();
            c.register_lut(lut.clone());
            let prog = simple_map_program(&lut, 40);
            let inputs: Vec<u64> = (0..40u64).map(|i| (i * 31) % 1024).collect();
            let before = c.engine().stats().sweep_steps;
            let result = c.run(&prog, std::slice::from_ref(&inputs)).unwrap();
            let sweeps = c.engine().stats().sweep_steps - before;
            let expect: Vec<u64> = inputs.iter().map(|&x| (x * x) & 0xFFFF).collect();
            assert_eq!(result.outputs, expect, "{design}");
            // 40 elements in 32-slot rows (64 B / 16-bit slots) => two
            // queries, both segments swept each time: 2 x 2 x 512 steps.
            assert_eq!(sweeps, 2 * 2 * 512, "{design}");
        }
    }

    #[test]
    fn multi_row_registers_chunk_queries() {
        // 64-byte rows, 8-bit slots => 64 elements per row; 150 elements
        // need 3 rows and 3 LUT queries.
        let mut c = Controller::new(cfg(), DesignKind::Gmc).unwrap();
        let lut = catalog::binarize(100).unwrap();
        c.register_lut(lut.clone());
        let prog = simple_map_program(&lut, 150);
        let inputs: Vec<u64> = (0..150u64).map(|i| (i * 7) % 256).collect();
        let before = c.engine().stats().sweep_steps;
        let result = c.run(&prog, std::slice::from_ref(&inputs)).unwrap();
        let sweeps = c.engine().stats().sweep_steps - before;
        assert_eq!(sweeps, 3 * 256, "3 queries x 256 rows");
        let expect: Vec<u64> = inputs
            .iter()
            .map(|&x| if x >= 100 { 255 } else { 0 })
            .collect();
        assert_eq!(result.outputs, expect);
    }

    #[test]
    fn figure5_shift_or_op_sequence_computes_mul() {
        // The paper's Fig. 5 pattern: shift A left, OR with B, LUT the
        // merged operands. 2-bit a,b in 4-bit slots; mul2 LUT.
        let lut = catalog::mul(2).unwrap(); // input 4 bits, output 4 bits
        let mut c = Controller::new(cfg(), DesignKind::Bsa).unwrap();
        c.register_lut(lut.clone());
        let text = format!(
            "pluto_row_alloc $prg0, 32, 2\n\
             pluto_row_alloc $prg1, 32, 2\n\
             pluto_row_alloc $prg5, 32, 4\n\
             pluto_row_alloc $prg3, 32, 4\n\
             pluto_subarray_alloc $lut_rg0, {}, \"{}\"\n\
             pluto_bit_shift_l $prg0, 2\n\
             pluto_or $prg5, $prg0, $prg1\n\
             pluto_op $prg3, $prg5, $lut_rg0, {}, 4\n",
            lut.len(),
            lut.name(),
            lut.len()
        );
        let prog = Program {
            instructions: parse_program(&text).unwrap(),
            inputs: vec![(RowReg(0), 2), (RowReg(1), 2)],
            output: Some((RowReg(3), 4)),
            slot_bits: 4,
        };
        let a: Vec<u64> = (0..32u64).map(|i| i % 4).collect();
        let b: Vec<u64> = (0..32u64).map(|i| (i / 4) % 4).collect();
        let result = c.run(&prog, &[a.clone(), b.clone()]).unwrap();
        let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
        assert_eq!(result.outputs, expect);
    }

    #[test]
    fn ambit_and_or_not_row_ops() {
        let mut c = Controller::new(cfg(), DesignKind::Bsa).unwrap();
        let prog = Program {
            instructions: vec![
                Instruction::RowAlloc {
                    dst: RowReg(0),
                    size: 64,
                    bitwidth: 8,
                },
                Instruction::RowAlloc {
                    dst: RowReg(1),
                    size: 64,
                    bitwidth: 8,
                },
                Instruction::RowAlloc {
                    dst: RowReg(2),
                    size: 64,
                    bitwidth: 8,
                },
                Instruction::RowAlloc {
                    dst: RowReg(3),
                    size: 64,
                    bitwidth: 8,
                },
                Instruction::RowAlloc {
                    dst: RowReg(4),
                    size: 64,
                    bitwidth: 8,
                },
                Instruction::And {
                    dst: RowReg(2),
                    src1: RowReg(0),
                    src2: RowReg(1),
                },
                Instruction::Or {
                    dst: RowReg(3),
                    src1: RowReg(0),
                    src2: RowReg(1),
                },
                Instruction::Not {
                    dst: RowReg(4),
                    src: RowReg(0),
                },
            ],
            inputs: vec![(RowReg(0), 8), (RowReg(1), 8)],
            output: Some((RowReg(2), 8)),
            slot_bits: 8,
        };
        let a: Vec<u64> = (0..64u64).map(|i| (i * 37) % 256).collect();
        let b: Vec<u64> = (0..64u64).map(|i| (i * 91 + 13) % 256).collect();
        let result = c.run(&prog, &[a.clone(), b.clone()]).unwrap();
        let expect_and: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x & y).collect();
        assert_eq!(result.outputs, expect_and);
        let ors = c.read_register(RowReg(3)).unwrap();
        let expect_or: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x | y).collect();
        assert_eq!(ors, expect_or);
        let nots = c.read_register(RowReg(4)).unwrap();
        let expect_not: Vec<u64> = a.iter().map(|&x| (!x) & 0xFF).collect();
        assert_eq!(nots, expect_not);
    }

    #[test]
    fn move_copies_registers() {
        let mut c = Controller::new(cfg(), DesignKind::Gmc).unwrap();
        let prog = Program {
            instructions: vec![
                Instruction::RowAlloc {
                    dst: RowReg(0),
                    size: 10,
                    bitwidth: 8,
                },
                Instruction::RowAlloc {
                    dst: RowReg(1),
                    size: 10,
                    bitwidth: 8,
                },
                Instruction::Move {
                    dst: RowReg(1),
                    src: RowReg(0),
                },
            ],
            inputs: vec![(RowReg(0), 8)],
            output: Some((RowReg(1), 8)),
            slot_bits: 8,
        };
        let data: Vec<u64> = (100..110).collect();
        let r = c.run(&prog, std::slice::from_ref(&data)).unwrap();
        assert_eq!(r.outputs, data);
    }

    #[test]
    fn errors_on_unregistered_lut_and_unallocated_register() {
        let mut c = Controller::new(cfg(), DesignKind::Bsa).unwrap();
        let prog = Program {
            instructions: vec![Instruction::SubarrayAlloc {
                dst: SubarrayReg(0),
                num_rows: 16,
                lut_name: "nope".into(),
            }],
            ..Program::default()
        };
        assert!(matches!(
            c.run(&prog, &[]),
            Err(PlutoError::InvalidProgram { .. })
        ));
        let prog = Program {
            instructions: vec![Instruction::Move {
                dst: RowReg(1),
                src: RowReg(0),
            }],
            ..Program::default()
        };
        assert!(matches!(
            c.run(&prog, &[]),
            Err(PlutoError::UnallocatedRegister { .. })
        ));
    }

    #[test]
    fn wrong_input_count_rejected() {
        let mut c = Controller::new(cfg(), DesignKind::Bsa).unwrap();
        let lut = catalog::popcount(4).unwrap();
        c.register_lut(lut.clone());
        let prog = simple_map_program(&lut, 8);
        assert!(matches!(
            c.run(&prog, &[]),
            Err(PlutoError::InvalidProgram { .. })
        ));
    }

    #[test]
    fn gsa_program_reloads_between_chunked_queries() {
        let mut c = Controller::new(cfg(), DesignKind::Gsa).unwrap();
        let lut = catalog::popcount(4).unwrap();
        c.register_lut(lut.clone());
        // 200 4-bit-slot elements in 64-byte rows: 128 per row => 2 queries.
        let mut prog = simple_map_program(&lut, 200);
        prog.slot_bits = 4;
        let inputs: Vec<u64> = (0..200u64).map(|i| i % 16).collect();
        let before = c.engine().stats().lisa_hops;
        let result = c.run(&prog, std::slice::from_ref(&inputs)).unwrap();
        let hops = c.engine().stats().lisa_hops - before;
        // Second query must reload all 16 rows (master is adjacent: 1 hop
        // each) plus 2 copy-out hops; ≥ 16.
        assert!(hops >= 16 + 2, "hops = {hops}");
        let expect: Vec<u64> = inputs.iter().map(|x| x.count_ones() as u64).collect();
        assert_eq!(result.outputs, expect);
    }
}
