//! # pluto-dram — DRAM substrate simulator for the pLUTo reproduction
//!
//! This crate implements the DRAM substrate that the pLUTo architecture
//! (Ferreira et al., MICRO 2022) is built on: a *command-level timing and
//! energy model* combined with a *bit-accurate functional array model*.
//!
//! The paper evaluates pLUTo with a custom analytical simulator that parses
//! the sequence of DRAM commands required by each operation and enforces the
//! memory's timing parameters (paper §7.1). This crate reproduces that
//! simulator and extends it with functional semantics so that every workload's
//! output can be validated bit-for-bit against reference software.
//!
//! ## Subsystems
//!
//! * [`geometry`] — hierarchical DRAM organization (module → bank group →
//!   bank → subarray → row → cell) with typed addresses.
//! * [`timing`] — DDR4-2400 and HMC/3DS timing parameter sets (tRCD, tRP,
//!   tRAS, tFAW, …) in integer picoseconds.
//! * [`energy`] — per-command energy model seeded from CACTI-7-derived
//!   published values (paper §7.1 uses CACTI 7 directly).
//! * [`command`] — the DRAM command vocabulary, including the enhanced
//!   commands pLUTo relies on (RowClone-FPM, LISA-RBM, Ambit TRA, DRISA
//!   shifts, and pLUTo sweep steps).
//! * [`mod@array`] — sparse bit-accurate storage for banks/subarrays/rows with
//!   row-buffer semantics.
//! * [`engine`] — the serial command-level simulator: executes commands,
//!   mutates the functional array, accumulates elapsed time and energy, and
//!   enforces timing constraints (including the four-activate window, tFAW).
//! * [`timing_model`] — the timing-backend seam: one issue-time policy
//!   per [`TimingBackend`], the paper's analytic model and an
//!   event-driven per-bank backend that also charges row-buffer
//!   conflicts and command-queue contention (`DESIGN.md` §11).
//! * [`schedule`] — the multi-lane makespan scheduler used to model
//!   subarray-level parallelism (MASA/SALP) under the shared tFAW constraint.
//! * [`stats`] — command counters.
//!
//! ## Example
//!
//! ```
//! use pluto_dram::{DramConfig, Engine, RowLoc};
//!
//! # fn main() -> Result<(), pluto_dram::DramError> {
//! let mut engine = Engine::new(DramConfig::ddr4_2400());
//! let loc = RowLoc::new(0, 3, 7);
//! engine.write_row(loc, &vec![0xAB; engine.config().row_bytes()])?;
//! engine.activate(loc)?;
//! assert!(engine.row_buffer(loc.bank, loc.subarray)?.data.iter().all(|&b| b == 0xAB));
//! engine.precharge(loc.bank, loc.subarray)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
pub mod command;
pub mod energy;
pub mod engine;
pub mod error;
pub mod geometry;
pub mod schedule;
pub mod stats;
pub mod timing;
pub mod timing_model;
pub mod units;

pub use array::{MemoryArray, RowBuffer, RowTable, MAX_FIELD_BITS};
pub use command::{Command, SweepStepKind};
pub use energy::EnergyModel;
pub use engine::{CostTape, Engine};
pub use error::DramError;
pub use geometry::{BankId, DramConfig, MemoryKind, RowId, RowLoc, SubarrayId};
pub use schedule::{Lane, LaneStep, ParallelScheduler, StepKind};
pub use stats::CommandStats;
pub use timing::TimingParams;
pub use timing_model::{ActClass, ActIssue, TimingBackend, ACT_QUEUE_DEPTH};
pub use units::{PicoJoules, Picos};
