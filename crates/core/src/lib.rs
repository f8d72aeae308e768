//! # pluto-core — the pLUTo architecture
//!
//! Implements the primary contribution of *pLUTo: Enabling Massively
//! Parallel Computation in DRAM via Lookup Tables* (Ferreira et al., MICRO
//! 2022) on top of the [`pluto_dram`] substrate:
//!
//! * [`design`] — the three hardware designs (BSA / GSA / GMC) and their
//!   Table 1 analytic cost models.
//! * [`lut`] — lookup tables, the bit-parallel row layout, and a catalog of
//!   the paper's workload LUTs.
//! * [`store`] — LUT residence in a pLUTo-enabled subarray (vertical
//!   replication, GSA master copies and reloads).
//! * [`match_logic`] — the per-element comparators and matchline semantics.
//! * [`query`] — the five-step pLUTo LUT Query executed as real DRAM
//!   command streams (bit-exact data path, Table 1-faithful costs).
//! * [`isa`] — the pLUTo ISA (Table 2) with assembler/disassembler.
//! * [`controller`] — the pLUTo Controller (§6.4): executes ISA programs.
//! * [`compiler`] — the pLUTo Compiler (§6.3): expression graphs, operand
//!   alignment, lowering to ISA programs.
//! * [`library`] — the pLUTo Library (§6.2): high-level routines
//!   (`api_pluto_add`, `api_pluto_mul`, arbitrary maps) over a device
//!   facade.
//! * [`area`] — the Table 5 area model.
//! * [`partition`] — the store every LUT lives in: §5.6 partitioned
//!   queries across subarrays (same latency, segment-count × energy),
//!   where a LUT that fits one subarray is the one-segment case.
//! * [`plan`] — compiled query plans (`DESIGN.md` §10): a process-wide
//!   cache of recorded per-lane cost tapes, so warm segment lanes apply
//!   a memoized delta instead of re-simulating every command.
//! * [`salp`] — subarray-level parallelism scaling, tFAW sensitivity.
//! * [`loading`] — the §8.5 LUT-loading overhead model (Fig. 11).
//! * [`session`] — the unified execution API (`DESIGN.md` §5): explicit
//!   [`ExecConfig`]s build [`Session`]s that run pluggable [`Workload`]
//!   scenarios and accumulate [`CostReport`]s.
//! * [`cluster`] — the sharded parallel executor (`DESIGN.md` §6): a
//!   deterministic multi-worker [`Cluster`] with per-configuration
//!   machine pooling, serial-identical results in submission order.
//! * `deque` (crate-internal) — per-worker work-stealing deques, the
//!   scheduling substrate under both the cluster and the serve front-end.
//! * [`serve`] — the streaming query service (`DESIGN.md` §9): a
//!   long-lived [`serve::Server`] with non-blocking ingestion, affinity
//!   batching, and per-ticket replies bit-identical to serial execution.
//!
//! ## Quickstart
//!
//! ```
//! use pluto_core::prelude::*;
//!
//! # fn main() -> Result<(), pluto_core::PlutoError> {
//! let mut machine = PlutoMachine::ddr4(DesignKind::Gmc)?;
//! let lut = Lut::from_fn("square", 8, 16, |x| x * x)?;
//! let inputs: Vec<u64> = (0..100).collect();
//! let out = machine.map(&lut, &inputs)?;
//! assert_eq!(out.values[42], 42 * 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod cluster;
pub mod compiler;
pub mod controller;
pub(crate) mod deque;
pub mod design;
pub mod error;
pub mod isa;
pub mod library;
pub mod loading;
pub mod lut;
pub mod match_logic;
pub mod partition;
pub mod plan;
pub mod query;
pub mod salp;
pub mod serve;
pub mod session;
pub mod store;

pub use cluster::Cluster;
pub use design::{DesignKind, DesignModel};
pub use error::PlutoError;
pub use library::{MapResult, PlutoMachine};
pub use lut::Lut;
pub use partition::{PartitionedCost, PartitionedLut};
pub use plan::PlanStats;
pub use query::{QueryCost, QueryExecutor, QueryPlacement, QueryScratch};
pub use serve::{QueryReply, QuerySpec, ServeConfig, Server, Ticket};
pub use session::{CostReport, ExecConfig, Session, SessionBuilder, Workload};
pub use store::LutStore;

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::cluster::Cluster;
    pub use crate::design::{DesignKind, DesignModel};
    pub use crate::error::PlutoError;
    pub use crate::library::{MapResult, PlutoMachine};
    pub use crate::lut::{catalog, Lut};
    pub use crate::partition::{PartitionedCost, PartitionedLut};
    pub use crate::query::{QueryCost, QueryExecutor, QueryPlacement};
    pub use crate::serve::{QueryReply, QuerySpec, ServeConfig, Server, Ticket};
    pub use crate::session::{CostReport, ExecConfig, Session, SessionBuilder, Workload};
    pub use crate::store::LutStore;
    pub use pluto_dram::{DramConfig, Engine, MemoryKind};
}
