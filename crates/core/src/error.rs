//! Error type for the pLUTo architecture layer.

use pluto_dram::DramError;
use std::error::Error;
use std::fmt;

/// Errors produced by the pLUTo layer (designs, query engine, ISA,
/// compiler, controller).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlutoError {
    /// An underlying DRAM command failed.
    Dram(DramError),
    /// A LUT definition was invalid (size not a power of two, element wider
    /// than the declared output width, …).
    InvalidLut {
        /// Explanation of the violation.
        reason: String,
    },
    /// An input value cannot index the LUT (≥ 2^input_bits).
    IndexOutOfRange {
        /// The offending value.
        value: u64,
        /// Number of index bits the LUT supports.
        input_bits: u32,
    },
    /// Query input length does not fit the row/slot layout.
    LayoutMismatch {
        /// Explanation of the violation.
        reason: String,
    },
    /// An ISA register was used before being allocated.
    UnallocatedRegister {
        /// The register's textual name (e.g. `$prg3`).
        name: String,
    },
    /// The controller could not place an allocation (out of rows or
    /// subarrays).
    AllocationFailed {
        /// Explanation of the failure.
        reason: String,
    },
    /// A program was malformed (type/width mismatch, bad operand, …).
    InvalidProgram {
        /// Explanation of the violation.
        reason: String,
    },
    /// A cluster worker caught a panic while executing a workload (the
    /// job is reported failed; the worker and its pool stay usable).
    WorkerPanic {
        /// The panic payload, stringified.
        reason: String,
    },
    /// A job was dropped before it could reply (the worker pool had shut
    /// down), so its reply channel closed with work outstanding — the
    /// batch/query cannot complete. Surfaced instead of hanging or
    /// unwrapping a poisoned lock, so callers degrade gracefully when the
    /// pool is gone.
    WorkerLost {
        /// What was observed (which channel closed, how many results
        /// were still outstanding).
        reason: String,
    },
}

impl fmt::Display for PlutoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlutoError::Dram(e) => write!(f, "dram: {e}"),
            PlutoError::InvalidLut { reason } => write!(f, "invalid LUT: {reason}"),
            PlutoError::IndexOutOfRange { value, input_bits } => {
                write!(
                    f,
                    "value {value} does not fit in a {input_bits}-bit LUT index"
                )
            }
            PlutoError::LayoutMismatch { reason } => write!(f, "layout mismatch: {reason}"),
            PlutoError::UnallocatedRegister { name } => {
                write!(f, "register {name} used before allocation")
            }
            PlutoError::AllocationFailed { reason } => write!(f, "allocation failed: {reason}"),
            PlutoError::InvalidProgram { reason } => write!(f, "invalid program: {reason}"),
            PlutoError::WorkerPanic { reason } => {
                write!(f, "a cluster worker panicked while running a job: {reason}")
            }
            PlutoError::WorkerLost { reason } => {
                write!(f, "a worker was lost with work outstanding: {reason}")
            }
        }
    }
}

impl Error for PlutoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlutoError::Dram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DramError> for PlutoError {
    fn from(e: DramError) -> Self {
        PlutoError::Dram(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pluto_dram::RowLoc;

    #[test]
    fn displays_and_sources() {
        let e = PlutoError::from(DramError::OutOfBounds {
            loc: RowLoc::new(0, 0, 0),
        });
        assert!(e.to_string().contains("dram"));
        assert!(Error::source(&e).is_some());
        let e = PlutoError::IndexOutOfRange {
            value: 300,
            input_bits: 8,
        };
        assert!(e.to_string().contains("300"));
        assert!(Error::source(&e).is_none());
    }
}
