//! Error type for the simulated MPI runtime.

use std::fmt;

/// Errors surfaced by the simulated MPI runtime. Real MPI aborts the job
/// on most of these; we return them so tests can assert on misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A rank index was outside the communicator.
    RankOutOfRange {
        /// The offending rank.
        rank: u32,
        /// Size of the communicator.
        size: u32,
    },
    /// A received message's payload type did not match the requested type.
    TypeMismatch {
        /// Source rank of the mismatched message.
        src: u32,
        /// Tag of the mismatched message.
        tag: i32,
    },
    /// A window offset was outside the target region.
    OffsetOutOfRange {
        /// The offending offset.
        offset: usize,
        /// Length of the target region.
        len: usize,
    },
    /// `allocate_shared` was called on a communicator that spans more
    /// than one node — real MPI would fail the same way.
    NotShared,
    /// A window lock was released by a rank that does not hold it.
    NotLocked,
    /// The operation targeted a rank that has died (ULFM-style
    /// `MPI_ERR_PROC_FAILED`): the runtime reports the failure instead
    /// of letting the caller hang on a corpse.
    RankFailed {
        /// The dead rank (communicator rank of the failed target/peer).
        rank: u32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range for communicator of size {size}")
            }
            Error::TypeMismatch { src, tag } => {
                write!(f, "message from rank {src} tag {tag} has unexpected payload type")
            }
            Error::OffsetOutOfRange { offset, len } => {
                write!(f, "window offset {offset} out of range (target region len {len})")
            }
            Error::NotShared => {
                write!(f, "allocate_shared requires a single-node communicator")
            }
            Error::NotLocked => write!(f, "window unlock without a matching lock"),
            Error::RankFailed { rank } => write!(f, "rank {rank} has failed (proc failed)"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for runtime operations.
pub type Result<T> = std::result::Result<T, Error>;
