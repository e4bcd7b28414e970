//! # hier — hierarchical dynamic loop self-scheduling
//!
//! The paper's contribution: loop iterations are self-scheduled at two
//! levels. At the **inter-node** level, compute nodes obtain chunks from
//! a *global work queue* (two shared counters — latest scheduling step
//! and total scheduled iterations — advanced with passive-target RMA).
//! At the **intra-node** level, the workers of a node obtain sub-chunks
//! from a *local work queue*.
//!
//! Two implementations of the intra-node level are provided, matching
//! the paper's comparison:
//!
//! * **MPI+MPI** ([`Approach::MpiMpi`]) — the proposed approach: the
//!   local queue lives in an MPI-3 shared-memory window guarded by
//!   `MPI_Win_lock`. *Any* worker that finds the queue empty refills it
//!   from the global queue — the fastest worker takes the
//!   responsibility, and nobody ever waits at a chunk boundary.
//! * **MPI+OpenMP** ([`Approach::MpiOpenMp`]) — the baseline: one MPI
//!   process per node obtains chunks; an OpenMP-style thread team
//!   executes each chunk under `schedule(static|dynamic|guided)` with an
//!   **implicit barrier at the end of every chunk** — the
//!   synchronization the MPI+MPI approach eliminates (paper Fig. 2
//!   vs. Fig. 3).
//!
//! Each approach runs on two backends:
//!
//! * [`live`] — real OS threads over the `mpisim` runtime (windows,
//!   locks, collectives): functional execution, used for correctness.
//! * [`sim`] — deterministic virtual time over `cluster-sim`:
//!   regenerates the paper's figures with modelled network, lock and
//!   barrier costs at full 16-node scale.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod adaptive;
pub mod config;
pub mod layout;
pub mod live;
pub mod queue;
pub mod sim;
pub mod stats;

pub use config::{Approach, GlobalQueueMode, HierSpec};
pub use stats::{NodeStats, RunStats, WorkerStats};
