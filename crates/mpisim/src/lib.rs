//! # mpisim — a thread-backed MPI-3 subset
//!
//! The paper's implementation needs three MPI capabilities that have no
//! mature Rust binding (rsmpi lacks MPI-3 shared-memory window support):
//!
//! 1. **communicator management** — `MPI_Comm_split_type(..., SHARED)`
//!    to group the ranks of one compute node;
//! 2. **passive-target RMA** — `MPI_Win_lock` / `MPI_Win_unlock`,
//!    `MPI_Fetch_and_op`, `MPI_Compare_and_swap` on a window exposed by
//!    one rank (the *global work queue*);
//! 3. **MPI-3 shared-memory windows** — `MPI_Win_allocate_shared` for a
//!    node-local window every rank of the node can address directly (the
//!    *local work queue*).
//!
//! This crate provides those capabilities over OS threads: every MPI
//! *rank* is a thread, a *compute node* is a configurable group of ranks
//! ([`Topology`]), message passing uses per-rank mailboxes, and windows
//! are shared atomic buffers guarded by a queued lock that counts
//! contention (the statistic behind the paper's `MPI_Win_lock`
//! lock-polling discussion).
//!
//! The semantics are faithful where the paper depends on them —
//! non-overtaking point-to-point ordering, atomic RMA ops, exclusive /
//! shared window locks, node-scoped shared windows — and simplified
//! elsewhere (no derived datatypes, no inter-communicators, no wildcards
//! across communicators).
//!
//! ```
//! use mpisim::{Topology, Universe};
//!
//! // 2 nodes x 2 ranks; every rank reports (world rank, node id).
//! let out = Universe::run(Topology::new(2, 2), |p| {
//!     (p.world().rank(), p.node_id())
//! });
//! assert_eq!(out, vec![(0, 0), (1, 0), (2, 1), (3, 1)]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod collectives;
pub mod comm;
pub mod error;
pub mod message;
pub mod rmalog;
pub mod sync;
pub mod topology;
pub mod universe;
pub mod window;

pub use comm::Comm;
pub use error::{Error, Result};
pub use rmalog::{AtomicOpKind, RmaEvent, RmaLog, RmaRecord};
pub use sync::{LockStats, QueuedLock};
pub use topology::Topology;
pub use universe::{Process, Universe};
pub use window::{LockKind, RankWinStats, RmaOp, Window};
