//! # resilience — fault injection and chunk-lease recovery
//!
//! The paper's hierarchical MPI+MPI scheme (arXiv:1903.09510)
//! deliberately has no master and no barriers: the fastest rank of a
//! node refills the node queue from a global queue that is nothing but
//! two RMA counters (arXiv:2101.07050). That economy is also a
//! liability — nothing in the protocol notices a crashed rank, so a
//! single failure can strand an in-flight chunk forever or leave the
//! shared-window lock held by a corpse.
//!
//! This crate supplies both halves of the answer:
//!
//! * [`plan`] — a deterministic, seeded [`FaultPlan`]: rank crashes at
//!   a virtual time (or after k sub-chunks for the real-thread
//!   executors), crash-while-holding-lock, straggler slowdown factors,
//!   and message delay/drop. Executors query the plan; they never roll
//!   their own dice, so every chaos run is reproducible.
//! * [`lease`] — the [`LeaseTable`]: chunk grants become revocable
//!   leases `(owner, range, epoch)` instead of irrevocable grants. A
//!   lease is completed by its owner or reclaimed exactly once by a
//!   survivor; double reclamation is a hard error.
//! * [`event`] — [`RecoveryEvent`]s (crash, lease expiry, reclaim,
//!   refill failover, lock repair) that executors append to their
//!   results so traces and reports can attribute who reclaimed what.
//!
//! The executors in `hier` consume these types; the end-to-end chaos
//! sweep in `tests/` closes the loop by checking every faulted run
//! against `hier::queue::exactly_once`, the `dls::verify` ledger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod event;
pub mod lease;
pub mod plan;

pub use event::RecoveryEvent;
pub use lease::{Lease, LeaseError, LeaseId, LeaseTable};
pub use plan::{Fault, FaultKind, FaultPlan, RecoveryParams};
