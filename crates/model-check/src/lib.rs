//! # model-check — small-scope model checking of the two-level queue
//!
//! The paper's MPI+MPI approach hinges on a concurrent protocol: a
//! global work queue advanced by `MPI_Fetch_and_op`, per-node local
//! queues guarded by `MPI_Win_lock`, a `refilling` flag electing the
//! fastest rank as refiller, and a `global_done` flag for
//! termination. The executors in `hier` run *one* schedule per
//! configuration; this crate checks **all of them** at small scope:
//!
//! * [`model`] — the protocol as a compact transition system whose
//!   critical sections are `hier::protocol`'s decisions and
//!   transaction shapes (the ones the virtual-time executor runs), with
//!   seeded-broken [`model::Variant`]s (unlocked refill, non-atomic
//!   FAA, lost unlock) and a bounded crash adversary
//!   ([`model::Config::with_crashes`]) against graded
//!   [`model::Recovery`] levels — proving the lease protocol
//!   necessary (lease-free recovery loses iterations) and sufficient
//!   (exactly-once and deadlock-free under crashes) at small scope;
//! * [`explore`] — BFS over every reachable interleaving with state
//!   hashing, optional ample-set partial-order reduction, deadlock
//!   detection, weakly-fair livelock (non-progress SCC) detection and
//!   the FCFS bounded-bypass bound;
//! * [`replay`] — minimal counterexample traces re-emitted as the
//!   executor's RMA access log (same [`hier::sim::layout`] windows
//!   and displacements) and fed through `rma-check`;
//! * [`switch`] — the AUTO mode's technique-switch adversary, driving
//!   the service's job kernel `durability::JobCore` itself: DFS over
//!   every ladder choice at every batch boundary, a crash sweep over
//!   every event placement (switch-then-crash included), and two
//!   seeded-broken re-basings — the counters hidden from `switch` or
//!   from `re_arm` — whose grant past `n` the checker must find.
//!
//! ```
//! use dls::Kind;
//! use model_check::{explore, model};
//!
//! let cfg = model::Config::new(1, 2, 6, Kind::GSS, Kind::SS);
//! let out = explore::explore(
//!     &cfg,
//!     &explore::Options { wait_bound: Some(cfg.wait_bound()), ..Default::default() },
//! );
//! assert!(out.violation.is_none());
//! assert!(out.terminals > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod explore;
pub mod model;
pub mod replay;
pub mod switch;

pub use explore::{explore, Counterexample, Options, Outcome};
pub use model::{Config, Recovery, Variant, Violation};
pub use replay::{replay, Replay};
pub use switch::{
    crash_sweep, explore_switch_plans, SwitchConfig, SwitchOutcome, SwitchPlan, SwitchVariant,
    SwitchViolation,
};
