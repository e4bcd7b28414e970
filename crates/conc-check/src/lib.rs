//! # conc-check — deterministic concurrency checking for `dls-service`
//!
//! A loom-style model checker built from scratch (no external crates)
//! for the concurrent core of the `dls-service` chunk scheduler. Its
//! one user is `dls-service`'s `conc_models`, which runs the real
//! server `State` through it:
//!
//! * [`sync`] — instrumented `AtomicU64`/`AtomicBool`/`Mutex`/`Condvar`
//!   that `dls-service` swaps in under its `conc-check` feature. Every
//!   visible operation yields to a deterministic scheduler; outside a
//!   model run they degrade to plain `std::sync`.
//! * [`thread`] — model-thread spawning ([`thread::spawn`] +
//!   [`thread::JoinHandle`]).
//! * [`check`] — the schedule explorer: stateless DFS over every
//!   scheduling decision, with sleep-set partial-order reduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explore;
mod sched;
pub mod sync;
pub mod thread;

pub use explore::{check, Counterexample, Outcome, Stats};
