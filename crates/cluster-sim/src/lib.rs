//! # cluster-sim — deterministic discrete-event cluster simulation
//!
//! The paper's evaluation runs on a 16-node Intel Xeon cluster (miniHPC)
//! with an Omni-Path fabric. That hardware is not available here, and a
//! single-core host cannot produce stable wall-clock measurements for
//! 256 concurrent workers — so the figures are regenerated in **virtual
//! time**: every cost that shapes the paper's results is modelled
//! explicitly and deterministically:
//!
//! * per-iteration compute cost (supplied by the `workloads` crate),
//! * network latency of global-queue RMA operations
//!   ([`machine::MachineParams::net_latency_ns`]),
//! * serialization at contended resources — the global work queue, the
//!   node-local work queue, an OpenMP dispatcher ([`resource::Resource`]),
//! * the `MPI_Win_lock` lock-polling penalty that grows with the number
//!   of concurrent waiters ([`lock::ContendedLock`], after Zhao, Balaji
//!   & Gropp, ISPDC 2016),
//! * OpenMP end-of-worksharing barriers ([`machine::MachineParams`]).
//!
//! The crate also provides a generic deterministic event queue
//! ([`engine::EventQueue`]) and per-worker execution traces
//! ([`trace::Trace`]) from which idle/sync time — the quantity Figures 2
//! and 3 of the paper illustrate — can be computed exactly.
//!
//! Everything is integer nanoseconds ([`time::Time`]); no wall clock, no
//! randomness, fully reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod engine;
pub mod lock;
pub mod machine;
pub mod resource;
pub mod time;
pub mod trace;

pub use engine::EventQueue;
pub use lock::{ContendedLock, LockGrant};
pub use machine::{MachineParams, SimTopology};
pub use resource::Resource;
pub use time::Time;
pub use trace::{Segment, SegmentKind, Trace};
