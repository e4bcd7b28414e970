//! # hdls — Hierarchical Dynamic Loop Self-Scheduling
//!
//! A Rust reproduction of *"Hierarchical Dynamic Loop Self-Scheduling on
//! Distributed-Memory Systems Using an MPI+MPI Approach"* (Eleliemy &
//! Ciorba, 2019): two-level dynamic loop self-scheduling where compute
//! nodes obtain chunks from a global work queue and the workers of a
//! node obtain sub-chunks from a node-local queue — implemented either
//! the paper's proposed way (MPI+MPI: the local queue is an MPI-3
//! shared-memory window, the fastest worker refills it) or the baseline
//! way (MPI+OpenMP: one process per node plus a thread team with an
//! implicit barrier after every chunk).
//!
//! This crate is the public facade; the machinery lives in the
//! re-exported subsystem crates:
//!
//! * [`dls`] — the DLS techniques (STATIC, SS, GSS, TSS, FAC/FAC2,
//!   TFSS, FSC, RND, WF, AWF) in the distributed chunk-calculation
//!   formulation.
//! * [`mpisim`] — a thread-backed MPI-3 subset (communicators, RMA
//!   windows, shared-memory windows, `MPI_Win_lock`).
//! * [`cluster_sim`] — a deterministic virtual-time cluster model
//!   (network, lock polling, barriers).
//! * [`workloads`] — Mandelbrot and PSIA (spin images) with exact
//!   per-iteration costs, plus synthetic distributions.
//! * [`hier`] — the two-level executors on both backends.
//! * [`dls_service`] — the same global queue as a networked service:
//!   a TCP chunk server with leases, batching and backpressure, plus
//!   the blocking client the fifth backend
//!   ([`HierSchedule::run_live_net`]) and the multi-process workers
//!   speak.
//!
//! ## Quickstart
//!
//! ```
//! use hdls::prelude::*;
//!
//! // GSS across nodes, STATIC within each node, the paper's proposed
//! // MPI+MPI implementation, on 4 nodes x 4 workers.
//! let schedule = HierSchedule::builder()
//!     .inter(Kind::GSS)
//!     .intra(Kind::STATIC)
//!     .approach(Approach::MpiMpi)
//!     .nodes(4)
//!     .workers_per_node(4)
//!     .build();
//!
//! // Virtual-time run (deterministic, models the full cluster):
//! let workload = Synthetic::uniform(10_000, 100, 1_000, 42);
//! let table = CostTable::build(&workload);
//! let result = schedule.simulate(&table);
//! assert_eq!(result.stats.total_iterations, 10_000);
//!
//! // Real-thread run (actually executes the kernel):
//! let live = schedule.run_live(&workload);
//! assert_eq!(live.stats.total_iterations, 10_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
// Counters cross the facade as u64/u32; a narrowing `as` cast here could
// silently corrupt an exported report. Same audit discipline as `dls`.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod export;
pub mod figures;
pub mod report;
pub mod schedule;

pub use cluster_sim;
pub use dls;
pub use dls_service;
pub use hier;
pub use mpisim;
pub use resilience;
pub use workloads;

pub use schedule::{HierSchedule, HierScheduleBuilder};

/// Everything needed for typical use.
pub mod prelude {
    pub use crate::export::{chrome_trace, service_report, ActivityReport};
    pub use crate::figures::{self, FigurePoint};
    pub use crate::report::ScalingStudy;
    pub use crate::schedule::{HierSchedule, HierScheduleBuilder};
    pub use cluster_sim::{MachineParams, SimTopology};
    pub use dls::{Kind, LoopSpec, Technique};
    pub use hier::live::LiveResult;
    pub use hier::sim::SimResult;
    pub use hier::{Approach, HierSpec};
    pub use resilience::{FaultKind, FaultPlan, RecoveryEvent};
    pub use workloads::synthetic::Synthetic;
    pub use workloads::{CostTable, Mandelbrot, Psia, Workload};
}
