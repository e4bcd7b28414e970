//! Real-thread executors over the `mpisim` runtime.
//!
//! These run the *actual* protocols — MPI-3 shared-memory windows with
//! `MPI_Win_lock` for the proposed approach, an OpenMP-style persistent
//! thread team with implicit region barriers for the baseline — and the
//! *actual* application kernels. They validate functional correctness
//! (every iteration executed exactly once, checksums equal to a serial
//! run); timing fidelity at scale is the `sim` backend's job.

mod global_queue;
mod master_worker;
mod mpi_mpi;
mod mpi_omp;
mod net;
mod run;
mod window_queue;

pub use master_worker::{run_live_flat_master_worker, run_live_master_worker};
pub use mpi_mpi::run_live_mpi_mpi;
pub use mpi_omp::run_live_mpi_omp;
pub use net::run_live_net;
pub use run::Executed;

use crate::config::{Approach, HierSpec};
use crate::stats::RunStats;
use workloads::Workload;

/// Configuration of one real-thread run.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Simulated compute nodes.
    pub nodes: u32,
    /// Workers per node: MPI ranks (MPI+MPI) or team threads
    /// (MPI+OpenMP).
    pub workers_per_node: u32,
    /// The `X+Y` scheduling combination.
    pub spec: HierSpec,
    /// Which implementation of the intra-node level.
    pub approach: Approach,
    /// Static per-worker weights for weighted techniques (WF): indexed
    /// by global worker id, mean-normalised. Empty means unit weights.
    pub weights: Vec<f64>,
    /// Adaptive weighted factoring at the intra-node level (MPI+MPI
    /// only): when set, sub-chunks are WF-sized with weights learned
    /// from measured rates, whose history lives in the node's shared
    /// window next to the queue counters.
    pub awf: Option<dls::adaptive::AwfVariant>,
    /// How the global queue is realised over RMA (MPI+MPI only).
    pub global_mode: crate::config::GlobalQueueMode,
    /// Record per-worker timeline segments (wall-clock, relative to the
    /// run's start) into [`LiveResult::trace`].
    pub trace: bool,
    /// Record every passive-target RMA operation (locks, syncs, puts,
    /// gets, atomics) into [`LiveResult::rma`] for `rma-check`'s
    /// epoch-discipline and happens-before analyses.
    pub record_rma: bool,
    /// Injected failures (MPI+MPI only: the baseline's fork-join team
    /// has no per-thread recovery story — a crashed team member would
    /// hang the region barrier, which is exactly the resilience argument
    /// for the shared-window approach). Crash triggers count sub-chunks
    /// (`after_sub_chunks` / `after_global_fetches`); stragglers slow
    /// the kernel by busy-waiting. The empty plan is bit-identical to a
    /// fault-free run.
    pub faults: resilience::FaultPlan,
    /// Override the technique the **net backend** asks the
    /// `dls-service` global queue to use (`CreateJob`'s kind). `None`
    /// sends `spec.inter`'s kind. This is how the inter level runs the
    /// adaptive techniques (`AF`, `AWF-*`) or the self-switching
    /// `AUTO` mode, which size chunks from server-side measurements
    /// and have no pure in-process `Technique` equivalent; the other
    /// live backends ignore it.
    pub net_inter: Option<dls::SchedKind>,
}

impl LiveConfig {
    /// Configuration with unit weights and no adaptivity.
    pub fn new(nodes: u32, workers_per_node: u32, spec: HierSpec, approach: Approach) -> Self {
        Self {
            nodes,
            workers_per_node,
            spec,
            approach,
            weights: Vec::new(),
            awf: None,
            global_mode: crate::config::GlobalQueueMode::SingleAtomic,
            trace: false,
            record_rma: false,
            faults: resilience::FaultPlan::none(),
            net_inter: None,
        }
    }
}

/// Result of one real-thread run.
#[derive(Clone, Debug)]
pub struct LiveResult {
    /// Counters (iterations, sub-chunks, fetches, lock stats).
    pub stats: RunStats,
    /// Sum of `Workload::execute` over every executed iteration —
    /// equals the serial checksum iff execution was exactly-once.
    pub checksum: u64,
    /// Every executed sub-chunk, tagged with its global worker id: the
    /// workers' ledgers themselves, owned by the result, held as runs of
    /// back-to-back sub-chunks and iterated ledger by ledger (see
    /// [`Executed`] for the order).
    pub executed: Executed,
    /// Per-worker timeline in wall-clock nanoseconds since the run
    /// started (empty unless [`LiveConfig::trace`]). Unlike the `sim`
    /// backend's virtual-time traces these are measurements, so they
    /// vary run to run — use them for activity breakdowns, not for
    /// reproducible makespans.
    pub trace: cluster_sim::Trace,
    /// The full RMA access log of the run (empty unless
    /// [`LiveConfig::record_rma`]), ready for `rma_check::check`.
    pub rma: Vec<mpisim::RmaRecord>,
    /// Detection and repair actions taken during the run (empty unless
    /// [`LiveConfig::faults`] injected something), time-ordered.
    pub recovery: Vec<resilience::RecoveryEvent>,
}

/// Run a hierarchical loop for real, dispatching on the approach.
///
/// Window allocation or RMA failures surface as `Err` instead of
/// panicking inside worker threads; wrappers that want the old
/// infallible behaviour `.expect()` at their own boundary.
pub fn run_live(cfg: &LiveConfig, workload: &(dyn Workload + Sync)) -> mpisim::Result<LiveResult> {
    match cfg.approach {
        Approach::MpiMpi => run_live_mpi_mpi(cfg, workload),
        Approach::MpiOpenMp => run_live_mpi_omp(cfg, workload),
    }
}

/// The serial reference checksum a correct run must reproduce.
pub fn serial_checksum(workload: &dyn Workload) -> u64 {
    run::fold_checksum(workload, 0, workload.n_iters(), 0)
}

/// The executors' shared test oracle: the serial checksum, the
/// iteration count and exactly-once coverage of `0..n`.
#[cfg(test)]
fn assert_exact(r: &LiveResult, serial: u64, n: u64) {
    assert_eq!(r.checksum, serial, "checksum mismatch vs serial");
    assert_eq!(r.stats.total_iterations, n);
    crate::queue::exactly_once(&r.executed, n).expect("exactly-once");
}
