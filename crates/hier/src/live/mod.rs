//! Real-thread executors over the `mpisim` runtime.
//!
//! These run the *actual* protocols — MPI-3 shared-memory windows for
//! the proposed approach, an OpenMP-style persistent thread team with
//! implicit region barriers for the baseline — and the *actual*
//! application kernels. They validate functional correctness (every
//! iteration executed exactly once, checksums equal to a serial run);
//! timing fidelity at scale is the `sim` backend's job.
//!
//! An MPI+MPI node queue is taken lock-free by default: one packed word
//! advanced by `MPI_Compare_and_swap` inside a run-long
//! `MPI_Win_lock_all` ([`crate::protocol::counter`]). The paper's
//! `MPI_Win_lock(EXCLUSIVE)` queue, which the simulator models, runs
//! under [`NodeQueueMode::Locked`], and wherever a take has to write more
//! than the step (see [`LiveConfig::node_mode`]).

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

use crate::config::{Approach, HierSpec, NodeQueueMode};
use crate::protocol::counter;
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
    /// How each node's local queue is realised (MPI+MPI only). Under
    /// [`NodeQueueMode::Counter`] a run still keeps the lock where a
    /// take needs more than the step: AWF (weighted sizes plus a history
    /// written in the take's critical section), an active fault plan
    /// (the take writes its lease there), non-unit weights, and intra
    /// techniques or loop sizes [`counter::eligible`] refuses.
    pub node_mode: NodeQueueMode,
    /// Record per-worker timeline segments (wall-clock, relative to the
    /// run's start) into [`LiveResult::trace`].
    pub trace: bool,
    /// Record every passive-target RMA operation (locks, syncs, puts,
    /// gets, atomics) into [`LiveResult::rma`] for the shape and golden
    /// tests.
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
            node_mode: NodeQueueMode::Counter,
            trace: false,
            record_rma: false,
            faults: resilience::FaultPlan::none(),
            net_inter: None,
        }
    }

    /// The node queue a loop of `n` iterations runs on: `node_mode`, or
    /// the lock where [`LiveConfig::node_mode`] says a take needs it.
    pub(crate) fn node_queue(&self, n: u64) -> NodeQueueMode {
        let lock_free = self.node_mode == NodeQueueMode::Counter
            && self.awf.is_none()
            && !self.faults.is_active()
            && self.weights.iter().all(|&w| w == 1.0)
            && counter::eligible(&self.spec.intra, n);
        if lock_free {
            NodeQueueMode::Counter
        } else {
            NodeQueueMode::Locked
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
    /// [`LiveConfig::record_rma`]), for the shape and golden tests.
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

#[cfg(test)]
mod tests {
    use super::*;
    use dls::Kind;
    use resilience::{FaultKind, FaultPlan};

    #[test]
    fn the_lock_stays_where_a_take_needs_more_than_the_step() {
        let cfg = LiveConfig::new(2, 3, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        // The packing limit: the largest eligible loop takes by CAS, the
        // next one locks.
        assert_eq!(cfg.node_queue(counter::FIELD_MAX), NodeQueueMode::Counter);
        assert_eq!(cfg.node_queue(counter::FIELD_MAX + 1), NodeQueueMode::Locked);
        let locked = |f: &dyn Fn(&mut LiveConfig)| {
            let mut c = cfg.clone();
            f(&mut c);
            c.node_queue(1_000)
        };
        assert_eq!(locked(&|_| {}), NodeQueueMode::Counter);
        assert_eq!(locked(&|c| c.node_mode = NodeQueueMode::Locked), NodeQueueMode::Locked);
        assert_eq!(locked(&|c| c.awf = Some(dls::adaptive::AwfVariant::C)), NodeQueueMode::Locked);
        let straggler = FaultPlan::none().with(1, FaultKind::Straggle { factor: 2.0, from_ns: 0 });
        assert_eq!(locked(&|c| c.faults = straggler.clone()), NodeQueueMode::Locked);
        assert_eq!(locked(&|c| c.weights = vec![1.0; 6]), NodeQueueMode::Counter);
        assert_eq!(
            locked(&|c| c.weights = vec![0.5, 1.5, 1.0, 1.0, 1.0, 1.0]),
            NodeQueueMode::Locked
        );
        let wf = HierSpec::new(Kind::GSS, Kind::WF);
        assert_eq!(locked(&|c| c.spec = wf), NodeQueueMode::Locked);
    }
}
