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
//! under [`crate::NodeQueueMode::Locked`], and wherever a take has to
//! write more than the step (see [`RunConfig::node_mode`]).

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

use crate::config::{Approach, RunConfig};
use crate::stats::RunStats;
use workloads::Workload;

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
    /// started (empty unless [`RunConfig::trace`]). Unlike the `sim`
    /// backend's virtual-time traces these are measurements, so they
    /// vary run to run — use them for activity breakdowns, not for
    /// reproducible makespans.
    pub trace: cluster_sim::Trace,
    /// The full RMA access log of the run (empty unless
    /// [`RunConfig::record_rma`]), for the shape and golden tests.
    pub rma: Vec<mpisim::RmaRecord>,
    /// Detection and repair actions taken during the run (empty unless
    /// [`RunConfig::faults`] injected something), time-ordered.
    pub recovery: Vec<resilience::RecoveryEvent>,
}

/// Run a hierarchical loop for real, dispatching on the approach.
///
/// Window allocation or RMA failures surface as `Err` instead of
/// panicking inside worker threads; wrappers that want the old
/// infallible behaviour `.expect()` at their own boundary.
pub fn run_live(cfg: &RunConfig, workload: &(dyn Workload + Sync)) -> mpisim::Result<LiveResult> {
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
    use crate::config::{HierSpec, NodeQueueMode};
    use crate::protocol::counter;
    use dls::Kind;
    use resilience::{FaultKind, FaultPlan};

    #[test]
    fn the_lock_stays_where_a_take_needs_more_than_the_step() {
        let cfg = RunConfig::new(2, 3, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        // The packing limit: the largest eligible loop takes by CAS, the
        // next one locks.
        assert_eq!(cfg.node_queue(counter::FIELD_MAX), NodeQueueMode::Counter);
        assert_eq!(cfg.node_queue(counter::FIELD_MAX + 1), NodeQueueMode::Locked);
        let locked = |f: &dyn Fn(&mut RunConfig)| {
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
