//! Machine and runtime cost parameters, with defaults calibrated to the
//! paper's testbed (miniHPC: 16 dual-socket Xeon nodes, 16 workers per
//! node used, Omni-Path fabric, Intel MPI 18 / Intel OpenMP).
//!
//! The absolute values are engineering estimates — the goal is to
//! preserve the *ordering* the paper measures:
//!
//! * an OpenMP dynamic/guided dispatch (one atomic in the runtime) is
//!   much cheaper than an `MPI_Win_lock`-guarded queue update;
//! * the `MPI_Win_lock` path additionally degrades with concurrent
//!   waiters (lock polling);
//! * an OpenMP worksharing construct ends with a barrier whose cost
//!   grows with the team size and, more importantly, whose *idle time*
//!   depends on the imbalance of the chunk being executed.

use crate::time::Time;

/// Cluster shape for a virtual-time experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimTopology {
    /// Number of compute nodes.
    pub nodes: u32,
    /// Workers per node (MPI ranks for MPI+MPI; OpenMP threads for
    /// MPI+OpenMP — the paper uses 16 for both).
    pub workers_per_node: u32,
}

impl SimTopology {
    /// `nodes` x `workers_per_node`.
    pub fn new(nodes: u32, workers_per_node: u32) -> Self {
        assert!(nodes > 0 && workers_per_node > 0);
        Self { nodes, workers_per_node }
    }

    /// Total workers in the cluster.
    pub fn total_workers(&self) -> u32 {
        self.nodes * self.workers_per_node
    }
}

/// All tunable cost constants of the virtual cluster.
#[derive(Clone, Copy, Debug)]
pub struct MachineParams {
    /// One-way latency of an inter-node message in ns. The raw
    /// Omni-Path figure is ~100 ns; an MPI small-message path adds
    /// software overhead, so the default is 1 µs end-to-end. Every
    /// inter-node message the model sends is a size-less RMA atomic or
    /// request, so there is no bandwidth term.
    pub net_latency_ns: Time,
    /// Service time of the global queue's memory-side atomic handler.
    /// Concurrent global-queue operations serialize at this rate.
    pub rma_service_ns: Time,
    /// Critical-section time of one local-queue update performed under
    /// `MPI_Win_lock` (lock + fetch/update + `MPI_Win_sync` + unlock).
    pub shm_lock_hold_ns: Time,
    /// Lock-polling penalty per queued waiter for `MPI_Win_lock`
    /// (see [`crate::lock::ContendedLock`]).
    pub shm_poll_penalty_ns: Time,
    /// One OpenMP dynamic/guided dispatch (an atomic in the OpenMP
    /// runtime — no polling pathology).
    pub omp_dispatch_ns: Time,
    /// Fixed part of an OpenMP end-of-worksharing barrier.
    pub omp_barrier_base_ns: Time,
    /// Per-thread part of an OpenMP barrier.
    pub omp_barrier_per_thread_ns: Time,
    /// Local (in-process) chunk-size calculation cost — the distributed
    /// chunk-calculation arithmetic itself.
    pub chunk_calc_ns: Time,
    /// Back-off before a worker re-probes an empty local queue while a
    /// peer's refill from the global queue is in flight.
    pub shm_retry_ns: Time,
    /// Per-request handling time of a master process in the
    /// master-worker execution models (receive, compute chunk, send).
    pub master_service_ns: Time,
    /// One-way latency of an intra-node message (master-worker models'
    /// worker -> local-master requests).
    pub intra_msg_latency_ns: Time,
}

impl Default for MachineParams {
    fn default() -> Self {
        Self {
            net_latency_ns: 1_000,
            rma_service_ns: 300,
            shm_lock_hold_ns: 2_500,
            shm_poll_penalty_ns: 800,
            omp_dispatch_ns: 120,
            omp_barrier_base_ns: 1_500,
            omp_barrier_per_thread_ns: 100,
            chunk_calc_ns: 80,
            shm_retry_ns: 1_500,
            master_service_ns: 700,
            intra_msg_latency_ns: 300,
        }
    }
}

impl MachineParams {
    /// Cost of one OpenMP barrier for a team of `threads`.
    pub fn omp_barrier(&self, threads: u32) -> Time {
        self.omp_barrier_base_ns + self.omp_barrier_per_thread_ns * Time::from(threads)
    }

    /// Parameters with the MPI lock-polling penalty disabled — the
    /// ablation that shows the `X+SS` pathology comes from the lock
    /// model, not the queue logic.
    pub fn without_lock_polling(mut self) -> Self {
        self.shm_poll_penalty_ns = 0;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_preserve_cost_ordering() {
        let m = MachineParams::default();
        // OpenMP dispatch must be cheapest; the MPI shm lock path most
        // expensive of the intra-node operations — the paper's central
        // overhead observation.
        assert!(m.omp_dispatch_ns < m.shm_lock_hold_ns);
        assert!(m.chunk_calc_ns < m.omp_dispatch_ns * 10);
        // A remote RMA round trip costs more than any intra-node dispatch.
        assert!(2 * m.net_latency_ns > m.omp_dispatch_ns);
    }

    #[test]
    fn barrier_scales_with_team() {
        let m = MachineParams::default();
        assert!(m.omp_barrier(16) > m.omp_barrier(2));
        assert_eq!(m.omp_barrier(0), m.omp_barrier_base_ns);
    }

    #[test]
    fn ablation_disables_polling() {
        let m = MachineParams::default().without_lock_polling();
        assert_eq!(m.shm_poll_penalty_ns, 0);
        assert_eq!(m.shm_lock_hold_ns, MachineParams::default().shm_lock_hold_ns);
    }

    #[test]
    fn topology_totals() {
        let t = SimTopology::new(16, 16);
        assert_eq!(t.total_workers(), 256);
    }

    #[test]
    #[should_panic]
    fn empty_topology_rejected() {
        SimTopology::new(0, 1);
    }
}
