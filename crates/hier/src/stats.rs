//! Per-run statistics shared by both backends.

/// Per-worker counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Iterations this worker executed.
    pub iterations: u64,
    /// Sub-chunks this worker obtained from its local queue.
    pub sub_chunks: u64,
    /// Global chunks this worker fetched (MPI+MPI: any worker may fetch;
    /// MPI+OpenMP: only thread 0 of each node).
    pub global_fetches: u64,
    /// Failed lock-poll attempts this worker made at RMA window locks
    /// (live backends only; the sim backends account polling per node).
    pub lock_polls: u64,
    /// Wall-clock nanoseconds this worker spent blocked acquiring or
    /// holding RMA window locks (live backends only): the wait is
    /// measured, the held part is [`mpisim::RankWinStats::lock_held_ns`]
    /// — exact for a window's first 64 epochs, a 1-in-16 estimate after.
    /// The run-long `lock_all` access epoch of the atomic global queue
    /// is not in it.
    pub lock_time_ns: u64,
    /// RMA atomic operations (`MPI_Fetch_and_op`) this worker issued
    /// (live backends only).
    pub rma_ops: u64,
    /// Recovery actions this worker performed on behalf of dead peers:
    /// expired leases reclaimed plus window locks repaired.
    pub reclaims: u64,
}

/// Per-node counters.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// Chunks deposited into the node's local queue.
    pub deposits: u64,
    /// Sub-chunks handed out by the node's local queue.
    pub sub_chunks: u64,
    /// Local-queue lock acquisitions.
    pub lock_acquisitions: u64,
    /// Lock acquisitions that found the lock contended.
    pub lock_contended: u64,
    /// Failed lock-poll attempts at the local-queue lock — the
    /// lock-attempt message count behind the paper's `X+SS` pathology.
    pub lock_polls: u64,
    /// Lock grants revoked from dead holders by the recovery protocol
    /// (fault injection only).
    pub lock_revocations: u64,
}

/// Aggregate statistics of one hierarchical run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Per-worker counters, indexed by global worker id.
    pub workers: Vec<WorkerStats>,
    /// Per-node counters.
    pub nodes: Vec<NodeStats>,
    /// Total iterations executed (must equal the loop size).
    pub total_iterations: u64,
    /// Application checksum: sum of `Workload::execute` over every
    /// iteration — compared against a serial run for correctness.
    pub checksum: u64,
    /// Global-queue accesses (inter-node scheduling steps + exhaustion
    /// probes).
    pub global_accesses: u64,
}

impl RunStats {
    /// Fresh stats for `workers` workers across `nodes` nodes.
    pub fn new(workers: usize, nodes: usize) -> Self {
        Self {
            workers: vec![WorkerStats::default(); workers],
            nodes: vec![NodeStats::default(); nodes],
            ..Self::default()
        }
    }

    /// Largest / smallest per-worker iteration count — a quick imbalance
    /// indicator.
    pub fn iteration_spread(&self) -> (u64, u64) {
        let max = self.workers.iter().map(|w| w.iterations).max().unwrap_or(0);
        let min = self.workers.iter().map(|w| w.iterations).min().unwrap_or(0);
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_of_empty_stats() {
        let s = RunStats::new(0, 0);
        assert_eq!(s.iteration_spread(), (0, 0));
    }

    #[test]
    fn spread_tracks_min_max() {
        let mut s = RunStats::new(3, 1);
        s.workers[0].iterations = 5;
        s.workers[1].iterations = 9;
        s.workers[2].iterations = 7;
        assert_eq!(s.iteration_spread(), (5, 9));
    }
}
