//! Virtual-time (discrete-event) executors for both approaches.
//!
//! Workers never touch the wall clock: compute time comes from a
//! [`workloads::CostTable`], scheduling costs from
//! [`cluster_sim::MachineParams`], and contention from
//! [`cluster_sim::Resource`] / [`cluster_sim::ContendedLock`]. Results
//! are exactly reproducible and independent of host load — which is how
//! the paper's 16-node figures are regenerated on a single-core machine.
//!
//! The executors differ only in what the paper compares — the
//! intra-node level: a window lock (`mpi_mpi`), OpenMP dispatch plus a
//! region barrier (`mpi_omp`), or master service centres
//! (`master_worker`). Each keeps its own `Event` enum and event loop
//! for that. Everything else — the modelled global work queue, the
//! per-run accumulators, and the crash → lease → expiry → reclaim path
//! of fault injection — exists once, in the private `run` context
//! they all drive (the virtual-time mirror of `live::global_queue`).

mod master_worker;
mod mpi_mpi;
mod mpi_omp;
mod run;

pub use crate::layout;
pub use master_worker::{simulate_flat_master_worker, simulate_master_worker};
pub use mpi_mpi::simulate_mpi_mpi;
pub use mpi_omp::simulate_mpi_omp;

/// Who may refill a node's local queue from the global queue (MPI+MPI).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RefillPolicy {
    /// The paper's proposal: whichever worker first finds the queue
    /// empty refills it ("the fastest MPI process always takes this
    /// responsibility").
    #[default]
    Fastest,
    /// Ablation: only the node's lowest live rank may refill (a
    /// dedicated local master, as in hierarchical master-worker
    /// schemes); other workers re-probe until it does.
    Dedicated,
}

use crate::config::{Approach, HierSpec};
use crate::queue::SubChunk;
use crate::stats::RunStats;
use cluster_sim::{MachineParams, SimTopology, Time, Trace};
use workloads::CostTable;

/// Schedule perturbation for interleaving exploration: deterministic
/// timing noise injected into the virtual-time executors so one
/// configuration can be replayed under many distinct (but reproducible)
/// lock acquisition and refill orders. [`Perturbation::None`] leaves
/// the executor bit-for-bit identical to the unperturbed run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Perturbation {
    /// No perturbation (the default): fully deterministic baseline.
    #[default]
    None,
    /// Seeded pseudo-random probe jitter: every worker's queue probes
    /// are delayed by `hash(seed, worker, count) % (max_ns + 1)`
    /// virtual nanoseconds, reshuffling lock arrival orders while
    /// staying exactly reproducible for a given seed.
    Seeded {
        /// Seed selecting one interleaving.
        seed: u64,
        /// Upper bound on each injected delay (virtual ns).
        max_ns: u64,
    },
    /// Adversarial lock-handoff reordering: alternate probe rounds
    /// invert each node's intra-node arrival order, forcing the lock to
    /// hand off against the natural FCFS pattern (back-to-back refills,
    /// last-rank-first probes) that a seeded shuffle rarely produces.
    AdversarialHandoff,
}

/// Per-worker perturbation state for one run.
pub(crate) struct Jitter {
    mode: Perturbation,
    wpn: u32,
    counts: Vec<u64>,
}

impl Jitter {
    pub(crate) fn new(mode: Perturbation, wpn: u32, workers: u32) -> Self {
        Self { mode, wpn, counts: vec![0; workers as usize] }
    }

    /// Delay to add to worker `w`'s next probe event.
    pub(crate) fn delay(&mut self, w: u32) -> Time {
        let count = &mut self.counts[w as usize];
        *count += 1;
        match self.mode {
            Perturbation::None => 0,
            Perturbation::Seeded { seed, max_ns } => {
                let mut x = seed ^ (u64::from(w) << 32) ^ *count;
                // splitmix64 finalizer: cheap, well-mixed, stable.
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^= x >> 31;
                // `u64::MAX` means "any delay": there is no `max_ns + 1`.
                max_ns.checked_add(1).map_or(x, |bound| x % bound)
            }
            Perturbation::AdversarialHandoff => {
                // Odd rounds: invert the node's rank order (last local
                // rank arrives first); even rounds: keep it. The stride
                // is tiny so only ties/near-ties are reordered — the
                // protocol sees maximally unnatural handoffs without a
                // materially different load.
                let local = w % self.wpn;
                if *count % 2 == 1 {
                    Time::from(self.wpn - 1 - local)
                } else {
                    Time::from(local)
                }
            }
        }
    }
}

// The RMA operations the synthesized logs are made of (the live
// executors' window layout is in `crate::layout`).
pub(crate) const LOCK: mpisim::RmaEvent =
    mpisim::RmaEvent::Lock { kind: mpisim::LockKind::Exclusive, target: 0 };
pub(crate) const UNLOCK: mpisim::RmaEvent =
    mpisim::RmaEvent::Unlock { kind: mpisim::LockKind::Exclusive, target: 0 };

pub(crate) fn get(disp: usize) -> mpisim::RmaEvent {
    mpisim::RmaEvent::Get { target: 0, disp, len: 1 }
}

pub(crate) fn put(disp: usize) -> mpisim::RmaEvent {
    mpisim::RmaEvent::Put { target: 0, disp, len: 1 }
}

/// Deferred RMA log synthesis for the virtual-time executors: the sim
/// backends model whole lock transactions as single events, so each
/// transaction's operations are emitted as one block keyed by its
/// virtual completion time, then globally ordered into an
/// [`mpisim::RmaLog`] once the run ends. FCFS lock grants guarantee
/// blocks of the same lock never share a key, so the synthesized log
/// has the same epoch structure a live run would record.
pub(crate) struct RmaTape {
    enabled: bool,
    counter: u64,
    items: Vec<(Time, u64, u64, u32, mpisim::RmaEvent)>,
}

impl RmaTape {
    pub(crate) fn new(enabled: bool) -> Self {
        Self { enabled, counter: 0, items: Vec::new() }
    }

    /// Emit one transaction: `events` happened atomically on window
    /// `win` by `rank` at virtual time `t`.
    pub(crate) fn tx(&mut self, t: Time, win: u64, rank: u32, events: &[mpisim::RmaEvent]) {
        if !self.enabled {
            return;
        }
        for ev in events {
            self.items.push((t, self.counter, win, rank, *ev));
            self.counter += 1;
        }
    }

    /// [`RmaTape::tx`] with the transaction split across two slices
    /// (shared prologue + branch-specific tail).
    pub(crate) fn tx_slice_then(
        &mut self,
        t: Time,
        win: u64,
        rank: u32,
        head: &[mpisim::RmaEvent],
        tail: &[mpisim::RmaEvent],
    ) {
        self.tx(t, win, rank, head);
        self.tx(t, win, rank, tail);
    }

    /// Order every transaction by (virtual time, emission order) and
    /// stamp the records through a real [`mpisim::RmaLog`].
    pub(crate) fn finish(mut self) -> Vec<mpisim::RmaRecord> {
        if !self.enabled {
            return Vec::new();
        }
        self.items.sort_by_key(|i| (i.0, i.1));
        let log = mpisim::RmaLog::new();
        for (_, _, win, rank, ev) in self.items {
            log.push(win, rank, ev);
        }
        log.records()
    }
}

/// Configuration of one virtual-time run.
#[derive(Clone)]
pub struct SimConfig {
    /// Cluster shape.
    pub topology: SimTopology,
    /// Cost constants.
    pub machine: MachineParams,
    /// The `X+Y` scheduling combination.
    pub spec: HierSpec,
    /// Which implementation of the intra-node level.
    pub approach: Approach,
    /// Record per-worker timeline segments (Figures 2/3).
    pub trace: bool,
    /// Record every executed sub-chunk (for exactly-once verification).
    pub record_chunks: bool,
    /// Per-worker speed multipliers for failure injection / systemic
    /// imbalance: iteration costs on worker `w` are scaled by
    /// `slowdown[w]`. Empty means all 1.0.
    pub slowdown: Vec<f64>,
    /// Who refills the local queue (MPI+MPI only).
    pub refill: RefillPolicy,
    /// How the global queue is realised over RMA (MPI+MPI only).
    pub global_mode: crate::config::GlobalQueueMode,
    /// Static per-worker weights for weighted techniques (WF): indexed
    /// by global worker id, mean-normalised. Empty means unit weights.
    pub weights: Vec<f64>,
    /// Adaptive weighted factoring at the intra-node level (MPI+MPI
    /// only): when set, the intra technique's sub-chunk is scaled by
    /// weights learned from measured worker rates.
    pub awf: Option<dls::adaptive::AwfVariant>,
    /// Model the `nowait` clause for MPI+OpenMP (the paper's future
    /// work): no end-of-region barrier; threads dispatch through the
    /// OpenMP runtime's atomic and any thread may fetch the next chunk
    /// (which requires `MPI_THREAD_MULTIPLE`). Implemented as the
    /// MPI+MPI protocol with the window lock replaced by an OpenMP
    /// dispatch.
    pub omp_nowait: bool,
    /// Deterministic schedule perturbation for interleaving
    /// exploration ([`Perturbation::None`] reproduces the unperturbed
    /// run exactly).
    pub perturb: Perturbation,
    /// Synthesize the RMA access log the modelled protocol would
    /// produce (lock/sync/get/put/atomic per transaction) into
    /// [`SimResult::rma`] for `rma-check`.
    pub record_rma: bool,
    /// Injected failures (rank crashes, stragglers, message faults) and
    /// the recovery-protocol timeouts. [`resilience::FaultPlan::none`]
    /// (the default) leaves every executor bit-for-bit identical to the
    /// fault-free run.
    pub faults: resilience::FaultPlan,
}

impl SimConfig {
    /// A run with tracing and chunk recording off.
    pub fn new(
        topology: SimTopology,
        machine: MachineParams,
        spec: HierSpec,
        approach: Approach,
    ) -> Self {
        Self {
            topology,
            machine,
            spec,
            approach,
            trace: false,
            record_chunks: false,
            slowdown: Vec::new(),
            refill: RefillPolicy::Fastest,
            global_mode: crate::config::GlobalQueueMode::SingleAtomic,
            weights: Vec::new(),
            awf: None,
            omp_nowait: false,
            perturb: Perturbation::default(),
            record_rma: false,
            faults: resilience::FaultPlan::none(),
        }
    }

    pub(crate) fn scaled_cost(&self, worker: u32, raw: u64) -> Time {
        match self.slowdown.get(worker as usize) {
            Some(&f) if f != 1.0 => (raw as f64 * f).round().max(1.0) as Time,
            _ => raw,
        }
    }

    /// [`SimConfig::scaled_cost`] further scaled by any straggler fault
    /// active on `worker` at virtual time `now`.
    pub(crate) fn cost_at(&self, worker: u32, now: Time, raw: u64) -> Time {
        let base = self.scaled_cost(worker, raw);
        let f = self.faults.straggle_factor(worker, now);
        if f == 1.0 {
            base
        } else {
            (base as f64 * f).round().max(1.0) as Time
        }
    }

    /// Earliest crash fault of either kind on `worker`, for executors
    /// whose workers hold no window lock to die in.
    pub(crate) fn crash_time(&self, worker: u32) -> Option<Time> {
        match (self.faults.crash_at(worker), self.faults.crash_holding_lock_at(worker)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// Result of one virtual-time run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Parallel loop time (the y-axis of Figures 4-7).
    pub makespan: Time,
    /// Counters.
    pub stats: RunStats,
    /// Timeline (empty unless `SimConfig::trace`).
    pub trace: Trace,
    /// Total lock-polling penalty accumulated at local-queue locks
    /// (MPI+MPI only; the Fig. 4 `X+SS` pathology).
    pub lock_poll_penalty: Time,
    /// Executed sub-chunks per worker (empty unless
    /// `SimConfig::record_chunks`).
    pub executed: Vec<(u32, SubChunk)>,
    /// Synthesized RMA access log of the modelled protocol (empty
    /// unless `SimConfig::record_rma`), ready for `rma_check::check`.
    pub rma: Vec<mpisim::RmaRecord>,
    /// Detection and repair actions taken during the run (empty unless
    /// `SimConfig::faults` is active): crashes, lease expiries,
    /// reclaims, refill failovers, lock repairs — time-ordered.
    pub recovery: Vec<resilience::RecoveryEvent>,
}

impl SimResult {
    /// Makespan in seconds — the unit of the paper's figures.
    pub fn seconds(&self) -> f64 {
        cluster_sim::time::to_secs(self.makespan)
    }
}

/// Run one virtual-time experiment, dispatching on the approach.
pub fn simulate(cfg: &SimConfig, table: &CostTable) -> SimResult {
    match cfg.approach {
        Approach::MpiMpi => simulate_mpi_mpi(cfg, table),
        Approach::MpiOpenMp if cfg.omp_nowait => simulate_mpi_omp_nowait(cfg, table),
        Approach::MpiOpenMp => simulate_mpi_omp(cfg, table),
    }
}

/// The `nowait` variant of MPI+OpenMP: structurally the MPI+MPI
/// protocol (no end-of-region barrier, fastest-thread refill), but the
/// local dispatch costs one OpenMP runtime atomic instead of an
/// `MPI_Win_lock` cycle and suffers no lock polling.
pub fn simulate_mpi_omp_nowait(cfg: &SimConfig, table: &CostTable) -> SimResult {
    let mut nowait_cfg = cfg.clone();
    nowait_cfg.machine.shm_lock_hold_ns = cfg.machine.omp_dispatch_ns;
    nowait_cfg.machine.shm_poll_penalty_ns = 0;
    simulate_mpi_mpi(&nowait_cfg, table)
}

/// The executors' shared test oracle: exactly-once coverage of `0..n`
/// by the recorded ledger, and the iteration count.
#[cfg(test)]
fn assert_covers(r: &SimResult, n: u64) {
    crate::queue::exactly_once(&r.executed, n).expect("every iteration exactly once");
    assert_eq!(r.stats.total_iterations, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::SimTopology;
    use dls::Kind;
    use workloads::synthetic::Synthetic;

    #[test]
    fn nowait_between_barrier_and_mpi_mpi() {
        // nowait removes the barrier but keeps the cheap OpenMP
        // dispatch: never slower than the barrier baseline, never
        // slower than MPI+MPI (whose lock costs more per dispatch).
        let w = Synthetic::bimodal(20_000, 50_000, 5_000_000, 3, 7);
        let table = CostTable::build(&w);
        let run = |approach, nowait| {
            let mut cfg = SimConfig::new(
                SimTopology::new(2, 8),
                MachineParams::default(),
                HierSpec::new(Kind::GSS, Kind::STATIC),
                approach,
            );
            cfg.omp_nowait = nowait;
            simulate(&cfg, &table)
        };
        let barrier = run(Approach::MpiOpenMp, false);
        let nowait = run(Approach::MpiOpenMp, true);
        let mpi_mpi = run(Approach::MpiMpi, false);
        assert_eq!(nowait.stats.total_iterations, 20_000);
        assert!(nowait.makespan <= barrier.makespan);
        assert!(nowait.makespan <= mpi_mpi.makespan);
    }

    #[test]
    fn seeded_jitter_stays_within_its_bound() {
        // `u64::MAX` is the "any delay" bound: `max_ns + 1` does not
        // exist, and the modulus must not be computed.
        for max_ns in [0, 1, 700, u64::MAX - 1, u64::MAX] {
            let mut jitter = Jitter::new(Perturbation::Seeded { seed: 9, max_ns }, 4, 8);
            for w in 0..8 {
                assert!(jitter.delay(w) <= max_ns);
            }
        }
    }

    #[test]
    fn nowait_flag_ignored_for_mpi_mpi() {
        let w = Synthetic::constant(2_000, 1_000);
        let table = CostTable::build(&w);
        let mut cfg = SimConfig::new(
            SimTopology::new(2, 4),
            MachineParams::default(),
            HierSpec::new(Kind::GSS, Kind::GSS),
            Approach::MpiMpi,
        );
        let plain = simulate(&cfg, &table).makespan;
        cfg.omp_nowait = true;
        assert_eq!(simulate(&cfg, &table).makespan, plain);
    }
}
