//! Configuration of a hierarchical run: which technique at which level,
//! executed with which approach, on which cluster shape.

use crate::protocol::counter;
use crate::sim::{Perturbation, RefillPolicy};
use cluster_sim::{MachineParams, SimTopology, Time};
use dls::openmp::omp_equivalent;
use dls::{ChunkCalculator, Kind, Technique};
use resilience::FaultPlan;
use std::fmt;

/// Which implementation executes the intra-node level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Approach {
    /// The paper's proposed MPI+MPI approach: shared local work queue in
    /// an MPI-3 shared-memory window; no end-of-chunk barrier.
    MpiMpi,
    /// The baseline hybrid: one MPI process per node plus an OpenMP
    /// thread team with an implicit barrier after every chunk.
    MpiOpenMp,
}

impl Approach {
    /// Both approaches, proposal first.
    pub const ALL: [Approach; 2] = [Approach::MpiMpi, Approach::MpiOpenMp];

    /// Display name as used in the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Approach::MpiMpi => "MPI+MPI",
            Approach::MpiOpenMp => "MPI+OpenMP",
        }
    }
}

impl fmt::Display for Approach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the global work queue is realised over RMA.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GlobalQueueMode {
    /// The distributed chunk-calculation formulation of the paper's
    /// reference [15]: one shared counter (the latest scheduling step),
    /// advanced with a single `MPI_Fetch_and_op`; every worker computes
    /// its chunk bounds locally as a pure function of the step.
    #[default]
    SingleAtomic,
    /// Both counters (step, scheduled) kept in the window and updated
    /// under `MPI_Win_lock(EXCLUSIVE)` — simpler, but each fetch costs
    /// lock + access + unlock round trips.
    LockedCounters,
}

/// How a live MPI+MPI run realises each node's local queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NodeQueueMode {
    /// Lock-free: one packed word ([`crate::protocol::counter::Word`])
    /// beside the deposit's bounds, every access an MPI atomic inside a
    /// run-long `lock_all`. A take knows the word and the bounds (read,
    /// or cached by the rank since its last CAS), computes its sub-chunk
    /// from the step and compare-and-swaps the step forward: one atomic
    /// when uncontended. Runs fall back to [`NodeQueueMode::Locked`] where
    /// the take needs more than the step
    /// ([`crate::protocol::counter::eligible`]).
    #[default]
    Counter,
    /// The paper's protocol: every take, probe and deposit is one
    /// `MPI_Win_lock(EXCLUSIVE)` epoch on the node window.
    Locked,
}

/// A two-level scheduling combination, written `X+Y` in the paper:
/// `X` at the inter-node level, `Y` at the intra-node level.
#[derive(Clone, Copy, Debug)]
pub struct HierSpec {
    /// Inter-node technique (global queue).
    pub inter: Technique,
    /// Intra-node technique (local queue / OpenMP schedule).
    pub intra: Technique,
}

impl HierSpec {
    /// Build from two technique kinds with default parameters.
    pub fn new(inter: Kind, intra: Kind) -> Self {
        Self { inter: Technique::from_kind(inter), intra: Technique::from_kind(intra) }
    }

    /// `"X+Y"` label as used in the paper.
    pub fn label(&self) -> String {
        format!("{}+{}", self.inter.name(), self.intra.name())
    }

    /// Whether the Intel OpenMP runtime the paper uses can execute the
    /// intra-node technique, i.e. whether Table 1
    /// ([`dls::openmp::omp_equivalent`]) has a `static`, `dynamic,k` or
    /// `guided,k` clause for it — combinations like `GSS+TSS` exist
    /// *only* under MPI+MPI, which is one of the paper's points.
    pub fn supported_by_openmp(&self) -> bool {
        omp_equivalent(&self.intra).is_some()
    }
}

impl fmt::Display for HierSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// One run of a hierarchical loop: the shape, the `X+Y` combination
/// and the approach the paper varies, plus the options of the two
/// backends that run it — [`crate::sim`] in virtual time,
/// [`crate::live`] on threads. Each field says which backend reads it;
/// the other ignores it.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Cluster shape: compute nodes × workers per node, the workers
    /// being MPI ranks (MPI+MPI) or team threads (MPI+OpenMP). Both
    /// backends.
    pub topology: SimTopology,
    /// The `X+Y` scheduling combination. Both backends.
    pub spec: HierSpec,
    /// Which implementation of the intra-node level. Both backends.
    pub approach: Approach,
    /// Static per-worker weights for weighted techniques (WF): indexed
    /// by global worker id, mean-normalised. Empty means unit weights.
    /// Both backends.
    pub weights: Vec<f64>,
    /// Adaptive weighted factoring at the intra-node level (MPI+MPI
    /// only): when set, sub-chunks are WF-sized with weights learned
    /// from measured worker rates. Both backends; live keeps the rate
    /// history in the node's shared window next to the queue counters.
    pub awf: Option<dls::adaptive::AwfVariant>,
    /// How the global queue is realised over RMA (MPI+MPI only). Both
    /// backends.
    pub global_mode: GlobalQueueMode,
    /// Record per-worker timeline segments into the result's `trace`:
    /// virtual time in the simulator (Figures 2/3), wall-clock time
    /// since the run started live. Both backends.
    pub trace: bool,
    /// Record the RMA access log into the result's `rma` for the shape
    /// and golden tests. Both backends: live records every
    /// passive-target operation (locks, syncs, puts, gets, atomics); the
    /// simulator synthesizes the log the modelled protocol would produce,
    /// one block per transaction.
    pub record_rma: bool,
    /// Injected failures (rank crashes, stragglers, message faults) and
    /// the recovery-protocol timeouts. [`FaultPlan::none`] (the default)
    /// leaves every executor bit-for-bit identical to the fault-free
    /// run. The simulator injects them under every execution model.
    /// Live injects them under MPI+MPI only: the baseline's fork-join
    /// team has no per-thread recovery story — a crashed team member
    /// would hang the region barrier, which is exactly the resilience
    /// argument for the shared-window approach. Live crash triggers
    /// count sub-chunks (`after_sub_chunks` / `after_global_fetches`);
    /// stragglers slow the kernel by busy-waiting.
    pub faults: FaultPlan,
    /// Cost constants. Simulator only.
    pub machine: MachineParams,
    /// Record every executed sub-chunk into the result's `executed`
    /// (for exactly-once verification). Simulator only: live runs
    /// always keep their ledgers.
    pub record_chunks: bool,
    /// Who refills the local queue. Simulator only (MPI+MPI).
    pub refill: RefillPolicy,
    /// Model the `nowait` clause for MPI+OpenMP (the paper's future
    /// work): no end-of-region barrier; threads dispatch through the
    /// OpenMP runtime's atomic and any thread may fetch the next chunk
    /// (which requires `MPI_THREAD_MULTIPLE`). Implemented as the
    /// MPI+MPI protocol with the window lock replaced by an OpenMP
    /// dispatch. Simulator only.
    pub omp_nowait: bool,
    /// Deterministic schedule perturbation for interleaving
    /// exploration ([`Perturbation::None`] reproduces the unperturbed
    /// run exactly). Simulator only.
    pub perturb: Perturbation,
    /// How each node's local queue is realised (live MPI+MPI only; the
    /// simulator models the locked queue). Under
    /// [`NodeQueueMode::Counter`] a run still keeps the lock where a
    /// take needs more than the step: AWF (weighted sizes plus a history
    /// written in the take's critical section), an active fault plan
    /// (the take writes its lease there), non-unit weights, and intra
    /// techniques or loop sizes [`counter::eligible`] refuses.
    pub node_mode: NodeQueueMode,
    /// Override the technique the **net backend** asks the
    /// `dls-service` global queue to use (`CreateJob`'s kind). `None`
    /// sends `spec.inter`'s kind. This is how the inter level runs the
    /// adaptive techniques (`AF`, `AWF-*`) or the self-switching
    /// `AUTO` mode, which size chunks from server-side measurements
    /// and have no pure in-process `Technique` equivalent. The
    /// simulator and the other live backends ignore it.
    pub net_inter: Option<dls::SchedKind>,
}

impl RunConfig {
    /// A `nodes` × `workers_per_node` run with default machine
    /// parameters, unit weights, no adaptivity, no faults and nothing
    /// recorded.
    pub fn new(nodes: u32, workers_per_node: u32, spec: HierSpec, approach: Approach) -> Self {
        Self {
            topology: SimTopology::new(nodes, workers_per_node),
            spec,
            approach,
            weights: Vec::new(),
            awf: None,
            global_mode: GlobalQueueMode::SingleAtomic,
            trace: false,
            record_rma: false,
            faults: FaultPlan::none(),
            machine: MachineParams::default(),
            record_chunks: false,
            refill: RefillPolicy::Fastest,
            omp_nowait: false,
            perturb: Perturbation::None,
            node_mode: NodeQueueMode::Counter,
            net_inter: None,
        }
    }

    /// The node queue a live loop of `n` iterations runs on:
    /// `node_mode`, or the lock where [`RunConfig::node_mode`] says a
    /// take needs it.
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

    /// `raw` scaled by any straggler fault active on `worker` at
    /// virtual time `now`.
    pub(crate) fn cost_at(&self, worker: u32, now: Time, raw: u64) -> Time {
        if !self.faults.is_active() {
            return raw;
        }
        let f = self.faults.straggle_factor(worker, now);
        if f == 1.0 {
            raw
        } else {
            (raw as f64 * f).round().max(1.0) as Time
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(HierSpec::new(Kind::GSS, Kind::STATIC).label(), "GSS+STATIC");
        assert_eq!(HierSpec::new(Kind::FAC2, Kind::SS).label(), "FAC2+SS");
    }

    #[test]
    fn openmp_support_matrix() {
        assert!(HierSpec::new(Kind::GSS, Kind::STATIC).supported_by_openmp());
        assert!(HierSpec::new(Kind::GSS, Kind::SS).supported_by_openmp());
        assert!(HierSpec::new(Kind::GSS, Kind::GSS).supported_by_openmp());
        assert!(!HierSpec::new(Kind::GSS, Kind::TSS).supported_by_openmp());
        assert!(!HierSpec::new(Kind::GSS, Kind::FAC2).supported_by_openmp());
        // The clause carries the parameter; FSC needs an explicit one.
        let intra = |s: &str| HierSpec { inter: Technique::gss(), intra: s.parse().unwrap() };
        assert!(intra("GSS:4").supported_by_openmp());
        assert!(intra("FSC:8").supported_by_openmp());
        assert!(!intra("FSC").supported_by_openmp());
    }

    #[test]
    fn approach_names() {
        assert_eq!(Approach::MpiMpi.to_string(), "MPI+MPI");
        assert_eq!(Approach::MpiOpenMp.to_string(), "MPI+OpenMP");
    }
}
