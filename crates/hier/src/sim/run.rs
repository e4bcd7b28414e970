//! The state of one virtual-time run and the transitions every
//! executor shares — the modelled global queue, the sub-chunk
//! accounting and the crash → lease → expiry → reclaim path — each
//! once. The executors keep their own events and loops and call
//! [`Run`].

use super::{Jitter, RmaTape, RunConfig, SimResult};
use crate::queue::{LocalQueue, SubChunk};
use crate::stats::RunStats;
use cluster_sim::trace::SegmentKind;
use cluster_sim::{EventQueue, Resource, Time, Trace};
use dls::{LoopSpec, SchedState};
use resilience::{Lease, LeaseId, LeaseTable, RecoveryEvent};
use workloads::CostTable;

/// What a run's event queue holds: the executor's own protocol steps,
/// and the one event all executors share.
pub(super) enum Step<E> {
    /// An executor-specific protocol step.
    Exec(E),
    /// Fault injection only: the lease on a range lost with a dead
    /// worker timed out and is up for [`Run::expire`].
    LeaseExpired(LeaseId),
}

/// One virtual-time run in progress, over an executor with events `E`.
pub(super) struct Run<'a, E> {
    pub cfg: &'a RunConfig,
    table: &'a CostTable,
    // The modelled global work queue: the scheduling state, the loop it
    // is sized for, and the host that serializes accesses to it.
    inter_spec: LoopSpec,
    global_state: SchedState,
    global_host: Resource,
    events: EventQueue<Step<E>>,
    pub stats: RunStats,
    pub trace: Trace,
    executed: Vec<(u32, SubChunk)>,
    /// When each worker left the loop (finished or died).
    pub finish_time: Vec<Time>,
    // Fault-injection state. With an inert plan nobody dies, no lease
    // is granted and the run is bit-for-bit the fault-free one.
    pub dead: Vec<bool>,
    /// Workers that finished; a reclaim may wake them again.
    pub done: Vec<bool>,
    leases: LeaseTable,
    pub recovery: Vec<RecoveryEvent>,
    pub jitter: Jitter,
    pub tape: RmaTape,
}

impl<'a, E> Run<'a, E> {
    /// A fresh run whose global queue schedules the loop over `p`
    /// requesters: the nodes, or every worker in the flat
    /// master-worker model.
    pub fn new(cfg: &'a RunConfig, table: &'a CostTable, p: u32) -> Self {
        let workers = cfg.topology.total_workers();
        Self {
            cfg,
            table,
            inter_spec: LoopSpec::new(table.n_iters(), p),
            global_state: SchedState::START,
            global_host: Resource::new(),
            events: EventQueue::new(),
            stats: RunStats::new(workers as usize, cfg.topology.nodes as usize),
            trace: if cfg.trace { Trace::recording() } else { Trace::disabled() },
            executed: Vec::new(),
            finish_time: vec![0; workers as usize],
            dead: vec![false; workers as usize],
            done: vec![false; workers as usize],
            leases: LeaseTable::new(),
            recovery: Vec::new(),
            jitter: Jitter::new(cfg.perturb, cfg.topology.workers_per_node, workers),
            tape: RmaTape::new(cfg.record_rma),
        }
    }

    /// Schedule the executor's `event` at `at`.
    pub fn push(&mut self, at: Time, event: E) {
        self.events.push(at, Step::Exec(event));
    }

    /// The earliest pending step and its time.
    pub fn pop(&mut self) -> Option<(Time, Step<E>)> {
        self.events.pop()
    }

    /// A request arriving at `t` is served, serialized with all others,
    /// by the global queue's host (an RMA target or a master process)
    /// in `service_ns`. Returns the completion time.
    pub fn request_global(&mut self, t: Time, service_ns: Time) -> Time {
        let (_, served) = self.global_host.request(t, service_ns);
        self.stats.global_accesses += 1;
        served
    }

    /// The inter-level chunk calculation: take the next chunk off the
    /// global queue, or `None` once the loop is fully scheduled. The
    /// chunk counts as a global fetch of `fetcher`.
    pub fn fetch(&mut self, fetcher: Option<u32>) -> Option<(u64, u64)> {
        let chunk = self.global_state.next_chunk(&self.inter_spec, &self.cfg.spec.inter)?;
        if let Some(w) = fetcher {
            self.stats.workers[w as usize].global_fetches += 1;
        }
        Some((chunk.start, chunk.end()))
    }

    /// What executing `sub` from `at` on costs worker `w`.
    pub fn cost(&self, w: u32, at: Time, sub: SubChunk) -> Time {
        self.cfg.cost_at(w, at, self.table.range_cost(sub.start, sub.end))
    }

    /// Worker `w` executes `sub` over `[start, start + cost)`.
    pub fn compute(&mut self, w: u32, start: Time, cost: Time, sub: SubChunk) {
        self.trace.record(w, start, start + cost, SegmentKind::Compute);
        let stats = &mut self.stats.workers[w as usize];
        stats.iterations += sub.len();
        stats.sub_chunks += 1;
        if self.cfg.record_chunks {
            self.executed.push((w, sub));
        }
    }

    /// Worker `w` found no work left anywhere at `t`.
    pub fn retire(&mut self, w: u32, t: Time) {
        self.finish_time[w as usize] = t;
        self.done[w as usize] = true;
    }

    /// Fault injection only: worker `w` dies at `at`.
    pub fn crash(&mut self, w: u32, at: Time, holding_lock: bool) {
        self.dead[w as usize] = true;
        self.finish_time[w as usize] = at;
        self.recovery.push(RecoveryEvent::Crash { rank: w, at_ns: at, holding_lock });
    }

    /// Fault injection only: lease out every range lost with the dead
    /// worker `w` (in its hands since `granted`) and schedule each
    /// expiry one lease timeout after `w` died.
    pub fn lease_out(
        &mut self,
        w: u32,
        ranges: impl IntoIterator<Item = (u64, u64)>,
        granted: Time,
        died: Time,
    ) {
        let expires = died + self.cfg.faults.recovery.lease_timeout_ns;
        for (lo, hi) in ranges {
            let lease = self.leases.grant(w, lo, hi, granted);
            self.events.push(expires, Step::LeaseExpired(lease));
        }
    }

    /// Fault injection only: if `w`'s death at `died` cost its node its
    /// last live worker, what is still in the node's `queue` is
    /// stranded and must migrate via leases.
    pub fn strand(&mut self, w: u32, queue: &mut LocalQueue, died: Time) {
        let wpn = self.cfg.topology.workers_per_node as usize;
        let node = w as usize / wpn;
        if self.dead[node * wpn..][..wpn].iter().all(|&d| d) {
            self.lease_out(w, queue.drain_remaining(), died, died);
        }
    }

    /// The dead owner of `lease`, unless it was reclaimed already.
    pub fn lease_owner(&self, lease: LeaseId) -> Option<u32> {
        self.leases.get(lease).map(|l| l.owner)
    }

    /// Elect the survivor that takes over an expired lease: prefer the
    /// node of `near` (the dead owner — its shared window keeps the
    /// queue reachable), prefer ranks without a pending crash of their
    /// own, fall back to any live rank. `None`: nobody is left alive.
    pub fn survivor(&self, near: Option<u32>) -> Option<u32> {
        let topology = self.cfg.topology;
        let wpn = topology.workers_per_node;
        let pick = |node: u32| {
            (0..wpn)
                .map(|l| node * wpn + l)
                .find(|&u| !self.dead[u as usize] && !self.cfg.faults.crashes(u))
        };
        near.and_then(|w| pick(w / wpn))
            .or_else(|| (0..topology.nodes).find_map(pick))
            .or_else(|| (0..topology.total_workers()).find(|&u| !self.dead[u as usize]))
    }

    /// Survivor `by` reclaims the expired `lease` at `t`; returns the
    /// range to re-execute.
    pub fn expire(&mut self, lease: LeaseId, by: u32, t: Time) -> (u64, u64) {
        let Lease { owner, lo, hi, .. } = self.leases.reclaim(lease).expect("lease checked active");
        self.recovery.push(RecoveryEvent::LeaseExpired { owner, lo, hi, at_ns: t });
        self.recovery.push(RecoveryEvent::Reclaim { by, owner, lo, hi, at_ns: t });
        self.stats.workers[by as usize].reclaims += 1;
        (lo, hi)
    }

    /// Close the run: the makespan is the last worker's finish, and
    /// everyone else idles up to it.
    pub fn finish(mut self, lock_poll_penalty: Time) -> SimResult {
        let makespan = self.finish_time.iter().copied().max().unwrap_or(0);
        for (w, &ft) in self.finish_time.iter().enumerate() {
            self.trace.record(w as u32, ft, makespan, SegmentKind::Idle);
        }
        self.stats.total_iterations = self.stats.workers.iter().map(|w| w.iterations).sum();
        SimResult {
            makespan,
            stats: self.stats,
            trace: self.trace,
            lock_poll_penalty,
            executed: self.executed,
            rma: self.tape.finish(),
            recovery: self.recovery,
        }
    }
}
