//! Virtual-time executor for the proposed MPI+MPI approach.
//!
//! Every worker is an MPI rank. A free worker takes a sub-chunk from its
//! node's local queue (an `MPI_Win_lock`-guarded shared-memory window,
//! modelled by [`ContendedLock`]). A worker that finds the queue empty
//! *and no refill in flight* marks itself the refiller — "the fastest
//! MPI process always takes this responsibility" — fetches a chunk from
//! the global queue (a passive-target RMA transaction, serialized at the
//! target by a [`Resource`]) and deposits it locally, taking its first
//! sub-chunk under the same lock grant. Workers that find
//! the queue empty while a peer's refill is in flight re-probe after a
//! short back-off instead of blocking — nobody ever waits at a chunk
//! boundary (the paper's Figure 3 scenario).
//!
//! A worker terminates once the global queue is exhausted and its local
//! queue is empty.
//!
//! Every decision inside a critical section — take, empty probe,
//! deposit — is a [`crate::protocol`] call, and the RMA transaction
//! written to the tape is the one that call names, so the synthesized
//! log and a recorded live log describe the same protocol.

use super::run::{Run, Step};
use super::{RunConfig, SimResult};
use crate::layout::{node_win, GLOBAL_WIN};
use crate::protocol::{self, Empty, Fetched, Flags};
use crate::queue::LocalQueue;
use cluster_sim::trace::SegmentKind;
use cluster_sim::{ContendedLock, Time};
use mpisim::RmaEvent;
use workloads::CostTable;

enum Event {
    /// Worker is free: probe the local queue.
    TryLocal(u32),
    /// Worker's RMA request reaches the global queue's host.
    GlobalArrive(u32),
    /// Worker's RMA response arrived: deposit `Some((lo, hi))`, or mark
    /// the node globally done on `None`.
    Deposit(u32, Option<(u64, u64)>),
    /// A recovery-protocol timeout other than a lease expiry fired
    /// (fault injection only).
    Recover(RecoverAction),
}

/// What a survivor does when a recovery timeout expires.
enum RecoverAction {
    /// The node's refill stalled (the refiller died mid-fetch): clear
    /// the flag so a surviving worker takes over the responsibility.
    ClearRefill { node: usize, from: u32 },
    /// The bounded-grant timeout on the node window's FIFO ticket lock
    /// expired with a dead holder inside: revoke its grant.
    Repair { node: usize, dead_holder: u32 },
}

struct NodeState {
    queue: LocalQueue,
    lock: ContendedLock,
    /// The node window's `refilling` / `global_done` flags.
    flags: Flags,
    /// Adaptive weight history (AWF intra), when enabled.
    awf: Option<crate::adaptive::AwfHistory>,
}

/// Fault injection only: the stalled-refill timeout a dead refiller
/// `from` leaves behind on `node`.
fn clear_refill(node: usize, from: u32) -> Event {
    Event::Recover(RecoverAction::ClearRefill { node, from })
}

/// Worker `w` takes a sub-chunk from its node's queue under the lock
/// grant ending at `grant_end`, whose transaction is `tx`, executes it,
/// and probes again after the compute burst; `false`, and nothing done,
/// when the queue is empty. `sched_ns` is the scheduling time the
/// worker spent obtaining the sub-chunk (charged to its AWF history
/// under the -D/-E variants).
fn execute_sub(
    run: &mut Run<Event>,
    node: &mut NodeState,
    w: u32,
    grant_end: Time,
    sched_ns: Time,
    tx: &'static [RmaEvent],
) -> bool {
    let cfg = run.cfg;
    let wpn = cfg.topology.workers_per_node;
    let (node_idx, local) = ((w / wpn) as usize, w % wpn);
    // AWF is *adaptive weighted factoring*: it replaces the intra
    // technique with WF driven by the learned weights.
    let (technique, weight) = match &node.awf {
        Some(h) => (dls::Technique::wf(), h.weight(local)),
        None => (cfg.spec.intra, cfg.weights.get(w as usize).copied().unwrap_or(1.0)),
    };
    let ctx = dls::technique::WorkerCtx { worker: local, weight };
    let Ok(Some(sub)) = protocol::take(&mut node.queue, &technique, wpn, ctx) else { return false };
    run.tape.tx(grant_end, node_win(node_idx), local, tx);
    let cost = run.cost(w, grant_end, sub);
    let crash = cfg.faults.is_active().then(|| cfg.faults.crash_at(w)).flatten();
    if let Some(ct) = crash.filter(|&ct| ct < grant_end + cost) {
        // Took the sub-chunk under the lock, then died before
        // finishing it: the queue counters advanced, so without a
        // lease these iterations would be silently lost. Grant the
        // lease at the take and let its timeout trigger the reclaim.
        let died = ct.max(grant_end);
        if died > grant_end {
            run.trace.record(w, grant_end, died, SegmentKind::Compute);
        }
        run.crash(w, died, false);
        run.lease_out(w, [(sub.start, sub.end)], grant_end, died);
        run.strand(w, &mut node.queue, died);
        return true;
    }
    if let Some(h) = &mut node.awf {
        h.record(local, sub.len(), cost, sched_ns);
    }
    run.compute(w, grant_end, cost, sub);
    run.stats.nodes[node_idx].sub_chunks += 1;
    let next_probe = grant_end + cost + run.jitter.delay(w);
    run.push(next_probe, Event::TryLocal(w));
    true
}

/// Run the MPI+MPI approach in virtual time.
pub fn simulate_mpi_mpi(cfg: &RunConfig, table: &CostTable) -> SimResult {
    let nodes = cfg.topology.nodes;
    let wpn = cfg.topology.workers_per_node;
    let total_workers = cfg.topology.total_workers();
    let m = &cfg.machine;

    let mut run = Run::new(cfg, table, nodes);
    let mut node_states: Vec<NodeState> = (0..nodes)
        .map(|_| NodeState {
            queue: LocalQueue::new(),
            lock: ContendedLock::new(m.shm_poll_penalty_ns),
            flags: Flags::default(),
            awf: cfg.awf.map(|v| crate::adaptive::AwfHistory::new(v, wpn)),
        })
        .collect();
    let single_atomic = cfg.global_mode == crate::config::GlobalQueueMode::SingleAtomic;

    // Fault-injection state. With an inert plan every branch below is
    // dead and the run is bit-for-bit the fault-free one.
    let plan_active = cfg.faults.is_active();
    let rp = cfg.faults.recovery;
    let mut drop_used = vec![false; total_workers as usize];

    if cfg.record_rma {
        for w in 0..total_workers {
            for (win, rank, ev) in protocol::attach(w, total_workers, wpn, single_atomic) {
                run.tape.tx(0, win, rank, &[ev]);
            }
        }
    }

    for w in 0..total_workers {
        let first_probe = run.jitter.delay(w);
        run.push(first_probe, Event::TryLocal(w));
    }

    while let Some((t, step)) = run.pop() {
        let ev = match step {
            Step::Exec(ev) => ev,
            Step::LeaseExpired(lease) => {
                // A dead worker's leased chunk timed out: a survivor
                // re-deposits its range into its own node's queue for
                // re-execution.
                let Some(owner) = run.lease_owner(lease) else {
                    continue;
                };
                let Some(by) = run.survivor(Some(owner)) else {
                    continue; // nobody left alive to reclaim
                };
                let (lo, hi) = run.expire(lease, by, t);
                let target = (by / wpn) as usize;
                node_states[target].queue.deposit(lo, hi);
                run.stats.nodes[target].deposits += 1;
                // Wake the target node's already-finished workers so
                // the re-deposited range gets executed.
                for l in 0..wpn {
                    let u = target as u32 * wpn + l;
                    if !run.dead[u as usize] && run.done[u as usize] {
                        run.done[u as usize] = false;
                        let probe = t + run.jitter.delay(u);
                        run.push(probe, Event::TryLocal(u));
                    }
                }
                continue;
            }
        };
        // Fault layer: drop events of dead workers, and kill a worker
        // whose scheduled crash time has passed — with recovery wired
        // to the protocol role it died in.
        if plan_active {
            let actor = match ev {
                Event::TryLocal(w) | Event::GlobalArrive(w) | Event::Deposit(w, _) => Some(w),
                Event::Recover(_) => None,
            };
            if let Some(w) = actor {
                if run.dead[w as usize] {
                    continue;
                }
                if let Some(ct) = cfg.faults.crash_at(w).filter(|&ct| ct <= t) {
                    let node_idx = (w / wpn) as usize;
                    let reclaim_at = ct + rp.lease_timeout_ns;
                    run.crash(w, ct, false);
                    match ev {
                        // Idle between probes: nothing held, nothing lost.
                        Event::TryLocal(_) => {}
                        // Died as the refiller before the fetch reached
                        // the global queue: the request is lost and the
                        // refilling flag stays set until survivors time
                        // the stalled refill out.
                        Event::GlobalArrive(_) => {
                            run.push(reclaim_at, clear_refill(node_idx, w));
                        }
                        // Died with a fetched chunk in hand: the global
                        // counters already advanced but the deposit
                        // never happened — the lost-chunk hazard the
                        // lease closes.
                        Event::Deposit(_, payload) => {
                            run.lease_out(w, payload, ct, ct);
                            run.push(reclaim_at, clear_refill(node_idx, w));
                        }
                        Event::Recover(_) => unreachable!("recover events have no actor"),
                    }
                    run.strand(w, &mut node_states[node_idx].queue, ct);
                    continue;
                }
            }
        }
        match ev {
            Event::TryLocal(w) => {
                let node_idx = (w / wpn) as usize;
                let node = &mut node_states[node_idx];
                // One MPI_Win_lock / update / MPI_Win_sync / unlock cycle.
                let grant = node.lock.acquire(t, m.shm_lock_hold_ns);
                run.stats.nodes[node_idx].lock_acquisitions += 1;
                if plan_active && cfg.faults.crash_holding_lock_at(w).is_some_and(|ct| ct <= t) {
                    // Dies inside the critical section on its first
                    // lock acquisition past the fault time: the FIFO
                    // ticket lock stays seized by the corpse until a
                    // waiter's bounded-grant timeout expires and the
                    // grant is revoked.
                    let repair_at = grant.start + rp.lock_grant_timeout_ns;
                    node.lock.seize_until(repair_at);
                    run.trace.record(w, t, grant.start, SegmentKind::Sched);
                    run.crash(w, grant.start, true);
                    run.push(
                        repair_at,
                        Event::Recover(RecoverAction::Repair { node: node_idx, dead_holder: w }),
                    );
                    run.strand(w, &mut node.queue, grant.start);
                    continue;
                }
                if grant.queued_ahead > 0 {
                    run.stats.nodes[node_idx].lock_contended += 1;
                }
                run.trace.record(w, t, grant.end, SegmentKind::Sched);
                if !execute_sub(&mut run, node, w, grant.end, grant.end - t, protocol::TAKE) {
                    // The refill responsibility goes to the fastest free
                    // worker under the paper's policy, and under the
                    // ablation to the node's dedicated local master — its
                    // lowest live rank, so the role fails over when the
                    // master dies.
                    let may_refill = cfg.refill == super::RefillPolicy::Fastest
                        || run.dead[node_idx * wpn as usize..w as usize].iter().all(|&d| d);
                    let probe = protocol::empty_probe(&mut node.flags, may_refill);
                    run.tape.tx(grant.end, node_win(node_idx), w % wpn, probe.tx());
                    match probe {
                        Empty::Retire => run.retire(w, grant.end),
                        Empty::Refill => {
                            let mut depart = grant.end
                                + m.net_latency_ns
                                + cfg.faults.message_delay(w, grant.end);
                            if plan_active {
                                if let Some(dt) = cfg.faults.message_drop_at(w) {
                                    if !drop_used[w as usize] && grant.end >= dt {
                                        // The fetch request vanishes on the
                                        // wire; the refiller re-issues it
                                        // after the lease timeout. A double
                                        // fetch would be safe anyway — the
                                        // global counter just hands out the
                                        // next chunk.
                                        drop_used[w as usize] = true;
                                        depart += rp.lease_timeout_ns;
                                    }
                                }
                            }
                            run.push(depart, Event::GlobalArrive(w));
                        }
                        Empty::PeerRefilling => {
                            // A peer's refill is in flight: re-probe shortly.
                            run.trace.record(
                                w,
                                grant.end,
                                grant.end + m.shm_retry_ns,
                                SegmentKind::Sync,
                            );
                            let retry = grant.end + m.shm_retry_ns + run.jitter.delay(w);
                            run.push(retry, Event::TryLocal(w));
                        }
                    }
                }
            }
            Event::GlobalArrive(w) => {
                // Serialized service at the global queue's host; then the
                // response travels back and the origin runs the
                // distributed chunk calculation. The lock-guarded
                // two-counter variant pays two extra round trips of two
                // messages each (MPI_Win_lock + MPI_Win_unlock) per fetch.
                let served = run.request_global(t, m.rma_service_ns);
                let mode_extra = match cfg.global_mode {
                    crate::config::GlobalQueueMode::SingleAtomic => 0,
                    crate::config::GlobalQueueMode::LockedCounters => 2 * (2 * m.net_latency_ns),
                };
                let resp = served
                    + m.net_latency_ns
                    + m.chunk_calc_ns
                    + mode_extra
                    + cfg.faults.message_delay(w, served);
                run.trace.record(w, t, resp, SegmentKind::Sched);
                let payload = run.fetch(Some(w));
                // The RMA transaction at the global queue's host, keyed
                // by its serialized service completion so exclusive
                // epochs of distinct fetches never overlap.
                let tx = protocol::global_fetch(cfg.global_mode, payload.is_some());
                run.tape.tx(served, GLOBAL_WIN, w, tx);
                if plan_active {
                    if let Some(k) = cfg.faults.crash_as_refiller_after(w) {
                        if run.stats.workers[w as usize].global_fetches >= u64::from(k) {
                            // Dies right after the fetch-and-op lands:
                            // the global counters advanced but the
                            // chunk never reaches the node queue.
                            let node_idx = (w / wpn) as usize;
                            run.crash(w, served, false);
                            run.lease_out(w, payload, served, served);
                            run.push(served + rp.lease_timeout_ns, clear_refill(node_idx, w));
                            run.strand(w, &mut node_states[node_idx].queue, served);
                            continue;
                        }
                    }
                }
                run.push(resp, Event::Deposit(w, payload));
            }
            Event::Deposit(w, payload) => {
                let node_idx = (w / wpn) as usize;
                let node = &mut node_states[node_idx];
                let grant = node.lock.acquire(t, m.shm_lock_hold_ns);
                run.stats.nodes[node_idx].lock_acquisitions += 1;
                if grant.queued_ahead > 0 {
                    run.stats.nodes[node_idx].lock_contended += 1;
                }
                run.trace.record(w, t, grant.end, SegmentKind::Sched);
                let fetched = payload.map_or(Fetched::Done, |(lo, hi)| Fetched::Chunk(lo, hi));
                let Ok(tx) = protocol::deposit(&mut node.queue, &mut node.flags, fetched);
                if payload.is_some() {
                    // The refiller takes the deposit's first sub-chunk
                    // under this grant.
                    run.stats.nodes[node_idx].deposits += 1;
                    let took = execute_sub(&mut run, node, w, grant.end, grant.end - t, tx);
                    assert!(took, "the deposit is in the queue");
                    continue;
                }
                run.tape.tx(grant.end, node_win(node_idx), w % wpn, tx);
                if node.queue.is_empty() {
                    run.retire(w, grant.end);
                } else {
                    // The refiller itself may still find leftovers
                    // deposited by racing peers; re-probe once.
                    let probe = grant.end + run.jitter.delay(w);
                    run.push(probe, Event::TryLocal(w));
                }
            }
            Event::Recover(action) => match action {
                RecoverAction::ClearRefill { node: ni, from } => {
                    let node = &mut node_states[ni];
                    if node.flags.refilling {
                        node.flags.refilling = false;
                        run.recovery.push(resilience::RecoveryEvent::RefillFailover {
                            node: ni as u32,
                            from,
                            at_ns: t,
                        });
                    }
                }
                RecoverAction::Repair { node: ni, dead_holder } => {
                    // The analytic lock already released the seized
                    // grant at this timestamp; attribute the revocation
                    // to the node's first surviving waiter.
                    let by = (0..wpn)
                        .map(|l| ni as u32 * wpn + l)
                        .find(|&u| !run.dead[u as usize])
                        .or_else(|| (0..total_workers).find(|&u| !run.dead[u as usize]));
                    if let Some(by) = by {
                        run.recovery.push(resilience::RecoveryEvent::LockRepair {
                            node: ni as u32,
                            dead_holder,
                            by,
                            at_ns: t,
                        });
                        run.stats.workers[by as usize].reclaims += 1;
                    }
                }
            },
        }
    }

    for (i, node) in node_states.iter().enumerate() {
        run.stats.nodes[i].lock_polls = node.lock.polls();
        run.stats.nodes[i].lock_revocations = node.lock.revocations();
    }
    if cfg.record_rma && single_atomic {
        // Close each worker's run-long global-window epoch where its
        // last probe released the node lock.
        for w in 0..total_workers {
            run.tape.tx(run.finish_time[w as usize], GLOBAL_WIN, w, &[RmaEvent::UnlockAll]);
        }
    }
    run.finish(node_states.iter().map(|n| n.lock.total_penalty()).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HierSpec};
    use crate::sim::assert_covers;
    use dls::Kind;
    use workloads::synthetic::Synthetic;

    fn run(spec: HierSpec, nodes: u32, wpn: u32, n: u64) -> SimResult {
        let w = Synthetic::uniform(n, 50, 500, 7);
        let table = CostTable::build(&w);
        let mut cfg = RunConfig::new(nodes, wpn, spec, Approach::MpiMpi);
        cfg.record_chunks = true;
        simulate_mpi_mpi(&cfg, &table)
    }

    #[test]
    fn executes_every_iteration_exactly_once() {
        for inter in [Kind::STATIC, Kind::GSS, Kind::TSS, Kind::FAC2] {
            for intra in [Kind::STATIC, Kind::SS, Kind::GSS, Kind::TSS, Kind::FAC2] {
                let r = run(HierSpec::new(inter, intra), 4, 4, 3000);
                assert_covers(&r, 3000);
            }
        }
    }

    #[test]
    fn single_node_single_worker() {
        let r = run(HierSpec::new(Kind::GSS, Kind::GSS), 1, 1, 100);
        assert_covers(&r, 100);
        assert!(r.makespan > 0);
    }

    #[test]
    fn deterministic() {
        let a = run(HierSpec::new(Kind::GSS, Kind::STATIC), 4, 4, 2000);
        let b = run(HierSpec::new(Kind::GSS, Kind::STATIC), 4, 4, 2000);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.executed, b.executed);
    }

    #[test]
    fn more_nodes_faster() {
        let slow = run(HierSpec::new(Kind::GSS, Kind::GSS), 2, 4, 20_000);
        let fast = run(HierSpec::new(Kind::GSS, Kind::GSS), 8, 4, 20_000);
        assert!(
            fast.makespan < slow.makespan,
            "8 nodes ({}) should beat 2 nodes ({})",
            fast.makespan,
            slow.makespan
        );
    }

    #[test]
    fn static_inter_one_chunk_per_node() {
        let r = run(HierSpec::new(Kind::STATIC, Kind::GSS), 4, 2, 1000);
        let fetches: u64 = r.stats.workers.iter().map(|w| w.global_fetches).sum();
        assert_eq!(fetches, 4, "STATIC inter over 4 nodes = 4 chunks");
        // The refill-flag protocol must spread them one per node.
        for n in &r.stats.nodes {
            assert_eq!(n.deposits, 1);
        }
    }

    #[test]
    fn ss_intra_contends_on_the_lock() {
        let r = run(HierSpec::new(Kind::STATIC, Kind::SS), 2, 8, 4000);
        assert!(r.lock_poll_penalty > 0, "SS must trigger lock polling");
        let contended: u64 = r.stats.nodes.iter().map(|n| n.lock_contended).sum();
        assert!(contended > 0);
        let polls: u64 = r.stats.nodes.iter().map(|n| n.lock_polls).sum();
        assert!(polls >= contended, "each contended acquire polls at least once");
    }

    #[test]
    fn static_intra_less_lock_pressure_than_ss() {
        let ss = run(HierSpec::new(Kind::STATIC, Kind::SS), 2, 8, 4000);
        let st = run(HierSpec::new(Kind::STATIC, Kind::STATIC), 2, 8, 4000);
        assert!(st.lock_poll_penalty < ss.lock_poll_penalty);
        let acq =
            |r: &SimResult| -> u64 { r.stats.nodes.iter().map(|n| n.lock_acquisitions).sum() };
        assert!(acq(&st) < acq(&ss));
    }

    #[test]
    fn slowdown_injection_shifts_work_away() {
        // Compute-dominated iterations (50 us >> lock hold), so the
        // lock never equalises the workers by itself.
        let w = Synthetic::constant(4000, 50_000);
        let table = CostTable::build(&w);
        let mut cfg = RunConfig::new(1, 4, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        cfg.faults = resilience::FaultPlan::straggler(0, 4.0); // worker 0 is 4x slower
        let r = simulate_mpi_mpi(&cfg, &table);
        assert_eq!(r.stats.total_iterations, 4000);
        let iters: Vec<u64> = r.stats.workers.iter().map(|w| w.iterations).collect();
        assert!(
            iters[0] < iters[1] / 2,
            "SS must give the slow worker far fewer iterations: {iters:?}"
        );
    }

    #[test]
    fn trace_records_when_enabled() {
        let w = Synthetic::constant(200, 100);
        let table = CostTable::build(&w);
        let mut cfg = RunConfig::new(1, 2, HierSpec::new(Kind::GSS, Kind::GSS), Approach::MpiMpi);
        cfg.trace = true;
        let r = simulate_mpi_mpi(&cfg, &table);
        assert!(!r.trace.segments().is_empty());
        let totals = r.trace.totals();
        assert!(totals.compute > 0);
        assert!(totals.sched > 0);
    }
}
