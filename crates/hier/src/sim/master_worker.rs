//! The master-worker execution models the paper's related work builds
//! on — implemented as virtual-time executors so the paper's motivation
//! ("for a large number of workers, the master becomes a performance
//! bottleneck") is reproducible, not just cited.
//!
//! * **Flat master-worker** (DLB-tool style, Cariño & Banicescu): every
//!   worker requests its next chunk directly from one global master
//!   over the network; the chunk calculus runs at the master with the
//!   technique spanning *all* workers.
//! * **Hierarchical master-worker** (HDSS style, Chronopoulos et al.):
//!   a dedicated global master hands chunks to per-node local masters
//!   (inter-node technique over nodes); workers request sub-chunks from
//!   their local master over intra-node messages (intra technique over
//!   the node's workers).
//!
//! Both masters are *dedicated* processes: they serve requests
//! serially ([`Resource`]) but do not execute iterations — exactly the
//! serialization the distributed chunk-calculation approach and the
//! paper's shared work queues remove.

use super::{SimConfig, SimResult};
use crate::queue::LocalQueue;
use crate::stats::RunStats;
use cluster_sim::trace::SegmentKind;
use cluster_sim::{EventQueue, Resource, Time, Trace};
use dls::{ChunkCalculator, LoopSpec, SchedState};
use workloads::CostTable;

enum Event {
    /// Worker `w`'s request reaches its serving master.
    RequestArrive(u32),
    /// A local master's forwarded request reaches the global master
    /// (hierarchical only); `u32` is the node.
    GlobalArrive(u32),
    /// The global master's chunk (or exhaustion notice) reaches node
    /// `u32`'s local master.
    ChunkArrive(u32, Option<(u64, u64)>),
    /// A reply with a sub-chunk (or exhaustion) reaches worker `w`.
    Reply(u32, Option<(u64, u64)>),
    /// A dead worker's chunk lease timed out (fault injection only).
    /// The masters are modelled as reliable; only workers crash.
    Reclaim { lease: resilience::LeaseId },
}

struct MasterState {
    queue: LocalQueue,
    service: Resource,
    /// Workers whose requests wait for a chunk in flight from the
    /// global master.
    pending: std::collections::VecDeque<u32>,
    refilling: bool,
    global_done: bool,
}

/// Run the flat (single-master) model: chunk calculus at the global
/// master with the *inter* technique over all workers.
pub fn simulate_flat_master_worker(cfg: &SimConfig, table: &CostTable) -> SimResult {
    simulate_master_worker_inner(cfg, table, true)
}

/// Run the hierarchical master-worker model (HDSS style).
pub fn simulate_master_worker(cfg: &SimConfig, table: &CostTable) -> SimResult {
    simulate_master_worker_inner(cfg, table, false)
}

fn simulate_master_worker_inner(cfg: &SimConfig, table: &CostTable, flat: bool) -> SimResult {
    let nodes = cfg.topology.nodes;
    let wpn = cfg.topology.workers_per_node;
    let total_workers = cfg.topology.total_workers();
    let n_iters = table.n_iters();
    let m = &cfg.machine;

    // Flat: one level, technique over all workers. Hierarchical: inter
    // over nodes feeding per-node local queues.
    let global_spec = LoopSpec::new(n_iters, if flat { total_workers } else { nodes });
    let mut global_state = SchedState::START;
    let mut global_master = Resource::new();
    let mut locals: Vec<MasterState> = (0..nodes)
        .map(|_| MasterState {
            queue: LocalQueue::new(),
            service: Resource::new(),
            pending: std::collections::VecDeque::new(),
            refilling: false,
            global_done: false,
        })
        .collect();

    let mut stats = RunStats::new(total_workers as usize, nodes as usize);
    let mut trace = if cfg.trace { Trace::recording() } else { Trace::disabled() };
    let mut executed = Vec::new();
    let mut events = EventQueue::new();
    let mut finish_time = vec![0 as Time; total_workers as usize];
    let mut request_sent = vec![0 as Time; total_workers as usize];

    // Fault-injection state: only workers crash (the masters are
    // modelled reliable — the paper's related-work schemes assume a
    // living master). A chunk replied to a worker that dies before
    // completing it is leased and re-issued by the master once the
    // lease times out.
    let plan_active = cfg.faults.is_active();
    let rp = cfg.faults.recovery;
    let mut dead = vec![false; total_workers as usize];
    let mut done = vec![false; total_workers as usize];
    let mut reclaim_pool: Vec<(u64, u64)> = Vec::new();
    let mut leases = resilience::LeaseTable::new();
    let mut recovery: Vec<resilience::RecoveryEvent> = Vec::new();
    let crash_time = |w: u32| -> Option<Time> {
        match (cfg.faults.crash_at(w), cfg.faults.crash_holding_lock_at(w)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    };

    for w in 0..total_workers {
        request_sent[w as usize] = 0;
        let lat = if flat { m.net.latency_ns } else { m.intra_msg_latency_ns };
        events.push(lat, Event::RequestArrive(w));
    }

    while let Some((t, ev)) = events.pop() {
        // Fault layer: drop events of dead workers (leasing any chunk
        // still in flight to the corpse) and kill workers whose crash
        // time has passed.
        if plan_active {
            let actor = match ev {
                Event::RequestArrive(w) | Event::Reply(w, _) => Some(w),
                _ => None,
            };
            if let Some(w) = actor {
                let lease_in_flight = |leases: &mut resilience::LeaseTable,
                                       events: &mut EventQueue<Event>,
                                       at: Time| {
                    if let Event::Reply(_, Some((lo, hi))) = ev {
                        // The master detects the undeliverable reply
                        // and leases the chunk for re-issue.
                        let id = leases.grant(w, lo, hi, at);
                        events.push(at + rp.lease_timeout_ns, Event::Reclaim { lease: id });
                    }
                };
                if dead[w as usize] {
                    lease_in_flight(&mut leases, &mut events, t);
                    continue;
                }
                if let Some(ct) = crash_time(w).filter(|&ct| ct <= t) {
                    dead[w as usize] = true;
                    finish_time[w as usize] = ct;
                    recovery.push(resilience::RecoveryEvent::Crash {
                        rank: w,
                        at_ns: ct,
                        holding_lock: false,
                    });
                    lease_in_flight(&mut leases, &mut events, ct);
                    // Last live worker of a node: the local master's
                    // remaining queue has nobody to serve — lease it
                    // out for migration (hierarchical only).
                    let node = (w / wpn) as usize;
                    if !flat && (0..wpn as usize).all(|l| dead[node * wpn as usize + l]) {
                        for (lo, hi) in locals[node].queue.drain_remaining() {
                            let id = leases.grant(w, lo, hi, ct);
                            events.push(ct + rp.lease_timeout_ns, Event::Reclaim { lease: id });
                        }
                    }
                    continue;
                }
            }
        }
        match ev {
            Event::RequestArrive(w) if flat => {
                // Served directly by the global master. Reclaimed
                // chunks are re-issued before fresh ones.
                let (_, served) = global_master.request(t, m.master_service_ns);
                stats.global_accesses += 1;
                let payload = if let Some(range) = reclaim_pool.pop() {
                    Some(range)
                } else if global_state.exhausted(&global_spec) {
                    None
                } else {
                    let size = cfg.spec.inter.chunk_size(
                        &global_spec,
                        global_state,
                        dls::technique::WorkerCtx::default(),
                    );
                    let c = global_state.take(&global_spec, size).expect("not exhausted");
                    stats.workers[w as usize].global_fetches += 1;
                    Some((c.start, c.end()))
                };
                events.push(served + m.net.latency_ns, Event::Reply(w, payload));
            }
            Event::RequestArrive(w) => {
                let node = (w / wpn) as usize;
                let lm = &mut locals[node];
                let (_, served) = lm.service.request(t, m.master_service_ns);
                match lm.queue.take_sub_chunk(&cfg.spec.intra, wpn) {
                    Some(sub) => {
                        events.push(
                            served + m.intra_msg_latency_ns,
                            Event::Reply(w, Some((sub.start, sub.end))),
                        );
                        stats.nodes[node].sub_chunks += 1;
                    }
                    None if lm.global_done => {
                        events.push(served + m.intra_msg_latency_ns, Event::Reply(w, None));
                    }
                    None => {
                        lm.pending.push_back(w);
                        if !lm.refilling {
                            lm.refilling = true;
                            events
                                .push(served + m.net.latency_ns, Event::GlobalArrive(node as u32));
                        }
                    }
                }
            }
            Event::GlobalArrive(node) => {
                let (_, served) = global_master.request(t, m.master_service_ns);
                stats.global_accesses += 1;
                let payload = if global_state.exhausted(&global_spec) {
                    None
                } else {
                    let size = cfg.spec.inter.chunk_size(
                        &global_spec,
                        global_state,
                        dls::technique::WorkerCtx::default(),
                    );
                    let c = global_state.take(&global_spec, size).expect("not exhausted");
                    Some((c.start, c.end()))
                };
                events.push(served + m.net.latency_ns, Event::ChunkArrive(node, payload));
            }
            Event::ChunkArrive(node, payload) => {
                let node_idx = node as usize;
                let lm = &mut locals[node_idx];
                lm.refilling = false;
                match payload {
                    Some((lo, hi)) => {
                        lm.queue.deposit(lo, hi);
                        stats.nodes[node_idx].deposits += 1;
                        // Serve the waiting workers in arrival order;
                        // each reply is one more master service.
                        let mut reply_t = t;
                        while let Some(w) = lm.pending.pop_front() {
                            let (_, served) = lm.service.request(reply_t, m.master_service_ns);
                            reply_t = served;
                            match lm.queue.take_sub_chunk(&cfg.spec.intra, wpn) {
                                Some(sub) => {
                                    stats.nodes[node_idx].sub_chunks += 1;
                                    events.push(
                                        served + m.intra_msg_latency_ns,
                                        Event::Reply(w, Some((sub.start, sub.end))),
                                    );
                                }
                                None => {
                                    // Chunk already drained: the
                                    // remaining waiters trigger another
                                    // refill round.
                                    lm.pending.push_front(w);
                                    if !lm.refilling && !lm.global_done {
                                        lm.refilling = true;
                                        events.push(
                                            served + m.net.latency_ns,
                                            Event::GlobalArrive(node),
                                        );
                                    }
                                    break;
                                }
                            }
                        }
                    }
                    None => {
                        lm.global_done = true;
                        while let Some(w) = lm.pending.pop_front() {
                            let (_, served) = lm.service.request(t, m.master_service_ns);
                            events.push(served + m.intra_msg_latency_ns, Event::Reply(w, None));
                        }
                    }
                }
            }
            Event::Reply(w, payload) => {
                trace.record(w, request_sent[w as usize], t, SegmentKind::Sched);
                match payload {
                    Some((lo, hi)) => {
                        let cost = cfg.cost_at(w, t, table.range_cost(lo, hi));
                        if plan_active {
                            if let Some(ct) = crash_time(w).filter(|&ct| ct < t + cost) {
                                // Took the chunk, died before finishing
                                // it: lease it so the master re-issues
                                // the whole range after the timeout.
                                dead[w as usize] = true;
                                finish_time[w as usize] = ct;
                                trace.record(w, t, ct, SegmentKind::Compute);
                                recovery.push(resilience::RecoveryEvent::Crash {
                                    rank: w,
                                    at_ns: ct,
                                    holding_lock: false,
                                });
                                let id = leases.grant(w, lo, hi, t);
                                events.push(ct + rp.lease_timeout_ns, Event::Reclaim { lease: id });
                                let node = (w / wpn) as usize;
                                if !flat && (0..wpn as usize).all(|l| dead[node * wpn as usize + l])
                                {
                                    for (qlo, qhi) in locals[node].queue.drain_remaining() {
                                        let id = leases.grant(w, qlo, qhi, ct);
                                        events.push(
                                            ct + rp.lease_timeout_ns,
                                            Event::Reclaim { lease: id },
                                        );
                                    }
                                }
                                continue;
                            }
                        }
                        trace.record(w, t, t + cost, SegmentKind::Compute);
                        stats.workers[w as usize].iterations += hi - lo;
                        stats.workers[w as usize].sub_chunks += 1;
                        if cfg.record_chunks {
                            executed.push((w, crate::queue::SubChunk { start: lo, end: hi }));
                        }
                        let fin = t + cost;
                        request_sent[w as usize] = fin;
                        let lat = if flat { m.net.latency_ns } else { m.intra_msg_latency_ns };
                        events.push(
                            fin + lat + cfg.faults.message_delay(w, fin),
                            Event::RequestArrive(w),
                        );
                    }
                    None => {
                        finish_time[w as usize] = t;
                        done[w as usize] = true;
                    }
                }
            }
            Event::Reclaim { lease } => {
                let Some(&resilience::Lease { owner, .. }) = leases.get(lease) else {
                    continue;
                };
                // Elect the surviving worker the re-issued chunk goes
                // to: prefer the dead owner's node (hierarchical),
                // prefer ranks without a pending crash of their own.
                let pick = |ni: usize| {
                    (0..wpn)
                        .map(|l| ni as u32 * wpn + l)
                        .find(|&u| !dead[u as usize] && !cfg.faults.crashes(u))
                };
                let by = if flat {
                    (0..total_workers)
                        .find(|&u| !dead[u as usize] && !cfg.faults.crashes(u))
                        .or_else(|| (0..total_workers).find(|&u| !dead[u as usize]))
                } else {
                    pick((owner / wpn) as usize)
                        .or_else(|| (0..nodes as usize).find_map(pick))
                        .or_else(|| (0..total_workers).find(|&u| !dead[u as usize]))
                };
                let Some(by) = by else {
                    continue; // nobody left alive to reclaim
                };
                let resilience::Lease { lo, hi, .. } =
                    leases.reclaim(lease).expect("lease checked active");
                recovery.push(resilience::RecoveryEvent::LeaseExpired { owner, lo, hi, at_ns: t });
                recovery.push(resilience::RecoveryEvent::Reclaim { by, owner, lo, hi, at_ns: t });
                stats.workers[by as usize].reclaims += 1;
                if flat {
                    reclaim_pool.push((lo, hi));
                    if done[by as usize] {
                        done[by as usize] = false;
                        request_sent[by as usize] = t;
                        events.push(t + m.net.latency_ns, Event::RequestArrive(by));
                    }
                } else {
                    let target = (by / wpn) as usize;
                    locals[target].queue.deposit(lo, hi);
                    stats.nodes[target].deposits += 1;
                    for l in 0..wpn {
                        let u = target as u32 * wpn + l;
                        if !dead[u as usize] && done[u as usize] {
                            done[u as usize] = false;
                            request_sent[u as usize] = t;
                            events.push(t + m.intra_msg_latency_ns, Event::RequestArrive(u));
                        }
                    }
                }
            }
        }
    }

    let makespan = finish_time.iter().copied().max().unwrap_or(0);
    for (w, &ft) in finish_time.iter().enumerate() {
        trace.record(w as u32, ft, makespan, SegmentKind::Idle);
    }
    stats.total_iterations = stats.workers.iter().map(|w| w.iterations).sum();

    SimResult { makespan, stats, trace, lock_poll_penalty: 0, executed, rma: Vec::new(), recovery }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HierSpec};
    use cluster_sim::{MachineParams, SimTopology};
    use dls::verify::check_exactly_once;
    use dls::Kind;
    use workloads::synthetic::Synthetic;

    fn cfg(spec: HierSpec, nodes: u32, wpn: u32) -> SimConfig {
        let mut c = SimConfig::new(
            SimTopology::new(nodes, wpn),
            MachineParams::default(),
            spec,
            Approach::MpiMpi, // unused by these executors
        );
        c.record_chunks = true;
        c
    }

    fn assert_covers(r: &SimResult, n: u64) {
        let chunks: Vec<dls::Chunk> = r
            .executed
            .iter()
            .map(|(_, s)| dls::Chunk { start: s.start, len: s.len(), step: 0 })
            .collect();
        check_exactly_once(&chunks, n).expect("exactly-once");
        assert_eq!(r.stats.total_iterations, n);
    }

    #[test]
    fn hierarchical_covers_exactly_once() {
        for inter in [Kind::STATIC, Kind::GSS, Kind::FAC2] {
            for intra in [Kind::STATIC, Kind::SS, Kind::GSS] {
                let w = Synthetic::uniform(2_000, 20, 300, 3);
                let table = CostTable::build(&w);
                let r = simulate_master_worker(&cfg(HierSpec::new(inter, intra), 3, 4), &table);
                assert_covers(&r, 2_000);
            }
        }
    }

    #[test]
    fn flat_covers_exactly_once() {
        for tech in [Kind::SS, Kind::GSS, Kind::FAC2] {
            let w = Synthetic::uniform(2_000, 20, 300, 3);
            let table = CostTable::build(&w);
            let r = simulate_flat_master_worker(&cfg(HierSpec::new(tech, tech), 3, 4), &table);
            assert_covers(&r, 2_000);
        }
    }

    #[test]
    fn flat_master_bottlenecks_at_scale() {
        // Cheap iterations + SS: the flat master serializes every
        // single-iteration request from 256 workers.
        let w = Synthetic::constant(100_000, 2_000);
        let table = CostTable::build(&w);
        let flat =
            simulate_flat_master_worker(&cfg(HierSpec::new(Kind::SS, Kind::SS), 16, 16), &table);
        let hier = simulate_master_worker(&cfg(HierSpec::new(Kind::GSS, Kind::SS), 16, 16), &table);
        // The flat master handles one request per iteration, serially.
        let serialized = 100_000 * MachineParams::default().master_service_ns;
        assert!(flat.makespan >= serialized);
        assert!(
            flat.makespan > 2 * hier.makespan,
            "flat {} should be far worse than hierarchical {}",
            flat.makespan,
            hier.makespan
        );
    }

    #[test]
    fn hierarchical_close_to_mpi_mpi_but_not_better() {
        // The dedicated-master model pays message latency per sub-chunk;
        // the paper's shared-queue approach avoids the middleman.
        let w = Synthetic::uniform(20_000, 5_000, 50_000, 9);
        let table = CostTable::build(&w);
        let c = cfg(HierSpec::new(Kind::GSS, Kind::GSS), 4, 8);
        let mw = simulate_master_worker(&c, &table);
        let mpi = super::super::simulate_mpi_mpi(&c, &table);
        assert_covers(&mw, 20_000);
        assert!(
            mw.makespan as f64 >= 0.95 * mpi.makespan as f64,
            "master-worker ({}) should not beat the shared queue ({})",
            mw.makespan,
            mpi.makespan
        );
    }

    #[test]
    fn deterministic() {
        let w = Synthetic::uniform(1_000, 10, 100, 1);
        let table = CostTable::build(&w);
        let c = cfg(HierSpec::new(Kind::TSS, Kind::GSS), 2, 3);
        let a = simulate_master_worker(&c, &table);
        let b = simulate_master_worker(&c, &table);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn single_worker_cluster() {
        let w = Synthetic::constant(50, 1_000);
        let table = CostTable::build(&w);
        let r = simulate_master_worker(&cfg(HierSpec::new(Kind::GSS, Kind::GSS), 1, 1), &table);
        assert_covers(&r, 50);
    }
}
